"""Tests for the Monte-Carlo protocol simulator."""

import dataclasses
import math
import threading
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from awgn_feedback import (
    ChannelParams,
    JsccParams,
    SchemeConfig,
    cubic_lattice,
    effective_snr,
    estimate_error_prob,
    make_lattice,
    modulo,
    run_coupled_trial,
    run_trial,
    sample_dither,
    wilson_interval,
    wz_encode,
    wz_receive,
)
from awgn_feedback import sim
from awgn_feedback.sim import _decode_index, _run_block

P = ChannelParams.from_snrs(100.0, 1000.0)
NOISELESS_FB = ChannelParams(p=1.0, p_tilde=1.0, sigma2=0.01, sigma2_tilde=0.0)


def make_config(**kw):
    base = dict(
        params=P,
        rounds=3,
        looseness=40.0,
        lattice=cubic_lattice(1),
        rate_bits=0.5,
        master_seed=99,
    )
    base.update(kw)
    return SchemeConfig(**base)


# -----------------------------------------------------------------------------
# the gamma/beta/variance schedule
# -----------------------------------------------------------------------------

def test_gamma_sets_feedback_power_budget():
    """gamma_k^2 sigma_k^2 + fb noise variance == P~ / L at every round."""
    for L in (1.0, 40.0, 5000.0):
        cfg = make_config(rounds=6, looseness=L)
        assert len(cfg.gains) == 5
        for g, s in zip(cfg.gains, cfg.sigmas2):
            assert g * g * s + P.sigma2_tilde == pytest.approx(
                P.p_tilde / L, rel=1e-12
            )


def test_alpha_restores_forward_power():
    for L in (1.0, 40.0, 5000.0):
        a = make_config(looseness=L).alpha
        # alpha^2 * (P~/L) == P
        assert a * a * P.p_tilde / L == pytest.approx(P.p, rel=1e-12)


def test_gamma_domain():
    """No feedback power left (num <= 0) fails only if a round needs gamma."""
    params = ChannelParams.from_snrs(10.0, 100.0)
    L = math.nextafter(params.bsnr, 0.0)  # P~/L - fb noise var rounds to 0
    assert params.p_tilde / L - params.sigma2_tilde <= 0.0
    cfg = make_config(params=params, rounds=1, looseness=L)
    assert cfg.gains == cfg.betas == ()
    with pytest.raises(ValueError, match="no signal power"):
        make_config(params=params, rounds=2, looseness=L)


@pytest.mark.parametrize("looseness", [0.0, 2.0])
def test_schedule_underflow_names_the_round(looseness):
    """A variance too small for a finite gain stops construction at the
    round that needs the gain."""
    params = ChannelParams(1.0, 1.0, 1e-12, 1e-16 if looseness else 0.0)
    with pytest.raises(ValueError, match=r"^round (\d+) has no finite gain") as e:
        make_config(params=params, rounds=100, looseness=looseness,
                    rate_bits=0.0)
    k = int(e.value.args[0].split()[1])
    # the schedule of k - 1 rounds builds with finite gains, and the error
    # names its last variance
    cfg = make_config(params=params, rounds=k - 1, looseness=looseness,
                      rate_bits=0.0)
    assert all(map(math.isfinite, cfg.gains + cfg.betas))
    assert f"before it is {cfg.sigmas2[-1]!r};" in e.value.args[0]


@pytest.mark.parametrize("dsnr, looseness", [(1e10, 4.0), (math.inf, 0.0)],
                         ids=["noisy", "exact"])
def test_schedule_rejects_a_gain_that_overflows(dsnr, looseness):
    """At round 32 the variance is subnormal (~1e-310): the gain overflows
    to inf and its correction to nan, so construction fails there."""
    params = ChannelParams.from_snrs(1e10, dsnr)
    cfg = make_config(params=params, rounds=31, looseness=looseness,
                      rate_bits=0.05, master_seed=1)
    assert all(map(math.isfinite, cfg.gains + cfg.betas))
    with pytest.raises(ValueError, match="^round 32 has no finite gain"):
        make_config(params=params, rounds=32, looseness=looseness,
                    rate_bits=0.05, master_seed=1)


def test_schedule_last_round_survives_an_overflowing_square():
    """At snr 1058 the last of 103 rounds has a finite gain whose (alpha g)^2
    overflows; its beta and variance stay positive and finite, not 0."""
    params = ChannelParams.from_snrs(1058.0, 1e3)
    cfg = make_config(params=params, rounds=103, looseness=4.0, rate_bits=0.0,
                      master_seed=1)
    ag = cfg.alpha * cfg.gains[-1]
    assert ag * ag == math.inf
    assert 0.0 < cfg.betas[-1] < math.inf
    assert 0.0 < cfg.sigmas2[-1] < cfg.sigmas2[-2]
    with pytest.raises(ValueError, match="^round 104 has no finite gain"):
        make_config(params=params, rounds=104, looseness=4.0, rate_bits=0.0,
                    master_seed=1)


def test_wiener_update_contraction():
    """sigma_{k+1}^2 / sigma_k^2 == (1 + L/dsnr) / (1 + snr) every round."""
    for L in (1.0, 40.0, 2e4):
        cfg = make_config(rounds=4, looseness=L)
        for s, s_next in zip(cfg.sigmas2, cfg.sigmas2[1:]):
            assert s_next == pytest.approx(
                s * (1.0 + L / P.dsnr) / (1.0 + P.snr), rel=1e-12
            )


def test_wiener_update_exact_feedback_limit():
    cfg = make_config(params=NOISELESS_FB, rounds=4, looseness=0.0)
    for s, s_next in zip(cfg.sigmas2, cfg.sigmas2[1:]):
        assert s_next == pytest.approx(s / (1.0 + 100.0), rel=1e-12)
    with pytest.raises(ValueError):
        make_config(looseness=0.0)  # noisy link cannot use looseness 0


# float.hex of (alpha, gains, betas, sigmas2), recorded before the schedule
# was folded into one loop: a reordered floating-point operation moves them
SCHEDULE_BITS = {
    "noisy K=3 L=40": (
        (P, 3, 40.0),
        "0x1.94c583ada5b53p+2",
        ("0x1.94b0c9b9e3616p+0", "0x1.f28383c623cfap+3"),
        ("0x1.9576a3d5e65b6p-4", "0x1.4927238dc4e77p-7"),
        ("0x1.47ae147ae147bp-7", "0x1.afe383b994cc2p-14",
         "0x1.1c9e73661fc08p-20"),
    ),
    "noisy K=5 L=200": (
        (P, 5, 200.0),
        "0x1.c48c6001f0ac0p+3",
        ("0x1.69ad2bf6e92d3p-1", "0x1.9ec366f7e30a2p+2",
         "0x1.dba467d161517p+5", "0x1.10ba7cb4ff9fbp+9"),
        ("0x1.952388d9c6488p-4", "0x1.6148a981f1c4cp-7",
         "0x1.3410e1b95d7d8p-10", "0x1.0ca2b8a7c0752p-13"),
        ("0x1.47ae147ae147bp-7", "0x1.f255493897ff8p-14",
         "0x1.7aee38b0dd052p-20", "0x1.2023258801ca2p-26",
         "0x1.b63268ba8fa5ep-33"),
    ),
    "noisy K=2 L=1": (
        (P, 2, 1.0),
        "0x1.0000000000000p+0",
        ("0x1.3fff972463258p+3",),
        ("0x1.958ae3081843cp-4",),
        ("0x1.47ae147ae147bp-7", "0x1.9fb161fc38d16p-14"),
    ),
    "noisy K=8 L=2.5": (
        (ChannelParams.from_snrs(1000.0, 31.6), 8, 2.5),
        "0x1.94c583ada5b53p+0",
        ("0x1.3ffcc269fa08dp+4", "0x1.308e2a6277259p+9",
         "0x1.21de18c2636f4p+14", "0x1.13e35d4c5bbd0p+19",
         "0x1.06953933f644dp+24", "0x1.f3d6b34a68035p+28",
         "0x1.dbbba51efb03dp+33"),
        ("0x1.02c8e59c627dfp-5", "0x1.0fe5c4ffc2a3fp-10",
         "0x1.1dacbca8c9e1cp-15", "0x1.2c266b01c3e28p-20",
         "0x1.3b5bde41e4f2cp-25", "0x1.4b569a178739ep-30",
         "0x1.5c209d9be3fd2p-35"),
        ("0x1.0624dd2f1a9fcp-10", "0x1.21620fe838743p-20",
         "0x1.3f73d6299f494p-30", "0x1.60a57a24c27f2p-40",
         "0x1.854a18ccf479ep-50", "0x1.adbd71f206dd3p-60",
         "0x1.da64cdfa9dec2p-70", "0x1.05d7fdbeb61a2p-79"),
    ),
    "noisy K=3 L=nextafter(bsnr)": (
        (P, 3, math.nextafter(P.bsnr, 0.0)),
        "0x1.3c3a4edfa9758p+8",
        ("0x1.c48c6001f0ac0p-32", "0x1.c48c6001f0ac0p-32"),
        ("0x1.623a84e81c456p-30", "0x1.623a84e81c455p-30"),
        ("0x1.47ae147ae147bp-7", "0x1.47ae147ae147ap-7",
         "0x1.47ae147ae1479p-7"),
    ),
    "exact K=4": (
        (NOISELESS_FB, 4, 0.0),
        "0x0.0p+0",
        ("0x1.4000000000000p+3", "0x1.91feb9f2bf46cp+6",
         "0x1.f900000000000p+9"),
        ("0x1.958b67ebb907ap-4", "0x1.42d35602dbceep-7",
         "0x1.00fa8de3f171dp-10"),
        ("0x1.47ae147ae147bp-7", "0x1.9f471259d3ffap-14",
         "0x1.07256e7ad2601p-20", "0x1.4d7e032486cfep-27"),
    ),
    "noiseless forward K=3 L=40": (
        (ChannelParams(1.0, 1.0, 0.0, 1e-3), 3, 40.0),
        "0x1.94c583ada5b53p+2",
        ("0x0.0p+0", "0x0.0p+0"),
        ("0x0.0p+0", "0x0.0p+0"),
        ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    ),
    "K=1 L=nextafter(bsnr)": (
        (ChannelParams.from_snrs(10.0, 100.0), 1, math.nextafter(1000.0, 0.0)),
        "0x1.f9f6e4990f227p+4",
        (),
        (),
        ("0x1.999999999999ap-4",),
    ),
}


@pytest.mark.parametrize("case", list(SCHEDULE_BITS))
def test_schedule_bits_pinned(case):
    (params, rounds, L), alpha, gains, betas, sigmas2 = SCHEDULE_BITS[case]
    cfg = make_config(params=params, rounds=rounds, looseness=L)
    assert cfg.alpha.hex() == alpha
    assert tuple(g.hex() for g in cfg.gains) == gains
    assert tuple(b.hex() for b in cfg.betas) == betas
    assert tuple(s.hex() for s in cfg.sigmas2) == sigmas2


# -----------------------------------------------------------------------------
# configuration
# -----------------------------------------------------------------------------

def test_schedule_matches_effective_snr():
    cfg = make_config(rounds=5, looseness=200.0)
    pred = effective_snr(P, 200.0, 5)
    assert P.p / cfg.sigmas2[-1] == pytest.approx(pred, rel=1e-12)


def test_schedule_noiseless_feedback_is_classic_recursion():
    cfg = SchemeConfig(
        params=NOISELESS_FB, rounds=4, looseness=0.0,
        lattice=cubic_lattice(1), rate_bits=0.5, master_seed=1,
    )
    assert cfg.exact_feedback
    snr = NOISELESS_FB.snr
    assert NOISELESS_FB.p / cfg.sigmas2[-1] == pytest.approx(
        snr * (1.0 + snr) ** 3, rel=1e-12
    )


def test_noiseless_forward_degenerates():
    quiet = ChannelParams(p=1.0, p_tilde=1.0, sigma2=0.0, sigma2_tilde=0.0)
    cfg = SchemeConfig(
        params=quiet, rounds=3, looseness=0.0,
        lattice=cubic_lattice(1), rate_bits=0.5, master_seed=1,
    )
    assert cfg.sigmas2 == (0.0, 0.0, 0.0)
    rec = run_trial(cfg, 0)
    assert all(rec.decode_success)


def test_config_validation():
    with pytest.raises(ValueError):
        make_config(rounds=0)
    with pytest.raises(ValueError):
        make_config(rounds=2.0)
    with pytest.raises(ValueError):
        make_config(rounds=True)  # a bool is not a count
    for rounds in (sim._ROUNDS_LIMIT, 10**400):  # K R overflows a float at 10**400
        with pytest.raises(ValueError, match="rounds must be in"):
            make_config(rounds=rounds, rate_bits=0.0)
    with pytest.raises(ValueError):
        make_config(looseness=0.5)
    with pytest.raises(ValueError):
        make_config(looseness=-1.0)
    with pytest.raises(ValueError):
        make_config(looseness=P.bsnr)
    with pytest.raises(ValueError):
        make_config(looseness=0.0)  # noisy feedback link
    with pytest.raises(ValueError):
        make_config(master_seed=-1)
    with pytest.raises(ValueError):
        make_config(master_seed=1 << 64)
    with pytest.raises(ValueError):
        make_config(master_seed=True)
    with pytest.raises(ValueError):
        make_config(rate_bits=-0.1)
    with pytest.raises(ValueError):
        make_config(codebook="turbo")
    # a field of the wrong type is a bad value like any other
    for bad in (
        dict(codebook=3),
        dict(lattice="z"),
        dict(params=None),
        dict(rate_bits=None),
        dict(looseness=None),
    ):
        with pytest.raises(ValueError):
            make_config(**bad)


def test_config_stores_the_normalized_fields():
    cfg = make_config(rounds=np.int64(3), looseness=np.int64(40),
                      rate_bits=np.float32(0.5), master_seed=np.uint32(99))
    assert (type(cfg.rounds), type(cfg.looseness), type(cfg.rate_bits),
            type(cfg.master_seed)) == (int, float, float, int)
    assert repr(cfg) == repr(make_config())
    for bad in ("0.5", True, None):
        with pytest.raises(ValueError, match="rate"):
            make_config(rate_bits=bad)


def test_codebook_dimension_rules():
    with pytest.raises(ValueError):
        make_config(lattice=make_lattice("d4"), codebook="pam")
    with pytest.raises(ValueError):
        make_config(codebook="gaussian")  # needs dimension >= 2
    with pytest.raises(ValueError):
        make_config(rounds=1, rate_bits=21.0)  # PAM order beyond range
    with pytest.raises(ValueError):
        make_config(lattice=make_lattice("d4"), rounds=3, rate_bits=1.5)  # 2**18 words
    # a total rate past the float range of 2**bits, or an infinite n K R,
    # is out of range too, not an OverflowError
    for lattice, rounds, rate in ((cubic_lattice(1), 2000, 1.0),
                                  (cubic_lattice(1), 3, 1e308),
                                  (make_lattice("d4"), 3, 1e308)):
        with pytest.raises(ValueError, match="beyond"):
            make_config(lattice=lattice, rounds=rounds, rate_bits=rate)


def test_pam_codebook_layout():
    cfg = make_config(rounds=1, rate_bits=2.0)
    assert cfg.m_codewords == 4
    levels = cfg.codewords[:, 0]
    assert levels[0] == pytest.approx(-1.0)
    assert levels[-1] == pytest.approx(1.0)
    assert np.allclose(np.diff(levels), cfg.pam_step)
    assert cfg.realized_rate_bits == pytest.approx(2.0)


def test_codeword_count_rounds_up():
    cfg = make_config(rounds=3, rate_bits=0.5)  # 2**1.5 = 2.83 -> 3 words
    assert cfg.m_codewords == 3
    assert cfg.realized_rate_bits == pytest.approx(math.log2(3) / 3.0)
    zero = make_config(rate_bits=0.0)
    assert zero.m_codewords == 1
    assert estimate_error_prob(zero, 50).p_e == 0.0


def test_gaussian_codebook_power_clipped():
    cfg = make_config(
        lattice=make_lattice("d4"), rounds=2, rate_bits=0.25, codebook="gaussian"
    )
    power = (cfg.codewords ** 2).sum(axis=1) / 4.0
    assert power.max() <= cfg.params.p * (1.0 + 1e-12)
    assert cfg.m_codewords == 4


def test_codebook_stream_key_holds_the_seed_exactly():
    """The codebook Philox key words are set as uint64, not via a float."""
    def gaussian(seed):
        return make_config(lattice=make_lattice("d4"), rounds=2, rate_bits=0.25,
                           codebook="gaussian", master_seed=seed).codewords

    assert not np.array_equal(gaussian(1 << 60), gaussian((1 << 60) + 1))
    # seeds below 2**53 keep the codebook of the earlier list-built key,
    # whose stream word 2**63 + 1 numpy rounded to 2**63
    for seed in (5, (1 << 52) + 1):
        rng = np.random.Generator(np.random.Philox(key=[seed, (1 << 63) + 1]))
        old = rng.standard_normal((4, 4))
        power = (old * old).sum(axis=1) / 4.0
        hot = power > 1.0
        old[hot] *= np.sqrt(1.0 / power[hot])[:, None]
        assert np.array_equal(gaussian(seed), old)


# -----------------------------------------------------------------------------
# determinism
# -----------------------------------------------------------------------------

def test_trials_are_reproducible():
    cfg = make_config()
    assert run_trial(cfg, 7) == run_trial(cfg, 7)
    twin = make_config()
    assert run_trial(twin, 7) == run_trial(cfg, 7)


def test_campaigns_are_reproducible():
    cfg = make_config(looseness=4.0, master_seed=7)
    a = estimate_error_prob(cfg, 500)
    b = estimate_error_prob(cfg, 500)
    assert a == b
    c = estimate_error_prob(make_config(looseness=4.0, master_seed=8), 500)
    assert c != a


def test_master_seeds_past_2_63_keep_their_own_streams():
    """The Philox key holds the seed exactly, not rounded through a float."""
    for seed in (1 << 63, (1 << 64) - 1):
        cfg = make_config(master_seed=seed)
        assert run_trial(cfg, 0) != run_trial(make_config(master_seed=0), 0)
        assert run_trial(cfg, 0) != run_trial(make_config(master_seed=seed - 1), 0)


def test_trial_index_validation():
    cfg = make_config()
    for bad in (-1, 1 << 63, 1.5, False):
        with pytest.raises(ValueError):
            run_trial(cfg, bad)
        with pytest.raises(ValueError):
            run_coupled_trial(cfg, bad)


def test_trial_records_label_system():
    cfg = make_config()
    real = run_trial(cfg, 3)
    coupled = run_coupled_trial(cfg, 3)
    assert real.system == "real"
    assert coupled.system == "coupled"
    assert real.coupled_agreement and coupled.coupled_agreement


# -----------------------------------------------------------------------------
# the coupling
# -----------------------------------------------------------------------------

def test_union_indicator_exact_with_aliasing_present():
    """Real and coupled systems flag the same trials, even at tight L."""
    cfg = make_config(looseness=4.0, master_seed=7)
    s = estimate_error_prob(cfg, 4000)
    assert s.union_agreement == 2 * s.trials
    assert s.coupled_agreement == 2 * s.trials
    # the config is tight enough that wraps actually happened
    assert s.p_mod_total > 0.0


def test_union_indicator_exact_on_vector_path():
    cfg = make_config(
        lattice=make_lattice("d4"), rounds=2, rate_bits=0.25, looseness=1.2,
        master_seed=11,
    )
    s = estimate_error_prob(cfg, 1500)
    assert s.union_agreement == 2 * s.trials
    assert s.p_mod_total > 0.0


SPLIT_CASES = [
    (dict(looseness=2.0, master_seed=13), 1500),
    (dict(lattice=make_lattice("d4"), rounds=2, rate_bits=0.25, looseness=1.2,
          master_seed=11), 600),
    (dict(lattice=make_lattice("e8"), rounds=3, rate_bits=0.25, looseness=1.2,
          master_seed=(1 << 64) - 1), 300),
]


def reference_copies(cfg, t):
    """Trial t as a plain loop over copies, systems and rounds: per copy and
    system, the wrap flags, the final estimation error and the value
    g_k (theta + eps) the feedback transmitter dithers and sends at each
    round.

    The trial is row t mod B of keyed block t // B, drawn here from its own
    Philox stream in the documented layout: messages, forward noise and
    feedback noise.  The loop carries the error eps alone, as the engine
    does.  The engine draws no dither: it cancels from the residue, and
    the real feedback power is the cell's second moment.
    """
    per = sim._block_trials(cfg)
    assert per == max(1, sim._BLOCK_VALUES // (2 * cfg.rounds * cfg.dimension))
    key = np.array([cfg.master_seed, t // per], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    p, lat, n = cfg.params, cfg.lattice, cfg.dimension
    steps = cfg.rounds - 1
    row = t % per
    msgs = rng.integers(0, cfg.m_codewords, size=(per, 2))[row]
    z_fwd = math.sqrt(p.sigma2) * rng.standard_normal((per, 2, cfg.rounds, n))[row]
    z_fb = math.sqrt(p.sigma2_tilde) * rng.standard_normal((per, 2, steps, n))[row]
    out = {}
    for i in range(2):
        theta = cfg.codewords[msgs[i]]
        for system in ("real", "coupled"):
            eps = z_fwd[i, 0]
            flags, fed = [], []
            for k in range(steps):
                fed.append(cfg.gains[k] * (theta + eps))
                w = cfg.gains[k] * eps + z_fb[i, k]
                residue = modulo(lat, w)
                flags.append(bool(np.any(residue != w)))
                x = cfg.alpha * (residue if system == "real" else w)
                eps = eps - cfg.betas[k] * (x + z_fwd[i, k + 1])
            out[system, i] = (flags, eps, fed)
    return out


def concat_blocks(parts):
    """Join _Block results of consecutive trial ranges along the trial axis."""
    return sim._Block(*(
        np.concatenate(arrays, axis=0 if name in ("msgs", "agree") else 1)
        for name, arrays in zip(sim._Block._fields, zip(*parts))
    ))


def block_rows(block, lo, hi):
    """Trials [lo, hi) of a _Block."""
    return sim._Block(*(
        x[lo:hi] if name in ("msgs", "agree") else x[:, lo:hi]
        for name, x in zip(sim._Block._fields, block)
    ))


def assert_blocks_equal(a, b):
    for name, x, y in zip(sim._Block._fields, a, b):
        assert np.array_equal(x, y), name


@pytest.mark.parametrize("kw, trials", SPLIT_CASES)
def test_engine_matches_per_copy_loop(kw, trials):
    """The array engine repeats a per-copy loop bit for bit, wraps included,
    over a range that crosses a block boundary."""
    cfg = make_config(**kw)
    per = sim._block_trials(cfg)
    start, stop = per - trials // 10, per + trials // 10
    block = _run_block(cfg, start, stop)
    assert block.alias.any()
    for t in range(start, stop):
        for (system, i), (flags, eps, _) in reference_copies(cfg, t).items():
            s = 0 if system == "real" else 1
            assert block.alias[s, t - start, i].tolist() == flags
            assert np.array_equal(block.eps[s, t - start, i], eps)


@pytest.mark.parametrize("kw, trials", SPLIT_CASES)
def test_run_trial_is_a_row_of_its_block(kw, trials):
    """Trial t is row t mod B of block t // B whatever range runs it: the
    first row, both sides of a block boundary, and the last row of a
    partial block."""
    cfg = make_config(**kw)
    per = sim._block_trials(cfg)
    stop = 2 * per + per // 3 + 1
    whole = _run_block(cfg, 0, stop)
    for t in (0, per - 1, per, stop - 1):
        one = _run_block(cfg, t, t + 1)
        assert_blocks_equal(one, block_rows(whole, t, t + 1))
        assert_blocks_equal(one, block_rows(_run_block(cfg, t, stop), 0, 1))
        for s, record in ((0, run_trial(cfg, t)), (1, run_coupled_trial(cfg, t))):
            assert record.aliasing_flags == tuple(map(tuple, whole.alias[s, t].tolist()))
            assert record.decode_success == tuple(
                (whole.decoded[s, t] == whole.msgs[t]).tolist())
            assert record.coupled_agreement == bool(whole.agree[t].all())


@pytest.mark.parametrize("kw, trials", SPLIT_CASES)
def test_run_block_equals_the_concatenation_of_its_blocks(kw, trials):
    cfg = make_config(**kw)
    per = sim._block_trials(cfg)
    start, stop = per // 2, 2 * per + 3
    cuts = [start, per, 2 * per, stop]
    parts = [_run_block(cfg, a, b) for a, b in zip(cuts, cuts[1:])]
    assert_blocks_equal(_run_block(cfg, start, stop), concat_blocks(parts))
    # and each whole block is the propagation of its own keyed draws
    assert_blocks_equal(parts[1], sim._propagate(cfg, sim._draw(cfg, 1)))


@pytest.mark.parametrize("kw, trials", SPLIT_CASES)
def test_campaign_counts_equal_sums_over_trials(kw, trials):
    """A multi-block campaign counts exactly what its single trials show."""
    cfg = make_config(**kw)
    assert trials > sim._block_trials(cfg)
    s = estimate_error_prob(cfg, trials)
    alias = np.zeros((2, cfg.rounds - 1), dtype=int)
    dec_err = [0, 0]  # real, coupled
    union = clean = agree = 0
    for t in range(trials):
        real, coupled = run_trial(cfg, t), run_coupled_trial(cfg, t)
        alias += np.array(coupled.aliasing_flags)
        dec_err[0] += real.decode_success.count(False)
        dec_err[1] += coupled.decode_success.count(False)
        for i in range(2):
            wrapped = any(real.aliasing_flags[i])
            union += wrapped == any(coupled.aliasing_flags[i])
            clean += not wrapped
        # records hold the AND over both copies; count copies from the
        # trial's own one-trial block
        copies = _run_block(cfg, t, t + 1).agree[0]
        assert real.coupled_agreement == coupled.coupled_agreement == copies.all()
        agree += int(copies.sum())
    assert alias.sum() > 0  # the config is tight enough to wrap
    assert s.alias_counts == tuple(map(tuple, alias.tolist()))
    assert s.dec_errors_real == dec_err[0]
    assert s.dec_errors_coupled == dec_err[1]
    assert s.union_agreement == union
    assert s.no_alias_dims == clean * cfg.dimension
    assert s.coupled_agreement == agree


@pytest.mark.parametrize("kw, trials", SPLIT_CASES)
def test_campaign_independent_of_block_size(monkeypatch, kw, trials):
    """A campaign is a pure function of (config, trials): a twin config
    repeats it, and running its trials in ranges of any other size, cut
    across the keyed blocks, or in engine calls of one or three keyed
    blocks, changes no count and no float sum."""
    cfg = make_config(**kw)
    trials = sim._block_trials(cfg) + trials // 4  # two keyed blocks
    ref = estimate_error_prob(cfg, trials)
    assert estimate_error_prob(make_config(**kw), trials) == ref
    run_block = sim._run_block
    for size in (1, 7, 1000):
        def split(cfg, start, stop, campaign, size=size):
            cuts = [*range(start, stop, size), stop]
            return concat_blocks([run_block(cfg, a, b, campaign)
                                  for a, b in zip(cuts, cuts[1:])])

        monkeypatch.setattr(sim, "_run_block", split)
        assert estimate_error_prob(cfg, trials) == ref
    monkeypatch.setattr(sim, "_run_block", run_block)
    for blocks in (1, 3):
        monkeypatch.setattr(sim, "_CALL_BLOCKS", blocks)
        assert estimate_error_prob(cfg, trials) == ref


@pytest.mark.parametrize("n", range(1, 11))
def test_sq_is_numpys_row_sum_bit_for_bit(n):
    """_sq adds whole columns in the order numpy's last-axis sum adds them,
    so it returns the bits of (x * x).sum(axis=-1) at every magnitude,
    through subnormal squares, overflow to inf and NaN, for any layout.
    This pins numpy's reduction order: a numpy that changes it fails here
    before it moves a golden."""
    rng = np.random.default_rng(n)
    x = rng.standard_normal((3, 500, n)) * 10.0 ** rng.uniform(-300, 300, (3, 500, n))
    x[0, :40] = rng.standard_normal((40, n)) * 10.0 ** rng.uniform(-165, -150, (40, n))
    x[1, :10, 0] = np.nan
    x[1, 5:15, -1] = np.inf
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for v in (x, x[0, 0], x[:1, :1], x[:, ::3], np.swapaxes(x, 0, 1),
                  x[..., ::-1], np.asfortranarray(x[0]), x[:0]):
            want = np.asarray((v * v).sum(axis=-1))
            got = np.asarray(sim._sq(v))
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        sq = sim._sq(x)
    assert np.isnan(sq).any() and np.isinf(sq).any()
    if n < 8:
        assert ((0 < sq) & (sq < np.finfo(float).tiny)).any()  # subnormal


@pytest.mark.parametrize("n", range(1, 11))
def test_rows_any_is_numpys_any(n):
    """_rows_any equals .any(axis=-1) on contiguous rows (read as one word
    where n is 1, 2, 4 or 8), on rows at an odd byte offset or a row
    stride, and on strided or reversed rows, which fall back to .any."""
    rng = np.random.default_rng(100 + n)
    b = rng.random((4, 300, 2 * n + 3)) < 0.1
    c = np.ascontiguousarray(b[..., :n])
    for v in (c, b[..., :n], b[..., 1:n + 1], b[::2, ::3, 2:n + 2],
              b[..., ::2][..., :n], np.swapaxes(c, 0, 1), c[..., ::-1], c[0, 0], c[:0]):
        want = v.any(axis=-1)
        got = sim._rows_any(v)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).dtype == bool
        assert np.array_equal(got, want)
    assert c.any(axis=-1).any() and not c.any(axis=-1).all()


# the SPLIT_CASES configs and an E8, K = 3 config whose real system
# misdecodes its 256-word Gaussian codebook after aliasing, with the repr of
# their campaigns
TWIN_CASES = [
    (*SPLIT_CASES[0],
     "SimulationSummary(trials=1500, rounds=3, alias_counts=((22, 29), (19, 20)),"
     " dec_errors_coupled=0, dec_errors_real=1, ff_power=0.8555824190572083,"
     " fb_power=0.9999999999999999, union_agreement=3000, coupled_agreement=3000,"
     " sigma_k2_hat=1.0049018972296866e-06, no_alias_dims=2911,"
     " realized_rate_bits=0.5283208335737187)"),
    (*SPLIT_CASES[1],
     "SimulationSummary(trials=600, rounds=2, alias_counts=((82,), (92,)),"
     " dec_errors_coupled=0, dec_errors_real=0, ff_power=0.7475773602929521,"
     " fb_power=1.0, union_agreement=1200, coupled_agreement=1200,"
     " sigma_k2_hat=0.00010384778171382736, no_alias_dims=4104,"
     " realized_rate_bits=0.25)"),
    (*SPLIT_CASES[2],
     "SimulationSummary(trials=300, rounds=3, alias_counts=((50, 56), (56, 53)),"
     " dec_errors_coupled=0, dec_errors_real=0, ff_power=0.9028764617681075,"
     " fb_power=1.0, union_agreement=600, coupled_agreement=600,"
     " sigma_k2_hat=9.87977907352159e-07, no_alias_dims=3216,"
     " realized_rate_bits=0.25)"),
    (dict(params=ChannelParams.from_snrs(30.0, 300.0), lattice=make_lattice("e8"),
          rounds=3, rate_bits=1 / 3, looseness=1.2, master_seed=5), 300,
     "SimulationSummary(trials=300, rounds=3, alias_counts=((51, 58), (57, 52)),"
     " dec_errors_coupled=0, dec_errors_real=6, ff_power=0.8845383743501197,"
     " fb_power=1.0, union_agreement=600, coupled_agreement=600,"
     " sigma_k2_hat=3.57794024609657e-05, no_alias_dims=3208,"
     " realized_rate_bits=0.3333333333333333)"),
]


@pytest.mark.parametrize("kw, trials, pinned", TWIN_CASES,
                         ids=["z1-pam", "d4-k2", "e8-k3", "e8-k3-256"])
def test_campaign_bits_pinned_where_the_twins_diverge(kw, trials, pinned):
    """Campaigns whose real and coupled estimates part after aliasing keep
    every count and float sum; the parted rows are really there, so their
    separate decodes run."""
    cfg = make_config(**kw)
    block = _run_block(cfg, 0, trials)
    assert (block.eps[0] != block.eps[1]).any()
    assert repr(estimate_error_prob(cfg, trials)) == pinned


def test_campaign_counts_do_not_depend_on_its_length():
    """The first N trials of a longer campaign are the N-trial campaign."""
    cfg = make_config(looseness=2.0, master_seed=(1 << 63) + 5)
    per = sim._block_trials(cfg)
    whole = _run_block(cfg, 0, 2 * per + 1)
    for trials in (1, per - 1, per, per + 1, 2 * per + 1):
        s = estimate_error_prob(cfg, trials)
        alias = whole.alias[1, :trials].sum(axis=0).tolist()
        assert s.alias_counts == tuple(map(tuple, alias))
        errs = (whole.decoded[:, :trials] != whole.msgs[:trials]).sum(axis=(1, 2))
        assert (s.dec_errors_real, s.dec_errors_coupled) == tuple(errs.tolist())


def test_block_keys_hold_seeds_past_2_63_exactly():
    """Block b of a seed draws from key [seed, b] as uint64 words, so seeds
    at and past 2**63 that differ in their low bits differ in every block."""
    for seed in (1 << 63, (1 << 63) + 1, (1 << 64) - 1):
        cfg = make_config(master_seed=seed)
        for b in (0, 3):
            draws = sim._draw(cfg, b)
            rng = np.random.Generator(np.random.Philox(
                key=np.array([seed, b], dtype=np.uint64)))
            assert np.array_equal(draws.msgs, rng.integers(
                0, cfg.m_codewords, size=draws.msgs.shape))
            other = sim._draw(make_config(master_seed=seed - 1), b)
            assert not np.array_equal(draws.z_fwd, other.z_fwd)


def test_campaign_rekeys_its_generator_to_fresh_block_streams():
    """One campaign's generator, re-keyed per block, draws what a fresh
    Philox(key=[seed, b]) draws: after any earlier use (a stored 32-bit
    half and a part-used buffer included), for seeds at and past 2**63 and
    for block indices near 2**63."""
    for seed in (0, 1 << 63, (1 << 64) - 1):
        campaign = sim._Campaign(make_config(master_seed=seed))
        for b in (0, 3, (1 << 63) - 2, (1 << 63) - 1, 1 << 63):
            rng = campaign.rng(b)
            fresh = np.random.Generator(np.random.Philox(
                key=np.array([seed, b], dtype=np.uint64)))
            for draw in (lambda g: g.integers(0, 256, size=(37, 2)),
                         lambda g: g.standard_normal((5, 3)),
                         lambda g: g.random(7),
                         lambda g: g.integers(0, 9, dtype=np.uint32)):
                assert np.array_equal(draw(rng), draw(fresh)), (seed, b)
    cfg = make_config(lattice=make_lattice("e8"), rate_bits=0.25,
                      master_seed=(1 << 63) + 9)
    campaign = sim._Campaign(cfg)
    for b in (2, 0, 2, 1 << 40):
        for mine, fresh in zip(sim._draw(cfg, b, campaign), sim._draw(cfg, b)):
            assert np.array_equal(mine, fresh)


def test_concurrent_campaigns_give_the_serial_summaries():
    """Campaigns own their generator and decode radii, so threads running
    different campaigns at once reproduce the serial summaries."""
    cfgs = [make_config(lattice=make_lattice("d4"), rate_bits=0.5, looseness=1.5,
                        master_seed=71),
            make_config(lattice=make_lattice("e8"), rate_bits=1 / 3, looseness=1.5,
                        master_seed=72),
            make_config(looseness=1.5, master_seed=73)]
    trials = 1500
    serial = [estimate_error_prob(c, trials) for c in cfgs]
    start = threading.Barrier(len(cfgs))
    got = [None] * len(cfgs)

    def run(i):
        start.wait(timeout=60)
        got[i] = [estimate_error_prob(cfgs[i], trials) for _ in range(2)]

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(cfgs))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    assert got == [[s, s] for s in serial]


# -----------------------------------------------------------------------------
# designed draws
# -----------------------------------------------------------------------------

ENGINE_CASES = [
    dict(),
    dict(rounds=2, looseness=4.0),
    dict(lattice=make_lattice("d4"), rounds=2, rate_bits=0.25, looseness=1.2),
    dict(lattice=make_lattice("e8"), rounds=3, rate_bits=0.25, looseness=1.2),
]


def designed_draws(cfg, trials, z_fb=None):
    """Noise-free draws of ``trials`` trials, messages cycling through the
    codebook, and optional feedback noise."""
    msgs = np.arange(2 * trials).reshape(trials, 2) % cfg.m_codewords
    z_fwd = np.zeros((trials, 2, cfg.rounds, cfg.dimension))
    if z_fb is None:
        z_fb = np.zeros((trials, 2, cfg.rounds - 1, cfg.dimension))
    return sim._Draws(msgs, z_fwd, z_fb)


@pytest.mark.parametrize("kw", ENGINE_CASES)
def test_propagate_without_noise_is_exact(kw):
    """With no noise nothing wraps, every estimate is the codeword itself
    (eps = 0 exactly), and both systems decode every message."""
    cfg = make_config(**kw)
    draws = designed_draws(cfg, 40)
    b = sim._propagate(cfg, draws)
    assert not b.alias.any()
    assert np.array_equal(b.eps, np.zeros_like(b.eps))
    assert np.array_equal(b.decoded, np.stack([draws.msgs] * 2))
    assert b.agree.all()


@pytest.mark.parametrize("kw", ENGINE_CASES)
def test_propagate_flags_feedback_noise_past_a_facet(kw):
    """With no forward noise the first pre-modulo value is the feedback
    noise itself.  Placed just inside the Voronoi facet at v/2 of a minimal
    lattice vector v it folds to itself; just past it, it wraps, in both
    systems, and the union indicators of the real and coupled systems
    agree."""
    cfg = make_config(**kw)
    g = cfg.lattice.generator
    v = g[np.argmin((g * g).sum(axis=1))]  # a minimal vector
    scales = np.array([1 - 1e-9, 1 + 1e-9, -(1 - 1e-9), -(1 + 1e-9)])
    z_fb = np.zeros((len(scales), 2, cfg.rounds - 1, cfg.dimension))
    z_fb[:, 1, 0] = scales[:, None] * v / 2  # copy 1, first correction round
    b = sim._propagate(cfg, designed_draws(cfg, len(scales), z_fb))
    past = np.abs(scales) > 1
    for system in (0, 1):
        assert b.alias[system, :, 1, 0].tolist() == past.tolist()
    assert not b.alias[:, :, 0].any()  # the noiseless copy never wraps
    union = b.alias.any(axis=-1)
    assert np.array_equal(union[0], union[1])


# high-aliasing configs, about 20-40 % total p_mod
FOLD_CASES = [
    dict(rounds=4, looseness=1.5),
    dict(lattice=make_lattice("d4"), rounds=3, rate_bits=0.25, looseness=1.5),
    dict(lattice=make_lattice("e8"), rounds=3, rate_bits=0.25, looseness=1.5),
]


@pytest.mark.parametrize("kw", FOLD_CASES, ids=["z1", "d4", "e8"])
def test_each_round_folds_only_the_coupled_rows_that_parted(monkeypatch, kw):
    """Each correction round folds 2 T rows for T trials, the real
    residues of both copies, plus one row per copy whose coupled error has
    parted from the real one, which happens only after the real copy
    wrapped: none in the first round.  The real feedback is not folded: its
    power is the cell's second moment."""
    cfg = make_config(**kw)
    folds = []

    def counted(lattice, x):
        folds.append(len(x))
        return modulo(lattice, x)

    monkeypatch.setattr(sim, "modulo", counted)
    trials = sim._block_trials(cfg) + 50
    block = _run_block(cfg, 0, trials)
    assert block.agree.all()
    wrapped = np.logical_or.accumulate(block.alias[0], axis=-1)  # (trials, 2, K - 1)
    parted = [0] + [int(wrapped[..., k].sum()) for k in range(cfg.rounds - 2)]
    assert parted[-1] > 0
    # one fold per round over the rows of both keyed blocks
    assert folds == [2 * trials + d for d in parted]
    # the coupled flags are still the coupled system's own
    assert np.array_equal(block.alias, _reference_alias(cfg, trials))


def _reference_alias(cfg, trials):
    """Wrap flags of both systems, every coupled residue folded."""
    flags = np.zeros((2, trials, 2, cfg.rounds - 1), dtype=bool)
    for t in range(trials):
        for (system, i), (f, _, _) in reference_copies(cfg, t).items():
            flags[0 if system == "real" else 1, t, i] = f
    return flags


def test_summary_holds_plain_python_scalars():
    """Counts are ints and averages floats, never numpy scalars, so the
    summary is small, exact and prints without numpy type names."""
    def plain(v):
        if isinstance(v, tuple):
            return all(plain(x) for x in v)
        return type(v) in (int, float)

    for cfg in (make_config(looseness=4.0, master_seed=7),
                make_config(lattice=make_lattice("d4"), rounds=2, rate_bits=0.25,
                            looseness=1.2, master_seed=11)):
        s = estimate_error_prob(cfg, 300)
        for f in dataclasses.fields(s):
            assert plain(getattr(s, f.name)), f.name
        assert type(s.union_bound_ok) is bool
        assert "np." not in repr(s)
        assert not hasattr(s, "__dict__")  # slots


def test_summary_rates_follow_from_counts():
    cfg = make_config(looseness=4.0, master_seed=7)
    s = estimate_error_prob(cfg, 2000)
    copies = 2 * s.trials
    assert s.p_e == s.dec_errors_real / copies
    assert s.p_dec == s.dec_errors_coupled / copies
    assert s.p_e_ci == wilson_interval(s.dec_errors_real, copies)
    assert s.p_dec_ci == wilson_interval(s.dec_errors_coupled, copies)
    for i in range(2):
        for k in range(cfg.rounds - 1):
            c = s.alias_counts[i][k]
            assert s.p_mod[i][k] == c / s.trials
            assert s.p_mod_ci[i][k] == wilson_interval(c, s.trials)
    assert s.p_mod_total == pytest.approx(sum(map(sum, s.alias_counts)) / s.trials)


def test_sigma_recursion_against_campaign():
    cfg = make_config(master_seed=5)
    s = estimate_error_prob(cfg, 20000)
    pred = cfg.sigmas2[-1]
    se = pred * math.sqrt(2.0 / s.no_alias_dims)
    assert abs(s.sigma_k2_hat - pred) <= 3.0 * se


def test_aliasing_rate_constant_across_rounds():
    """Re-deriving gamma each round equalizes the per-round wrap rate."""
    cfg = make_config(looseness=2.0, master_seed=13)
    trials = 20000
    s = estimate_error_prob(cfg, trials)
    # pool the two interlaced copies round by round
    intervals = []
    for k in range(cfg.rounds - 1):
        hits = s.alias_counts[0][k] + s.alias_counts[1][k]
        intervals.append(wilson_interval(hits, 2 * trials))
        assert hits > 100  # the regime is tight enough to be informative
    for a in intervals:
        for b in intervals:
            assert a[0] <= b[1] and b[0] <= a[1]


def test_final_error_gaussian_given_no_aliasing():
    """Wrap-free estimation errors stay Gaussian through the recursion."""
    from scipy import stats

    cfg = make_config(looseness=4.0, master_seed=17)
    block = _run_block(cfg, 0, 6000)
    clean = ~block.alias[0].any(axis=-1)  # real copies that never wrapped
    errors = block.eps[0][clean][:, 0]
    res = stats.anderson(errors, dist="norm", method="interpolate")
    # the interpolated p-value is clipped to 0.01 at and beyond the critical
    # value of the 1% significance level
    assert res.pvalue > 0.01


def test_power_accounting():
    cfg = make_config(master_seed=5)
    s = estimate_error_prob(cfg, 20000)
    assert s.ff_power <= cfg.params.p * 1.01
    assert s.fb_power == pytest.approx(cfg.params.p_tilde, rel=0.02)


@pytest.mark.parametrize("lattice", ["z", "d4", "e8"])
def test_sent_feedback_power_is_the_cell_second_moment(lattice):
    """The real system sends [g_k (theta + eps) + d] mod the cell back, with
    d a dither uniform on the cell.  By the crypto lemma the sent value is
    uniform on the cell whatever the estimate is, so its power per dimension
    is the cell's second moment, which the campaign's fb_power reports in
    closed form.  The per-copy loop's values, folded with dithers of their
    own, check the physical signal against it within 4 standard errors."""
    cfg = make_config(lattice=make_lattice(lattice), looseness=4.0,
                      rate_bits=0.5 if lattice == "z" else 0.25, master_seed=23)
    lat = cfg.lattice
    rng = np.random.default_rng(41)
    power = []
    for t in range(300):
        copies = reference_copies(cfg, t)
        for i in range(2):
            for v in copies["real", i][2]:
                sent = modulo(lat, v + sample_dither(lat, rng))
                power.append(sent @ sent / cfg.dimension)
    power = np.array(power)
    se = power.std(ddof=1) / math.sqrt(len(power))
    assert abs(power.mean() - lat.second_moment) < 4.0 * se
    s = estimate_error_prob(cfg, 300)
    assert s.fb_power == pytest.approx(lat.second_moment, rel=1e-12)


@pytest.mark.parametrize("kw", FOLD_CASES, ids=["z1", "d4", "e8"])
def test_trial_feedback_power_matches_the_sent_values(kw):
    """A real trial's fb_power is the cell's second moment M.  A coupled
    trial's is the mean of |g_k (theta + eps)|^2 per dimension over the
    values the per-copy loop sends, plus M for the dither; some trials
    wrap, so their coupled estimates part from the real ones."""
    cfg = make_config(**kw)
    m2, n = cfg.lattice.second_moment, cfg.dimension
    parted = 0
    for t in range(40):
        copies = reference_copies(cfg, t)
        fed = [v for i in range(2) for v in copies["coupled", i][2]]
        parted += any(not np.array_equal(v, w) for i in range(2)
                      for v, w in zip(copies["real", i][2], copies["coupled", i][2]))
        want = sum(float(v @ v) for v in fed) / (len(fed) * n) + m2
        assert run_coupled_trial(cfg, t).fb_power == pytest.approx(want, rel=1e-12)
        assert run_trial(cfg, t).fb_power == pytest.approx(m2, rel=1e-12)
    assert parted


@pytest.mark.parametrize("lattice, rate_bits", [("z", 1.5), ("d4", 1.0)],
                         ids=["z1-pam", "d4-16"])
@pytest.mark.parametrize("rounds", [12, 20, 22, 24])
def test_powers_and_final_variance_hold_at_many_rounds(lattice, rate_bits, rounds):
    """At 20/30 dB and L = 4, e_fb's optimal round counts reach 22; the
    feedback power and the final error variance must still match their
    design values there.  sigma_K is 9.5e-21 at K = 20, far below the float
    resolution of the codewords, which the engine's error coordinates
    never meet.  A copy that aliases early keeps an O(1) error while
    gamma_k grows, so its residues pass 2**53 cell widths; the forward
    power holds only if modulo still returns cell points there."""
    cfg = make_config(params=ChannelParams.from_snrs(100.0, 1000.0),
                      rounds=rounds, looseness=4.0, lattice=make_lattice(lattice),
                      rate_bits=rate_bits / rounds, master_seed=11)
    s = estimate_error_prob(cfg, 2000)
    assert abs(s.ff_power / cfg.params.p - 1.0) < 0.05
    assert abs(s.fb_power / cfg.params.p_tilde - 1.0) < 0.05
    assert abs(s.sigma_k2_hat / cfg.sigmas2[-1] - 1.0) < 0.2


# -----------------------------------------------------------------------------
# agreement with the modulo-lattice link primitives
# -----------------------------------------------------------------------------

def test_feedback_hop_matches_link_primitives():
    """One simulated feedback hop is the side-information link in disguise.

    The transmitter of the hop holds the current estimate, the receiver
    knows the true codeword; encoding with j = theta and q = estimation
    error reproduces the simulator's dither-cancelled residue.
    """
    rng = np.random.default_rng(31)
    lat = cubic_lattice(1, spacing=2.0)
    gamma = 1.7
    params = JsccParams(beta=gamma, lattice=lat)
    for v in sample_dither(lat, rng, 300):
        theta = rng.normal(size=1)
        eps = rng.normal(size=1) * 0.3
        theta_hat = theta + eps
        z_fb = rng.normal(size=1) * 0.1

        sent = modulo(lat, gamma * theta_hat + v)
        encoded = wz_encode(eps, theta, v, params)
        assert np.allclose(sent, encoded, atol=1e-10)

        received = wz_receive(sent + z_fb, v, theta, params)
        shortcut = modulo(lat, gamma * eps + z_fb)
        assert np.allclose(received, shortcut, atol=1e-10)


# -----------------------------------------------------------------------------
# decoding
# -----------------------------------------------------------------------------

def decode_one(cfg, theta_hat):
    """Decode a batch of one estimate on a Gaussian codebook."""
    return int(_decode_index(cfg, np.asarray(theta_hat, dtype=float)[None])[0])


def pam_decode(cfg, sent, eps):
    """The engine's PAM decode of the estimates c_m + eps sent as ``sent``,
    run through a one-round block with eps as the forward noise, so that
    both systems of both copies decode each one."""
    sent, eps = np.asarray(sent), np.asarray(eps, dtype=float)
    msgs = np.stack([sent] * 2, axis=1)
    z_fwd = np.broadcast_to(eps[:, None, None, None], (len(sent), 2, 1, 1))
    b = sim._propagate(cfg, sim._Draws(msgs, z_fwd, np.zeros((len(sent), 2, 0, 1))))
    assert (b.decoded == b.decoded[:1, :, :1]).all()
    return b.decoded[0, :, 0].tolist()


def test_pam_decode_slicing():
    cfg = make_config(rounds=1, rate_bits=2.0)  # levels -1, -1/3, 1/3, 1
    levels = cfg.codewords[:, 0]
    # each level, sent as itself
    assert pam_decode(cfg, range(4), [0.0] * 4) == [0, 1, 2, 3]
    # clipping at the extremes: estimates -9 and 9 from each level
    assert pam_decode(cfg, range(4), -9.0 - levels) == [0] * 4
    assert pam_decode(cfg, range(4), 9.0 - levels) == [3] * 4
    # nearest-level slicing: estimates 0.4 and -0.52 from each level
    assert pam_decode(cfg, range(4), 0.4 - levels) == [2] * 4
    assert pam_decode(cfg, range(4), -0.52 - levels) == [1] * 4


def test_pam_decode_ties_take_the_lower_index():
    """An estimate midway between two PAM levels decodes to the lower one
    from either level, as the Gaussian decode's first-index rule does;
    midway past an end level, or far past it, it decodes to that level."""
    cfg = make_config(rounds=1, rate_bits=2.0)  # levels -1, -1/3, 1/3, 1
    half = 0.5 * cfg.pam_step
    # the midpoints -2/3, 0 and 2/3 from both sides, then past both ends
    sent = [0, 1, 1, 2, 2, 3, 0, 3, 0, 3]
    eps = [half, -half, half, -half, half, -half, -half, half, -9.0, 9.0]
    assert pam_decode(cfg, sent, eps) == [0, 0, 1, 1, 2, 2, 0, 3, 0, 3]


def test_ml_decode_on_gaussian_codebook():
    cfg = make_config(
        lattice=make_lattice("d4"), rounds=2, rate_bits=0.25, codebook="gaussian"
    )
    for i in range(cfg.m_codewords):
        assert decode_one(cfg, cfg.codewords[i]) == i


def direct_decode(codewords, rows):
    """Reference: argmin of the directly summed squared distances."""
    out = np.empty(len(rows), dtype=np.intp)
    chunk = max(1, (1 << 18) // codewords.size)  # 2 MiB per difference chunk
    for i in range(0, len(rows), chunk):
        diff = codewords - rows[i:i + chunk, None, :]
        out[i:i + chunk] = np.argmin((diff * diff).sum(axis=-1), axis=1)
    return out


def gaussian_book(codewords):
    codewords = np.ascontiguousarray(codewords, dtype=float)
    return SimpleNamespace(codebook="gaussian", dimension=codewords.shape[1],
                           codewords=codewords, m_codewords=len(codewords),
                           master_seed=0)


def assert_decodes_like_direct_form(codewords, rows):
    with np.errstate(invalid="ignore", over="ignore"):
        expected = direct_decode(codewords, rows)
    got = _decode_index(gaussian_book(codewords), rows)
    assert got.dtype == np.intp
    assert np.array_equal(got, expected), np.flatnonzero(got != expected)[:10]
    return got


@pytest.mark.parametrize("n,bits", [(4, 4), (8, 8)], ids=["d4-16", "e8-256"])
def test_gaussian_decode_matches_direct_form(n, bits):
    """100 000 noisy codewords and midpoints of codeword pairs, the latter
    tied up to rounding, decode exactly as the direct form does."""
    rng = np.random.default_rng(n * 1000 + bits)
    codewords = rng.standard_normal((1 << bits, n))
    msgs = rng.integers(0, len(codewords), 80_000)
    scale = rng.choice([1e-3, 0.1, 0.5, 2.0], size=(len(msgs), 1))
    noisy = codewords[msgs] + scale * rng.standard_normal((len(msgs), n))
    a, b = rng.integers(0, len(codewords), (2, 20_000))
    mid = 0.5 * (codewords[a] + codewords[b])
    mid += 1e-15 * rng.standard_normal(mid.shape)
    rows = np.concatenate((noisy, mid))
    assert_decodes_like_direct_form(codewords, rows)
    # the leading shape is kept
    got = _decode_index(gaussian_book(codewords), rows[:60].reshape(3, 5, 4, n))
    assert got.shape == (3, 5, 4)


def test_gaussian_decode_exact_ties_take_the_first_index():
    unit = np.eye(4)
    codewords = np.concatenate([np.stack((e, -e)) for e in unit])  # +-e_i
    rows = np.array([
        [0.0, 0.0, 0.0, 0.0],    # all eight tie
        [0.5, 0.5, 0.0, 0.0],    # +e_1 and +e_2 tie
        [0.0, -3.0, 0.0, -3.0],  # -e_2 and -e_4 tie
        [0.0, 0.0, 0.0, -2.0],   # -e_4 alone
    ])
    got = assert_decodes_like_direct_form(codewords, rows)
    assert got.tolist() == [0, 0, 3, 7]
    # the tie sets keep their first member when the book is reordered
    order = np.random.default_rng(5).permutation(len(codewords))
    got = assert_decodes_like_direct_form(codewords[order], rows)
    assert got[0] == 0


def test_gaussian_decode_duplicate_codewords():
    rng = np.random.default_rng(21)
    codewords = rng.standard_normal((16, 4))
    codewords[[9, 12]] = codewords[3]
    codewords[15] = codewords[0]
    rows = np.concatenate((
        codewords,
        codewords[3] + 1e-9 * rng.standard_normal((50, 4)),
        rng.standard_normal((500, 4)),
    ))
    got = assert_decodes_like_direct_form(codewords, rows)
    assert got[[3, 9, 12, 15]].tolist() == [3, 3, 3, 0]


def test_gaussian_decode_large_rows_where_the_expanded_form_cancels():
    """At |x| ~ 1e8 the direct form rounds |x - c|^2 ~ 1e16 to a few units,
    while |c|^2 - 2 x.c is accurate to ~1e-7: near the bisector of the two
    nearest codewords the two forms pick different words, and the screen
    must settle such rows by the direct form."""
    rng = np.random.default_rng(8)
    codewords = rng.standard_normal((16, 4))
    u = rng.standard_normal((4000, 4))
    u *= 1e8 / np.sqrt((u * u).sum(axis=1, keepdims=True))
    # move each row onto the bisector of its two nearest codewords, give or
    # take a few units of |x - c|^2
    near = np.argsort(-(u @ codewords.T) + 0.5 * (codewords**2).sum(1), axis=1)
    ca, cb = codewords[near[:, 0]], codewords[near[:, 1]]
    d = cb - ca
    d2 = (d * d).sum(axis=1, keepdims=True)
    gap = 2.0 * (u * d).sum(axis=1, keepdims=True) + (ca * ca - cb * cb).sum(
        axis=1, keepdims=True)
    gap -= rng.uniform(-8.0, 8.0, gap.shape)
    rows = u - gap / (2.0 * d2) * d
    assert_decodes_like_direct_form(codewords, rows)


def test_gaussian_decode_non_finite_rows():
    rng = np.random.default_rng(4)
    codewords = rng.standard_normal((16, 4))
    codewords[2, 0] = 0.0
    inf, nan = math.inf, math.nan
    rows = np.array([
        [nan, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, nan],
        [inf, 0.0, 0.0, 0.0],
        [-inf, 1.0, 0.0, 0.0],
        [inf, -inf, 0.0, 0.0],
        [inf, inf, inf, inf],
        [1e200, 0.0, 0.0, 0.0],
        [1e160, -1e160, 1e160, 0.0],
        [0.1, 0.2, 0.3, 0.4],
    ])
    assert_decodes_like_direct_form(codewords, rows)


def test_gaussian_decode_rows_whose_distances_overflow():
    """|x|^2 is finite but every |x - c|^2 overflows: the direct form
    returns the first index, and so must the decode."""
    rng = np.random.default_rng(6)
    codewords = -1e152 * np.abs(rng.standard_normal((8, 4)))
    codewords[0] *= 3.0
    rows = np.full((1, 4), 6.7e153)
    with np.errstate(over="ignore"):
        assert np.isfinite(sim._sq(rows)).all()
        assert np.isinf(sim._sq(codewords - rows[0])).all()
    assert assert_decodes_like_direct_form(codewords, rows).tolist() == [0]


def test_gaussian_decode_rows_whose_distances_underflow():
    """At scale 1e-162 the squared terms are the smallest subnormals or
    zero: their rounding errors dwarf a tolerance relative to |x|^2."""
    rng = np.random.default_rng(10)
    codewords = 1e-162 * rng.standard_normal((16, 4))
    rows = codewords[rng.integers(0, 16, 5000)]
    rows += 1e-162 * rng.standard_normal(rows.shape)
    assert_decodes_like_direct_form(codewords, rows)


def test_gaussian_decode_largest_codebook():
    """2**16 words, the largest brute-force ML codebook; chunks of one row."""
    rng = np.random.default_rng(16)
    codewords = rng.standard_normal((1 << 16, 8))
    codewords[40_000] = codewords[7]
    rows = np.concatenate((
        codewords[[7, 40_000, 65_535]],
        codewords[rng.integers(0, 1 << 16, 100)]
        + 0.3 * rng.standard_normal((100, 8)),
    ))
    got = assert_decodes_like_direct_form(codewords, rows)
    assert got[:3].tolist() == [7, 7, 65_535]


def engine_decode(book, msgs, real, coupled=None):
    """The engine's decode of the real and coupled estimates c_m + eps sent
    as ``msgs``, from their errors (the coupled ones default to the real)."""
    eps = np.stack((real, real if coupled is None else coupled))[:, :, None]
    decoded = sim._decode_twins(book, msgs[:, None], eps, sim._Campaign(book))
    return decoded[:, :, 0]


def adversarial_errors(codewords, rng, count=3000):
    """Messages and errors of estimates around their codewords: errors
    from 1e-12 to 10 times the half gap h to the nearest other codeword,
    errors of h (1 - 1e-9), h and h (1 + 1e-9) toward that codeword, and
    no error at all."""
    m, n = codewords.shape
    with np.errstate(over="ignore"):
        diff = codewords[:, None] - codewords[None]
        d2 = (diff * diff).sum(axis=-1)
    np.fill_diagonal(d2, np.inf)
    near = d2.argmin(axis=1)
    h = 0.5 * np.sqrt(d2.min(axis=1))
    msgs = rng.integers(0, m, count)
    u = rng.standard_normal((count, n))
    u /= np.sqrt((u * u).sum(axis=1, keepdims=True))
    size = 10.0 ** rng.uniform(-12.0, 1.0, (count, 1))
    size[::3] = rng.choice([1e-12, 0.5, 1 - 1e-9, 1 + 1e-9, 10.0], (len(size[::3]), 1))
    noisy = size * np.nan_to_num(h[msgs, None], posinf=1.0) * u
    toward = np.concatenate([t * 0.5 * (codewords[near] - codewords)
                             for t in (1 - 1e-9, 1.0, 1 + 1e-9)])
    msgs = np.concatenate((msgs, np.tile(np.arange(m), 4)))
    return msgs, np.concatenate((noisy, toward, np.zeros_like(codewords)))


def assert_nearest_exactly(codewords, msgs, eps):
    """c_m is the unique nearest codeword to the exact point c_m + eps of
    each row: D_j = |c_m - c_j|^2 + 2 eps.(c_m - c_j) > 0 for every j != m.
    Floats decide D_j where it clears a margin a thousand times their
    rounding error; Fractions decide the rest exactly, and the pair of
    each chunk of rows nearest that margin."""
    for i in range(0, len(msgs), 128):
        m, e = msgs[i:i + 128], eps[i:i + 128]
        own = np.arange(len(m)), m
        with np.errstate(over="ignore", invalid="ignore"):
            delta = codewords[m][:, None] - codewords[None]
            dd = (delta * delta).sum(axis=-1)
            de = e[:, None] * delta
            slack = 1e-12 * (dd + 2.0 * np.abs(de).sum(axis=-1)) + 1e-320
            ratio = (dd + 2.0 * de.sum(axis=-1)) / slack
        ratio[own] = np.inf
        exact = ~(ratio > 1.0)
        exact[np.unravel_index(np.nanargmin(ratio), ratio.shape)] = True
        exact[own] = False
        for r, j in zip(*np.nonzero(exact)):
            cm, cj = (map(Fraction, codewords[w]) for w in (m[r], j))
            d = [a - b for a, b in zip(cm, cj)]
            gap = sum(x * x for x in d) + 2 * sum(
                Fraction(x) * y for x, y in zip(e[r], d))
            assert gap > 0, (i + r, j)


def assert_engine_decodes_like_direct_form(codewords, msgs, eps):
    """The engine decodes each error, real and coupled (the latter a
    permutation of the former), so that a certified one decodes to its
    sent word, the exact estimate's unique nearest codeword, and every
    other one as the direct form of the rounded estimate fl(c_m + eps)."""
    book = gaussian_book(codewords)
    coupled = eps[np.random.default_rng(1).permutation(len(eps))]
    radius2 = sim._decode_radius2(book, msgs)
    with np.errstate(invalid="ignore", over="ignore"):
        got = engine_decode(book, msgs, eps, coupled)
        assert got.dtype == np.intp
        for system, e in enumerate((eps, coupled)):
            certified = sim._sq(e) < radius2
            assert np.array_equal(got[system, certified], msgs[certified])
            assert_nearest_exactly(book.codewords, msgs[certified], e[certified])
            far = ~certified
            expected = direct_decode(book.codewords, book.codewords[msgs[far]] + e[far])
            bad = np.flatnonzero(got[system, far] != expected)
            assert not len(bad), (system, bad[:10])


def odd_codebook(rng):
    """16 words with two duplicates of word 3, a duplicate of word 0 and
    words 1 ulp from word 4, in one coordinate and in all."""
    codewords = rng.standard_normal((16, 4))
    codewords[[9, 12]] = codewords[3]
    codewords[15] = codewords[0]
    codewords[5] = codewords[4]
    codewords[5, 2] = np.nextafter(codewords[4, 2], math.inf)
    codewords[6] = np.nextafter(codewords[4], -math.inf)
    return codewords


@pytest.mark.parametrize("case", ["e8-256", "odd-16", "huge", "small", "offset",
                                  "overflow"])
def test_certified_decode_matches_direct_form(case):
    """The radius test decodes adversarial estimates as the direct form
    does, ties and duplicate words included, also where the squares
    underflow, where the Gram form cancels, and where |x|^2 + max|c|^2
    nears or passes a quarter of the largest float; non-finite estimates
    as well."""
    rng = np.random.default_rng(sum(map(ord, case)))
    big = np.finfo(float).max
    if case == "overflow":
        # |c|^2 = 0.6 of the largest float, so the distance between the two
        # words overflows; an error of 0.6 of it has a finite square and
        # lands nearer the other word
        a = math.sqrt(0.6 * big)
        codewords = np.array([[-a, 0.0], [a, 0.0]])
        msgs = np.array([0, 0, 0, 1, 1])
        eps = np.array([[0.4], [0.6], [1e-9], [-0.6], [-0.4]]) * [2 * a, 0.0]
        assert np.isfinite(sim._sq(eps)).all()
        assert_engine_decodes_like_direct_form(codewords, msgs, eps)
        return
    if case == "e8-256":
        codewords = make_config(lattice=make_lattice("e8"), rate_bits=1 / 3,
                                master_seed=8).codewords
    elif case == "odd-16":
        codewords = odd_codebook(rng)
    elif case == "huge":
        # the largest words sit at |c|^2 = max/8: sent words on both sides
        # of the quarter-of-the-largest-float guard
        codewords = rng.standard_normal((32, 4))
        c2 = (codewords * codewords).sum(axis=1)
        codewords *= math.sqrt(big / 8 / c2.max())
    elif case == "offset":
        # words 1e6 from the origin and about 1 apart: the Gram form's
        # rounding, relative to |c|^2 ~ 1e12, dwarfs rel d^2
        codewords = 1e6 + rng.standard_normal((32, 4))
    else:
        # squares of the errors underflow; the words stay 1e-152 apart
        codewords = 1e-152 * rng.standard_normal((32, 4))
    msgs, eps = adversarial_errors(codewords, rng)
    inf, nan = math.inf, math.nan
    odd = np.array([[nan, 0, 0, 0], [inf, 0, 0, 0], [-inf, inf, 0, 0]])
    if codewords.shape[1] == 4:
        msgs = np.concatenate((msgs, [0, 1, 2]))
        eps = np.concatenate((eps, odd))
    assert_engine_decodes_like_direct_form(codewords, msgs, eps)


def test_only_uncertified_estimates_reach_the_screen(monkeypatch):
    """The screen sees exactly the real estimates that fail their radius
    test and the failing coupled estimates that differ from their twin; on
    a 20/30 dB E8 campaign with 256 words it sees under 1 % of them."""
    screened = []

    def counted(cfg, rows):
        screened.append(rows.copy())
        return _decode_index(cfg, rows)

    monkeypatch.setattr(sim, "_decode_index", counted)
    rng = np.random.default_rng(3)
    codewords = odd_codebook(rng)
    book = gaussian_book(codewords)
    msgs, eps = adversarial_errors(codewords, rng)
    coupled = eps.copy()
    coupled[::2] += 0.25  # half the coupled errors part from their twin
    engine_decode(book, msgs, eps, coupled)
    radius2 = sim._decode_radius2(book, np.arange(len(codewords)))
    fails = [~(sim._sq(e) < radius2[msgs]) for e in (eps, coupled)]
    fails[1][1::2] = False
    assert 0 < fails[0].sum() < len(eps)
    assert len(screened) == 2
    for got, e, f in zip(screened, (eps, coupled), fails):
        assert np.array_equal(got, codewords[msgs[f]] + e[f])

    screened.clear()
    cfg = make_config(params=ChannelParams.from_snrs(100.0, 1000.0),
                      lattice=make_lattice("e8"), rounds=3, rate_bits=1 / 3,
                      looseness=4.0, master_seed=20)
    estimate_error_prob(cfg, 500)
    assert sum(map(len, screened)) < 0.01 * 2 * 500


def test_decode_radius_is_computed_once_per_sent_codeword(monkeypatch):
    """A campaign computes each sent codeword's radius once, from its own
    row of Gram values, and no other codeword's."""
    rows = []

    def counted(cfg, words):
        rows.extend(words.tolist())
        return radius2(cfg, words)

    radius2 = sim._decode_radius2
    monkeypatch.setattr(sim, "_decode_radius2", counted)
    cfg = make_config(lattice=make_lattice("e8"), rounds=3, rate_bits=1 / 3,
                      looseness=4.0, master_seed=4)
    trials = 4 * sim._block_trials(cfg) + 7
    sent = set(_run_block(cfg, 0, trials).msgs.ravel().tolist())
    rows.clear()
    estimate_error_prob(cfg, trials)
    assert len(rows) == len(set(rows))
    assert set(rows) == sent
    assert len(sent) < cfg.m_codewords


def test_high_snr_trials_decode_correctly():
    strong = ChannelParams.from_snrs(1e6, 1e6)
    cfg = SchemeConfig(
        params=strong, rounds=2, looseness=30.0,
        lattice=cubic_lattice(1), rate_bits=1.0, master_seed=3,
    )
    s = estimate_error_prob(cfg, 300)
    assert s.p_e == 0.0 and s.p_dec == 0.0


# -----------------------------------------------------------------------------
# interval arithmetic
# -----------------------------------------------------------------------------

def test_wilson_interval_against_quadratic_roots():
    """The interval endpoints solve (phat-p)^2 = z^2 p(1-p)/n."""
    z = 1.959963984540054
    for k, n in [(0, 100), (3, 100), (50, 100), (997, 1000), (1000, 1000)]:
        lo, hi = wilson_interval(k, n)
        phat = k / n
        roots = np.roots([
            1.0 + z * z / n,
            -(2.0 * phat + z * z / n),
            phat * phat,
        ])
        lo_ref, hi_ref = sorted(float(r) for r in roots)
        assert lo == pytest.approx(max(0.0, lo_ref), abs=1e-12)
        assert hi == pytest.approx(min(1.0, hi_ref), abs=1e-12)


def test_wilson_interval_edges():
    lo, hi = wilson_interval(0, 50)
    assert lo == 0.0 and 0.0 < hi < 0.1
    lo, hi = wilson_interval(50, 50)
    assert hi == 1.0 and 0.9 < lo < 1.0
    with pytest.raises(ValueError):
        wilson_interval(1, 0)
    with pytest.raises(ValueError, match="successes"):
        wilson_interval(51, 50)


def test_estimate_rejects_bad_trial_count():
    with pytest.raises(ValueError):
        estimate_error_prob(make_config(), 0)
    with pytest.raises(ValueError):
        estimate_error_prob(make_config(), True)
