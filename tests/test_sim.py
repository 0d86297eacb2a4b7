"""Tests for the Monte-Carlo protocol simulator."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from awgn_feedback import (
    ChannelParams,
    JsccParams,
    SchemeConfig,
    cubic_lattice,
    d4_lattice,
    e8_lattice,
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
from awgn_feedback.sim import (
    _decode_index,
    _run_block,
    alpha_coefficient,
    gamma_coefficient,
    wiener_update,
)

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
# coefficients and the variance recursion
# -----------------------------------------------------------------------------

def test_gamma_sets_feedback_power_budget():
    """gamma^2 sigma_k^2 + fb noise variance == P~ / L exactly."""
    for L in (1.0, 40.0, 5000.0):
        for s in (1e-6, 0.01, 0.5):
            g = gamma_coefficient(P, L, s)
            assert g * g * s + P.sigma2_tilde == pytest.approx(
                P.p_tilde / L, rel=1e-12
            )


def test_alpha_restores_forward_power():
    for L in (1.0, 40.0, 5000.0):
        a = alpha_coefficient(P, L)
        # alpha^2 * (P~/L) == P
        assert a * a * P.p_tilde / L == pytest.approx(P.p, rel=1e-12)


def test_gamma_domain():
    with pytest.raises(ValueError):
        gamma_coefficient(P, P.bsnr, 0.01)  # budget fully eaten by noise
    with pytest.raises(ValueError):
        gamma_coefficient(P, 40.0, 0.0)


def test_wiener_update_contraction():
    s = P.sigma2
    for L in (1.0, 40.0, 2e4):
        _, s_next = wiener_update(s, P, L)
        assert s_next == pytest.approx(
            s * (1.0 + L / P.dsnr) / (1.0 + P.snr), rel=1e-12
        )


def test_wiener_update_exact_feedback_limit():
    _, s_next = wiener_update(0.01, NOISELESS_FB, 0.0)
    assert s_next == pytest.approx(0.01 / (1.0 + 100.0), rel=1e-12)
    with pytest.raises(ValueError):
        wiener_update(0.01, P, 0.0)  # noisy link cannot use looseness 0


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


def test_codebook_dimension_rules():
    with pytest.raises(ValueError):
        make_config(lattice=d4_lattice(), codebook="pam")
    with pytest.raises(ValueError):
        make_config(codebook="gaussian")  # needs dimension >= 2
    with pytest.raises(ValueError):
        make_config(rounds=1, rate_bits=21.0)  # PAM order beyond range
    with pytest.raises(ValueError):
        make_config(lattice=d4_lattice(), rounds=3, rate_bits=1.5)  # 2**18 words


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
        lattice=d4_lattice(), rounds=2, rate_bits=0.25, codebook="gaussian"
    )
    power = (cfg.codewords ** 2).sum(axis=1) / 4.0
    assert power.max() <= cfg.params.p * (1.0 + 1e-12)
    assert cfg.m_codewords == 4


def test_codebook_stream_key_holds_the_seed_exactly():
    """The codebook Philox key words are set as uint64, not via a float."""
    def gaussian(seed):
        return make_config(lattice=d4_lattice(), rounds=2, rate_bits=0.25,
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


def test_blocklength_counts_both_directions():
    assert make_config(rounds=3).blocklength == 6
    assert make_config(lattice=d4_lattice(), rounds=2,
                       rate_bits=0.25).blocklength == 16


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
        lattice=d4_lattice(), rounds=2, rate_bits=0.25, looseness=1.2,
        master_seed=11,
    )
    s = estimate_error_prob(cfg, 1500)
    assert s.union_agreement == 2 * s.trials
    assert s.p_mod_total > 0.0


SPLIT_CASES = [
    (dict(looseness=2.0, master_seed=13), 1500),
    (dict(lattice=d4_lattice(), rounds=2, rate_bits=0.25, looseness=1.2,
          master_seed=11), 600),
    (dict(lattice=e8_lattice(), rounds=3, rate_bits=0.25, looseness=1.2,
          master_seed=(1 << 64) - 1), 300),
]


def reference_copies(cfg, t):
    """Trial t as a plain loop over copies, systems and rounds.

    The trial is row t mod B of keyed block t // B, drawn here from its own
    Philox stream in the documented layout.  The dithers are the block's
    last draw and cancel from the residue, so they are not drawn here.
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
            th_hat = theta + z_fwd[i, 0]
            flags = []
            for k in range(steps):
                w = cfg.gains[k] * (th_hat - theta) + z_fb[i, k]
                residue = modulo(lat, w)
                flags.append(bool(np.any(residue != w)))
                x = cfg.alpha * (residue if system == "real" else w)
                th_hat = th_hat - cfg.betas[k] * (x + z_fwd[i, k + 1])
            out[system, i] = (flags, th_hat - theta)
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
        for (system, i), (flags, eps) in reference_copies(cfg, t).items():
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
    across the keyed blocks, changes no count and no float sum."""
    cfg = make_config(**kw)
    trials = sim._block_trials(cfg) + trials // 4  # two keyed blocks
    ref = estimate_error_prob(cfg, trials)
    assert estimate_error_prob(make_config(**kw), trials) == ref
    run_block = sim._run_block
    for size in (1, 7, 1000):
        def split(cfg, start, stop, size=size):
            cuts = [*range(start, stop, size), stop]
            return concat_blocks([run_block(cfg, a, b) for a, b in zip(cuts, cuts[1:])])

        monkeypatch.setattr(sim, "_run_block", split)
        assert estimate_error_prob(cfg, trials) == ref


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


# -----------------------------------------------------------------------------
# designed draws
# -----------------------------------------------------------------------------

ENGINE_CASES = [
    dict(),
    dict(rounds=2, looseness=4.0),
    dict(lattice=d4_lattice(), rounds=2, rate_bits=0.25, looseness=1.2),
    dict(lattice=e8_lattice(), rounds=3, rate_bits=0.25, looseness=1.2),
]


def designed_draws(cfg, trials, z_fb=None):
    """Noise-free draws of ``trials`` trials, messages cycling through the
    codebook, keyed-block dithers, and optional feedback noise."""
    real = sim._draw(cfg, 0)
    reps = -(-trials // len(real.msgs))
    dither = np.concatenate([real.dither] * reps)[:trials]
    msgs = np.arange(2 * trials).reshape(trials, 2) % cfg.m_codewords
    z_fwd = np.zeros((trials, 2, cfg.rounds, cfg.dimension))
    if z_fb is None:
        z_fb = np.zeros_like(dither)
    return sim._Draws(msgs, z_fwd, z_fb, dither)


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


def test_summary_holds_plain_python_scalars():
    """Counts are ints and averages floats, never numpy scalars, so the
    summary is small, exact and prints without numpy type names."""
    def plain(v):
        if isinstance(v, tuple):
            return all(plain(x) for x in v)
        return type(v) in (int, float)

    for cfg in (make_config(looseness=4.0, master_seed=7),
                make_config(lattice=d4_lattice(), rounds=2, rate_bits=0.25,
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
    """Decode a batch of one estimate."""
    return int(_decode_index(cfg, np.asarray(theta_hat, dtype=float)[None])[0])


def test_pam_decode_slicing():
    cfg = make_config(rounds=1, rate_bits=2.0)  # levels -1, -1/3, 1/3, 1
    for i in range(4):
        assert decode_one(cfg, cfg.codewords[i]) == i
    # clipping at the extremes
    assert decode_one(cfg, [-9.0]) == 0
    assert decode_one(cfg, [9.0]) == 3
    # nearest-level slicing
    assert decode_one(cfg, [0.4]) == 2
    assert decode_one(cfg, [-0.52]) == 1
    # exact midpoints round to the even index, as round() does
    assert decode_one(cfg, [-cfg.pam_step]) == 0
    assert decode_one(cfg, [cfg.pam_step]) == 2


def test_ml_decode_on_gaussian_codebook():
    cfg = make_config(
        lattice=d4_lattice(), rounds=2, rate_bits=0.25, codebook="gaussian"
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
                           codewords=codewords)


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


def test_estimate_rejects_bad_trial_count():
    with pytest.raises(ValueError):
        estimate_error_prob(make_config(), 0)
    with pytest.raises(ValueError):
        estimate_error_prob(make_config(), True)
