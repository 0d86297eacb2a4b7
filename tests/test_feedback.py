"""Tests for the feedback exponent optimizer and its high-SNR closed forms."""

import math
import random
import sys
import warnings
from decimal import Decimal, getcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awgn_feedback import (
    Binding,
    ChannelParams,
    balance_looseness,
    capacity,
    critical_rate,
    e_fb,
    effective_snr,
    expurgation_rate,
    gallager_exp,
    high_snr_bound,
    kstar_zero_rate,
    out_of_region_exponent,
    poltyrev_exponent,
    region_assumptions_hold,
)
from awgn_feedback.exponents import _decode_exponent, _poltyrev
from awgn_feedback.feedback import (
    _FIRST_K,
    _L_EDGE,
    _L_TOL,
    _PROBE_MARGIN,
    _capacity_looseness,
    _effective_snr,
    _eta,
    _inner_optimum,
    _region_anchor,
)

P20_30 = ChannelParams.from_snrs(100.0, 1000.0)


# -----------------------------------------------------------------------------
# channel parameters
# -----------------------------------------------------------------------------

def test_from_snrs_roundtrip():
    p = ChannelParams.from_snrs(50.0, 700.0)
    assert p.snr == pytest.approx(50.0, rel=1e-15)
    assert p.dsnr == pytest.approx(700.0, rel=1e-15)
    assert p.bsnr == pytest.approx(50.0 * 700.0, rel=1e-15)


def test_zero_variance_params():
    p = ChannelParams(p=1.0, p_tilde=1.0, sigma2=0.01, sigma2_tilde=0.0)
    assert p.dsnr == math.inf
    assert p.bsnr == math.inf
    q = ChannelParams(p=1.0, p_tilde=1.0, sigma2=0.0, sigma2_tilde=0.0)
    assert q.snr == math.inf
    assert q.dsnr == math.inf
    # a noiseless forward link under a noisy feedback link, also where bsnr
    # overflows to inf and bsnr / snr would be nan
    assert ChannelParams(1.0, 1.0, 0.0, 0.1).dsnr == 0.0
    assert ChannelParams(1e308, 1e308, 0.0, 1e-10).dsnr == 0.0


def test_from_snrs_infinite_snr_is_a_noiseless_link():
    """from_snrs builds the parameters the simulator's config path needs."""
    fb = ChannelParams.from_snrs(100.0, math.inf)
    assert fb == ChannelParams(p=1.0, p_tilde=1.0, sigma2=0.01, sigma2_tilde=0.0)
    fwd = ChannelParams.from_snrs(math.inf, 1000.0)
    assert fwd == ChannelParams(p=1.0, p_tilde=1.0, sigma2=0.0, sigma2_tilde=0.0)
    for bad in (math.nan, 0.0, -1.0, -math.inf):
        with pytest.raises(ValueError):
            ChannelParams.from_snrs(bad, 1000.0)
        with pytest.raises(ValueError):
            ChannelParams.from_snrs(100.0, bad)
    # finite SNRs whose product rounds to 0 or inf have no feedback variance
    for snr, dsnr in ((1e-200, 1e-200), (1e200, 1e200), (1e300, 1e10)):
        with pytest.raises(ValueError, match="leaves the float range"):
            ChannelParams.from_snrs(snr, dsnr)
    assert ChannelParams.from_snrs(1e200, 1e-200).sigma2_tilde == 1.0
    assert ChannelParams.from_snrs(1e300, math.inf).sigma2_tilde == 0.0
    # the analysis still needs both links noisy
    for params in (fb, fwd):
        with pytest.raises(ValueError, match="noisy"):
            e_fb(params, 0.5)


def test_params_store_floats_of_any_real_type():
    py = ChannelParams(1.0, 1.0, 0.01, 0.0001)
    for np_params in (ChannelParams(np.float64(1.0), np.int64(1), 0.01, 0.0001),
                      ChannelParams(np.float32(1.0), 1, np.float64(0.01), 0.0001)):
        assert np_params == py and hash(np_params) == hash(py)
        assert {type(v) for v in vars(np_params).values()} == {float}
    _region_anchor.cache_clear()
    anchor = _region_anchor(py)
    assert _region_anchor(ChannelParams(np.float64(1.0), 1.0, 0.01, 0.0001)) == anchor
    assert _region_anchor.cache_info().hits == 1


def test_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(p=0.0, p_tilde=1.0, sigma2=0.01, sigma2_tilde=0.001)
    with pytest.raises(ValueError):
        ChannelParams(p=1.0, p_tilde=-1.0, sigma2=0.01, sigma2_tilde=0.001)
    with pytest.raises(ValueError):
        ChannelParams(p=1.0, p_tilde=1.0, sigma2=-0.01, sigma2_tilde=0.001)
    with pytest.raises(ValueError):
        ChannelParams.from_snrs(100.0, 0.0)


# -----------------------------------------------------------------------------
# effective SNR
# -----------------------------------------------------------------------------

def test_effective_snr_frozen():
    assert effective_snr(P20_30, 28150.0, 5) == pytest.approx(
        14412.232471746109, rel=1e-12
    )


def test_effective_snr_growth_identity():
    # two algebraic forms of the per-round gain must coincide
    p = P20_30
    for L in (1.5, 40.0, 2e4):
        g1 = 1.0 + p.snr * (1.0 - L / p.bsnr) / (1.0 + L / p.dsnr)
        g2 = (1.0 + p.snr) / (1.0 + L / p.dsnr)
        assert g1 == pytest.approx(g2, rel=1e-12)
        for k in (1, 2, 7):
            assert effective_snr(p, L, k) == pytest.approx(
                p.snr * g2 ** (k - 1), rel=1e-12
            )


def test_effective_snr_domain():
    with pytest.raises(ValueError):
        effective_snr(P20_30, 0.5, 3)
    with pytest.raises(ValueError):
        effective_snr(P20_30, P20_30.bsnr, 3)
    with pytest.raises(ValueError):
        effective_snr(P20_30, 40.0, 0)
    with pytest.raises(ValueError):
        effective_snr(P20_30, 40.0, 2.5)


def test_effective_snr_single_round_is_plain_snr():
    assert effective_snr(P20_30, 123.0, 1) == P20_30.snr


def test_effective_snr_beyond_float_range_is_inf():
    # g**199 overflows the float range itself, not only the product
    assert effective_snr(ChannelParams.from_snrs(100, 1000), 5.0, 200) == math.inf


# -----------------------------------------------------------------------------
# the optimizer
# -----------------------------------------------------------------------------

# frozen regression anchors for snr=20 dB, dsnr=30 dB (values from this
# implementation, pinned to catch accidental drift; the acceptance suite
# separately checks the first three against the paper's plot coordinates and
# the R/C ~ 0.9 anchor against a grid-proven bracket on the optimum)
FROZEN_SPOTS = [
    (0.0, 3.6416194901350507, 6, 34959.547105296486),
    (18.0, 0.65500113855483466, 8, 8384.0145751943346),
    (30.0, 0.19519227099324152, 9, 2810.7687025084224),
    (49.0, 0.0070417619663409618, 22, 247.87002121520186),
]
GRID_TOP = 0.899805086281822


@pytest.mark.parametrize("step,e_norm,k_star,l_star", FROZEN_SPOTS)
def test_e_fb_frozen_spots(step, e_norm, k_star, l_star):
    rate = step * GRID_TOP / 49.0 * capacity(100.0)
    res = e_fb(P20_30, rate)
    assert res.e_fb / 100.0 == pytest.approx(e_norm, rel=1e-12)
    assert res.k_star == k_star
    assert res.l_star == pytest.approx(l_star, rel=1e-9)
    assert res.binding is Binding.BALANCED
    assert res.region_valid


def test_e_fb_recompute_invariant():
    """Plugging (k_star, l_star) back into the objective returns e_fb."""
    for rate in (0.0, 0.7, 1.5, 2.5):
        res = e_fb(P20_30, rate)
        snr_k = effective_snr(P20_30, res.l_star, res.k_star)
        kr = res.k_star * rate
        dec = 0.0
        if kr < capacity(snr_k):
            dec = gallager_exp(snr_k, kr)[0]
        mod = poltyrev_exponent(res.l_star)
        again = min(dec, mod) / (2.0 * res.k_star)
        assert again == pytest.approx(res.e_fb, rel=1e-9)


def test_e_fb_bisection_matches_grid_scan():
    """The inner bisection agrees with a brute-force 2000-point grid."""
    p = P20_30
    for rate, k in [(0.0, 4), (0.0, 8), (0.8, 4), (0.8, 8), (2.0, 10)]:
        _, l_bis, _, _ = _inner_optimum(p.snr, p.bsnr, p.dsnr, rate, k)

        lo, hi = 1.0 + 1e-9, p.bsnr * (1.0 - 1e-9)
        step = (hi - lo) / 1999.0
        best_v, best_l = -1.0, lo
        for i in range(2000):
            L = lo + i * step
            snr_k = effective_snr(p, L, k)
            dec = 0.0
            if k * rate < capacity(snr_k):
                dec = gallager_exp(snr_k, k * rate)[0]
            v = min(dec, poltyrev_exponent(L))
            if v > best_v:
                best_v, best_l = v, L
        assert abs(l_bis - best_l) <= max(step, 0.0025 * l_bis)


def test_e_fb_monotone_in_rate():
    cap = capacity(100.0)
    vals = [e_fb(P20_30, x * cap).e_fb for x in (0.0, 0.15, 0.3, 0.5, 0.7, 0.85)]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-12


def test_e_fb_monotone_in_dsnr():
    rate = 0.4 * capacity(100.0)
    vals = [
        e_fb(ChannelParams.from_snrs(100.0, d), rate).e_fb
        for d in (30.0, 100.0, 1000.0, 1e4)
    ]
    for a, b in zip(vals, vals[1:]):
        assert b >= a - 1e-12


def test_e_fb_rejects_rates_at_or_above_capacity():
    cap = capacity(100.0)
    with pytest.raises(ValueError):
        e_fb(P20_30, cap)
    with pytest.raises(ValueError):
        e_fb(P20_30, cap * 1.5)


def test_e_fb_requires_noisy_feedback():
    exact = ChannelParams(p=1.0, p_tilde=1.0, sigma2=0.01, sigma2_tilde=0.0)
    with pytest.raises(ValueError):
        e_fb(exact, 0.5)


def test_nan_dsnr_is_rejected():
    """P / sigma2 and P~ / sigma2~ both overflow, so dsnr = inf / inf is nan;
    the analysis rejects it as it rejects dsnr <= 1, never returning nan."""
    params = ChannelParams(1e308, 1e308, 1e-10, 1e-10)
    assert math.isnan(params.dsnr)
    for call in (lambda: balance_looseness(params, 0.5, 3),
                 lambda: effective_snr(params, 2.0, 3),
                 lambda: e_fb(params, 0.5)):
        with pytest.raises(ValueError, match="dsnr > 1"):
            call()


def test_e_fb_rejects_infinite_bsnr():
    # p_tilde / sigma2_tilde overflows: the search interval has no top
    params = ChannelParams(p=1.0, p_tilde=10.0, sigma2=0.01, sigma2_tilde=1e-308)
    assert params.bsnr == math.inf
    with pytest.raises(ValueError, match="^bsnr must be finite, got inf"):
        e_fb(params, 0.5)


@pytest.mark.parametrize("bsnr", [0.5, 1.0 + 1e-10])
def test_e_fb_rejects_bsnr_without_a_looseness_interval(bsnr):
    """No L in (1, bsnr): the error names bsnr, not an interval end."""
    params = ChannelParams(p=1.0, p_tilde=bsnr, sigma2=10.0, sigma2_tilde=1.0)
    assert params.bsnr == bsnr and params.dsnr > 1.0
    with pytest.raises(ValueError, match=f"^bsnr {bsnr} .*feedback SNR above 1"):
        e_fb(params, 0.01)


def test_e_fb_rejects_a_first_round_count_above_k_max():
    e_fb(P20_30, 0.5, k_max=8, k_first=8)
    with pytest.raises(ValueError, match=r"^k_first must be in \[1, 9\), got 9"):
        e_fb(P20_30, 0.5, k_max=8, k_first=9)


def test_e_fb_k_max_boundary_warning():
    with pytest.warns(RuntimeWarning):
        res = e_fb(P20_30, 0.0, k_max=3)
    assert res.k_at_boundary
    assert res.k_star == 3
    # unrestricted search does better and does not warn
    full = e_fb(P20_30, 0.0)
    assert not full.k_at_boundary
    assert full.e_fb > res.e_fb


def test_e_fb_pruning_is_lossless():
    # k_max beyond the prune point cannot change the result
    a = e_fb(P20_30, 1.0, k_max=64)
    b = e_fb(P20_30, 1.0, k_max=40)
    assert a.e_fb == b.e_fb and a.k_star == b.k_star and a.l_star == b.l_star


def checked_decode(p, rate, L, k):
    """e_fb's decode exponent through the checked public functions."""
    # a boosted SNR past the float range decodes as the largest float
    snr_k = min(effective_snr(p, L, k), sys.float_info.max)
    if k * rate >= capacity(snr_k):
        return 0.0
    return gallager_exp(snr_k, k * rate)[0]


def checked_gap(p, rate, L, k):
    return checked_decode(p, rate, L, k) - poltyrev_exponent(L)


def checked_search(p, rate, k_max=64):
    """e_fb's K scan and L bisection through the checked public functions."""
    best = (-math.inf, 1, 1.0)
    for k in range(1, k_max + 1):
        if p.bsnr / (16.0 * k) <= best[0]:
            break
        lo, hi = 1.0 + 1e-9, p.bsnr * (1.0 - 1e-9)
        if checked_gap(p, rate, lo, k) <= 0.0:
            L = lo
        elif checked_gap(p, rate, hi, k) >= 0.0:
            L = hi
        else:
            a, b = lo, hi
            while b - a > 1e-10 * a:
                mid = 0.5 * (a + b)
                if checked_gap(p, rate, mid, k) > 0.0:
                    a = mid
                else:
                    b = mid
            L = 0.5 * (a + b)
        val = min(checked_decode(p, rate, L, k), poltyrev_exponent(L)) / (2.0 * k)
        if val > best[0]:
            best = (val, k, L)
    return best


@pytest.mark.parametrize(
    "snr_db, dsnr_db",
    [
        (20.0, 30.0),
        (10.0, 20.0),
        (3.0, 33.0),
        (15.0, 25.0),
        (30.0, 30.0),
        (40.0, 40.0),
        (25.0, 35.0),
        (20.0, 1.5),
    ],
)
def test_e_fb_matches_checked_search_bitwise(snr_db, dsnr_db):
    """The search on unchecked kernels reproduces the ascending checked scan
    bit for bit, at several k_max since the first round count run and the
    end of the scan depend on it."""
    p = ChannelParams.from_snrs(10.0 ** (snr_db / 10.0), 10.0 ** (dsnr_db / 10.0))
    cap = capacity(p.snr)
    for k_max in (1, 3, 13, 64):
        for x in (0.0, 0.1, 0.45, 0.8, 0.9):
            with warnings.catch_warnings():
                # k_max hits below 64, and at 64 at 3 dB
                warnings.simplefilter("ignore", RuntimeWarning)
                res = e_fb(p, x * cap, k_max)
            assert (res.e_fb, res.k_star, res.l_star) == checked_search(
                p, x * cap, k_max
            )


def test_poltyrev_non_decreasing():
    """The probe's stop (point 4 of e_fb's proof) bounds the value by the
    modulo exponent at the probe, which needs exactly this monotonicity."""
    xs = [1.0 + i / 1000.0 for i in range(-999, 100_000)]
    for edge in (1.0, 2.0, 4.0):
        below, above = [edge], [edge]
        for _ in range(200):
            below.append(math.nextafter(below[-1], 0.0))
            above.append(math.nextafter(above[-1], math.inf))
        xs += below + above
    xs.sort()
    vals = [poltyrev_exponent(x) for x in xs]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def _random_link(rng):
    """Forward SNR -5..60 dB and feedback SNR at least 0.5 dB."""
    snr_db = rng.uniform(-5.0, 60.0)
    dsnr_db = max(rng.uniform(0.5, 60.0), 0.5 - snr_db)
    return ChannelParams.from_snrs(10.0 ** (snr_db / 10.0), 10.0 ** (dsnr_db / 10.0))


def test_e_fb_matches_checked_search_on_random_draws():
    """Seeded random links, rates and k_max: the same bits as the checked
    scan."""
    rng = random.Random(2015)
    for i in range(300):
        p = _random_link(rng)
        rate = (0.0 if i % 10 == 0 else rng.uniform(0.0, 0.999)) * capacity(p.snr)
        k_max = (1, 2, 5, 13, 64, 100)[i % 6]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = e_fb(p, rate, k_max)
        assert (res.e_fb, res.k_star, res.l_star) == checked_search(
            p, rate, k_max
        ), (p, rate, k_max)


def test_balance_start_stays_below_the_float_capacity(monkeypatch):
    """The looseness search takes its closed-form start only where
    decode(1 + _L_EDGE) > _poltyrev(1 + _L_EDGE) > 0, which puts K R below
    capacity(float max) = 512 bits, so eta(K R) >= 2**-513 never
    underflows to 0 there.  Seeded links of -5..300 dB, rates up to within
    1e-9 of capacity, k_max 64."""
    from awgn_feedback import feedback

    assert _poltyrev(1.0 + _L_EDGE) > 0.0
    calls = []
    balance = feedback._balance_looseness

    def recorded(bsnr, dsnr, rate_bits, rounds):
        calls.append(rounds * rate_bits)
        return balance(bsnr, dsnr, rate_bits, rounds)

    monkeypatch.setattr(feedback, "_balance_looseness", recorded)
    rng = random.Random(512)
    for i in range(240):
        snr_db = rng.uniform(-5.0, 300.0)
        dsnr_db = max(rng.uniform(0.5, 60.0), 0.5 - snr_db)
        p = ChannelParams.from_snrs(10.0 ** (snr_db / 10.0), 10.0 ** (dsnr_db / 10.0))
        gap = 1e-9 if i % 4 == 0 else 10.0 ** rng.uniform(-9.0, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            e_fb(p, (1.0 - gap) * capacity(p.snr), 64)
    # the draws come within a few bits of the bound
    assert len(calls) > 240 and 500.0 < max(calls) < 512.0


def _count_evals(monkeypatch):
    """Tally e_fb's decode evaluations at the decode kernel in feedback's
    namespace, ``_decode_exponent``: the probes call it, and the looseness
    searches at every looseness they evaluate, the final one included; the
    binding check reuses the final one's."""
    from awgn_feedback import feedback

    total = 0

    def counted(*args):
        nonlocal total
        total += 1
        return _decode_exponent(*args)

    monkeypatch.setattr(feedback, "_decode_exponent", counted)
    return lambda: total


def test_e_fb_prunes_losing_round_counts(monkeypatch):
    """Round counts that cannot beat the best value stop their search."""
    evals = _count_evals(monkeypatch)
    e_fb(P20_30, 1.0)
    # 62 here; without the capacity end 98, and without the probe as well
    # every K up to 64 runs its full search, 912
    assert 0 < evals() <= 67


@pytest.mark.parametrize(
    "snr_db, dsnr_db, budget",
    # each sweep makes 2 537, 2 096 and 2 593 evaluations, with each rate's
    # search started at the previous rate's K*; budgets allow 10 % more
    [("20", "30", 2_776), ("10", "20", 2_291), ("30", "30", 2_840)],
    ids=["20-30", "10-20", "30-30"],
)
def test_fig1_sweep_evaluation_budget(monkeypatch, tmp_path, snr_db, dsnr_db, budget):
    """One ``exponents --fig1`` sweep at each golden link stays within its
    evaluation budget."""
    from awgn_feedback.cli import main

    evals = _count_evals(monkeypatch)
    argv = ["exponents", "--fig1", "--snr-db", snr_db, "--dsnr-db", dsnr_db,
            "--out", str(tmp_path / "fig1.csv")]
    assert main(argv) == 0
    assert 0 < evals() <= budget


def test_one_rate_calls_evaluation_budget(monkeypatch):
    """The 300 seeded inputs of ``golden/optimize_points.csv``, each a call
    with no first round count, stay within their evaluation budget."""
    evals = _count_evals(monkeypatch)
    golden = Path(__file__).parent / "golden" / "optimize_points.csv"
    for line in golden.read_text().splitlines()[1:]:
        snr, dsnr, rate, k_max = line.split(",")[:4]
        p = ChannelParams.from_snrs(float.fromhex(snr), float.fromhex(dsnr))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            e_fb(p, float.fromhex(rate), int(k_max))
    # 24 824 evaluations; the budget allows 10 % more
    assert 0 < evals() <= 27_300


def test_a_zero_incumbent_ends_the_scan(monkeypatch):
    """Seeded links at rates R = C (1 - 10^u), u in [-16, -3], where many
    calls are worth 0: the same bits as the checked scan.  A call worth 0
    at k_max = 64 ends at the capacity end just past the first K, after
    two evaluations per K up to it, instead of searching all 64 round
    counts at two evaluations each."""
    evals = _count_evals(monkeypatch)
    rng = random.Random(16)
    zeros = 0
    for i in range(400):
        p = _random_link(rng)
        rate = capacity(p.snr) * (1.0 - 10.0 ** rng.uniform(-16.0, -3.0))
        k_max = (1, 2, 5, 13, 64, 100)[i % 6]
        before = evals()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = e_fb(p, rate, k_max)
        spent = evals() - before
        assert (res.e_fb, res.k_star, res.l_star) == checked_search(
            p, rate, k_max
        ), (p, rate, k_max)
        if res.e_fb == 0.0 and k_max == 64:
            zeros += 1
            assert spent <= 2 * _FIRST_K + 2, (p, rate, spent)
    assert zeros >= 20


def _plain_bisection(snr, bsnr, dsnr, rate, k):
    """_inner_optimum's bisection with every midpoint evaluated, on the same
    kernels."""
    lo, hi = 1.0 + _L_EDGE, bsnr * (1.0 - _L_EDGE)

    def decode(L):
        return _decode_exponent(_effective_snr(snr, bsnr, dsnr, L, k), k * rate)

    if decode(hi) - poltyrev_exponent(hi) >= 0.0:
        L = hi
    else:
        a, b = lo, hi
        while b - a > _L_TOL * a:
            mid = 0.5 * (a + b)
            if decode(mid) - poltyrev_exponent(mid) > 0.0:
                a = mid
            else:
                b = mid
        L = 0.5 * (a + b)
    if decode(lo) - poltyrev_exponent(lo) <= 0.0:
        L = lo
    dec, mod = decode(L), poltyrev_exponent(L)
    return min(dec, mod) / (2.0 * k), L, dec, mod


def test_replay_is_the_bisection_for_every_round_count(monkeypatch):
    """The certified replay returns the plain bisection's value and looseness
    bit for bit, and so does a replay with no secant step, which certifies
    nothing.  Seeded links (a third of them at forward SNRs of 48-60 dB,
    where the boosted SNR overflows), rates of 0, near capacity and in
    between, and K up to 100."""
    from awgn_feedback import feedback

    rng = random.Random(24)
    overflowed = 0
    for i in range(1200):
        if i % 3 == 0:
            snr = 10.0 ** (rng.uniform(48.0, 60.0) / 10.0)
            p = ChannelParams.from_snrs(snr, 10.0 ** (rng.uniform(0.5, 60.0) / 10.0))
        else:
            p = _random_link(rng)
        cap = capacity(p.snr)
        near_cap = cap * (1.0 - rng.uniform(0.0, 0.01))
        rate = rng.choice((0.0, near_cap, rng.uniform(0.0, cap)))
        k = rng.choice((1, rng.randint(1, 100)))
        args = (p.snr, p.bsnr, p.dsnr, rate, k)
        expected = _plain_bisection(*args)
        assert _inner_optimum(*args) == expected, args
        with monkeypatch.context() as m:
            m.setattr(feedback, "_SECANT_STEPS", 0)
            assert _inner_optimum(*args) == expected, args
        overflowed += effective_snr(p, 1.0 + _L_EDGE, k) == math.inf
    assert overflowed >= 100


def _record_full_searches(monkeypatch):
    """The round counts whose looseness search e_fb runs to the end."""
    from awgn_feedback import feedback

    ran = []
    inner = feedback._inner_optimum

    def recorded(*args):
        ran.append(args[4])
        return inner(*args)

    monkeypatch.setattr(feedback, "_inner_optimum", recorded)
    return ran


def test_probe_stops_only_where_it_cannot_win(monkeypatch):
    """The probe drops a K only at a bound below the incumbent's value;
    every other K runs its search to the end.  K = 1 runs first and scores
    the incumbent's value, K = 2..k-1 score 0, and K = k is searched."""
    from awgn_feedback import feedback

    inner = feedback._inner_optimum
    ran = []

    def search_runs(rate, k, best):
        def fake(*args):
            ran.append(args[4])
            if args[4] == k:
                return inner(*args)
            value = best if args[4] == 1 else 0.0
            return value, 1.0, value, value

        ran.clear()
        monkeypatch.setattr(feedback, "_inner_optimum", fake)
        res = e_fb(P20_30, rate, k_max=k, k_first=1)
        assert (res.e_fb, res.k_star) == (best, 1)
        return k in ran

    p, rate, k = P20_30, 1.0, 8
    value = inner(p.snr, p.bsnr, p.dsnr, rate, k)[0]
    # the modulo exponent at the first midpoint, over 2K, is above K's value,
    # so a probe at 16 K times it lies past K's crossing and drops K
    mid = 0.5 * ((1.0 + _L_EDGE) + p.bsnr * (1.0 - _L_EDGE))
    assert _decode_exponent(effective_snr(p, mid, k), k * rate) < poltyrev_exponent(mid)
    first = poltyrev_exponent(mid) / (2.0 * k)
    probe = 16.0 * k * first * (1.0 - _PROBE_MARGIN)
    assert value <= poltyrev_exponent(probe) / (2.0 * k) < first
    assert not search_runs(rate, k, first)
    # an incumbent equal to K's value: K runs to the end
    assert search_runs(rate, k, value)

    # near capacity K's crossing lies below L = 4, where poltyrev(L) < L/8:
    # an incumbent above K's value can put the probe below the crossing, and
    # then K, which cannot win, still runs to the end
    rate, k = 0.95 * capacity(p.snr), 3
    value, l_opt, _, _ = inner(p.snr, p.bsnr, p.dsnr, rate, k)
    best = 0.5 * (value + l_opt / (16.0 * k))
    assert value < best
    assert 1.0 + _L_EDGE < 16.0 * k * best * (1.0 - _PROBE_MARGIN) < l_opt < 4.0
    assert search_runs(rate, k, best)


def test_probe_stops_only_round_counts_that_cannot_win(monkeypatch):
    """Seeded links, rates and k_max, with a random first K on every other
    call: each K whose search e_fb did not run to the end scores below the
    result, or, past the scan bound bsnr/(16K), no higher than it.  A K the
    probe dropped costs one decode evaluation and nothing else; a K past
    the capacity end costs none.  That end stops the scan where the bound
    bsnr/(16K) would not on a quarter of the calls, and leaves a thousand
    round counts unscanned over them."""
    from awgn_feedback import feedback

    ran = _record_full_searches(monkeypatch)
    probed = []

    def counted(snr_k, rate_k, *terms):
        # the looseness searches pass the rate terms and the binding check
        # reuses the winner's exponents, so every call without the terms is
        # a probe; its rate is K times the rate
        if not terms:
            probed.append(round(rate_k / rate))
        return _decode_exponent(snr_k, rate_k, *terms)

    monkeypatch.setattr(feedback, "_decode_exponent", counted)
    rng = random.Random(18)
    stops = capacity_ends = skipped = 0
    for i in range(400):
        p = _random_link(rng)
        rate = rng.uniform(0.0, 0.999) * capacity(p.snr)
        k_max = rng.choice((5, 13, 64))
        k_first = rng.randint(1, k_max) if i % 2 else None
        ran.clear()
        probed.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = e_fb(p, rate, k_max, k_first=k_first)
        dropped = past_end = 0
        for k in set(range(1, k_max + 1)) - set(ran):
            value = _inner_optimum(p.snr, p.bsnr, p.dsnr, rate, k)[0]
            if k in probed:
                # the probe dropped K, at one evaluation
                dropped += 1
                assert probed.count(k) == 1, (p, rate, k)
                assert value < res.e_fb, (p, rate, k)
            elif p.bsnr / (16.0 * k) > res.e_fb:
                # past the capacity end, where bsnr/(16K) still exceeds the result
                past_end += 1
                assert value < res.e_fb, (p, rate, k)
            else:
                assert value < res.e_fb or (value == res.e_fb and k > res.k_star)
        # every other probe led to a search; the first K ran with no probe
        assert dropped <= len(probed) <= dropped + len(ran) - 1
        stops += dropped
        capacity_ends += past_end > 0
        skipped += past_end
    assert stops >= 1000
    assert capacity_ends >= 50 and skipped >= 1000


def _high_rate(rng, p):
    """A rate from 0.3 C to within 1e-9 of C, its distance to C log-uniform."""
    return (1.0 - 10.0 ** rng.uniform(-9.0, math.log10(0.7))) * capacity(p.snr)


def test_capacity_end_leaves_no_decodable_looseness():
    """Point 6 of e_fb's proof, in floats: where _capacity_looseness bounds
    the looseness for K0, the float decode exponent is 0 at K0 and at larger
    K on a geometric grid over [max(end, 1), bsnr) and on a run of adjacent
    floats from its bottom.  Seeded links with forward SNR -5..60 dB and
    dsnr 1.1..1e6, K0 in 2..64; a third of them at 50-60 dB and K0 >= 52,
    where K0 R can pass 512 bits and c^K0 - 1 the float range."""
    rng = random.Random(27)
    bounded = overflowed = below_one = small = 0
    for i in range(600):
        snr_db = rng.uniform(50.0, 60.0) if i % 3 == 0 else rng.uniform(-5.0, 60.0)
        dsnr = 10.0 ** rng.uniform(math.log10(1.1), 6.0)
        p = ChannelParams.from_snrs(10.0 ** (snr_db / 10.0), dsnr)
        rate = _high_rate(rng, p)
        k0 = rng.randint(52, 64) if i % 3 == 0 else rng.randint(2, 64)
        end = _capacity_looseness(p.snr, p.bsnr, p.dsnr, rate, k0)
        if not end < p.bsnr:
            continue
        bounded += 1
        # expm1 overflows exactly from K0 R > 512 bits on
        overflowed += k0 * rate > 512.0
        below_one += end < 1.0
        small += 1.0 <= end < 1e-3 * p.dsnr
        start = max(end, 1.0)
        grid = [start * (p.bsnr / start) ** (j / 60) for j in range(60)]
        L = start
        for _ in range(20):
            grid.append(L)
            L = math.nextafter(L, math.inf)
        for k in {k0, k0 + 1, rng.randint(k0, 100), 100}:
            for L in grid:
                if L < p.bsnr:
                    snr_k = _effective_snr(p.snr, p.bsnr, p.dsnr, L, k)
                    assert _decode_exponent(snr_k, k * rate) == 0.0, (p, rate, k0, k, L)
    assert bounded >= 500
    assert overflowed >= 50 and below_one >= 100 and small >= 20


def test_e_fb_matches_checked_search_where_the_capacity_end_binds():
    """Seeded links at rates from 0.3 C to within 1e-9 of C, a random first
    K and k_max in {13, 64, 100}: the same bits as the checked scan, which
    has no capacity end.  On many draws that end lies below the result at
    a K where bsnr/(16K) does not."""
    rng = random.Random(2027)
    binds = 0
    for i in range(150):
        p = _random_link(rng)
        rate = _high_rate(rng, p)
        k_max = (13, 64, 100)[i % 3]
        k_first = rng.randint(1, k_max)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = e_fb(p, rate, k_max, k_first=k_first)
        assert (res.e_fb, res.k_star, res.l_star) == checked_search(
            p, rate, k_max
        ), (p, rate, k_max, k_first)
        k_end = max(k_first, 2)
        end = _capacity_looseness(p.snr, p.bsnr, p.dsnr, rate, k_end)
        mod_end = poltyrev_exponent(max(end, 1.0))
        binds += any(
            mod_end / (2.0 * k) < res.e_fb < p.bsnr / (16.0 * k)
            for k in range(k_end, k_max + 1)
        )
    assert binds >= 60


def test_decode_exponent_does_not_rise_with_looseness():
    """The probe's stop (point 4 of e_fb's proof) needs the float decode
    exponent to be non-increasing in L.  Seeded links, rates and round
    counts, on a geometric grid over the search interval and on runs of
    adjacent floats."""
    rng = random.Random(1959)
    for _ in range(150):
        p = _random_link(rng)
        rate = rng.uniform(0.0, 0.999) * capacity(p.snr)
        k = rng.randint(1, 128)
        lo, hi = 1.0 + 1e-9, p.bsnr * (1.0 - 1e-9)
        grid = [lo * (hi / lo) ** (i / 400) for i in range(401)]
        for _ in range(8):
            L = lo * (hi / lo) ** rng.random()
            for _ in range(40):
                grid.append(L)
                L = math.nextafter(L, math.inf)
        grid = sorted(L for L in grid if lo <= L <= hi)
        vals = [_decode_exponent(effective_snr(p, L, k), k * rate) for L in grid]
        assert all(a >= b for a, b in zip(vals, vals[1:])), (p, rate, k)


def test_e_fb_tie_goes_to_the_smaller_round_count(monkeypatch):
    """When two round counts reach a bit-equal value, the smaller K wins, as
    in the ascending scan of checked_search, even when the larger K runs
    first."""
    from awgn_feedback import feedback

    def inner(snr, bsnr, dsnr, rate_bits, rounds):
        value = 1.0 if rounds in (2, 4) else 0.0
        return value, float(rounds), value, value

    monkeypatch.setattr(feedback, "_inner_optimum", inner)
    res = e_fb(P20_30, 1.0, k_max=8, k_first=4)
    assert (res.e_fb, res.k_star, res.l_star) == (1.0, 2, 2.0)


@pytest.mark.parametrize("snr_db, dsnr_db", [(20.0, 30.0), (3.0, 33.0), (40.0, 40.0)])
def test_e_fb_does_not_depend_on_the_first_round_count(snr_db, dsnr_db):
    """Whichever K runs first and sets the incumbent, every field of the
    result keeps its bits."""
    p = ChannelParams.from_snrs(10.0 ** (snr_db / 10.0), 10.0 ** (dsnr_db / 10.0))
    for x in (0.0, 0.5, 0.9):
        rate = x * capacity(p.snr)
        with warnings.catch_warnings():
            # the argmax sits at k_max = 64 at 3 dB
            warnings.simplefilter("ignore", RuntimeWarning)
            expected = repr(e_fb(p, rate))
            for k0 in range(1, 65):
                assert repr(e_fb(p, rate, k_first=k0)) == expected, (x, k0)


def _bits(f, *args):
    """A call's value as exact bits, or the error it raised."""
    try:
        return float.hex(f(*args))
    except ValueError as exc:
        return repr(exc)


def _gallager_value(snr, rate):
    return gallager_exp(snr, rate)[0]


@pytest.mark.parametrize("snr", [1e-3, 1.0, 1e8, 1e16, 1e160, 1e300])
def test_decode_path_matches_gallager_exp_bitwise(snr):
    """The optimizer's decode exponent is gallager_exp's, bit for bit.

    Rates sit exactly on the region boundaries.  Every value is finite, also
    from snr ~1e154 on, where snr*(beta - 1) in the sphere-packing form
    overflows; at capacity both paths return 0.
    """
    r_cr, cap = critical_rate(snr), capacity(snr)
    rates = [
        0.0,
        expurgation_rate(snr),
        r_cr,
        0.5 * (r_cr + cap),
        math.nextafter(cap, 0.0),
    ]
    for rate in rates:
        assert _bits(_decode_exponent, snr, rate) == _bits(_gallager_value, snr, rate)
        assert math.isfinite(_gallager_value(snr, rate))
    assert _bits(_decode_exponent, snr, cap) == float.hex(0.0)
    assert _bits(_gallager_value, snr, cap) == float.hex(0.0)


def test_decode_path_reads_an_overflowed_snr_as_the_largest_float():
    """A boosted SNR beyond the float range decodes as the largest float,
    bit for bit gallager_exp's value there, and 0 from 512 bits on, the
    capacity there; the public gallager_exp still rejects an infinite SNR."""
    top = sys.float_info.max
    for rate in (0.0, 1.0, 511.0):
        value = _bits(_decode_exponent, math.inf, rate)
        assert value == _bits(_gallager_value, top, rate)
        assert "finite" in _bits(_gallager_value, math.inf, rate)
    assert _decode_exponent(math.inf, 512.0) == 0.0


def test_e_fb_does_not_rest_on_an_overflowed_snr():
    """At 60/40 dB and R/C ~ 0.863, K*R reaches 512 bits, the capacity at the
    largest float, from K = 60 on.  The boosted SNR of such a K overflows at
    small L, where the decode exponent is 0, so the crossing of the two
    exponents lies where the SNR is finite, and the optimum is the balanced
    one at K = 12, not a crossing put on the overflow edge at k_max.  A K
    with K*R >= 512 bits cannot decode at any float SNR: its value is 0."""
    params = ChannelParams.from_snrs(1e6, 1e4)
    rate = 8.601253260169738
    res = e_fb(params, rate)
    assert (res.k_star, res.binding, res.region_valid) == (12, Binding.BALANCED, True)
    assert res.e_fb == pytest.approx(113.33378870367632, rel=1e-12)
    assert res.l_star == pytest.approx(21760.087431785418, rel=1e-9)
    for k in range(1, 65):
        value = _inner_optimum(params.snr, params.bsnr, params.dsnr, rate, k)[0]
        assert value == 0.0 if k * rate >= 512.0 else value > 0.0, k


# -----------------------------------------------------------------------------
# closed forms
# -----------------------------------------------------------------------------

def test_eta_endpoints_and_monotonicity():
    assert _eta(0.0) == 1.0
    xs = [0.0, 0.5, 1.0, 3.0, 10.0, 30.0]
    vals = [_eta(x) for x in xs]
    for a, b in zip(vals, vals[1:]):
        assert b < a


def test_eta_high_precision():
    # compare against a 50-digit evaluation of 1 - sqrt(1 - 2**-x)
    getcontext().prec = 50
    for x in (0.3, 2.0, 10.0, 30.0, 45.0):
        u = Decimal(2) ** Decimal(-x)
        ref = 1 - (1 - u).sqrt()
        assert _eta(x) == pytest.approx(float(ref), rel=1e-13)


def test_balance_looseness_frozen():
    assert balance_looseness(P20_30, 0.0, 5) == pytest.approx(
        22392.784499933383, rel=1e-12
    )


def test_balance_looseness_equalizes_closed_forms():
    """L* makes (1/4) snr_eff^approx eta equal L*/8 (algebraic identity)."""
    for rate, k in [(0.0, 3), (0.3, 5), (1.0, 4), (2.0, 2)]:
        L = balance_looseness(P20_30, rate, k)
        snr_approx = (P20_30.bsnr - L) ** k / (P20_30.dsnr * L ** (k - 1))
        lhs = 0.25 * snr_approx * _eta(rate * k)
        assert lhs == pytest.approx(L / 8.0, rel=1e-9)
        assert L < P20_30.bsnr


@settings(deadline=None)
@given(
    st.floats(min_value=10.0, max_value=1e4),
    st.floats(min_value=2.0, max_value=1e5),
    st.floats(min_value=0.0, max_value=2.0),
    st.integers(min_value=2, max_value=16),
)
def test_balance_looseness_stays_below_bsnr(snr, dsnr, rate, k):
    p = ChannelParams.from_snrs(snr, dsnr)
    L = balance_looseness(p, rate, k)
    assert 0.0 < L < p.bsnr


def test_high_snr_bound_frozen():
    assert high_snr_bound(P20_30, 0.0, 5) == pytest.approx(
        279.90980624916727, rel=1e-12
    )
    L = balance_looseness(P20_30, 0.0, 5)
    assert high_snr_bound(P20_30, 0.0, 5) == pytest.approx(
        L / (16.0 * 5), rel=1e-14
    )


def test_closed_form_past_eta_underflow_names_the_rate():
    """eta(R K) is 0 in floats beyond R K ~ 1075 bits; the rate is valid."""
    p = ChannelParams.from_snrs(1e300, 10.0)
    assert _eta(20.0 * 64) == 0.0 and 20.0 < capacity(p.snr)
    for f in (balance_looseness, high_snr_bound):
        with pytest.raises(ValueError, match="^rate 20.0 over 64 rounds"):
            f(p, 20.0, 64)


def test_high_snr_bound_needs_multiple_rounds():
    with pytest.raises(ValueError):
        high_snr_bound(P20_30, 0.0, 1)


def test_high_snr_bound_below_e_fb_in_regime():
    # the o(1) regime: large snr and dsnr, zero rate
    p = ChannelParams.from_snrs(1e4, 1e4)
    exact = e_fb(p, 0.0).e_fb
    for k in (6, 7, 8):
        assert high_snr_bound(p, 0.0, k) <= exact


def test_kstar_zero_rate():
    assert kstar_zero_rate(1000.0) == pytest.approx(4.84739431676931, rel=1e-12)
    assert kstar_zero_rate(2.0) == 0.0
    with pytest.raises(ValueError):
        kstar_zero_rate(1.99)
    # dB form consistency: 0.78 ln(d/2) == 0.78 ln(10)/10 * (d_dB - 3.0103)
    d_db = 30.0
    alt = 0.78 * math.log(10.0) / 10.0 * (d_db - 10.0 * math.log10(2.0))
    assert kstar_zero_rate(1000.0) == pytest.approx(alt, rel=1e-12)


# -----------------------------------------------------------------------------
# validity region and out-of-region fallback
# -----------------------------------------------------------------------------

def test_region_assumptions_boundary_cases():
    assert not region_assumptions_hold(P20_30, 0.0, 5, 4.0)
    assert region_assumptions_hold(P20_30, 0.0, 5, 2e4)
    # exact critical-rate equality fails the strict inequality
    L = 2e4
    snr_k = effective_snr(P20_30, L, 5)
    r = critical_rate(snr_k) / 5.0
    assert not region_assumptions_hold(P20_30, r, 5, L)
    assert region_assumptions_hold(P20_30, r * (1.0 - 1e-9), 5, L)


def test_region_assumptions_false_outside_domain():
    assert not region_assumptions_hold(P20_30, 0.0, 5, 0.5)
    assert not region_assumptions_hold(P20_30, 0.0, 5, P20_30.bsnr + 1.0)
    for looseness in (math.inf, -math.inf, math.nan):
        assert not region_assumptions_hold(P20_30, 0.0, 5, looseness)
    # a boosted SNR beyond the float range reads as the largest float, whose
    # critical rate is 511.5 bits
    assert region_assumptions_hold(P20_30, 1.0, 200, 5.0)
    assert not region_assumptions_hold(P20_30, 511.5 / 200, 200, 5.0)


def test_region_assumptions_raise_on_invalid_link_rate_or_rounds():
    with pytest.raises(ValueError, match="dsnr > 1"):
        region_assumptions_hold(ChannelParams.from_snrs(100.0, 1.0), 0.0, 5, 5.0)
    with pytest.raises(ValueError, match="rate must be finite and nonnegative"):
        region_assumptions_hold(P20_30, -0.1, 5, 5.0)
    with pytest.raises(ValueError, match="rounds must be >= 1"):
        region_assumptions_hold(P20_30, 0.0, 0, 5.0)


def _checked_region_anchor(p):
    """_region_anchor's scan through the checked public functions."""
    k_real = kstar_zero_rate(p.dsnr)
    candidates = sorted({max(2, math.floor(k_real)), max(2, math.ceil(k_real))})
    cap = capacity(p.snr)
    for i in range(999, 0, -1):
        rate = cap * (i / 1000.0)
        feasible = [
            (high_snr_bound(p, rate, k), k, balance_looseness(p, rate, k))
            for k in candidates
            if region_assumptions_hold(p, rate, k, balance_looseness(p, rate, k))
        ]
        if feasible:
            _, k, l_star = max(feasible)
            return rate, k, l_star
    raise ValueError("no rate qualifies")


@pytest.mark.parametrize(
    "snr, dsnr",
    [(100.0, 1000.0), (10.0, 100.0), (1000.0, 1000.0), (1e4, 1e4),
     (316.0, 3162.0), (50.0, 700.0), (3.0, 2000.0), (1e6, 2.5)],
)
def test_region_anchor_matches_checked_scan_bitwise(snr, dsnr):
    p = ChannelParams.from_snrs(snr, dsnr)
    rate, k, l_star = _region_anchor.__wrapped__(p)
    c_rate, c_k, c_l_star = _checked_region_anchor(p)
    assert (rate.hex(), k, l_star.hex()) == (c_rate.hex(), c_k, c_l_star.hex())


def test_out_of_region_continuity_at_boundary():
    rate_b, k_b, l_b = _region_anchor(P20_30)
    snr_k = effective_snr(P20_30, l_b, k_b)
    direct = gallager_exp(snr_k, k_b * rate_b)[0] / (2.0 * k_b)
    assert out_of_region_exponent(P20_30, rate_b) == pytest.approx(
        direct, rel=1e-12
    )


def test_out_of_region_decreasing_above_boundary():
    rate_b, _, _ = _region_anchor(P20_30)
    vals = [
        out_of_region_exponent(P20_30, rate_b * f)
        for f in (1.0, 1.01, 1.02, 1.03, 1.04)
    ]
    assert all(v > 0.0 for v in vals)
    for a, b in zip(vals, vals[1:]):
        assert b < a


def test_out_of_region_inapplicable_params():
    with pytest.raises(ValueError):
        out_of_region_exponent(ChannelParams.from_snrs(100.0, 1.0001), 3.0)


def test_out_of_region_skips_rates_past_the_closed_form():
    """At 180 dB forward and a 201 dB advantage the scan's top rates put
    eta(R K) below the smallest float, where balance_looseness has no
    closed form; the scan skips them instead of dividing by zero."""
    p = ChannelParams.from_snrs(1e18, 10**20.1)
    with pytest.raises(ValueError, match="beyond the closed form"):
        balance_looseness(p, 0.999 * capacity(p.snr), 36)
    assert out_of_region_exponent(p, 1.0) == pytest.approx(1.795e49, rel=1e-3)
