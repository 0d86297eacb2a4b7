"""Tests for the feedback exponent optimizer and its high-SNR closed forms."""

import math
import warnings
from decimal import Decimal, getcontext

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
    eta,
    gallager_exp,
    high_snr_bound,
    kstar_zero_rate,
    out_of_region_exponent,
    poltyrev_exponent,
    region_assumptions_hold,
    region_boundaries,
)
from awgn_feedback.feedback import _decode_exponent, _region_anchor

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
    # the analysis still needs both links noisy
    for params in (fb, fwd):
        with pytest.raises(ValueError, match="noisy"):
            e_fb(params, 0.5)


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


def _finish(search):
    """Drive an inner search generator to its end and return its result."""
    while True:
        try:
            next(search)
        except StopIteration as done:
            return done.value


def test_e_fb_bisection_matches_grid_scan():
    """The inner bisection agrees with a brute-force 2000-point grid."""
    from awgn_feedback.feedback import _inner_optimum

    p = P20_30
    for rate, k in [(0.0, 4), (0.0, 8), (0.8, 4), (0.8, 8), (2.0, 10)]:
        _, l_bis = _finish(_inner_optimum(p.snr, p.bsnr, p.dsnr, rate, k))

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


def test_e_fb_rejects_infinite_bsnr():
    # p_tilde / sigma2_tilde overflows: the search interval has no top
    params = ChannelParams(p=1.0, p_tilde=10.0, sigma2=0.01, sigma2_tilde=1e-308)
    assert params.bsnr == math.inf
    with pytest.raises(ValueError, match="looseness must be finite"):
        e_fb(params, 0.5)


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


def checked_search(p, rate, k_max=64):
    """e_fb's K scan and L bisection through the checked public functions."""

    def decode(L, k):
        snr_k = effective_snr(p, L, k)
        if k * rate >= capacity(snr_k):
            return 0.0
        return gallager_exp(snr_k, k * rate)[0]

    def gap(L, k):
        return decode(L, k) - poltyrev_exponent(L)

    best = (-math.inf, 1, 1.0)
    for k in range(1, k_max + 1):
        if p.bsnr / (16.0 * k) <= best[0]:
            break
        lo, hi = 1.0 + 1e-9, p.bsnr * (1.0 - 1e-9)
        if gap(lo, k) <= 0.0:
            L = lo
        elif gap(hi, k) >= 0.0:
            L = hi
        else:
            a, b = lo, hi
            while b - a > 1e-10 * a:
                mid = 0.5 * (a + b)
                if gap(mid, k) > 0.0:
                    a = mid
                else:
                    b = mid
            L = 0.5 * (a + b)
        val = min(decode(L, k), poltyrev_exponent(L)) / (2.0 * k)
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
    """The best-first search on unchecked kernels reproduces the ascending
    checked scan bit for bit, at several k_max since the heap's seed bounds
    depend on it."""
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
    """The bisection's early exit bounds the value by the modulo exponent at
    the bracket's upper end, which needs exactly this monotonicity."""
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


def test_e_fb_prunes_losing_round_counts(monkeypatch):
    """Round counts that cannot beat the best value stop their bisection."""
    from awgn_feedback import feedback

    calls = 0
    decode = feedback._decode_exponent

    def counted(snr, rate_bits):
        nonlocal calls
        calls += 1
        return decode(snr, rate_bits)

    monkeypatch.setattr(feedback, "_decode_exponent", counted)
    e_fb(P20_30, 1.0)
    # 279 best-first; the ascending scan takes 548 with its early exit and
    # 2530 without it
    assert 0 < calls <= 400


def test_e_fb_tie_goes_to_the_smaller_round_count(monkeypatch):
    """When two round counts reach a bit-equal value, the smaller K wins, as
    in the ascending scan of checked_search, even when the larger K finishes
    first."""
    from awgn_feedback import feedback

    def inner(snr, bsnr, dsnr, rate_bits, rounds):
        if rounds == 2:
            # fall behind K = 3..8 so that K = 4 finishes first
            yield bsnr / 100.0
        value = 1.0 if rounds in (2, 4) else 0.0
        return value * 2.0 * rounds, float(rounds)

    monkeypatch.setattr(feedback, "_inner_optimum", inner)
    res = e_fb(P20_30, 1.0, k_max=8)
    assert (res.e_fb, res.k_star, res.l_star) == (1.0, 2, 2.0)


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
    b = region_boundaries(snr)
    rates = [
        0.0,
        b.expurgation_rate,
        b.critical_rate,
        0.5 * (b.critical_rate + b.capacity),
        math.nextafter(b.capacity, 0.0),
    ]
    for rate in rates:
        assert _bits(_decode_exponent, snr, rate) == _bits(_gallager_value, snr, rate)
        assert math.isfinite(_gallager_value(snr, rate))
    assert _bits(_decode_exponent, snr, b.capacity) == float.hex(0.0)
    assert _bits(_gallager_value, snr, b.capacity) == float.hex(0.0)


def test_decode_path_overflowed_snr_is_inf():
    """A boosted SNR beyond the float range decodes with exponent inf, the
    limit of the expurgation exponent as the SNR grows; the public
    gallager_exp still rejects an infinite SNR."""
    for rate in (0.0, 1.0):
        assert _decode_exponent(math.inf, rate) == math.inf
        assert "finite" in _bits(_gallager_value, math.inf, rate)


def test_e_fb_binds_on_modulo_when_decode_is_unbounded():
    """At 60/40 dB and R/C ~ 0.863 the optimum's boosted SNR is beyond the
    float range, so only the modulo exponent can bind."""
    params = ChannelParams.from_snrs(1e6, 1e4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # K* sits at k_max
        res = e_fb(params, 8.601253260169738)
    assert effective_snr(params, res.l_star, res.k_star) == math.inf
    assert res.binding is Binding.MODULO
    assert res.region_valid
    assert res.e_fb == poltyrev_exponent(res.l_star) / (2.0 * res.k_star)


# -----------------------------------------------------------------------------
# closed forms
# -----------------------------------------------------------------------------

def test_eta_endpoints_and_monotonicity():
    assert eta(0.0) == 1.0
    xs = [0.0, 0.5, 1.0, 3.0, 10.0, 30.0]
    vals = [eta(x) for x in xs]
    for a, b in zip(vals, vals[1:]):
        assert b < a
    with pytest.raises(ValueError):
        eta(-0.1)
    with pytest.raises(ValueError):
        eta(math.nan)


def test_eta_high_precision():
    # compare against a 50-digit evaluation of 1 - sqrt(1 - 2**-x)
    getcontext().prec = 50
    for x in (0.3, 2.0, 10.0, 30.0, 45.0):
        u = Decimal(2) ** Decimal(-x)
        ref = 1 - (1 - u).sqrt()
        assert eta(x) == pytest.approx(float(ref), rel=1e-13)


def test_balance_looseness_frozen():
    assert balance_looseness(P20_30, 0.0, 5) == pytest.approx(
        22392.784499933383, rel=1e-12
    )


def test_balance_looseness_equalizes_closed_forms():
    """L* makes (1/4) snr_eff^approx eta equal L*/8 (algebraic identity)."""
    for rate, k in [(0.0, 3), (0.3, 5), (1.0, 4), (2.0, 2)]:
        L = balance_looseness(P20_30, rate, k)
        snr_approx = (P20_30.bsnr - L) ** k / (P20_30.dsnr * L ** (k - 1))
        lhs = 0.25 * snr_approx * eta(rate * k)
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
    # a boosted SNR beyond the float range has an unbounded critical rate
    assert region_assumptions_hold(P20_30, 1.0, 200, 5.0)


def test_region_assumptions_raise_on_invalid_link_rate_or_rounds():
    with pytest.raises(ValueError, match="dsnr > 1"):
        region_assumptions_hold(ChannelParams.from_snrs(100.0, 1.0), 0.0, 5, 5.0)
    with pytest.raises(ValueError, match="rate must be finite and nonnegative"):
        region_assumptions_hold(P20_30, -0.1, 5, 5.0)
    with pytest.raises(ValueError, match="rounds must be >= 1"):
        region_assumptions_hold(P20_30, 0.0, 0, 5.0)


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
