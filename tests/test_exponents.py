"""Unit tests for the no-feedback exponent curves."""

import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awgn_feedback import (
    ExponentRegion,
    capacity,
    critical_rate,
    expurgation_rate,
    gallager_exp,
    poltyrev_exponent,
    sphere_packing_exp,
)
from awgn_feedback.exponents import (
    _decode_exponent,
    _expurgation,
    _expurgation_terms,
    _random_coding,
    _rate_nats,
)

SNR = 100.0
LN2 = math.log(2.0)


def test_capacity_value():
    assert capacity(SNR) == pytest.approx(0.5 * math.log2(1.0 + SNR), rel=1e-15)
    assert capacity(SNR) == pytest.approx(3.3291057413758973, rel=1e-14)


def test_rate_nats_conversion():
    assert _rate_nats(1.0) == pytest.approx(LN2, rel=1e-15)
    assert _rate_nats(0.0) == 0.0


def test_critical_and_expurgation_rates_frozen():
    # frozen reference values at snr = 100
    assert critical_rate(SNR) == pytest.approx(2.829177151247119, rel=1e-13)
    assert expurgation_rate(SNR) == pytest.approx(2.3363540836726404, rel=1e-13)


def test_rate_ordering():
    for snr in (0.1, 1.0, 10.0, 100.0, 1e4):
        assert 0.0 < expurgation_rate(snr) < critical_rate(snr) < capacity(snr)


# -----------------------------------------------------------------------------
# sphere packing
# -----------------------------------------------------------------------------

def test_sphere_packing_zero_rate_limit():
    # tiny rates collapse to the s/2 limit
    assert sphere_packing_exp(SNR, 0.0) == SNR / 2.0
    assert sphere_packing_exp(SNR, 1e-9) == SNR / 2.0


def test_sphere_packing_midcurve_frozen():
    rate = 25.0 / 49.0 * capacity(SNR)
    assert sphere_packing_exp(SNR, rate) / SNR == pytest.approx(
        0.03165467080599452, rel=1e-12
    )


def test_sphere_packing_vanishes_at_capacity():
    for snr in (0.1, 1.0, SNR, 1e4):
        assert 0.0 <= sphere_packing_exp(snr, capacity(snr)) <= 1e-12


def test_sphere_packing_rejects_rates_above_capacity():
    with pytest.raises(ValueError):
        sphere_packing_exp(SNR, capacity(SNR) * 1.001)


def test_sphere_packing_rejects_low_rates_above_a_low_capacity():
    """Below ZERO_RATE_BITS the kernel returns snr/2 whatever the rate, so
    at snr 1e-7 (capacity 7.2e-8 bits) the shell must check the rate."""
    with pytest.raises(ValueError, match="exceeds capacity"):
        sphere_packing_exp(1e-7, 5e-7)
    assert sphere_packing_exp(1e-7, 0.0) == 5e-08


def test_sphere_packing_decreasing_in_rate():
    cap = capacity(SNR)
    vals = [sphere_packing_exp(SNR, x * cap) for x in
            [i / 200 for i in range(201)]]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-12


def test_sphere_packing_stable_at_small_rates():
    # the naive expression cancels catastrophically here; the rearranged
    # one must stay smooth and positive
    prev = SNR / 2.0
    for exp10 in range(6, 2, -1):
        val = sphere_packing_exp(SNR, 10.0 ** -exp10 * 2)
        assert math.isfinite(val)
        assert 0.0 < val <= prev + 1e-9
        prev = val


def test_sphere_packing_finite_at_huge_snr():
    # snr*(beta - 1) overflows past snr ~1.3e154 and 2*beta past ~9e307; at
    # high snr the exponent depends only on the gap C - R, so a fixed gap
    # gives one value at every snr
    ref = sphere_packing_exp(1e100, capacity(1e100) - 0.25)
    for snr in (1e155, 1e160, 1e300, 1.7e308):
        cap = capacity(snr)
        assert sphere_packing_exp(snr, cap - 0.25) == pytest.approx(ref, rel=1e-9)
        assert 0.0 <= sphere_packing_exp(snr, cap) <= 1e-12


# -----------------------------------------------------------------------------
# unconstrained (lattice) exponent
# -----------------------------------------------------------------------------

def test_poltyrev_regions():
    assert poltyrev_exponent(0.5) == 0.0
    assert poltyrev_exponent(1.0) == 0.0
    assert poltyrev_exponent(3.0) == pytest.approx(
        0.5 * math.log(3.0 * math.e / 4.0), rel=1e-14
    )
    assert poltyrev_exponent(8.0) == 1.0


def test_poltyrev_branch_continuity():
    for x0 in (2.0, 4.0):
        below = poltyrev_exponent(x0 * (1.0 - 1e-13))
        at = poltyrev_exponent(x0)
        above = poltyrev_exponent(x0 * (1.0 + 1e-13))
        assert abs(at - below) < 1e-9
        assert abs(above - at) < 1e-9


def test_poltyrev_linear_cap():
    # E_p(x) <= x/8 with equality only on the final branch
    for i in range(1, 400):
        x = i * 0.05
        assert poltyrev_exponent(x) <= x / 8.0 + 1e-12


def test_poltyrev_domain_errors():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            poltyrev_exponent(bad)


@given(st.floats(min_value=0.01, max_value=1e3))
def test_poltyrev_nondecreasing(x):
    assert poltyrev_exponent(x * 1.01) >= poltyrev_exponent(x) - 1e-12


# -----------------------------------------------------------------------------
# random coding and expurgation
# -----------------------------------------------------------------------------

def test_random_coding_meets_sphere_packing_at_critical_rate():
    r_cr = critical_rate(SNR)
    # R_cr closes the random-coding region
    rc, region = gallager_exp(SNR, r_cr)
    assert region is ExponentRegion.RANDOM_CODING
    sp = sphere_packing_exp(SNR, r_cr)
    assert rc == pytest.approx(0.15340158009587324, rel=1e-12)
    assert sp == pytest.approx(0.15340158009587201, rel=1e-12)
    assert abs(rc - sp) / sp < 1e-12


def test_expurgation_meets_random_coding_at_expurgation_rate():
    r_ex = expurgation_rate(SNR)
    # R_ex closes the expurgation region
    ex, region = gallager_exp(SNR, r_ex)
    assert region is ExponentRegion.EXPURGATION
    rc = _random_coding(SNR, r_ex)
    assert ex == pytest.approx(0.49500049990002504, rel=1e-12)
    assert rc == pytest.approx(0.49500049990002637, rel=1e-12)
    assert abs(ex - rc) / rc < 1e-12


def test_region_boundaries_finite_and_ordered_at_high_snr():
    # sqrt(1 + snr^2/4) overflowed past snr ~ 1.3e154 before hypot
    for snr in (1e2, 1e16, 1e154, 1e160, 1e300):
        r_ex, r_cr, cap = expurgation_rate(snr), critical_rate(snr), capacity(snr)
        assert all(math.isfinite(r) for r in (r_ex, r_cr, cap))
        assert r_ex <= r_cr <= cap


def test_random_coding_intercept_stable_at_high_snr():
    # the e_fb scan reaches effective SNRs of 1e43 and more; the intercept
    # must neither cancel (snr + 2 - sqrt(4 + snr^2)) nor overflow (snr^2)
    snrs = [1e8, 1e16, 1e43, 1e160, 1e300]
    values = [_random_coding(s, 0.0) for s in snrs]
    assert all(math.isfinite(v) and v > 0.0 for v in values)
    assert all(a < b for a, b in zip(values, values[1:]))
    for s, v in zip(snrs, values):
        if s >= 1e16:
            assert v == pytest.approx(0.5 + 0.5 * math.log(s / 4.0), rel=1e-12)


def test_expurgation_zero_rate():
    # u = 1 at R = 0, so the curve starts at exactly s/4
    assert _expurgation(SNR, *_expurgation_terms(0.0)) == SNR / 4.0


def test_gallager_dispatch_regions():
    r_ex = expurgation_rate(SNR)
    r_cr = critical_rate(SNR)
    _, reg = gallager_exp(SNR, r_ex * 0.5)
    assert reg is ExponentRegion.EXPURGATION
    _, reg = gallager_exp(SNR, (r_ex + r_cr) / 2.0)
    assert reg is ExponentRegion.RANDOM_CODING
    _, reg = gallager_exp(SNR, (r_cr + capacity(SNR)) / 2.0)
    assert reg is ExponentRegion.SPHERE_PACKING
    # boundary rates belong to the closure of the lower-rate region
    _, reg = gallager_exp(SNR, r_ex)
    assert reg is ExponentRegion.EXPURGATION
    _, reg = gallager_exp(SNR, r_cr)
    assert reg is ExponentRegion.RANDOM_CODING


def test_gallager_zero_rate_is_quarter_snr():
    val, reg = gallager_exp(SNR, 0.0)
    assert val == pytest.approx(SNR / 4.0, rel=1e-14)
    assert reg is ExponentRegion.EXPURGATION


def test_gallager_rejects_above_capacity():
    with pytest.raises(ValueError):
        gallager_exp(SNR, capacity(SNR) * 1.001)


def test_sphere_packing_dominates_gallager():
    """E_sp >= E_r everywhere, equal once the rate passes R_cr."""
    for snr_db in range(-10, 45, 5):
        snr = 10.0 ** (snr_db / 10.0)
        cap = capacity(snr)
        r_cr = critical_rate(snr)
        for i in range(0, 50):
            rate = cap * i / 50.0
            sp = sphere_packing_exp(snr, rate)
            gal, _ = gallager_exp(snr, rate)
            assert sp >= gal - 1e-12
            if rate >= r_cr:
                assert gal == pytest.approx(sp, rel=1e-9, abs=1e-15)


@settings(deadline=None)
@given(
    st.floats(min_value=0.1, max_value=1e4),
    st.floats(min_value=0.0, max_value=0.999),
)
def test_gallager_nonnegative_and_bounded(snr, frac):
    rate = frac * capacity(snr)
    gal, reg = gallager_exp(snr, rate)
    assert 0.0 <= gal <= snr / 4.0 + 1e-12
    assert isinstance(reg, ExponentRegion)


@pytest.mark.xfail(strict=True, reason="E_sp is its zero-rate limit snr/2 below "
                   "ZERO_RATE_BITS, which at snr <= 1.4e-6 is every rate")
@pytest.mark.parametrize("snr", [1e-5, 1e-6, 1e-7])
def test_low_snr_exponents_stay_below_their_zero_rate_values(snr):
    """E_ex(0) = snr/4 bounds every no-feedback exponent, and E_sp falls
    from snr/2 as soon as the rate is positive."""
    for x in (0.1, 1.0 / 3.0, 2.0 / 3.0, 0.95):
        rate = x * capacity(snr)
        assert gallager_exp(snr, rate)[0] <= snr / 4.0
        assert sphere_packing_exp(snr, rate) < snr / 2.0


@pytest.mark.parametrize("snr_db", [60, 100, 140])
def test_gallager_meets_poltyrev_at_high_snr(snr_db):
    """At rate C - delta and high snr, the power-constrained exponent
    approaches the unconstrained lattice exponent at normalized VNR
    2**(2 delta) (Poltyrev, IEEE T-IT 40(2), 1994; Erez & Zamir, IEEE T-IT
    50(10), 2004): over delta in (0, 2] the relative gap shrinks like 1/snr
    (3.0/snr at 60 and 100 dB), down to rounding (1.4e-12 at 140 dB)."""
    snr = 10.0 ** (snr_db / 10.0)
    cap = capacity(snr)
    gaps = []
    for i in range(1, 201):
        delta = i / 100.0
        ref = poltyrev_exponent(2.0 ** (2.0 * delta))
        gaps.append(abs(gallager_exp(snr, cap - delta)[0] - ref) / ref)
    assert max(gaps) <= 3.1 / snr + 2e-12


def test_decode_exponent_clamps_at_capacity_and_reads_inf_as_the_largest_float():
    """The decoder exponent e_fb runs on: gallager_exp's value below
    capacity, 0 at and above it.  An snr of inf, a boosted SNR past the
    float range, decodes as the largest float: 0 from 512 bits on, the
    capacity there, and finite and positive below."""
    for snr in (0.5, 100.0, 1e30):
        cap = capacity(snr)
        for rate in (cap, 1.5 * cap, cap + 1.0):
            assert _decode_exponent(snr, rate) == 0.0
        for rate in (0.0, 0.01 * cap, 0.5 * cap, 0.99 * cap):
            assert _decode_exponent(snr, rate) == gallager_exp(snr, rate)[0]
    top = sys.float_info.max
    assert capacity(top) == 512.0
    for rate in (0.0, 1.0, 300.0, 511.0, 511.99):
        value = _decode_exponent(math.inf, rate)
        assert value == gallager_exp(top, rate)[0]
        assert 0.0 < value < math.inf
    for rate in (512.0, 550.0, 1e6):
        assert _decode_exponent(math.inf, rate) == 0.0


def test_decode_exponent_forms_the_expurgation_terms_only_where_it_uses_them(
    monkeypatch,
):
    """At or above capacity and above R_ex the rate-only expurgation terms
    (an exp and a sqrt) are not formed; at or below R_ex they are, once."""
    from awgn_feedback import exponents

    calls = []
    terms = exponents._expurgation_terms
    monkeypatch.setattr(exponents, "_expurgation_terms",
                        lambda rate: calls.append(rate) or terms(rate))
    for snr in (0.5, 100.0, 1e30):
        cap, r_ex = capacity(snr), expurgation_rate(snr)
        for rate in (cap, 2.0 * cap, 0.5 * (r_ex + cap), 0.99 * cap):
            _decode_exponent(snr, rate)
        assert calls == []
        for rate in (0.0, 0.5 * r_ex, r_ex):
            assert _decode_exponent(snr, rate) == _expurgation(snr, *terms(rate))
        assert len(calls) == 3
        calls.clear()
