"""Unit tests for the no-feedback exponent curves."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awgn_feedback import (
    ExponentRegion,
    capacity,
    critical_rate,
    expurgation_exp,
    expurgation_rate,
    gallager_exp,
    poltyrev_exponent,
    random_coding_exp,
    rate_nats,
    region_boundaries,
    sphere_packing_exp,
)

SNR = 100.0
LN2 = math.log(2.0)


def test_capacity_value():
    assert capacity(SNR) == pytest.approx(0.5 * math.log2(1.0 + SNR), rel=1e-15)
    assert capacity(SNR) == pytest.approx(3.3291057413758973, rel=1e-14)


def test_rate_nats_conversion():
    assert rate_nats(1.0) == pytest.approx(LN2, rel=1e-15)
    assert rate_nats(0.0) == 0.0


def test_critical_and_expurgation_rates_frozen():
    # frozen reference values at snr = 100
    assert critical_rate(SNR) == pytest.approx(2.829177151247119, rel=1e-13)
    assert expurgation_rate(SNR) == pytest.approx(2.3363540836726404, rel=1e-13)


def test_rate_ordering():
    for snr in (0.1, 1.0, 10.0, 100.0, 1e4):
        b = region_boundaries(snr)
        assert 0.0 < b.expurgation_rate < b.critical_rate < b.capacity


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
    rc = random_coding_exp(SNR, r_cr)
    sp = sphere_packing_exp(SNR, r_cr)
    assert rc == pytest.approx(0.15340158009587324, rel=1e-12)
    assert sp == pytest.approx(0.15340158009587201, rel=1e-12)
    assert abs(rc - sp) / sp < 1e-12


def test_expurgation_meets_random_coding_at_expurgation_rate():
    r_ex = expurgation_rate(SNR)
    ex = expurgation_exp(SNR, r_ex)
    rc = random_coding_exp(SNR, r_ex)
    assert ex == pytest.approx(0.49500049990002504, rel=1e-12)
    assert rc == pytest.approx(0.49500049990002637, rel=1e-12)
    assert abs(ex - rc) / rc < 1e-12


def test_random_coding_intercept_stable_at_high_snr():
    # the e_fb scan reaches effective SNRs of 1e43 and more; the intercept
    # must neither cancel (snr + 2 - sqrt(4 + snr^2)) nor overflow (snr^2)
    snrs = [1e8, 1e16, 1e43, 1e160, 1e300]
    values = [random_coding_exp(s, 0.0) for s in snrs]
    assert all(math.isfinite(v) and v > 0.0 for v in values)
    assert all(a < b for a, b in zip(values, values[1:]))
    for s, v in zip(snrs, values):
        if s >= 1e16:
            assert v == pytest.approx(0.5 + 0.5 * math.log(s / 4.0), rel=1e-12)


def test_expurgation_zero_rate():
    # u = 1 at R = 0, so the curve starts at s/4
    assert expurgation_exp(SNR, 0.0) == pytest.approx(SNR / 4.0, rel=1e-14)


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
