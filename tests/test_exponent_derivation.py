"""The AWGN reliability exponents derived again from Gallager's definitions.

The kernels of :mod:`awgn_feedback.exponents` are closed forms, and the
other exponent tests pin their values, their continuity and their order, so
a derivation error shared by the kernels would pass them.  Here each
exponent is computed by numerical maximization instead
(``scipy.optimize.minimize_scalar``, bounded).  With A = snr, noise
variance 1 and rates R in nats (Gallager, "Information Theory and Reliable
Communication", 1968, section 7.4):

    E0(rho, r) = (1+rho) r A + 1/2 ln(1 - 2rA) + (rho/2) ln(1 - 2rA + A/(1+rho))
    Ex(rho, r) = 2 rho r A + (rho/2) ln(1 - 2rA) + (rho/2) ln(1 - 2rA + A/(2 rho))

each maximized over r in [0, 1/(2A)), and

    E_r  = sup over rho in [0, 1] of E0 - rho R,
    E_sp = sup over rho >= 0 of E0 - rho R   (Shannon, BSTJ 38(3), 1959),
    E_ex = sup over rho >= 1 of Ex - rho R.

The random-coding kernel is the rho = 1 line and goes negative past its
zero crossing, so it is compared only on [R_ex, R_cr].  At low rates the
sphere-packing sup sits at rho ~ 100 and beyond, so its range reaches 1e6.
"""

import math

import pytest
from scipy.optimize import minimize_scalar

from awgn_feedback import (
    ExponentRegion,
    capacity,
    critical_rate,
    expurgation_rate,
    gallager_exp,
    sphere_packing_exp,
)
from awgn_feedback.exponents import _random_coding

SNRS = [0.5, 3.0, 100.0, 1000.0]
FRACTIONS = [0.01, 0.02, 0.1, 0.3, 0.6, 0.9, 0.97]

# the sphere-packing and expurgation sups over rho >= 0 and rho >= 1 are
# searched up to this rho
RHO_TOP = 1e6


def _sup(f, lo, hi, xatol):
    """(max, argmax) of f over [lo, hi].  The bounded method evaluates only
    inner points, so the ends are compared too."""
    res = minimize_scalar(
        lambda x: -f(x), bounds=(lo, hi), method="bounded",
        options={"xatol": xatol, "maxiter": 2000},
    )
    assert res.success
    return max((-float(res.fun), float(res.x)), (f(lo), lo), (f(hi), hi))


def _over_r(g):
    # r in [0, 1/(2A)) as t = 2rA in [0, 1)
    return _sup(g, 0.0, 1.0 - 1e-15, 1e-13)[0]


def _e0(a, rho):
    return _over_r(lambda t: 0.5 * (1.0 + rho) * t + 0.5 * math.log1p(-t)
                   + 0.5 * rho * math.log(1.0 - t + a / (1.0 + rho)))


def _ex(a, rho):
    return _over_r(lambda t: rho * t + 0.5 * rho * math.log1p(-t)
                   + 0.5 * rho * math.log(1.0 - t + a / (2.0 * rho)))


def _nats(rate_bits):
    return rate_bits * math.log(2.0)


def derived_random_coding(a, rate_bits):
    r = _nats(rate_bits)
    return _sup(lambda rho: _e0(a, rho) - rho * r, 0.0, 1.0, 1e-12)[0]


def derived_sphere_packing(a, rate_bits):
    """(E_sp, argmax rho), the sup taken over ln(rho)."""
    r = _nats(rate_bits)
    value, s = _sup(lambda s: _e0(a, math.exp(s)) - math.exp(s) * r,
                    math.log(1e-9), math.log(RHO_TOP), 1e-10)
    return value, math.exp(s)


def derived_expurgation(a, rate_bits):
    """(E_ex, argmax rho), the sup taken over ln(rho)."""
    r = _nats(rate_bits)
    value, s = _sup(lambda s: _ex(a, math.exp(s)) - math.exp(s) * r,
                    0.0, math.log(RHO_TOP), 1e-10)
    return value, math.exp(s)


@pytest.mark.parametrize("snr", SNRS)
def test_random_coding_line_is_gallagers_sup_on_its_range(snr):
    r_ex, r_cr = expurgation_rate(snr), critical_rate(snr)
    for i in range(6):
        rate = r_ex + (r_cr - r_ex) * i / 5
        assert _random_coding(snr, rate) == pytest.approx(
            derived_random_coding(snr, rate), rel=1e-10
        )


@pytest.mark.parametrize("snr", SNRS)
def test_sphere_packing_is_shannons_sup(snr):
    for x in FRACTIONS:
        rate = x * capacity(snr)
        value, rho = derived_sphere_packing(snr, rate)
        assert sphere_packing_exp(snr, rate) == pytest.approx(value, rel=1e-10)
        # the sup is inside the rho range searched
        assert rho < RHO_TOP / 10.0


def test_sphere_packing_sup_needs_a_large_rho_at_low_rates():
    """At snr 100 and R/C 0.02 the sup sits near rho = 100; a range capped
    at rho = 60 reads 40.5 against 44.0."""
    rate = 0.02 * capacity(100.0)
    value, rho = derived_sphere_packing(100.0, rate)
    assert rho > 60.0
    assert value == pytest.approx(44.0, abs=0.01)


@pytest.mark.parametrize("snr", SNRS)
def test_expurgation_is_gallagers_sup_below_r_ex(snr):
    r_ex = expurgation_rate(snr)
    rates = [x * capacity(snr) for x in FRACTIONS if x * capacity(snr) < r_ex]
    for rate in rates + [r_ex]:
        value, rho = derived_expurgation(snr, rate)
        ex, region = gallager_exp(snr, rate)
        assert region is ExponentRegion.EXPURGATION
        assert ex == pytest.approx(value, rel=1e-10)
        assert rho < RHO_TOP / 10.0


@pytest.mark.parametrize("snr", SNRS)
def test_gallager_exp_is_the_better_derived_exponent(snr):
    """Below capacity the reliability exponent is max(E_ex, E_r): E_ex below
    R_ex, the rho = 1 line up to R_cr, sphere packing above it."""
    for x in FRACTIONS:
        rate = x * capacity(snr)
        derived = max(derived_expurgation(snr, rate)[0],
                      derived_random_coding(snr, rate))
        assert gallager_exp(snr, rate)[0] == pytest.approx(derived, rel=1e-10)
