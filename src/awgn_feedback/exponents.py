"""Closed-form error exponents for the power-constrained AWGN channel and for
unconstrained lattice decoding.

Unit convention
---------------
Rates cross the public API in bits per channel use.  Exponent values are in
nats, matching the e^{-N E} convention.  Every bits-to-nats conversion goes
through the kernel ``_rate_nats``, so the convention lives in one place.

The random-coding exponent over [R_ex, R_cr] is the straight line of slope -1
(in nats) that is tangent to the expurgation curve at R_ex and to the
sphere-packing curve at R_cr.  Its intercept has the closed form implemented
in :func:`_straight_line_intercept`; continuity at both boundaries is a
structural identity of that form and is enforced by the test suite at 1e-6
relative (it holds to machine precision).

Checked shells and kernels
--------------------------
Each formula lives in one private kernel (``_capacity``, ``_critical_rate``,
``_expurgation_rate``, ``_expurgation``, ``_random_coding``,
``_sphere_packing``, the region dispatch ``_gallager``, ``_poltyrev`` and
the decoder's clamped exponent ``_decode_exponent``) that trusts its
arguments.  Each public function checks its arguments, then calls its
kernel, so checked and unchecked callers get the same bits.  Inner loops
that have validated their inputs once (the optimizer in :mod:`.feedback`)
call the kernels directly; ``_decode_exponent`` optionally takes the
rate-only factors of the expurgation exponent (``_expurgation_terms``) from
a caller that evaluates many snrs at one rate.
"""

from __future__ import annotations

import enum
import math
import sys

from ._checks import real

__all__ = [
    "ExponentRegion",
    "capacity",
    "critical_rate",
    "expurgation_rate",
    "gallager_exp",
    "poltyrev_exponent",
    "sphere_packing_exp",
]

LN2 = math.log(2.0)

# Below this rate (bits) the sphere-packing formula is evaluated through its
# analytic R -> 0 limit snr/2; the direct form has a removable 1/(beta - 1)
# singularity there.
ZERO_RATE_BITS = 1e-6

# Relative slack when comparing a rate against capacity, so that a rate
# computed as capacity(snr) by the caller is accepted despite roundoff.
_CAP_SLACK = 1e-12


def _rate_nats(rate_bits: float) -> float:
    return rate_bits * LN2


# =============================================================================
# REGION GEOMETRY
# =============================================================================

class ExponentRegion(enum.Enum):
    """Which branch of the reliability bound applies at a given rate."""

    EXPURGATION = "expurgation"
    RANDOM_CODING = "random_coding"
    SPHERE_PACKING = "sphere_packing"


def capacity(snr: float) -> float:
    """Shannon capacity of the AWGN channel, 0.5*log2(1 + snr), in bits."""
    return _capacity(real("snr", snr, above=0.0))


def critical_rate(snr: float) -> float:
    """Rate (bits) above which random coding meets the sphere-packing bound."""
    return _critical_rate(real("snr", snr, above=0.0))


def expurgation_rate(snr: float) -> float:
    """Rate (bits) below which expurgation improves on random coding."""
    return _expurgation_rate(real("snr", snr, above=0.0))


def _capacity(snr: float) -> float:
    return 0.5 * math.log2(1.0 + snr)


def _critical_rate(snr: float) -> float:
    # hypot(1, snr/2) = sqrt(1 + snr^2/4) without overflowing snr^2
    return 0.5 * math.log2(0.5 + snr / 4.0 + 0.5 * math.hypot(1.0, 0.5 * snr))


def _expurgation_rate(snr: float) -> float:
    return 0.5 * math.log2(0.5 + 0.5 * math.hypot(1.0, 0.5 * snr))


# =============================================================================
# UNCONSTRAINED (LATTICE) DECODING
# =============================================================================

def poltyrev_exponent(x: float) -> float:
    """Error exponent of ML lattice decoding at normalized VNR ``x``.

    Three branches, continuous at x = 2 and x = 4; zero at and below the
    x = 1 threshold (no reliable decoding there, returned as 0 so the
    function is total on x > 0).
    """
    return _poltyrev(real("normalized VNR x", x, above=0.0))


def _poltyrev(x: float) -> float:
    if x <= 1.0:
        return 0.0
    if x <= 2.0:
        return 0.5 * (x - 1.0 - math.log(x))
    if x <= 4.0:
        return 0.5 * math.log(0.25 * math.e * x)
    return 0.125 * x


# =============================================================================
# POWER-CONSTRAINED AWGN EXPONENTS
# =============================================================================

def _check_below_capacity(snr: float, rate_bits: float) -> None:
    cap = _capacity(snr)
    if rate_bits > cap * (1.0 + _CAP_SLACK):
        raise ValueError(
            f"rate {rate_bits} bits exceeds capacity {cap} bits at snr={snr}"
        )


def sphere_packing_exp(snr: float, rate_bits: float) -> float:
    """Sphere-packing exponent (nats) at ``rate_bits`` <= capacity.

    Evaluated in the cancellation-free arrangement: with beta = 2^{2R} and
    x = 4*beta/(snr*(beta - 1)),

        E_sp = snr/(2 beta) - 1/(1 + sqrt(1+x)) + 0.5*ln(beta*x) - ln(1 + sqrt(1+x))

    which is algebraically identical to the textbook form but evaluates to
    exactly 0 at capacity in floating point.  Rates below ZERO_RATE_BITS
    return the analytic limit snr/2.  Every rate above capacity raises.
    """
    snr = real("snr", snr, above=0.0)
    rate_bits = real("rate", rate_bits, at_least=0.0)
    _check_below_capacity(snr, rate_bits)
    return _sphere_packing(snr, rate_bits)


def _sphere_packing(snr: float, rate_bits: float) -> float:
    if rate_bits < ZERO_RATE_BITS:
        # covers R = 0 as well: return the zero-rate limit
        return 0.5 * snr
    # rates within the capacity slack are evaluated at capacity
    rate_bits = min(rate_bits, _capacity(snr))
    beta = math.exp(2.0 * _rate_nats(rate_bits))
    # snr*(beta - 1) overflows past snr ~1.3e154, so it is split only where
    # it does; 0.5*snr/beta is snr/(2*beta) bit for bit without overflowing
    # 2*beta past snr ~9e307
    d = snr * (beta - 1.0)
    x = 4.0 * beta / d if d != math.inf else (4.0 / snr) * (beta / (beta - 1.0))
    q = math.sqrt(1.0 + x)
    val = (
        0.5 * snr / beta
        - 1.0 / (1.0 + q)
        + 0.5 * math.log(beta * x)
        - math.log(1.0 + q)
    )
    # roundoff can leave a few ulp of negative residue right at capacity
    return max(val, 0.0)


def _straight_line_intercept(snr: float) -> float:
    """Intercept A(snr) of the slope -1 random-coding line, in nats.

    A(snr) = E_ex(R_ex) + R_ex = E_sp(R_cr) + R_cr (rates in nats); the
    closed form below is that common value.  Its first term
    (snr + 2 - r)/4 is evaluated as 1/2 - 1/(snr + r), which is free of the
    cancellation between snr and r at high SNR; hypot avoids overflow of
    snr**2.
    """
    r = math.hypot(2.0, snr)
    return 0.5 - 1.0 / (snr + r) + 0.5 * math.log((2.0 + r) / 4.0)


def _random_coding(snr: float, rate_bits: float) -> float:
    # meant for rates in [R_ex, R_cr] and not clamped: past the line's zero
    # crossing it goes negative, and _gallager never evaluates it there
    return _straight_line_intercept(snr) - _rate_nats(rate_bits)


def _expurgation_terms(rate_bits: float) -> tuple[float, float]:
    # the factors of the expurgation exponent that depend on the rate alone:
    # u = 2^{-2R} and 1 + sqrt(1 - u); (snr/4)*(1 - sqrt(1 - u)) taken as
    # (snr/4)*u/(1 + sqrt(1 - u)) is exact at R = 0 and loses nothing as u -> 0
    u = math.exp(-2.0 * _rate_nats(rate_bits))
    return u, 1.0 + math.sqrt(1.0 - u)


def _expurgation(snr: float, u: float, den: float) -> float:
    return 0.25 * snr * u / den


def gallager_exp(snr: float, rate_bits: float) -> tuple[float, ExponentRegion]:
    """Reliability exponent (nats) with region dispatch.

    Returns ``(value, region)``.  Boundaries belong to the closure of the
    lower-rate region: R <= R_ex is expurgation, R_ex < R <= R_cr is random
    coding, R_cr < R <= C is sphere packing.  Rates above capacity raise.
    """
    snr = real("snr", snr, above=0.0)
    rate_bits = real("rate", rate_bits, at_least=0.0)
    _check_below_capacity(snr, rate_bits)
    return _gallager(snr, rate_bits)


def _gallager(snr: float, rate_bits: float) -> tuple[float, ExponentRegion]:
    # R_cr is only computed for rates above R_ex
    if rate_bits <= _expurgation_rate(snr):
        u, den = _expurgation_terms(rate_bits)
        return _expurgation(snr, u, den), ExponentRegion.EXPURGATION
    if rate_bits <= _critical_rate(snr):
        return _random_coding(snr, rate_bits), ExponentRegion.RANDOM_CODING
    return _sphere_packing(snr, rate_bits), ExponentRegion.SPHERE_PACKING


def _decode_exponent(
    snr: float, rate_bits: float, u: float | None = None, den: float | None = None
) -> float:
    """Reliability exponent of a decoder at a positive snr and a nonnegative
    rate: :func:`gallager_exp`'s value below capacity, 0 at or above it (no
    reliable decoding, so clamp instead of raising).  An snr of inf, a
    boosted SNR past the float range, is read as the largest float: the
    exponent does not fall with the snr, so that value is a lower bound, 0
    at rates of 512 bits and more (the capacity there) and finite below.

    A caller that holds the rate fixed across many snrs may pass
    ``u, den = _expurgation_terms(rate_bits)``, so they are computed once;
    left at None they are computed here, on the expurgation branch only."""
    if snr == math.inf:
        snr = sys.float_info.max
    if rate_bits >= _capacity(snr):
        return 0.0
    # not routed through _gallager, which would recompute u, den and build a
    # tuple on each evaluation below R_ex: an in-process A/B of the three
    # fig-1 sweeps read that slower in 9 of 11 pairs (Intel Xeon)
    if rate_bits <= _expurgation_rate(snr):
        if u is None:
            u, den = _expurgation_terms(rate_bits)
        return _expurgation(snr, u, den)
    return _gallager(snr, rate_bits)[0]
