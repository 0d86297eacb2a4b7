"""Closed-form error exponents for the power-constrained AWGN channel and for
unconstrained lattice decoding.

Unit convention
---------------
Rates cross the public API in bits per channel use.  Exponent values are in
nats, matching the e^{-N E} convention.  Every bits-to-nats conversion goes
through :func:`rate_nats` so the convention lives in exactly one place.

The random-coding exponent over [R_ex, R_cr] is the straight line of slope -1
(in nats) that is tangent to the expurgation curve at R_ex and to the
sphere-packing curve at R_cr.  Its intercept has the closed form implemented
in :func:`_straight_line_intercept`; continuity at both boundaries is a
structural identity of that form and is enforced by the test suite at 1e-6
relative (it holds to machine precision).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

__all__ = [
    "ExponentRegion",
    "RegionBoundaries",
    "capacity",
    "critical_rate",
    "expurgation_rate",
    "expurgation_exp",
    "gallager_exp",
    "poltyrev_exponent",
    "random_coding_exp",
    "rate_nats",
    "region_boundaries",
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


def rate_nats(rate_bits: float) -> float:
    """Convert a rate in bits per use to nats per use."""
    return rate_bits * LN2


def _check_snr(snr: float) -> float:
    snr = float(snr)
    if not math.isfinite(snr) or snr <= 0.0:
        raise ValueError(f"snr must be finite and positive, got {snr!r}")
    return snr


def _check_rate(rate_bits: float) -> float:
    rate_bits = float(rate_bits)
    if not math.isfinite(rate_bits) or rate_bits < 0.0:
        raise ValueError(f"rate must be finite and nonnegative, got {rate_bits!r}")
    return rate_bits


# =============================================================================
# REGION GEOMETRY
# =============================================================================

class ExponentRegion(enum.Enum):
    """Which branch of the reliability bound applies at a given rate."""

    EXPURGATION = "expurgation"
    RANDOM_CODING = "random_coding"
    SPHERE_PACKING = "sphere_packing"


@dataclass(frozen=True)
class RegionBoundaries:
    """Rate boundaries (bits per use) between the exponent regions.

    Satisfies 0 <= expurgation_rate <= critical_rate <= capacity.
    """

    capacity: float
    critical_rate: float
    expurgation_rate: float


def capacity(snr: float) -> float:
    """Shannon capacity of the AWGN channel, 0.5*log2(1 + snr), in bits."""
    return 0.5 * math.log2(1.0 + _check_snr(snr))


def critical_rate(snr: float) -> float:
    """Rate (bits) above which random coding meets the sphere-packing bound."""
    snr = _check_snr(snr)
    return 0.5 * math.log2(0.5 + snr / 4.0 + 0.5 * math.sqrt(1.0 + snr * snr / 4.0))


def expurgation_rate(snr: float) -> float:
    """Rate (bits) below which expurgation improves on random coding."""
    snr = _check_snr(snr)
    return 0.5 * math.log2(0.5 + 0.5 * math.sqrt(1.0 + snr * snr / 4.0))


def region_boundaries(snr: float) -> RegionBoundaries:
    return RegionBoundaries(
        capacity=capacity(snr),
        critical_rate=critical_rate(snr),
        expurgation_rate=expurgation_rate(snr),
    )


# =============================================================================
# UNCONSTRAINED (LATTICE) DECODING
# =============================================================================

def poltyrev_exponent(x: float) -> float:
    """Error exponent of ML lattice decoding at normalized VNR ``x``.

    Three branches, continuous at x = 2 and x = 4; zero at and below the
    x = 1 threshold (no reliable decoding there, returned as 0 so the
    function is total on x > 0).
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"normalized VNR must be finite and positive, got {x!r}")
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

def sphere_packing_exp(snr: float, rate_bits: float) -> float:
    """Sphere-packing exponent (nats) at ``rate_bits`` <= capacity.

    Evaluated in the cancellation-free arrangement: with beta = 2^{2R} and
    x = 4*beta/(snr*(beta - 1)),

        E_sp = snr/(2 beta) - 1/(1 + sqrt(1+x)) + 0.5*ln(beta*x) - ln(1 + sqrt(1+x))

    which is algebraically identical to the textbook form but evaluates to
    exactly 0 at capacity in floating point.  Rates at or below
    ZERO_RATE_BITS return the analytic limit snr/2.
    """
    snr = _check_snr(snr)
    rate_bits = float(rate_bits)
    if not math.isfinite(rate_bits):
        raise ValueError(f"rate must be finite, got {rate_bits!r}")
    if rate_bits < ZERO_RATE_BITS:
        # covers R <= 0 as well: return the zero-rate limit
        return 0.5 * snr
    cap = capacity(snr)
    if rate_bits > cap:
        if rate_bits > cap * (1.0 + _CAP_SLACK):
            raise ValueError(
                f"rate {rate_bits} bits exceeds capacity {cap} bits at snr={snr}"
            )
        rate_bits = cap
    beta = math.exp(2.0 * rate_nats(rate_bits))
    x = 4.0 * beta / (snr * (beta - 1.0))
    q = math.sqrt(1.0 + x)
    val = (
        snr / (2.0 * beta)
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


def random_coding_exp(snr: float, rate_bits: float) -> float:
    """Random-coding exponent (nats): the slope -1 line A(snr) - R.

    Intended for rates in [R_ex, R_cr]; accepts any R >= 0 and is not
    clamped, so values above the line's zero crossing come out negative.
    The region dispatch in :func:`gallager_exp` never evaluates it there.
    """
    snr = _check_snr(snr)
    rate_bits = _check_rate(rate_bits)
    return _straight_line_intercept(snr) - rate_nats(rate_bits)


def expurgation_exp(snr: float, rate_bits: float) -> float:
    """Expurgation exponent (nats), (snr/4)*(1 - sqrt(1 - 2^{-2R})).

    Evaluated as (snr/4)*u/(1 + sqrt(1-u)) with u = 2^{-2R}, which is exact
    at R = 0 (returns snr/4) and loses nothing as u -> 0.
    """
    snr = _check_snr(snr)
    rate_bits = _check_rate(rate_bits)
    u = math.exp(-2.0 * rate_nats(rate_bits))
    return 0.25 * snr * u / (1.0 + math.sqrt(1.0 - u))


def gallager_exp(snr: float, rate_bits: float) -> tuple[float, ExponentRegion]:
    """Reliability exponent (nats) with region dispatch.

    Returns ``(value, region)``.  Boundaries belong to the closure of the
    lower-rate region: R <= R_ex is expurgation, R_ex < R <= R_cr is random
    coding, R_cr < R <= C is sphere packing.  Rates above capacity raise.
    """
    snr = _check_snr(snr)
    rate_bits = _check_rate(rate_bits)
    b = region_boundaries(snr)
    if rate_bits > b.capacity * (1.0 + _CAP_SLACK):
        raise ValueError(
            f"rate {rate_bits} bits exceeds capacity {b.capacity} bits at snr={snr}"
        )
    if rate_bits <= b.expurgation_rate:
        return expurgation_exp(snr, rate_bits), ExponentRegion.EXPURGATION
    if rate_bits <= b.critical_rate:
        return random_coding_exp(snr, rate_bits), ExponentRegion.RANDOM_CODING
    return sphere_packing_exp(snr, rate_bits), ExponentRegion.SPHERE_PACKING
