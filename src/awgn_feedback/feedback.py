"""Achievable error exponent of interactive AWGN communication with a noisy
feedback link.

The scheme spends K rounds per message block.  Each round after the first
refines the receiver's estimate through a modulo-lattice correction sent over
the feedback channel, which multiplies the usable SNR by a constant growth
factor.  Reliability is then limited by two failure modes: the terminal
decoding error at the boosted SNR, and an aliasing (modulo wrap) event in any
correction round.  :func:`e_fb` maximizes the worse of the two exponents over
the round count K and the per-round looseness L, and the ``*_bound`` helpers
expose the closed forms that approximate that optimum at high SNR.

Rates are in bits per channel use; exponents are in nats.  The exponent is
normalized by the total block length 2KN (forward and feedback uses both
count), which is where the 1/(2K) factor comes from.

The public functions check their arguments, then call unchecked kernels
(``_effective_snr``, ``_region_holds`` and ``_balance_looseness`` here, the
exponent kernels of :mod:`.exponents`).  :func:`e_fb` validates its inputs
and the ends of the looseness interval once, reads the link SNRs once, and
runs its search on the kernels alone, so it returns the bits a search
through the checked functions would.

The search over round counts first runs one K to the end and takes its
value as the incumbent: the caller's ``k_first`` when given (a sweep passes
the optimum of its previous rate, which is mostly the optimum here or a
little below it), else K = min(_FIRST_K, k_max).  It then scans
K = 1..k_max upward and ends at the first K whose bound cannot beat the
incumbent.  Below K0 = max(first K, 2) that bound is bsnr/(16K).  From K0
on it is modulo(Lambda)/(2K), where Lambda is the looseness at and above
which the boosted SNR of no K >= K0 carries K R bits
(``_capacity_looseness``, one closed form per call, no work per K); this
ends the scan near the optimum instead of near K = 64.
The scan drops a K when the two exponents have crossed at a probe
looseness just below 16K times the incumbent's value; the probe is one
evaluation in the scan itself, before any set-up of K's search.  Every
other K runs its full search, so the result is bit for bit that of the full
scan, whichever K ran first (the argument is in :func:`e_fb`); the first K
only sets how many round counts the probe and the end can drop.

A full search is the bisection on the gap of the two exponents, but it
evaluates only the midpoints whose sign is not already certified: secant
steps toward the crossing first find points on both sides of it where the
gap's sign is beyond float error, and every midpoint outside those two
points takes the step an evaluation would give.  The factors of the decode
exponent that depend only on K (through the rate K*R) are computed once per
search and passed to the decode kernel.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
import warnings
from collections.abc import Callable
from dataclasses import dataclass

from ._checks import count, number, real
from .exponents import (
    _critical_rate,
    _decode_exponent,
    _expurgation_terms,
    _poltyrev,
    _rate_nats,
    capacity,
)

__all__ = [
    "Binding",
    "ChannelParams",
    "FeedbackExponentResult",
    "balance_looseness",
    "e_fb",
    "effective_snr",
    "high_snr_bound",
    "kstar_zero_rate",
    "out_of_region_exponent",
    "region_assumptions_hold",
]

# Inner search interval margins and stopping width (relative, in L).
_L_EDGE = 1e-9
_L_TOL = 1e-10

# The pruning probe of e_fb's scan sits this far (relative) below the
# looseness 16*K*best at which L/8 over 2K would tie the incumbent's value
# best, so its bound stays below best even if the float decode exponent
# rose with L by a few ulp between the probe and the looseness the
# bisection ends on.
_PROBE_MARGIN = 1e-9

# The capacity end of e_fb's scan lowers the growth factor it solves for by
# this share, far above the float error of the boosted SNR (a few ulp of g
# per round), so the float decode exponent is 0 at every looseness above it.
_CAP_MARGIN = 1e-9

# The round count e_fb runs first when the caller names none: near the
# median optimum K* over seeded links of -5..60 dB (10) and of 10..25 dB
# (8).  Only the order of the search depends on it, never its result.
_FIRST_K = 10

# A gap decode - modulo counts as certified positive or negative only beyond
# this share of the larger exponent: far above the float error of the decode
# exponent, which at K = 64 is pow's error times K - 1.
_SIGN_GUARD = 1e-12

# The secant search of _certified_bracket: its step budget, its first step
# in ln L, the step in ln L at which it stops, and the relative offsets of
# the two points it then evaluates around its target.
_SECANT_STEPS = 16
_SECANT_DX = 1e-3
_SECANT_XTOL = 1e-11
_SECANT_CERTIFY = 3e-11

# Two exponents within this relative window count as jointly binding.
_BALANCE_RTOL = 1e-6


# =============================================================================
# PARAMETERS
# =============================================================================

@dataclass(frozen=True)
class ChannelParams:
    """Powers and noise variances of the forward and feedback links.

    ``sigma2`` and ``sigma2_tilde`` may be zero so that noiseless limits of
    the simulator can be expressed; the analysis functions in this module
    require both links to be noisy (finite SNRs) and reject degenerate
    parameters at call time.  Every field is stored as a float, so equal
    values of any numeric type give equal (and equally hashed) parameters.
    """

    p: float
    p_tilde: float
    sigma2: float
    sigma2_tilde: float

    def __post_init__(self) -> None:
        for name in ("p", "p_tilde"):
            v = real(name, getattr(self, name), above=0.0)
            object.__setattr__(self, name, v)
        for name in ("sigma2", "sigma2_tilde"):
            v = real(name, getattr(self, name), at_least=0.0)
            object.__setattr__(self, name, v)

    @property
    def snr(self) -> float:
        """Forward link SNR, p / sigma2 (inf when the link is noiseless)."""
        return self.p / self.sigma2 if self.sigma2 > 0.0 else math.inf

    @property
    def bsnr(self) -> float:
        """Feedback link SNR, p_tilde / sigma2_tilde (inf when noiseless)."""
        return self.p_tilde / self.sigma2_tilde if self.sigma2_tilde > 0.0 else math.inf

    @property
    def dsnr(self) -> float:
        """SNR advantage of the feedback link, bsnr / snr."""
        if self.sigma2_tilde == 0.0:
            return math.inf
        if self.sigma2 == 0.0:
            # not bsnr / snr: a finite p_tilde / sigma2_tilde can overflow to inf
            return 0.0
        return self.bsnr / self.snr

    @classmethod
    def from_snrs(cls, snr: float, dsnr: float) -> "ChannelParams":
        """Unit-power parameters realizing the given forward SNR and ratio.

        ``dsnr = inf`` makes the feedback link noiseless (variance 0) and
        ``snr = inf`` both links; the simulator accepts noiseless links, the
        analysis functions reject them.  Finite values whose product rounds
        to 0 or inf raise ValueError rather than divide by zero or give a
        noiseless feedback link.
        """
        snr = number("snr", snr)
        dsnr = number("dsnr", dsnr)
        if not snr > 0.0:
            raise ValueError(f"snr must be positive, got {snr!r}")
        if not dsnr > 0.0:
            raise ValueError(f"dsnr must be positive, got {dsnr!r}")
        if max(snr, dsnr) < math.inf and not 0.0 < snr * dsnr < math.inf:
            raise ValueError(f"snr {snr!r} times dsnr {dsnr!r} leaves the float range")
        return cls(p=1.0, p_tilde=1.0, sigma2=1.0 / snr, sigma2_tilde=1.0 / (snr * dsnr))


def _require_noisy(params: ChannelParams) -> None:
    if params.sigma2 <= 0.0 or params.sigma2_tilde <= 0.0:
        raise ValueError("analysis requires noisy forward and feedback links")
    if not params.dsnr > 1.0:  # also a nan dsnr, which inf / inf gives
        raise ValueError(
            f"feedback link must be better than the forward link (dsnr > 1), "
            f"got dsnr={params.dsnr!r}"
        )


class Binding(enum.Enum):
    """Which failure mode limits the optimized exponent."""

    MODULO = "modulo"
    DECODE = "decode"
    BALANCED = "balanced"


@dataclass(frozen=True)
class FeedbackExponentResult:
    e_fb: float
    k_star: int
    l_star: float
    binding: Binding
    region_valid: bool
    k_at_boundary: bool


# =============================================================================
# CORE RECURSION AND OPTIMIZATION
# =============================================================================

def effective_snr(params: ChannelParams, looseness: float, rounds: int) -> float:
    """SNR available to the terminal decoder after ``rounds`` rounds.

    Each correction round multiplies the SNR by

        g = 1 + snr * (1 - L/bsnr) / (1 + L/dsnr),

    so the result is snr * g**(rounds-1), or inf where that exceeds the
    float range.  Looseness must satisfy 1 <= L < bsnr; at L = bsnr the
    correction carries no information and the growth factor degenerates to 1.
    """
    _require_noisy(params)
    rounds = count("rounds", rounds)
    looseness = _check_looseness(looseness, params.bsnr)
    return _effective_snr(params.snr, params.bsnr, params.dsnr, looseness, rounds)


def _effective_snr(
    snr: float, bsnr: float, dsnr: float, looseness: float, rounds: int
) -> float:
    g = 1.0 + snr * (1.0 - looseness / bsnr) / (1.0 + looseness / dsnr)
    try:
        return snr * g ** (rounds - 1)
    except OverflowError:
        return math.inf


def _check_looseness(looseness: float, bsnr: float) -> float:
    looseness = real("looseness", looseness, at_least=1.0)
    if looseness >= bsnr:
        raise ValueError(
            f"looseness {looseness} must stay below bsnr {bsnr}; "
            f"the feedback correction cannot be scaled into its power budget there"
        )
    return looseness


def _inner_optimum(
    snr: float, bsnr: float, dsnr: float, rate_bits: float, rounds: int
) -> tuple[float, float]:
    """Best min(decode, modulo) / (2K) over looseness for a fixed round count.

    The decode exponent falls with L (less SNR growth) while the modulo
    exponent rises with L (coarser lattice, rarer wraps), so the min peaks
    where they cross, found by bisection on their gap, or at an end of
    (1, bsnr).  Returns (value, looseness, decode, modulo), the last two
    the exponents at that looseness.

    Before the bisection, :func:`_certified_bracket` takes secant steps
    toward the crossing and returns the largest point where the gap is
    certified positive and the smallest where it is certified negative.
    The bisection then runs its steps unchanged but evaluates only the
    midpoints between those two points: a midpoint at or below the first
    raises the lower end, one at or above the second lowers the upper end,
    as an evaluation there would (point 5 of :func:`e_fb`).  With no
    certified point this is the plain bisection.  Unchecked: the caller has
    validated the link SNRs, the rate and the interval ends.
    """
    lo = 1.0 + _L_EDGE
    hi = bsnr * (1.0 - _L_EDGE)
    rate_k = rounds * rate_bits
    u, den = _expurgation_terms(rate_k)

    def decode(L: float) -> float:
        snr_k = _effective_snr(snr, bsnr, dsnr, L, rounds)
        return _decode_exponent(snr_k, rate_k, u, den)

    if decode(lo) - _poltyrev(lo) <= 0.0:
        l_opt = lo
    elif decode(hi) - _poltyrev(hi) >= 0.0:
        l_opt = hi
    else:
        # decode(lo) > _poltyrev(lo) > 0 puts K R below capacity(float max),
        # 512 bits, so eta(K R) >= 2^-513 cannot underflow to 0 here
        start = _balance_looseness(bsnr, dsnr, rate_bits, rounds)
        if not lo < start < hi:
            start = math.sqrt(lo * hi)
        pos, neg = _certified_bracket(decode, lo, hi, start)
        a, b = lo, hi
        while b - a > _L_TOL * a:
            mid = 0.5 * (a + b)
            if mid <= pos:
                a = mid
            elif mid >= neg:
                b = mid
            elif decode(mid) - _poltyrev(mid) > 0.0:
                a = mid
            else:
                b = mid
        l_opt = 0.5 * (a + b)
    dec, mod = decode(l_opt), _poltyrev(l_opt)
    return min(dec, mod) / (2.0 * rounds), l_opt, dec, mod


def _certified_bracket(
    decode: Callable[[float], float], lo: float, hi: float, start: float
) -> tuple[float, float]:
    """Points pos < neg of [lo, hi] around the crossing of decode and modulo.

    The gap decode - modulo counts as positive at L, and L as a candidate
    for pos, only when it exceeds _SIGN_GUARD times the larger exponent, and
    as negative, a candidate for neg, only when it is below minus that;
    pos and neg stay at lo and hi when no point qualifies.  The points come
    from at most _SECANT_STEPS secant steps on phi = ln(decode) - ln(modulo)
    against ln L from ``start`` (the first step moves ln L by _SECANT_DX
    toward the crossing), each kept strictly inside (pos, neg) and replaced
    by the midpoint in ln L where it would leave it or where phi is not
    defined (a decode exponent of 0).  Once a step would move ln L by less
    than _SECANT_XTOL, the points r (1 -+ _SECANT_CERTIFY) around its
    target r are evaluated, so that the crossing gets certified from both
    sides.  Only the evaluations matter to the caller, not where the steps
    went, so the result is exact whatever the secant does.
    """
    pos, neg = lo, hi

    def certify(L: float) -> float | None:
        nonlocal pos, neg
        d, m = decode(L), _poltyrev(L)
        guard = _SIGN_GUARD * max(d, m)
        if d - m > guard:
            pos = max(pos, L)
        elif d - m < -guard:
            neg = min(neg, L)
        return math.log(d) - math.log(m) if d > 0.0 and m > 0.0 else None

    x, x_prev, f_prev = math.log(start), 0.0, None
    for _ in range(_SECANT_STEPS):
        f = certify(math.exp(x))
        ln_pos, ln_neg = math.log(pos), math.log(neg)
        if f is None:
            step = 0.5 * (ln_pos + ln_neg) - x
        elif f_prev is None or f == f_prev:
            step = math.copysign(_SECANT_DX, f)
        else:
            step = -f * (x - x_prev) / (f - f_prev)
        if abs(step) < _SECANT_XTOL:
            r = math.exp(x + step)
            certify(r * (1.0 - _SECANT_CERTIFY))
            certify(r * (1.0 + _SECANT_CERTIFY))
            break
        x_prev, f_prev = x, f
        x += step
        if not ln_pos < x < ln_neg:
            x = 0.5 * (ln_pos + ln_neg)
    return pos, neg


def _capacity_looseness(
    snr: float, bsnr: float, dsnr: float, rate_bits: float, rounds: int
) -> float:
    """The looseness at and above which no round count from ``rounds`` >= 2
    on decodes: min(max(L_cap, L_c), bsnr) of point 6 of :func:`e_fb`.

    With c = 2^{2R}, the growth factor g(L) = (bsnr + dsnr)/(L + dsnr)
    falls to gamma = ((c^K - 1)/snr)^{1/(K-1)} at L_cap, where the boosted
    SNR snr g^{K-1} carries K R bits, and to c at L_c.  The smaller factor is
    lowered by _CAP_MARGIN before L = dsnr (snr + 1 - g)/g is solved for, so
    that the float kernels read a decode exponent of 0 from there on.  A
    c^K - 1 past the float range leaves gamma = inf, no bound from L_cap; a
    factor of 0 (a rate of 0) leaves bsnr.  Unchecked.
    """
    try:
        t = math.expm1(2.0 * _rate_nats(rounds * rate_bits))
    except OverflowError:
        gamma = math.inf
    else:
        gamma = (t / snr) ** (1.0 / (rounds - 1))
    g = min(gamma, 2.0 ** (2.0 * rate_bits)) * (1.0 - _CAP_MARGIN)
    if g == 0.0:
        return bsnr
    return min(dsnr * (snr + 1.0 - g) / g, bsnr)


def e_fb(
    params: ChannelParams, rate_bits: float, k_max: int = 64, *,
    k_first: int | None = None,
) -> FeedbackExponentResult:
    """Best achievable exponent of the interactive scheme at ``rate_bits``.

    Maximizes min(decode exponent, modulo exponent) / (2K) over the round
    count K in [1, k_max] and the looseness L in [1, bsnr), and returns the
    largest value with the smallest K that reaches it, as an ascending scan
    of K with a strict ``>`` test would.

    The round count ``k_first`` in [1, k_max], or when it is None
    min(_FIRST_K, k_max) with _FIRST_K = 10, runs first, to the end, and
    sets the incumbent (best value, K).  ``k_first`` only orders the search
    and never changes the result; a first K at or near the optimum lets the
    probe and the scan's end drop more of the others, so a sweep over rates
    passes the previous rate's ``k_star``.  The scan of K = 1..k_max then
    ends at the first K whose bound cannot beat the incumbent: bsnr/(16K)
    (the modulo exponent is at most L/8 < bsnr/8) below K0 = max(first K,
    2), else the capacity end modulo(Lambda)/(2K) of point 6.  The scan
    drops a K after one evaluation, with no set-up of its search, when the
    gap decode - modulo is not positive at the probe L1 = 16K best
    (1 - _PROBE_MARGIN) and the bound modulo(L1)/(2K) is below best; every
    other K runs its full search.
    The result is bit for bit that of the full scan:

    1. A K's search depends only on K, not on the incumbent; the probe
       either drops K or leaves its search as it was.
    2. The scan bound holds in floating point, value/(2K) <= bsnr/(16K),
       and so does the capacity end (point 6); neither rises with K, nor
       does the switch to the end, as modulo(Lambda) <= Lambda/8 <= bsnr/8.
    3. The incumbent only improves, so a K dropped could not have replaced
       the final best value under the strict ``>`` test, nor tied it at a
       smaller K, whatever order the round counts ran in.
    4. The probe's bound holds as well.  The gap falls with L (the decode
       exponent is non-increasing, the modulo exponent non-decreasing), so
       a gap <= 0 at L1 puts every bisection step that raises the lower end
       below L1.  The final L is then either at most L1, where the min is at
       most modulo(L1), or above it, where the min is at most
       decode(L) <= decode(L1) <= modulo(L1).  Since modulo(L1) <= L1/8,
       the bound modulo(L1)/(2K) is at most best (1 - _PROBE_MARGIN) up to
       rounding; the margin keeps a float decode exponent that rose by a
       few ulp from lifting the value to the incumbent's, and the stop
       also needs the bound itself to be below best.
    5. A search's bisection takes the steps of the plain one.  It skips a
       midpoint only at or below a point where the gap exceeded
       _SIGN_GUARD times the larger exponent, or at or above one where it
       fell below minus that.  The gap falls with L, and a sign certified
       beyond the guard, far above the float error of either exponent,
       cannot flip between such a midpoint and the point that certified
       it, so an evaluation there would have taken the same step.
    6. The capacity end holds as well.  With c = 2^{2R} and the growth
       factor g(L) = (bsnr + dsnr)/(L + dsnr), the decode exponent at K is
       0 on S_K = {L : snr g(L)^{K-1} <= c^K - 1}, where the boosted SNR
       does not carry K R bits.  S_K is an up-set in L, as g falls with L.
       If L is in S_K and g(L) <= c, then L is in S_{K+1}, because
       c^K (g - c) <= g - 1.  So every L >= Lambda = min(max(L_cap(K0),
       L_c), bsnr) has decode exponent 0 at every K >= K0, where
       L_cap(K0) = dsnr (snr + 1 - gamma)/gamma, with gamma =
       ((c^K0 - 1)/snr)^{1/(K0-1)}, is the bottom of S_K0 and L_c is
       where g = c.  A search's final L lies either below Lambda, where
       the min is at most modulo(Lambda), or at or above it, where it is 0;
       so K's value is at most modulo(Lambda)/(2K), which falls with K.
       In floats, :func:`_capacity_looseness` lowers min(gamma, c)
       by _CAP_MARGIN = 1e-9 before it solves for Lambda, so the boosted
       SNR above Lambda sits a factor (1 - 1e-9)^{K-1} below c^K - 1,
       against a float error of a few ulp of g per round and of the
       closed form itself.  Past K0 R = 512 bits, where c^K0 - 1 overflows,
       no float SNR decodes (the decode kernel reads an overflowed SNR as
       the largest float, whose capacity is 512 bits), so gamma is inf
       there.  An incumbent of 0 ends the scan here only where
       modulo(Lambda) = 0, that is Lambda <= 1, and only at a K above the
       incumbent's: every L of the search is then at or above Lambda, so
       every K >= K0 has value 0, and a tie at a larger K never replaces
       the incumbent.

    A result with ``k_at_boundary`` set means the argmax sat at k_max and a
    larger search range might still improve the value; a warning is emitted.
    ``region_valid`` reports whether the closed-form approximations of
    :func:`high_snr_bound` apply at the optimizing (K, L).
    """
    _require_noisy(params)
    rate_bits = real("rate", rate_bits, at_least=0.0)
    k_max = count("k_max", k_max)
    snr, bsnr, dsnr = params.snr, params.bsnr, params.dsnr
    cap = capacity(snr)
    if rate_bits >= cap:
        raise ValueError(
            f"rate {rate_bits} bits must be below the forward capacity {cap} bits"
        )
    # the ends of the looseness search; every point tried lies between them.
    # bsnr overflows to inf when p_tilde / sigma2_tilde leaves the float range
    bsnr = real("bsnr", bsnr)
    lo = 1.0 + _L_EDGE
    hi = bsnr * (1.0 - _L_EDGE)
    if not lo < hi:
        raise ValueError(
            f"bsnr {bsnr} leaves no looseness in (1, bsnr); "
            f"e_fb needs a feedback SNR above 1"
        )

    if k_first is None:
        k0 = min(_FIRST_K, k_max)
    else:
        k0 = count("k_first", k_first, 1, k_max + 1)
    best_k, best = k0, _inner_optimum(snr, bsnr, dsnr, rate_bits, k0)
    # the capacity end, point 6 of the proof above: for every K >= k_end
    k_end = max(k0, 2)
    mod_end = _poltyrev(_capacity_looseness(snr, bsnr, dsnr, rate_bits, k_end))
    for k in range(1, k_max + 1):
        bound = mod_end / (2.0 * k) if k >= k_end else bsnr / (16.0 * k)
        if bound < best[0] or (bound == best[0] and k > best_k):
            break
        if k == k0:
            continue
        # the probe, point 4 of the proof above; a best value of 0, or one
        # too small for the interval, never probes
        probe = 16.0 * k * best[0] * (1.0 - _PROBE_MARGIN)
        if lo < probe < hi:
            mod = _poltyrev(probe)
            if mod / (2.0 * k) < best[0]:
                snr_k = _effective_snr(snr, bsnr, dsnr, probe, k)
                if _decode_exponent(snr_k, k * rate_bits) - mod <= 0.0:
                    continue
        found = _inner_optimum(snr, bsnr, dsnr, rate_bits, k)
        if found[0] > best[0] or (found[0] == best[0] and k < best_k):
            best_k, best = k, found
    best_val, best_l, dec, mod = best

    k_at_boundary = best_k == k_max
    if k_at_boundary:
        warnings.warn(
            f"e_fb argmax hit k_max={k_max}; a larger k_max may improve the result",
            RuntimeWarning,
            stacklevel=2,
        )

    scale = max(dec, mod, 1e-300)
    if abs(dec - mod) <= _BALANCE_RTOL * scale:
        binding = Binding.BALANCED
    elif dec < mod:
        binding = Binding.DECODE
    else:
        binding = Binding.MODULO

    return FeedbackExponentResult(
        e_fb=best_val,
        k_star=best_k,
        l_star=best_l,
        binding=binding,
        region_valid=_region_holds(snr, bsnr, dsnr, rate_bits, best_k, best_l),
        k_at_boundary=k_at_boundary,
    )


# =============================================================================
# HIGH-SNR CLOSED FORMS
# =============================================================================

def _eta(x: float) -> float:
    # eta(x) = 1 - sqrt(1 - 2^-x) for x >= 0, taken as u/(1 + sqrt(1 - u))
    # with u = 2^-x, which does not cancel as u -> 0
    u = 2.0 ** (-x)
    return u / (1.0 + math.sqrt(1.0 - u))


def balance_looseness(params: ChannelParams, rate_bits: float, rounds: int) -> float:
    """Looseness equalizing the two high-SNR exponent approximations.

    At high SNR the decode exponent is close to (1/4) * snr_eff * eta(RK),
    with eta(x) = 1 - sqrt(1 - 2**-x) and
    snr_eff ~ (bsnr - L)**K / (dsnr * L**(K-1)), and the modulo exponent is
    close to L/8.  Setting them equal gives

        L* = bsnr / (1 + (dsnr / (2 * eta(R*K)))**(1/K)),

    which this returns.  L* < bsnr always; it also stays above 1 whenever
    the high-SNR regime of :func:`region_assumptions_hold` applies.  Past
    R*K ~ 1074 bits eta(R*K) is 0 in floats and this raises ValueError.
    """
    _require_noisy(params)
    rate_bits = real("rate", rate_bits, at_least=0.0)
    rounds = count("rounds", rounds)
    try:
        return _balance_looseness(params.bsnr, params.dsnr, rate_bits, rounds)
    except ZeroDivisionError:
        raise ValueError(f"rate {rate_bits} over {rounds} rounds is beyond the "
                         f"closed form: eta(rate * rounds) underflows to 0") from None


def _balance_looseness(
    bsnr: float, dsnr: float, rate_bits: float, rounds: int
) -> float:
    h = _eta(rate_bits * rounds)
    return bsnr / (1.0 + (dsnr / (2.0 * h)) ** (1.0 / rounds))


def high_snr_bound(params: ChannelParams, rate_bits: float, rounds: int) -> float:
    """Closed-form lower estimate of e_fb at the balanced looseness.

    Both exponent approximations equal L*/8 at the balance point, so the
    normalized value is L* / (16 K).  Requires rounds > 1; with a single
    round there is no correction and the approximation has no content.
    Validity of the underlying approximations should be checked with
    :func:`region_assumptions_hold`.
    """
    rounds = count("rounds", rounds, lo=2)
    l_star = balance_looseness(params, rate_bits, rounds)
    return l_star / (16.0 * rounds)


def kstar_zero_rate(dsnr: float) -> float:
    """Real-valued round count maximizing the zero-rate closed form.

    Equals 0.78 * ln(dsnr / 2); callers round to the better of floor and
    ceil.  Defined for dsnr >= 2 (returns 0 exactly at 2, where no
    correction round pays for itself).
    """
    return 0.78 * math.log(real("dsnr", dsnr, at_least=2.0) / 2.0)


def region_assumptions_hold(
    params: ChannelParams, rate_bits: float, rounds: int, looseness: float
) -> bool:
    """Whether the closed-form approximations apply at (R, K, L).

    Requires the modulo exponent to sit on its linear branch (L > 4) and
    the total rate K*R to fall strictly below the critical rate of the
    boosted channel, so the decode exponent is in its expurgation form; a
    boosted SNR beyond the float range is read as the largest float, as in
    the decode exponent.  A looseness outside the closed-form domain
    (not finite, at most 4, or not in [1, bsnr)) returns False.  Like
    :func:`e_fb`, it raises ValueError on an invalid link (noiseless, or
    dsnr <= 1), rate (negative or not finite), round count (not an int, or
    below 1) or looseness (not a real number).
    """
    _require_noisy(params)
    rate_bits = real("rate", rate_bits, at_least=0.0)
    rounds = count("rounds", rounds)
    looseness = number("looseness", looseness)
    return _region_holds(
        params.snr, params.bsnr, params.dsnr, rate_bits, rounds, looseness
    )


def _region_holds(
    snr: float, bsnr: float, dsnr: float, rate_bits: float, rounds: int,
    looseness: float,
) -> bool:
    # 4 < L < bsnr also rules out a looseness that is nan or inf
    if not 4.0 < looseness < bsnr:
        return False
    # a boosted SNR past the float range reads as the largest float, as in
    # the decode exponent
    snr_eff = _effective_snr(snr, bsnr, dsnr, looseness, rounds)
    snr_eff = min(snr_eff, sys.float_info.max)
    return rounds * rate_bits < _critical_rate(snr_eff)


@functools.lru_cache(maxsize=64)
def _region_anchor(params: ChannelParams) -> tuple[float, int, float]:
    """Highest rate where the closed-form regime holds, with its (K, L).

    Scans rates downward from capacity in steps of capacity/1000.  At each
    rate the candidate round counts are floor and ceil of
    :func:`kstar_zero_rate` (at least 2); the candidate with the larger
    closed-form bound wins.  Raises when no rate qualifies.  Checks the link
    once and runs the scan on the unchecked kernels.
    """
    _require_noisy(params)
    snr, bsnr, dsnr = params.snr, params.bsnr, params.dsnr
    if dsnr < 2.0:
        raise ValueError(
            "closed-form regime needs dsnr >= 2; no valid round count exists"
        )
    k_real = kstar_zero_rate(dsnr)
    candidates = sorted({max(2, math.floor(k_real)), max(2, math.ceil(k_real))})
    cap = capacity(snr)
    for i in range(999, 0, -1):
        rate = cap * (i / 1000.0)
        feasible = []
        for k in candidates:
            try:
                l_star = _balance_looseness(bsnr, dsnr, rate, k)
            except ZeroDivisionError:
                continue  # eta(R K) underflows: balance_looseness has no value
            if _region_holds(snr, bsnr, dsnr, rate, k, l_star):
                # high_snr_bound's value
                feasible.append((l_star / (16.0 * k), k, l_star))
        if feasible:
            _, k, l_star = max(feasible)
            return rate, k, l_star
    raise ValueError(
        "no rate below capacity satisfies the closed-form regime assumptions"
    )


def out_of_region_exponent(params: ChannelParams, rate_bits: float) -> float:
    """Exponent estimate beyond the closed-form regime's rate range.

    Freezes (K, L) at the highest rate where the regime assumptions hold
    and evaluates the decode exponent of the frozen configuration at the
    requested rate, normalized by 2K.  Continuous with the frozen
    configuration's value at the boundary rate and decreasing beyond it.
    Raises when no rate qualifies at all (closed forms inapplicable).
    """
    _require_noisy(params)
    rate_bits = real("rate", rate_bits, at_least=0.0)
    _, k, l_star = _region_anchor(params)
    snr_eff = effective_snr(params, l_star, k)
    return _decode_exponent(snr_eff, k * rate_bits) / (2.0 * k)
