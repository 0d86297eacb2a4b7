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
(``_effective_snr`` here, the exponent kernels of :mod:`.exponents`).
:func:`e_fb` validates its inputs and the ends of the looseness interval
once, reads the link SNRs once, and runs its search on the kernels alone, so
it returns the bits a search through the checked functions would.

The search over round counts is best-first: it keeps an upper bound on each
K's value and always advances the looseness bisection of the K with the
largest bound.  Each bisection step that lowers the bracket's upper end b
lowers that bound to the modulo exponent at b over 2K, which holds because
the final looseness never exceeds b and the modulo exponent is
non-decreasing.  The search ends once no bound left can beat the best value
found, so mostly only the winning K bisects to the end.  Every bisection
follows the same path as in a plain ascending scan of K, so the result is
bit for bit that of the full search (the argument is in :func:`e_fb`).
"""

from __future__ import annotations

import enum
import functools
import heapq
import math
import warnings
from collections.abc import Generator
from dataclasses import dataclass

from .exponents import (
    _capacity,
    _check_rate,
    _gallager,
    _poltyrev,
    capacity,
    critical_rate,
)

__all__ = [
    "Binding",
    "ChannelParams",
    "FeedbackExponentResult",
    "balance_looseness",
    "e_fb",
    "effective_snr",
    "eta",
    "high_snr_bound",
    "kstar_zero_rate",
    "out_of_region_exponent",
    "region_assumptions_hold",
]

# Inner search interval margins and stopping width (relative, in L).
_L_EDGE = 1e-9
_L_TOL = 1e-10

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
    parameters at call time.
    """

    p: float
    p_tilde: float
    sigma2: float
    sigma2_tilde: float

    def __post_init__(self) -> None:
        for name in ("p", "p_tilde"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {v!r}")
        for name in ("sigma2", "sigma2_tilde"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and nonnegative, got {v!r}")

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
            return 0.0
        return self.bsnr / self.snr

    @classmethod
    def from_snrs(cls, snr: float, dsnr: float) -> "ChannelParams":
        """Unit-power parameters realizing the given forward SNR and ratio.

        ``dsnr = inf`` makes the feedback link noiseless (variance 0) and
        ``snr = inf`` both links; the simulator accepts noiseless links, the
        analysis functions reject them.
        """
        if not snr > 0.0:
            raise ValueError(f"snr must be positive, got {snr!r}")
        if not dsnr > 0.0:
            raise ValueError(f"dsnr must be positive, got {dsnr!r}")
        return cls(p=1.0, p_tilde=1.0, sigma2=1.0 / snr, sigma2_tilde=1.0 / (snr * dsnr))


def _require_noisy(params: ChannelParams) -> None:
    if params.sigma2 <= 0.0 or params.sigma2_tilde <= 0.0:
        raise ValueError("analysis requires noisy forward and feedback links")
    if params.dsnr <= 1.0:
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
    rounds = _check_rounds(rounds)
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
    looseness = float(looseness)
    if not math.isfinite(looseness) or looseness < 1.0:
        raise ValueError(f"looseness must be finite and >= 1, got {looseness!r}")
    if looseness >= bsnr:
        raise ValueError(
            f"looseness {looseness} must stay below bsnr {bsnr}; "
            f"the feedback correction cannot be scaled into its power budget there"
        )
    return looseness


def _check_rounds(rounds: int) -> int:
    if not isinstance(rounds, (int,)) or isinstance(rounds, bool):
        raise ValueError(f"rounds must be an integer, got {rounds!r}")
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    return rounds


def _decode_exponent(snr: float, rate_bits: float) -> float:
    # reliability exponent of the terminal decoder at a positive snr and a
    # nonnegative rate; no reliable decoding at or above capacity, so clamp
    # to 0 instead of raising.  A boosted snr beyond the float range gives
    # inf, the limit of the expurgation exponent as snr grows.
    if snr == math.inf:
        return math.inf
    if rate_bits >= _capacity(snr):
        return 0.0
    return _gallager(snr, rate_bits)[0]


def _inner_optimum(
    snr: float, bsnr: float, dsnr: float, rate_bits: float, rounds: int
) -> Generator[float, None, tuple[float, float]]:
    """Best min(decode, modulo) over looseness for a fixed round count.

    The decode exponent falls with L (less SNR growth) while the modulo
    exponent rises with L (coarser lattice, rarer wraps), so the pointwise
    min is maximized at their crossing, or at an endpoint when the curves do
    not cross inside (1, bsnr).  A generator: each bisection step that
    lowers the bracket's upper end b yields the bound modulo(b) / (2K) on
    the final normalized value, and the search returns (unnormalized value,
    looseness) through StopIteration.  The returned looseness never exceeds
    b, also when it is the lower end of the search, and the modulo exponent
    is non-decreasing, so every bound holds.  The gap at the lower end is
    read only when it decides the answer, which spares it for a K the
    caller drops.  Unchecked: the caller has validated the link SNRs and
    the rate, and every looseness tried lies in
    [1 + _L_EDGE, bsnr * (1 - _L_EDGE)].
    """
    lo = 1.0 + _L_EDGE
    hi = bsnr * (1.0 - _L_EDGE)
    rate_k = rounds * rate_bits
    two_k = 2.0 * rounds

    def decode(L: float) -> float:
        return _decode_exponent(_effective_snr(snr, bsnr, dsnr, L, rounds), rate_k)

    def gap(L: float) -> float:
        return decode(L) - _poltyrev(L)

    if gap(hi) >= 0.0:
        l_opt = lo if gap(lo) <= 0.0 else hi
    else:
        a, b = lo, hi
        while b - a > _L_TOL * a:
            mid = 0.5 * (a + b)
            if gap(mid) > 0.0:
                a = mid
            else:
                b = mid
                yield _poltyrev(b) / two_k
        l_opt = lo if gap(lo) <= 0.0 else 0.5 * (a + b)
    return min(decode(l_opt), _poltyrev(l_opt)), l_opt


def e_fb(
    params: ChannelParams, rate_bits: float, k_max: int = 64
) -> FeedbackExponentResult:
    """Best achievable exponent of the interactive scheme at ``rate_bits``.

    Maximizes min(decode exponent, modulo exponent) / (2K) over the round
    count K in [1, k_max] and the looseness L in [1, bsnr), and returns the
    largest value with the smallest K that reaches it, as an ascending scan
    of K with a strict ``>`` test would.

    The search is best-first (branch and bound): a heap holds an upper
    bound on each K's value, seeded with bsnr/(16K), since the modulo
    exponent is at most L/8 < bsnr/8.  The K with the largest bound runs its
    L bisection, each step of which lowers that K's bound to modulo(b)/(2K)
    at the bracket's upper end b, until the bound drops below the next one
    on the heap; a K whose bisection ends offers its value.  The search
    stops once the largest bound left is below the best value, or equal to
    it at a larger K.  The result is bit for bit that of the full scan:

    1. A K's bisection path depends only on K, not on the best value so far
       or on how the round counts are interleaved.
    2. Both bounds hold in floating point: value/(2K) <= bsnr/(16K), and
       value/(2K) <= modulo(b)/(2K), because the final L is at most b, the
       modulo exponent is non-decreasing, and dividing by the same 2K keeps
       the order under rounding.
    3. So a K left out could not have replaced the best value under the
       strict ``>`` test of the scan, nor tied it at a smaller K.

    A K that cannot win stops at the bound that rules it out, so mostly
    only the winning K runs its bisection to the end.

    A result with ``k_at_boundary`` set means the argmax sat at k_max and a
    larger search range might still improve the value; a warning is emitted.
    ``region_valid`` reports whether the closed-form approximations of
    :func:`high_snr_bound` apply at the optimizing (K, L).
    """
    _require_noisy(params)
    rate_bits = _check_rate(rate_bits)
    k_max = _check_rounds(k_max)
    snr, bsnr, dsnr = params.snr, params.bsnr, params.dsnr
    cap = capacity(snr)
    if rate_bits >= cap:
        raise ValueError(
            f"rate {rate_bits} bits must be below the forward capacity {cap} bits"
        )
    # the ends of the looseness search; every point tried lies between them
    _check_looseness(1.0 + _L_EDGE, bsnr)
    _check_looseness(bsnr * (1.0 - _L_EDGE), bsnr)

    best_val = -math.inf
    best_k = 1
    best_l = 1.0
    # (-bound, K, bisection or None before K's first step): bsnr/(16K)
    # falls with K, so the list is already a heap
    heap = [(-bsnr / (16.0 * k), k, None) for k in range(1, k_max + 1)]
    while heap:
        neg_bound, k, search = heapq.heappop(heap)
        if -neg_bound < best_val or (-neg_bound == best_val and k > best_k):
            break
        if search is None:
            search = _inner_optimum(snr, bsnr, dsnr, rate_bits, k)
        # step K while it stays ahead of the next bound and the best value
        top = -heap[0][0] if heap else -math.inf
        try:
            bound = next(search)
            while bound >= top and bound > best_val:
                bound = next(search)
        except StopIteration as done:
            val, l_opt = done.value
            val /= 2.0 * k
            if val > best_val or (val == best_val and k < best_k):
                best_val, best_k, best_l = val, k, l_opt
            continue
        heapq.heappush(heap, (-bound, k, search))

    k_at_boundary = best_k == k_max
    if k_at_boundary:
        warnings.warn(
            f"e_fb argmax hit k_max={k_max}; a larger k_max may improve the result",
            RuntimeWarning,
            stacklevel=2,
        )

    dec = _decode_exponent(
        _effective_snr(snr, bsnr, dsnr, best_l, best_k), best_k * rate_bits
    )
    mod = _poltyrev(best_l)
    scale = max(dec, mod, 1e-300)
    if dec < math.inf and abs(dec - mod) <= _BALANCE_RTOL * scale:
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
        region_valid=region_assumptions_hold(params, rate_bits, best_k, best_l),
        k_at_boundary=k_at_boundary,
    )


# =============================================================================
# HIGH-SNR CLOSED FORMS
# =============================================================================

def eta(x: float) -> float:
    """The factor 1 - sqrt(1 - 2**-x), evaluated without cancellation.

    Decreasing from eta(0) = 1 toward 0; ``x`` is a rate-times-rounds
    product in bits.  Computed as u / (1 + sqrt(1 - u)) with u = 2**-x,
    which stays accurate as u -> 0.
    """
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise ValueError(f"argument must be finite and nonnegative, got {x!r}")
    u = 2.0 ** (-x)
    return u / (1.0 + math.sqrt(1.0 - u))


def balance_looseness(params: ChannelParams, rate_bits: float, rounds: int) -> float:
    """Looseness equalizing the two high-SNR exponent approximations.

    At high SNR the decode exponent is close to (1/4) * snr_eff * eta(RK)
    with snr_eff ~ (bsnr - L)**K / (dsnr * L**(K-1)), and the modulo
    exponent is close to L/8.  Setting them equal gives

        L* = bsnr / (1 + (dsnr / (2 * eta(R*K)))**(1/K)),

    which this returns.  L* < bsnr always; it also stays above 1 whenever
    the high-SNR regime of :func:`region_assumptions_hold` applies.
    """
    _require_noisy(params)
    rate_bits = _check_rate(rate_bits)
    rounds = _check_rounds(rounds)
    h = eta(rate_bits * rounds)
    return params.bsnr / (1.0 + (params.dsnr / (2.0 * h)) ** (1.0 / rounds))


def high_snr_bound(params: ChannelParams, rate_bits: float, rounds: int) -> float:
    """Closed-form lower estimate of e_fb at the balanced looseness.

    Both exponent approximations equal L*/8 at the balance point, so the
    normalized value is L* / (16 K).  Requires rounds > 1; with a single
    round there is no correction and the approximation has no content.
    Validity of the underlying approximations should be checked with
    :func:`region_assumptions_hold`.
    """
    rounds = _check_rounds(rounds)
    if rounds <= 1:
        raise ValueError(f"the closed-form bound needs rounds > 1, got {rounds}")
    l_star = balance_looseness(params, rate_bits, rounds)
    return l_star / (16.0 * rounds)


def kstar_zero_rate(dsnr: float) -> float:
    """Real-valued round count maximizing the zero-rate closed form.

    Equals 0.78 * ln(dsnr / 2); callers round to the better of floor and
    ceil.  Defined for dsnr >= 2 (returns 0 exactly at 2, where no
    correction round pays for itself).
    """
    dsnr = float(dsnr)
    if not math.isfinite(dsnr) or dsnr < 2.0:
        raise ValueError(f"dsnr must be >= 2 for the round-count rule, got {dsnr!r}")
    return 0.78 * math.log(dsnr / 2.0)


def region_assumptions_hold(
    params: ChannelParams, rate_bits: float, rounds: int, looseness: float
) -> bool:
    """Whether the closed-form approximations apply at (R, K, L).

    Requires the modulo exponent to sit on its linear branch (L > 4) and
    the total rate K*R to fall strictly below the critical rate of the
    boosted channel, so the decode exponent is in its expurgation form; a
    boosted SNR beyond the float range passes, since the critical rate grows
    without bound with the SNR.  A looseness outside the closed-form domain
    (not finite, at most 4, or not in [1, bsnr)) returns False.  Like
    :func:`e_fb`, it raises ValueError on an invalid link (noiseless, or
    dsnr <= 1), rate (negative or not finite) or round count (not an int, or
    below 1).
    """
    _require_noisy(params)
    rate_bits = _check_rate(rate_bits)
    rounds = _check_rounds(rounds)
    looseness = float(looseness)
    if not math.isfinite(looseness):
        return False
    if looseness <= 4.0:
        return False
    if not (1.0 <= looseness < params.bsnr):
        return False
    snr_eff = effective_snr(params, looseness, rounds)
    return snr_eff == math.inf or rounds * rate_bits < critical_rate(snr_eff)


@functools.lru_cache(maxsize=64)
def _region_anchor(params: ChannelParams) -> tuple[float, int, float]:
    """Highest rate where the closed-form regime holds, with its (K, L).

    Scans rates downward from capacity in steps of capacity/1000.  At each
    rate the candidate round counts are floor and ceil of
    :func:`kstar_zero_rate` (at least 2); the candidate with the larger
    closed-form bound wins.  Raises when no rate qualifies.
    """
    if params.dsnr < 2.0:
        raise ValueError(
            "closed-form regime needs dsnr >= 2; no valid round count exists"
        )
    k_real = kstar_zero_rate(params.dsnr)
    candidates = sorted({max(2, math.floor(k_real)), max(2, math.ceil(k_real))})
    cap = capacity(params.snr)
    for i in range(999, 0, -1):
        rate = cap * (i / 1000.0)
        feasible = []
        for k in candidates:
            l_star = balance_looseness(params, rate, k)
            if region_assumptions_hold(params, rate, k, l_star):
                feasible.append((high_snr_bound(params, rate, k), k, l_star))
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
    rate_bits = _check_rate(rate_bits)
    _, k, l_star = _region_anchor(params)
    snr_eff = effective_snr(params, l_star, k)
    return _decode_exponent(snr_eff, k * rate_bits) / (2.0 * k)
