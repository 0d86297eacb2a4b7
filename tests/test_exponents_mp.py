"""The exponent kernels against their textbook forms in 700-digit arithmetic.

The float kernels of :mod:`awgn_feedback.exponents` are rearranged to avoid
cancellation and overflow, and ``e_fb`` evaluates them at effective SNRs far
past the range of the other exponent tests.  Here each closed form is
written in its textbook arrangement (Gallager, "Information Theory and
Reliable Communication", 1968, section 7.4; Shannon, BSTJ 38(3), 1959) and
evaluated in mpmath at the float inputs, which mpmath holds exactly.  With
A = snr, rates R in bits and beta = 2^{2R}:

    C    = 1/2 log2(1 + A)
    R_cr = 1/2 log2(1/2 + A/4 + 1/2 sqrt(1 + A^2/4))
    R_ex = 1/2 log2(1/2 + 1/2 sqrt(1 + A^2/4))
    E_ex = (A/4) (1 - sqrt(1 - 2^{-2R}))
    E_r  = A(snr) - R ln 2,  A(snr) = (A + 2 - sqrt(4 + A^2))/4
                                      + 1/2 ln((2 + sqrt(4 + A^2))/4)
    E_sp = A/(4 beta) ((beta + 1) - (beta - 1) q)
           + 1/2 ln(beta - A (beta - 1) (q - 1)/2),
           q = sqrt(1 + 4 beta/(A (beta - 1)))

Near R_cr at high SNR the E_sp form cancels to relative order (4/A)^2, and
A(snr) cancels to order 1/A^2, so at A up to 1e300 the reference needs more
than 600 digits; 400 read relative errors near 1 there.

The boosted SNR that ``e_fb`` feeds these kernels, snr g^{K-1} with
g = 1 + snr (1 - L/bsnr) / (1 + L/dsnr), is checked the same way, up to and
past the float range, and so is the looseness that ends ``e_fb``'s scan of
round counts, where that SNR stops carrying K R bits.
"""

import math
import random
import sys

import mpmath
from mpmath import mpf

from awgn_feedback import gallager_exp
from awgn_feedback.exponents import (
    ZERO_RATE_BITS,
    _capacity,
    _critical_rate,
    _expurgation,
    _expurgation_rate,
    _expurgation_terms,
    _random_coding,
    _sphere_packing,
    _straight_line_intercept,
)
from awgn_feedback.feedback import _CAP_MARGIN, _capacity_looseness, _effective_snr

DPS = 700
# exponent values are sums of terms of order one, so where E_sp nears 0 at
# capacity the float kernels are exact to an absolute floor, not to REL
REL, ABS = 1e-12, 1e-15


def _points(seed, n):
    """n seeded (snr, rate) pairs, snr log-uniform on [1, 1e300]; R/C is
    uniform on [1e-6, 0.999] for half of them, and for the other half its
    distance to 1 is log-uniform on [1e-3, 1 - 1e-6], so the random-coding
    and sphere-packing regions, within a bit of capacity at high snr, get
    points too."""
    rng = random.Random(seed)
    points = []
    for i in range(n):
        snr = 10.0 ** rng.uniform(0.0, 300.0)
        if i % 2:
            ratio = 1.0 - 10.0 ** rng.uniform(-3.0, math.log10(1.0 - 1e-6))
        else:
            ratio = rng.uniform(1e-6, 0.999)
        points.append((snr, _capacity(snr) * ratio))
    return points


POINTS = _points(0, 500)


def _mp_rates(s):
    root = mpmath.sqrt(1 + s * s / 4)
    return (
        mpmath.log(1 + s, 2) / 2,
        mpmath.log(mpf(1) / 2 + s / 4 + root / 2, 2) / 2,
        mpmath.log(mpf(1) / 2 + root / 2, 2) / 2,
    )


def _mp_intercept(s):
    root = mpmath.sqrt(4 + s * s)
    return (s + 2 - root) / 4 + mpmath.log((2 + root) / 4) / 2


def _mp_expurgation(s, r):
    return s / 4 * (1 - mpmath.sqrt(1 - mpmath.power(2, -2 * r)))


def _mp_random_coding(s, r):
    return _mp_intercept(s) - r * mpmath.log(2)


def _mp_sphere_packing(s, r):
    beta = mpmath.power(2, 2 * r)
    q = mpmath.sqrt(1 + 4 * beta / (s * (beta - 1)))
    return (s / (4 * beta) * ((beta + 1) - (beta - 1) * q)
            + mpmath.log(beta - s * (beta - 1) * (q - 1) / 2) / 2)


def _close(value, reference):
    return abs(mpf(value) - reference) <= REL * abs(reference) + ABS


def test_rates_and_intercept_match_textbook_forms():
    with mpmath.workdps(DPS):
        for snr, _ in POINTS:
            s = mpf(snr)
            cap, r_cr, r_ex = _mp_rates(s)
            assert _close(_capacity(snr), cap), snr
            assert _close(_critical_rate(snr), r_cr), snr
            assert _close(_expurgation_rate(snr), r_ex), snr
            assert _close(_straight_line_intercept(snr), _mp_intercept(s)), snr


def test_region_kernels_and_gallager_exp_match_textbook_forms():
    """Each point is compared in the region the float dispatch gives it;
    at a boundary the two formulas meet, so the choice does not matter."""
    seen = set()
    with mpmath.workdps(DPS):
        for snr, rate in POINTS:
            s, r = mpf(snr), mpf(rate)
            if rate <= _expurgation_rate(snr):
                value = _expurgation(snr, *_expurgation_terms(rate))
                reference = _mp_expurgation(s, r)
            elif rate <= _critical_rate(snr):
                value = _random_coding(snr, rate)
                reference = _mp_random_coding(s, r)
            else:
                value = _sphere_packing(snr, rate)
                reference = _mp_sphere_packing(s, r)
            gallager, region = gallager_exp(snr, rate)
            seen.add(region)
            assert _close(value, reference), (snr, rate, region)
            assert _close(gallager, reference), (snr, rate, region)
    assert len(seen) == 3


def test_sphere_packing_matches_textbook_form_at_every_rate():
    """The CLI grid evaluates E_sp at every rate, not only above R_cr.
    Below ZERO_RATE_BITS the kernel returns the limit snr/2 by design."""
    with mpmath.workdps(DPS):
        for snr, rate in POINTS:
            if rate >= ZERO_RATE_BITS:
                reference = _mp_sphere_packing(mpf(snr), mpf(rate))
                assert _close(_sphere_packing(snr, rate), reference), (snr, rate)



def _snr_points(seed, n):
    """n seeded (snr, bsnr, dsnr, L, K): snr log-uniform on [1e-1, 1e300],
    dsnr on [1.1, 1e6], L on [1, bsnr) and K uniform on [1, 128].  Every
    third point puts L where snr g^{K-1} lands within a relative 1e-11 to
    1e-2 of the largest float, above or below it, so that the overflow edge
    gets points too."""
    rng = random.Random(seed)
    points = []
    while len(points) < n:
        snr = 10.0 ** rng.uniform(-1.0, 300.0)
        dsnr = 10.0 ** rng.uniform(math.log10(1.1), 6.0)
        bsnr = snr * dsnr
        k = rng.randint(1, 128)
        if len(points) % 3 or k == 1:
            looseness = 10.0 ** rng.uniform(0.0, math.log10(bsnr))
        else:
            eps = rng.choice((-1, 1)) * 10.0 ** rng.uniform(-11.0, -2.0)
            with mpmath.workdps(40):
                g = (mpf(sys.float_info.max) * (1 + eps) / snr) ** (mpf(1) / (k - 1))
                looseness = float(dsnr * ((1 + mpf(snr)) / g - 1))
        if 1.0 <= looseness < bsnr:
            points.append((snr, bsnr, dsnr, looseness, k))
    return points


def test_effective_snr_matches_the_recursion_up_to_and_past_overflow():
    """_effective_snr against snr g^{K-1} in 40-digit arithmetic: within a
    relative 1e-13 K while the exact value stays below the largest float by
    more than 1e-12 relative, and inf once it exceeds it by more than that.
    e_fb's decode exponent reads inf as the largest float."""
    top = mpf(sys.float_info.max)
    finite = overflowed = 0
    with mpmath.workdps(40):
        for snr, bsnr, dsnr, looseness, k in _snr_points(9, 3000):
            s, L = mpf(snr), mpf(looseness)
            exact = s * (1 + s * (1 - L / bsnr) / (1 + L / dsnr)) ** (k - 1)
            value = _effective_snr(snr, bsnr, dsnr, looseness, k)
            point = (snr, bsnr, dsnr, looseness, k)
            if exact < top * (1 - mpf(1e-12)):
                finite += 1
                assert value < math.inf, point
                assert abs(mpf(value) - exact) <= 1e-13 * k * exact, point
            elif exact > top * (1 + mpf(1e-12)):
                overflowed += 1
                assert value == math.inf, point
    assert finite >= 500 and overflowed >= 500


def _capacity_points(seed, n):
    """n seeded (snr, bsnr, dsnr, R, K0): forward SNR -5..60 dB, dsnr on
    [1.1, 1e6], R from 0.3 C to within 1e-9 of C (its distance to C
    log-uniform) and K0 in 2..64; every third point at 50-60 dB with
    K0 >= 52, where K0 R can pass 512 bits."""
    rng = random.Random(seed)
    points = []
    for i in range(n):
        snr_db = rng.uniform(50.0, 60.0) if i % 3 == 0 else rng.uniform(-5.0, 60.0)
        snr = 10.0 ** (snr_db / 10.0)
        dsnr = 10.0 ** rng.uniform(math.log10(1.1), 6.0)
        rate = (1.0 - 10.0 ** rng.uniform(-9.0, math.log10(0.7))) * _capacity(snr)
        k0 = rng.randint(52, 64) if i % 3 == 0 else rng.randint(2, 64)
        points.append((snr, snr * dsnr, dsnr, rate, k0))
    return points


def test_capacity_looseness_matches_the_exact_root():
    """_capacity_looseness against its root in 40-digit arithmetic.  With
    c = 2^{2R} and _effective_snr's growth factor g(L), the root is the L
    where g falls to min(gamma, c), gamma = ((c^K0 - 1)/snr)^{1/(K0-1)},
    capped at bsnr; from K0 R > 512 bits on no float SNR decodes and gamma
    is inf.  The float value is the root for that factor lowered by
    _CAP_MARGIN, within 1e-12 of L + dsnr, so it lies above the root
    itself, or at bsnr."""
    shifted_up = 0
    with mpmath.workdps(40):
        for snr, bsnr, dsnr, rate, k0 in _capacity_points(27, 2000):
            s, b, d = mpf(snr), mpf(bsnr), mpf(dsnr)
            c = mpmath.power(2, 2 * mpf(rate))
            if k0 * rate > 512.0:
                gamma = mpmath.inf
            else:
                gamma = ((c ** k0 - 1) / s) ** (mpf(1) / (k0 - 1))

            def root(g):
                # g = 1 + s (1 - L/b) / (1 + L/d) solved for L
                return min((s + 1 - g) / (s / b + (g - 1) / d), b)

            g = min(gamma, c)
            exact, shifted = root(g), root(g * (1 - mpf(_CAP_MARGIN)))
            value = _capacity_looseness(snr, bsnr, dsnr, rate, k0)
            point = (snr, bsnr, dsnr, rate, k0)
            assert abs(mpf(value) - shifted) <= 1e-12 * (shifted + d), point
            assert value > exact or value == bsnr, point
            shifted_up += value < bsnr
    assert shifted_up >= 1000
