"""The simulator's gamma/beta/variance schedule against 50-digit arithmetic.

``SchemeConfig._build_schedule`` runs the recursion of its docstring in
floats, round by round, up to the round whose gain no longer fits a float.
Here the same recursion runs in mpmath from the stored float parameters,
which mpmath holds exactly, on seeded configs that reach that last round.
"""

import math
import random
import re

import mpmath
from mpmath import mpf

from awgn_feedback import ChannelParams, SchemeConfig, cubic_lattice

# longest schedule drawn: a config whose gain still fits past it is redrawn
MAX_ROUNDS = 400
ULP = mpf(2) ** -52
TINY = mpf(5e-324)  # the spacing of subnormal floats
UNITS = 4  # allowed error, in units per round


def _build(params, rounds, looseness):
    return SchemeConfig(params, rounds, looseness, cubic_lattice(1), 0.0, 1)


def _last_round(params, looseness):
    """The most rounds that construct, or None past MAX_ROUNDS."""
    try:
        _build(params, MAX_ROUNDS, looseness)
    except ValueError as exc:
        return int(re.match(r"round (\d+) has no finite gain", str(exc))[1]) - 1
    return None


def _configs(seed, n):
    """n seeded (params, L, K): snr log-uniform on [1e-1, 1e10]; dsnr on
    [1.1, 1e6] with L on [1, bsnr), or every fourth config dsnr = inf with
    L = 0 (exact feedback) or L on [1, 1e6] (noisy L on a noiseless link).
    Every other config takes the most rounds that construct, the rest a K
    uniform up to it."""
    rng = random.Random(seed)
    configs = []
    while len(configs) < n:
        snr = 10.0 ** rng.uniform(-1.0, 10.0)
        if len(configs) % 4 == 3:
            dsnr = math.inf
            looseness = 0.0 if rng.random() < 0.5 else 10.0 ** rng.uniform(0.0, 6.0)
        else:
            dsnr = 10.0 ** rng.uniform(math.log10(1.1), 6.0)
            looseness = 10.0 ** rng.uniform(0.0, math.log10(snr * dsnr))
        params = ChannelParams.from_snrs(snr, dsnr)
        if looseness and not 1.0 <= looseness < params.bsnr:
            continue
        top = _last_round(params, looseness)
        if top is None:
            continue
        configs.append((params, looseness, top if len(configs) % 2 else rng.randint(1, top)))
    return configs


def test_schedule_matches_the_recursion_up_to_its_last_round():
    """Each gain, beta and variance lies within UNITS K ulp of the 50-digit
    recursion, counting in units of 5e-324 where the variance is subnormal
    (a gain or beta inherits the variance's precision), and each variance
    follows sigma_1^2 ((1 + L/dsnr) / (1 + snr))^{k-1}.  Where (alpha g)^2
    overflows, the last round still stores a positive beta and variance."""
    overflowed = 0
    with mpmath.workdps(50):
        for params, looseness, rounds in _configs(14, 60):
            cfg = _build(params, rounds, looseness)
            sigma2, L = mpf(params.sigma2), mpf(looseness)
            if cfg.exact_feedback:
                num, a2s, alpha = mpf(params.p), mpf(0), mpf(1)
            else:
                num = mpf(params.p_tilde) / L - mpf(params.sigma2_tilde)
                a2s = L * mpf(params.p) / mpf(params.p_tilde) * mpf(params.sigma2_tilde)
                alpha = mpmath.sqrt(L * mpf(params.p) / mpf(params.p_tilde))
            ratio = (1 + L / mpf(params.dsnr)) / (1 + mpf(params.snr))
            point = (params, looseness, rounds)
            s = sigma2
            for k in range(rounds):
                # relative precision of sigma_k^2, and the error allowed
                tol = UNITS * rounds * max(ULP, TINY / s)
                assert abs(mpf(cfg.sigmas2[k]) - s) <= tol * s, (point, k)
                closed = sigma2 * ratio ** k
                assert abs(mpf(cfg.sigmas2[k]) - closed) <= tol * closed, (point, k)
                if k == rounds - 1:
                    break
                g = mpmath.sqrt(num / s)
                denom = alpha * alpha * g * g * s + a2s + sigma2
                beta = alpha * g * s / denom
                assert abs(mpf(cfg.gains[k]) - g) <= tol * g, (point, k)
                assert abs(mpf(cfg.betas[k]) - beta) <= tol * beta, (point, k)
                s = s * (sigma2 + a2s) / denom
            if rounds > 1:
                ag = cfg.alpha * cfg.gains[-1]
                overflowed += ag * ag == math.inf
    assert overflowed >= 10
