"""Monte-Carlo simulator of the K-round interactive feedback protocol.

One trial runs two independent copies of the scheme (the "interlaced" pair:
in a real deployment their blocks alternate on the channel so each terminal
always has a finished block to react to; statistically the interlacing is
pure scheduling, so the simulator runs both copies side by side on one trial
seed).  Per copy:

  round 1      Terminal A sends the codeword Theta; B sets the estimate
               theta_hat = Y_1, so the estimation error starts at the
               channel noise (sigma_1^2 = sigma^2).
  rounds 2..K  B feeds back its estimate through a dithered modulo-lattice
               map scaled by gamma_k; A reconstructs gamma_k*eps_k + fb
               noise (exact unless the pre-modulo value leaves the Voronoi
               cell: the aliasing event), rescales it to full forward
               power, and sends it; B applies the MMSE correction.
  decode       B picks the nearest codeword to theta_hat_K.

The coupled twin runs the same rounds with the modulo maps removed (its
feedback power is deliberately unbounded).  Both systems consume the same
draws, and the receiver residue is computed in its dither-cancelled form
gamma*(theta_hat - theta) + noise, which equals the modulo-chain value
exactly and keeps the two sample paths bit-identical until the first
aliasing event.  The union-of-aliasing indicator therefore agrees between
the systems on every trial, not merely with high probability.

One engine, :func:`_run_block`, simulates a block of consecutive trials:
both systems of both copies advance together through the rounds as arrays
of shape (system, trial, copy, dimension), and each modulo map folds its
whole array in one :func:`~.lattices.modulo` call.  Campaigns reduce block
after block in trial order; :func:`run_trial` and :func:`run_coupled_trial`
are blocks of one trial.  A trial's draws do not depend on its block.

Randomness: trial t uses Generator(Philox(key=[master_seed, t])), so trials
are reproducible individually and in any execution order; the random
codebook draws from the reserved stream key [master_seed, 2**63], and
trial indices must stay below 2**63.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .feedback import ChannelParams
from .lattices import Lattice, modulo, scale_to_power

__all__ = [
    "SchemeConfig",
    "SimulationSummary",
    "TrialRecord",
    "alpha_coefficient",
    "estimate_error_prob",
    "gamma_coefficient",
    "run_coupled_trial",
    "run_trial",
    "wiener_update",
    "wilson_interval",
]

# 95% normal quantile, pinned so intervals are bit-stable across platforms
Z95 = 1.959963984540054

_CODEBOOK_STREAM = 1 << 63
_MAX_TRIAL_INDEX = 1 << 63
_MAX_PAM_ORDER = 1 << 20
_MAX_CODEBOOK_BITS = 16

# real and coupled estimation errors must agree at least this tightly up to
# the first aliasing event (they agree exactly in the current pipeline)
_AGREEMENT_ATOL = 1e-9

# the engine's system axis
_REAL, _COUPLED = 0, 1

# values per (trials, 2, rounds, n) block array, and bytes per decode
# distance chunk: small enough that a block's temporaries stay in cache
_BLOCK_VALUES = 4096
_DECODE_CHUNK_BYTES = 32 * 1024


# =============================================================================
# COEFFICIENTS AND THE VARIANCE RECURSION
# =============================================================================

def alpha_coefficient(params: ChannelParams, looseness: float) -> float:
    """Forward rescale sqrt(L*P/P~) putting the reconstruction at power P."""
    if looseness <= 0.0:
        raise ValueError(f"looseness must be positive, got {looseness!r}")
    return math.sqrt(looseness * params.p / params.p_tilde)


def gamma_coefficient(
    params: ChannelParams, looseness: float, sigma_k2: float
) -> float:
    """Feedback scale making P~ / (gamma^2 sigma_k^2 + fb noise var) = L."""
    if sigma_k2 <= 0.0 or not math.isfinite(sigma_k2):
        raise ValueError(f"estimation variance must be positive, got {sigma_k2!r}")
    if looseness <= 0.0:
        raise ValueError(f"looseness must be positive, got {looseness!r}")
    num = params.p_tilde / looseness - params.sigma2_tilde
    if num <= 0.0:
        raise ValueError(
            f"looseness {looseness} leaves no signal power on the feedback link "
            f"(needs L < bsnr = {params.bsnr})"
        )
    return math.sqrt(num / sigma_k2)


def wiener_update(
    sigma_k2: float, params: ChannelParams, looseness: float
) -> tuple[float, float]:
    """One MMSE correction round: returns (beta_next, sigma_next^2).

    beta_next scales the received correction, sigma_next^2 is the new
    estimation-error variance sigma_k^2 * (1 + L/dsnr) / (1 + snr).  With a
    noiseless feedback link and looseness 0 this degenerates to the classic
    exact-feedback recursion sigma_k^2 / (1 + snr).
    """
    sigma_k2 = float(sigma_k2)
    if not math.isfinite(sigma_k2) or sigma_k2 <= 0.0:
        raise ValueError(f"estimation variance must be positive, got {sigma_k2!r}")
    looseness = float(looseness)
    if looseness == 0.0:
        if params.sigma2_tilde != 0.0:
            raise ValueError("looseness 0 is defined only for noiseless feedback")
        ag = math.sqrt(params.p / sigma_k2)
        a2s = 0.0
    else:
        ag = alpha_coefficient(params, looseness) * gamma_coefficient(
            params, looseness, sigma_k2
        )
        a2s = (looseness * params.p / params.p_tilde) * params.sigma2_tilde
    denom = ag * ag * sigma_k2 + a2s + params.sigma2
    beta = ag * sigma_k2 / denom
    sigma_next = sigma_k2 * (params.sigma2 + a2s) / denom
    return beta, sigma_next


# =============================================================================
# CONFIGURATION
# =============================================================================

@dataclass(frozen=True, eq=False)
class SchemeConfig:
    """A fully resolved simulation setup.

    The lattice passed in is rescaled so its dither power equals the
    feedback power budget.  The gamma/beta/variance schedule is fixed by the
    parameters alone (it never adapts to data), so it is computed once here;
    construction fails, rather than any trial, if a round's gamma would not
    be real.  ``codebook`` may be 'pam' (scalar lattices only), 'gaussian'
    (dimension >= 2), or 'auto' to pick by dimension.
    """

    params: ChannelParams
    rounds: int
    looseness: float
    lattice: Lattice
    rate_bits: float
    master_seed: int
    codebook: str = "auto"

    # derived at construction
    exact_feedback: bool = field(init=False, repr=False)
    m_codewords: int = field(init=False, repr=False)
    realized_rate_bits: float = field(init=False, repr=False)
    alpha: float = field(init=False, repr=False)
    gains: tuple = field(init=False, repr=False)
    betas: tuple = field(init=False, repr=False)
    sigmas2: tuple = field(init=False, repr=False)
    codewords: np.ndarray = field(init=False, repr=False)
    pam_step: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        p = self.params
        if not isinstance(self.rounds, int) or self.rounds < 1:
            raise ValueError(f"rounds must be a positive integer, got {self.rounds!r}")
        rate = float(self.rate_bits)
        if not math.isfinite(rate) or rate < 0.0:
            raise ValueError(f"rate must be finite and nonnegative, got {rate!r}")
        if not isinstance(self.master_seed, int) or not (
            0 <= self.master_seed < (1 << 64)
        ):
            raise ValueError("master_seed must be an integer in [0, 2**64)")

        loose = float(self.looseness)
        exact = loose == 0.0
        if exact:
            if p.sigma2_tilde != 0.0:
                raise ValueError(
                    "looseness 0 selects exact feedback and needs a noiseless "
                    "feedback link"
                )
        else:
            if not math.isfinite(loose) or loose < 1.0:
                raise ValueError(
                    f"looseness must be >= 1 (or exactly 0 for exact feedback), "
                    f"got {loose!r}"
                )
            if p.sigma2_tilde > 0.0 and loose >= p.bsnr:
                raise ValueError(
                    f"looseness {loose} must stay below bsnr {p.bsnr} for the "
                    f"feedback scale to be real"
                )
        object.__setattr__(self, "looseness", loose)
        object.__setattr__(self, "exact_feedback", exact)
        object.__setattr__(self, "lattice", scale_to_power(self.lattice, p.p_tilde))
        object.__setattr__(self, "alpha", 0.0 if exact else alpha_coefficient(p, loose))

        self._build_codebook()
        self._build_schedule()

    # -- codebook -------------------------------------------------------

    def _build_codebook(self) -> None:
        p = self.params
        n = self.lattice.dimension
        mode = self.codebook.strip().lower()
        if mode == "auto":
            mode = "pam" if n == 1 else "gaussian"
        if mode == "pam":
            if n != 1:
                raise ValueError("PAM signaling needs a one-dimensional lattice")
            m = max(1, math.ceil(2.0 ** (self.rounds * self.rate_bits)))
            if m > _MAX_PAM_ORDER:
                raise ValueError(f"PAM order {m} is beyond the simulator's range")
            # extreme levels at +-sqrt(P): every codeword meets the power
            # constraint individually
            step = 2.0 * math.sqrt(p.p) / (m - 1) if m > 1 else 0.0
            levels = step * (np.arange(m) - 0.5 * (m - 1))
            codewords = levels[:, None]
        elif mode == "gaussian":
            if n < 2:
                raise ValueError("the random codebook needs dimension >= 2")
            bits = math.ceil(n * self.rounds * self.rate_bits)
            if bits > _MAX_CODEBOOK_BITS:
                raise ValueError(
                    f"codebook of 2**{bits} codewords is beyond brute-force ML"
                )
            m = 1 << bits
            rng = np.random.Generator(
                np.random.Philox(
                    key=np.array([self.master_seed, _CODEBOOK_STREAM], dtype=np.uint64)
                )
            )
            codewords = math.sqrt(p.p) * rng.standard_normal((m, n))
            power = (codewords * codewords).sum(axis=1) / n
            hot = power > p.p
            if np.any(hot):
                codewords[hot] *= np.sqrt(p.p / power[hot])[:, None]
            step = 0.0
        else:
            raise ValueError(
                f"unknown codebook {self.codebook!r}; expected pam, gaussian, or auto"
            )
        codewords = np.ascontiguousarray(codewords, dtype=float)
        codewords.setflags(write=False)
        object.__setattr__(self, "codebook", mode)
        object.__setattr__(self, "m_codewords", m)
        object.__setattr__(self, "realized_rate_bits", math.log2(m) / (n * self.rounds))
        object.__setattr__(self, "codewords", codewords)
        object.__setattr__(self, "pam_step", step)

    # -- gamma/beta/variance schedule ------------------------------------

    def _build_schedule(self) -> None:
        p = self.params
        steps = self.rounds - 1
        if p.sigma2 == 0.0:
            # noiseless forward: the first estimate is already exact and no
            # correction round carries information
            object.__setattr__(self, "gains", (0.0,) * steps)
            object.__setattr__(self, "betas", (0.0,) * steps)
            object.__setattr__(self, "sigmas2", (0.0,) * self.rounds)
            return
        gains = []
        betas = []
        sigmas = [p.sigma2]
        s = p.sigma2
        for _ in range(steps):
            if self.exact_feedback:
                gains.append(math.sqrt(p.p / s))
            else:
                gains.append(gamma_coefficient(p, self.looseness, s))
            b, s = wiener_update(s, p, self.looseness)
            betas.append(b)
            sigmas.append(s)
        object.__setattr__(self, "gains", tuple(gains))
        object.__setattr__(self, "betas", tuple(betas))
        object.__setattr__(self, "sigmas2", tuple(sigmas))

    @property
    def dimension(self) -> int:
        return self.lattice.dimension

    @property
    def blocklength(self) -> int:
        """Total channel uses per trial and scheme copy, forward + feedback."""
        return 2 * self.rounds * self.dimension


# =============================================================================
# TRIALS
# =============================================================================

@dataclass(frozen=True)
class TrialRecord:
    """Events and bookkeeping of one trial of one system (real or coupled).

    ``aliasing_flags[i][k]`` marks scheme copy i wrapping at correction
    round k; ``coupled_agreement`` states that the real and coupled
    estimation errors agreed up to the first aliasing event of each copy.
    Powers are per dimension, averaged over the trial's transmissions.
    """

    trial_index: int
    system: str
    aliasing_flags: tuple[tuple[bool, ...], ...]
    first_aliasing_round: tuple[int | None, ...]
    decode_success: tuple[bool, ...]
    ff_power: float
    fb_power: float
    coupled_agreement: bool


def _sq(x: np.ndarray) -> np.ndarray:
    """Squared norms along the last axis."""
    return (x * x).sum(axis=-1)


def _decode_index(cfg: SchemeConfig, theta_hat: np.ndarray) -> np.ndarray:
    """Nearest-codeword index of each estimate along the last axis."""
    lead = theta_hat.shape[:-1]
    if cfg.codebook == "pam":
        m = cfg.m_codewords
        if m == 1:
            return np.zeros(lead, dtype=np.intp)
        t = theta_hat[..., 0] / cfg.pam_step + 0.5 * (m - 1)
        return np.clip(np.rint(t), 0, m - 1).astype(np.intp)
    rows = theta_hat.reshape(-1, cfg.dimension)
    out = np.empty(len(rows), dtype=np.intp)
    chunk = max(1, _DECODE_CHUNK_BYTES // cfg.codewords.nbytes)
    for i in range(0, len(rows), chunk):
        diff = cfg.codewords - rows[i:i + chunk, None, :]
        out[i:i + chunk] = np.argmin(_sq(diff), axis=1)
    return out.reshape(lead)


class _Block(NamedTuple):
    """Outcomes of trials [start, stop); leading axis 0 real, 1 coupled."""

    msgs: np.ndarray      # (trials, 2) message per copy
    alias: np.ndarray     # (2, trials, 2, rounds - 1) wrap flags
    decoded: np.ndarray   # (2, trials, 2) decoded message
    eps: np.ndarray       # (2, trials, 2, n) final estimation error
    ff_sq: np.ndarray     # (2, trials, 2) forward energy per copy
    fb_sq: np.ndarray     # (2, trials, 2) feedback energy per copy
    agree: np.ndarray     # (trials, 2) paths agree up to the first alias


def _run_block(cfg: SchemeConfig, start: int, stop: int) -> _Block:
    """Run real and coupled systems of both copies of trials [start, stop)."""
    p = cfg.params
    lat = cfg.lattice
    n = lat.dimension
    steps = cfg.rounds - 1
    trials = stop - start

    # frozen per-trial draw order: messages, forward noise, feedback noise,
    # dither uniforms (zero-size draws consume no generator state, so they
    # are skipped)
    msgs = np.empty((trials, 2), dtype=np.int64)
    z_fwd = np.empty((trials, 2, cfg.rounds, n))
    z_fb = np.empty((trials, 2, steps, n))
    dith = np.empty((trials, 2, steps, n))
    # one Philox rewound per trial: a zero counter and empty buffers under
    # key [master_seed, t] make it a fresh generator bit for bit
    bits = np.random.Philox(key=[0, 0])
    rng = np.random.Generator(bits)
    fresh = bits.state
    key = fresh["state"]["key"]
    key[0] = cfg.master_seed
    m = cfg.m_codewords
    for j in range(trials):
        key[1] = start + j
        bits.state = fresh
        # two scalar draws: the values and state of size=2, without numpy's
        # per-call size handling
        msgs[j, 0] = rng.integers(0, m)
        msgs[j, 1] = rng.integers(0, m)
        rng.standard_normal(out=z_fwd[j])
        if steps:
            rng.standard_normal(out=z_fb[j])
            rng.random(out=dith[j])
    z_fwd *= math.sqrt(p.sigma2)
    z_fb *= math.sqrt(p.sigma2_tilde)
    dith = modulo(lat, dith @ lat.generator)

    theta = cfg.codewords[msgs]
    th_hat = np.broadcast_to(theta + z_fwd[:, :, 0], (2, trials, 2, n))
    eps = th_hat - theta
    ff_sq = np.stack([_sq(theta)] * 2)
    fb_sq = np.zeros((2, trials, 2))
    alias = np.zeros((2, trials, 2, steps), dtype=bool)
    live = np.ones((trials, 2), dtype=bool)  # real copy not yet aliased
    agree = np.ones((trials, 2), dtype=bool)
    for k in range(steps):
        g = cfg.gains[k]
        if cfg.exact_feedback:
            fb = th_hat
            x = g * eps
        else:
            fb = g * th_hat + dith[:, :, k]
            fb[_REAL] = modulo(lat, fb[_REAL])
            # dither-cancelled receiver residue: equals the modulo chain
            w = g * eps + z_fb[:, :, k]
            residue = modulo(lat, w)
            alias[..., k] = np.any(residue != w, axis=-1)
            live &= ~alias[_REAL, ..., k]
            x = cfg.alpha * np.stack((residue[_REAL], w[_COUPLED]))
        fb_sq += _sq(fb)
        ff_sq += _sq(x)
        th_hat = th_hat - cfg.betas[k] * (x + z_fwd[:, :, k + 1])
        eps = th_hat - theta
        gap = np.abs(eps[_REAL] - eps[_COUPLED]).max(axis=-1)
        agree &= ~(live & (gap > _AGREEMENT_ATOL))
    return _Block(msgs, alias, _decode_index(cfg, th_hat), eps, ff_sq, fb_sq,
                  agree)


def _record(cfg: SchemeConfig, trial_index: int, system: str) -> TrialRecord:
    if not isinstance(trial_index, int) or not (0 <= trial_index < _MAX_TRIAL_INDEX):
        raise ValueError(f"trial_index must be an integer in [0, 2**63), "
                         f"got {trial_index!r}")
    b = _run_block(cfg, trial_index, trial_index + 1)
    s = _REAL if system == "real" else _COUPLED
    flags = b.alias[s, 0].tolist()
    sends_fb = 2 * (cfg.rounds - 1) * cfg.dimension
    return TrialRecord(
        trial_index=trial_index,
        system=system,
        aliasing_flags=tuple(map(tuple, flags)),
        first_aliasing_round=tuple(
            f.index(True) + 1 if True in f else None for f in flags
        ),
        decode_success=tuple((b.decoded[s, 0] == b.msgs[0]).tolist()),
        ff_power=float(b.ff_sq[s, 0].sum()) / (2 * cfg.rounds * cfg.dimension),
        fb_power=float(b.fb_sq[s, 0].sum()) / sends_fb if sends_fb else 0.0,
        coupled_agreement=bool(b.agree[0].all()),
    )


def run_trial(config: SchemeConfig, trial_index: int) -> TrialRecord:
    """Simulate one trial of the real (power-respecting) system."""
    return _record(config, trial_index, "real")


def run_coupled_trial(config: SchemeConfig, trial_index: int) -> TrialRecord:
    """Simulate one trial of the modulo-free coupled system on the same draws."""
    return _record(config, trial_index, "coupled")


# =============================================================================
# AGGREGATION
# =============================================================================

def wilson_interval(successes: int, total: int) -> tuple[float, float]:
    """Wilson-score 95% interval for a binomial proportion."""
    if total <= 0:
        raise ValueError("total must be positive")
    z2 = Z95 * Z95
    phat = successes / total
    denom = 1.0 + z2 / total
    center = (phat + z2 / (2.0 * total)) / denom
    half = (
        Z95
        * math.sqrt(phat * (1.0 - phat) / total + z2 / (4.0 * total * total))
        / denom
    )
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == total else min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class SimulationSummary:
    """Aggregate frequencies of a campaign, with Wilson 95% intervals.

    Aliasing rates come from the coupled system (whose rounds are all
    jointly Gaussian and hence comparable to the analysis); by the exact
    sample-path coupling the union of aliasing events is identical in the
    real system.  ``p_dec`` is the coupled system's decode error rate,
    ``p_e`` the real system's.  ``sigma_k2_hat`` estimates the final
    estimation-error variance from real-system trials without aliasing,
    pooling dimensions (``no_alias_dims`` of them).

    ``union_agreement`` and ``coupled_agreement`` count copies, out of
    ``2 * trials``: the first counts matching union-of-aliasing indicators
    between the real and coupled runs, the second counts estimate paths
    that coincide numerically up to the first aliasing event.
    """

    trials: int
    rounds: int
    p_mod: tuple[tuple[float, ...], ...]
    p_mod_ci: tuple[tuple[tuple[float, float], ...], ...]
    p_mod_total: float
    p_dec: float
    p_dec_ci: tuple[float, float]
    p_e: float
    p_e_ci: tuple[float, float]
    ff_power: float
    fb_power: float
    union_agreement: int
    coupled_agreement: int
    sigma_k2_hat: float
    no_alias_dims: int
    union_bound_ok: bool
    realized_rate_bits: float


def _ordered_sum(total: float, values: np.ndarray) -> float:
    """total + v0 + v1 + ..., added left to right as a scalar loop would."""
    return float(np.cumsum(np.concatenate(([total], values.ravel())))[-1])


def estimate_error_prob(config: SchemeConfig, trials: int) -> SimulationSummary:
    """Run ``trials`` independent trials and aggregate the error statistics.

    Trials run in blocks of the array engine; counters and float sums are
    reduced in trial order, so the aggregate does not depend on the block
    size, and because every trial derives its own stream from
    (master_seed, trial_index) it is a pure function of (config, trials).
    The union-bound flag checks the real decode error rate against the
    coupled rate plus all aliasing rates, with three Wilson half-widths of
    slack.
    """
    if not isinstance(trials, int) or trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials!r}")
    k_rounds = config.rounds
    steps = k_rounds - 1
    n = config.dimension

    alias_counts = np.zeros((2, steps), dtype=np.int64)
    dec_errs = np.zeros(2, dtype=np.int64)  # per system
    union_mismatch = agreement = no_alias = 0
    ff_sum = fb_sum = eps2_sum = 0.0

    per_block = max(1, _BLOCK_VALUES // (2 * k_rounds * n))
    for start in range(0, trials, per_block):
        b = _run_block(config, start, min(trials, start + per_block))
        alias_counts += b.alias[_COUPLED].sum(axis=0)
        dec_errs += (b.decoded != b.msgs).sum(axis=(1, 2))
        wrapped = b.alias.any(axis=-1)
        union_mismatch += np.count_nonzero(wrapped[_REAL] != wrapped[_COUPLED])
        clean = ~wrapped[_REAL]
        eps2_sum = _ordered_sum(eps2_sum, _sq(b.eps[_REAL][clean]))
        no_alias += np.count_nonzero(clean)
        ff_sum = _ordered_sum(ff_sum, b.ff_sq[_REAL])
        fb_sum = _ordered_sum(fb_sum, b.fb_sq[_REAL])
        agreement += np.count_nonzero(b.agree)

    alias_counts = alias_counts.tolist()
    dec_err_real, dec_err_coupled = dec_errs.tolist()
    copies = 2 * trials
    p_mod = tuple(
        tuple(alias_counts[i][k] / trials for k in range(steps)) for i in range(2)
    )
    p_mod_ci = tuple(
        tuple(wilson_interval(alias_counts[i][k], trials) for k in range(steps))
        for i in range(2)
    )
    p_dec = dec_err_coupled / copies
    p_e = dec_err_real / copies
    p_dec_ci = wilson_interval(dec_err_coupled, copies)
    p_e_ci = wilson_interval(dec_err_real, copies)

    slack = (p_e_ci[1] - p_e_ci[0]) / 2.0 + (p_dec_ci[1] - p_dec_ci[0]) / 2.0
    total_mod = 0.0
    for i in range(2):
        for k in range(steps):
            total_mod += p_mod[i][k]
            lo, hi = p_mod_ci[i][k]
            slack += (hi - lo) / 2.0
    union_ok = p_e <= p_dec + total_mod + 3.0 * slack

    return SimulationSummary(
        trials=trials,
        rounds=k_rounds,
        p_mod=p_mod,
        p_mod_ci=p_mod_ci,
        p_mod_total=total_mod,
        p_dec=p_dec,
        p_dec_ci=p_dec_ci,
        p_e=p_e,
        p_e_ci=p_e_ci,
        ff_power=ff_sum / (copies * k_rounds * n),
        fb_power=fb_sum / (copies * steps * n) if steps else 0.0,
        union_agreement=copies - union_mismatch,
        coupled_agreement=agreement,
        sigma_k2_hat=eps2_sum / (no_alias * n) if no_alias else math.nan,
        no_alias_dims=no_alias * n,
        union_bound_ok=union_ok,
        realized_rate_bits=config.realized_rate_bits,
    )
