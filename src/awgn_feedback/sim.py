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
  decode       B picks the nearest codeword to theta_hat_K (a Gaussian
               codebook is screened by one matrix product per chunk of
               estimates; near-ties settle by the direct distances).

The coupled twin runs the same rounds with the modulo maps removed (its
feedback power is deliberately unbounded).  Both systems consume the same
draws, and the receiver residue is computed in its dither-cancelled form
gamma*(theta_hat - theta) + noise, which equals the modulo-chain value
exactly and keeps the two sample paths bit-identical until the first
aliasing event.  The union-of-aliasing indicator therefore agrees between
the systems on every trial, not merely with high probability.

One engine runs a range of consecutive trials in two steps: :func:`_draw`
draws the variates of a keyed block, and :func:`_propagate` advances both
systems of both copies together through the rounds as arrays of shape
(system, trial, copy, dimension), each modulo map folding its whole array
in one :func:`~.lattices.modulo` call.  Campaigns reduce block after block
in trial order; :func:`run_trial` and :func:`run_coupled_trial` run ranges
of one trial.

Randomness: trials are keyed in blocks of B = max(1, 4096 // (2 K n)), a
pure function of the config.  Block b holds trials [b B, (b + 1) B) and
draws them all from Generator(Philox(key=[master_seed, b])), one variable
after another: messages (B, 2), forward noise (B, 2, K, n), feedback noise
and dither uniforms (B, 2, K - 1, n) each.  A range that ends inside a
block draws the whole block and keeps its rows, so trial t is row t mod B
of block t // B however a campaign is split or how long it runs, and a
campaign is a pure function of (config, trials).  The random codebook
draws from the reserved stream key [master_seed, 2**63]; trial indices
stay below 2**63, so no block key reaches it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .feedback import ChannelParams
from .lattices import Lattice, modulo, sample_dither, scale_to_power

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

# values per (trials, 2, rounds, n) block array, and bytes per (rows, m)
# decode score chunk (64 rows of a 256-word codebook): small enough that a
# block's temporaries stay in cache, and small enough that a multithreaded
# BLAS does not pay its start-up on every product.  _BLOCK_VALUES also fixes
# the keyed blocks of the draws: changing it changes every campaign.
_BLOCK_VALUES = 4096
_DECODE_CHUNK_BYTES = 128 * 1024

# relative width of the decode screen per (n + 2): 1e-12 at n = 8, about
# a hundred times the rounding error of either distance form (see
# _decode_index)
_DECODE_SCREEN_TOL = 1e-13


def _is_int(x) -> bool:
    """An int and not a bool, the rule of feedback's round-count check."""
    return isinstance(x, int) and not isinstance(x, bool)


def _real(name: str, x) -> float:
    """``x`` as a float, with a ValueError naming the field when it is not."""
    try:
        return float(x)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a real number, got {x!r}") from None


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
        for name, kind in (("params", ChannelParams), ("lattice", Lattice),
                           ("codebook", str)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got {value!r}")
        p = self.params
        if not _is_int(self.rounds) or self.rounds < 1:
            raise ValueError(f"rounds must be a positive integer, got {self.rounds!r}")
        rate = _real("rate", self.rate_bits)
        if not math.isfinite(rate) or rate < 0.0:
            raise ValueError(f"rate must be finite and nonnegative, got {rate!r}")
        if not _is_int(self.master_seed) or not 0 <= self.master_seed < (1 << 64):
            raise ValueError("master_seed must be an integer in [0, 2**64)")

        loose = _real("looseness", self.looseness)
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
    """Nearest-codeword index of each estimate along the last axis.

    PAM slices.  A Gaussian codebook returns, for each row x, exactly the
    direct form argmin_j |x - c_j|^2 (first index on ties), but finds it by
    screen, then settle:

    * screen: score_j = |c_j|^2 - 2 x.c_j, that is |x - c_j|^2 - |x|^2, for a
      chunk of rows in one matrix product; a row's candidates are the
      codewords within tol = 1e-13 (n + 2) (|x|^2 + max_j |c_j|^2) of its
      minimum score, plus the smallest normal float against underflow;
    * settle: a row with one candidate decodes to it; a row with several, or
      with |x|^2 + max|c|^2 not below a quarter of the largest float (NaN
      and inf included), decodes by the direct form.

    Why a codeword c_k left out is never the direct form's argmin: no value
    of either form can overflow below that size, and in any summation order
    each form computes its value for c_j with an absolute error of at most
    2 (n + 2) 2^-53 (|x|^2 + |c_j|^2).  So e, the two errors together, stays
    below 4.5e-16 (n + 2) (|x|^2 + max|c|^2), under tol / 200.  With w the
    screen's minimum, score_k > score_w + tol puts the exact distances of
    c_k and c_w more than tol - 2e apart, and their direct-form values more
    than tol - 4e > 2e apart: c_k trails c_w there too, by more than twice
    the combined error.  So the direct argmin is always a candidate, and a
    lone candidate is it.
    """
    lead = theta_hat.shape[:-1]
    if cfg.codebook == "pam":
        m = cfg.m_codewords
        if m == 1:
            return np.zeros(lead, dtype=np.intp)
        t = theta_hat[..., 0] / cfg.pam_step + 0.5 * (m - 1)
        return np.clip(np.rint(t), 0, m - 1).astype(np.intp)
    cw = cfg.codewords
    rows = theta_hat.reshape(-1, cfg.dimension)
    out = np.empty(len(rows), dtype=np.intp)
    c2 = _sq(cw)
    rel = _DECODE_SCREEN_TOL * (cfg.dimension + 2)
    floor = rel * c2.max() + np.finfo(float).tiny
    # rows at least this large (or not finite) could overflow |x - c|^2
    room = 0.25 * np.finfo(float).max - c2.max()
    neg2ct = -2.0 * cw.T  # exact: scaling by a power of two
    chunk = max(1, _DECODE_CHUNK_BYTES // (8 * len(cw)))
    # the screen of such rows may overflow or meet inf - inf; it is unused
    with np.errstate(invalid="ignore", over="ignore"):
        for i in range(0, len(rows), chunk):
            x = rows[i:i + chunk]
            score = x @ neg2ct
            score += c2
            idx = np.argmin(score, axis=1)
            at = np.arange(len(idx))
            best = score[at, idx]
            # one candidate: the runner-up trails the minimum by more than tol
            score[at, idx] = np.inf
            x2 = _sq(x)
            lone = score.min(axis=1) > best + (rel * x2 + floor)
            lone &= x2 < room
            for r in np.flatnonzero(~lone):
                idx[r] = np.argmin(_sq(cw - x[r]))
            out[i:i + chunk] = idx
    return out.reshape(lead)


class _Draws(NamedTuple):
    """Variates of a run of trials, scaled as they enter the links."""

    msgs: np.ndarray      # (trials, 2) message per copy
    z_fwd: np.ndarray     # (trials, 2, rounds, n) forward noise
    z_fb: np.ndarray      # (trials, 2, rounds - 1, n) feedback noise
    dither: np.ndarray    # (trials, 2, rounds - 1, n) dither, in the cell


class _Block(NamedTuple):
    """Outcomes of a run of trials; leading axis 0 real, 1 coupled."""

    msgs: np.ndarray      # (trials, 2) message per copy
    alias: np.ndarray     # (2, trials, 2, rounds - 1) wrap flags
    decoded: np.ndarray   # (2, trials, 2) decoded message
    eps: np.ndarray       # (2, trials, 2, n) final estimation error
    ff_sq: np.ndarray     # (2, trials, 2) forward energy per copy
    fb_sq: np.ndarray     # (2, trials, 2) feedback energy per copy
    agree: np.ndarray     # (trials, 2) paths agree up to the first alias


def _block_trials(cfg: SchemeConfig) -> int:
    """Trials per keyed block, B: about _BLOCK_VALUES values per variable."""
    return max(1, _BLOCK_VALUES // (2 * cfg.rounds * cfg.dimension))


def _draw(cfg: SchemeConfig, block: int) -> _Draws:
    """All variates of the B trials of keyed block ``block``, whole.

    The block draws from Generator(Philox(key=[master_seed, block])), one
    variable after another: messages (B, 2), forward noise (B, 2, K, n),
    feedback noise and dither uniforms (B, 2, K - 1, n) each.
    """
    p = cfg.params
    per = _block_trials(cfg)
    steps = cfg.rounds - 1
    n = cfg.dimension
    rng = np.random.Generator(np.random.Philox(
        key=np.array([cfg.master_seed, block], dtype=np.uint64)))
    msgs = rng.integers(0, cfg.m_codewords, size=(per, 2))
    z_fwd = math.sqrt(p.sigma2) * rng.standard_normal((per, 2, cfg.rounds, n))
    z_fb = math.sqrt(p.sigma2_tilde) * rng.standard_normal((per, 2, steps, n))
    dither = sample_dither(cfg.lattice, rng, (per, 2, steps))
    return _Draws(msgs, z_fwd, z_fb, dither)


def _propagate(cfg: SchemeConfig, draws: _Draws) -> _Block:
    """Run real and coupled systems of both copies on the given draws."""
    lat = cfg.lattice
    steps = cfg.rounds - 1
    msgs, z_fwd, z_fb, dither = draws
    trials, _, _, n = z_fwd.shape

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
            fb = g * th_hat + dither[:, :, k]
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


def _run_block(cfg: SchemeConfig, start: int, stop: int) -> _Block:
    """Run trials [start, stop): rows of the keyed blocks they fall in."""
    per = _block_trials(cfg)
    parts = []
    for b in range(start // per, (stop - 1) // per + 1):
        rows = slice(max(start - b * per, 0), min(stop - b * per, per))
        parts.append([a[rows] for a in _draw(cfg, b)])
    return _propagate(cfg, _Draws(*map(np.concatenate, zip(*parts))))


def _record(cfg: SchemeConfig, trial_index: int, system: str) -> TrialRecord:
    if not _is_int(trial_index) or not (0 <= trial_index < _MAX_TRIAL_INDEX):
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
    """Simulate one trial of the real (power-respecting) system, exactly
    as every campaign runs it (row t mod B of keyed block t // B)."""
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


@dataclass(frozen=True, slots=True)
class SimulationSummary:
    """Exact counts and pooled averages of a campaign.

    Every field is a plain Python scalar or a tuple of them; the rates and
    their Wilson 95% intervals are properties computed from the counts.

    Aliasing rates come from the coupled system (whose rounds are all
    jointly Gaussian and hence comparable to the analysis); by the exact
    sample-path coupling the union of aliasing events is identical in the
    real system.  ``alias_counts[i][k]`` counts the coupled trials whose
    copy i wrapped at correction round k.  ``p_dec`` is the coupled
    system's decode error rate (``dec_errors_coupled`` over ``2 * trials``
    copies), ``p_e`` the real system's (``dec_errors_real``).
    ``sigma_k2_hat`` estimates the final estimation-error variance from
    real-system trials without aliasing, pooling dimensions
    (``no_alias_dims`` of them).

    ``union_agreement`` and ``coupled_agreement`` count copies, out of
    ``2 * trials``: the first counts matching union-of-aliasing indicators
    between the real and coupled runs, the second counts estimate paths
    that coincide numerically up to the first aliasing event.
    """

    trials: int
    rounds: int
    alias_counts: tuple[tuple[int, ...], ...]
    dec_errors_coupled: int
    dec_errors_real: int
    ff_power: float
    fb_power: float
    union_agreement: int
    coupled_agreement: int
    sigma_k2_hat: float
    no_alias_dims: int
    realized_rate_bits: float

    @property
    def p_mod(self) -> tuple[tuple[float, ...], ...]:
        return tuple(tuple(c / self.trials for c in row) for row in self.alias_counts)

    @property
    def p_mod_ci(self) -> tuple[tuple[tuple[float, float], ...], ...]:
        return tuple(tuple(wilson_interval(c, self.trials) for c in row)
                     for row in self.alias_counts)

    @property
    def p_mod_total(self) -> float:
        # a plain left-to-right loop: sum() compensates float rounding from
        # Python 3.12 on, which would move the last bits
        total = 0.0
        for row in self.p_mod:
            for p in row:
                total += p
        return total

    @property
    def p_dec(self) -> float:
        return self.dec_errors_coupled / (2 * self.trials)

    @property
    def p_dec_ci(self) -> tuple[float, float]:
        return wilson_interval(self.dec_errors_coupled, 2 * self.trials)

    @property
    def p_e(self) -> float:
        return self.dec_errors_real / (2 * self.trials)

    @property
    def p_e_ci(self) -> tuple[float, float]:
        return wilson_interval(self.dec_errors_real, 2 * self.trials)

    @property
    def union_bound_ok(self) -> bool:
        """p_e <= p_dec + sum of p_mod, with three Wilson half-widths of
        slack (the real and coupled decode rates' and every p_mod's)."""
        e_lo, e_hi = self.p_e_ci
        d_lo, d_hi = self.p_dec_ci
        slack = (e_hi - e_lo) / 2.0 + (d_hi - d_lo) / 2.0
        for row in self.p_mod_ci:
            for lo, hi in row:
                slack += (hi - lo) / 2.0
        return self.p_e <= self.p_dec + self.p_mod_total + 3.0 * slack


def _ordered_sum(total: float, values: np.ndarray) -> float:
    """total + v0 + v1 + ..., added left to right as a scalar loop would."""
    return float(np.cumsum(np.concatenate(([total], values.ravel())))[-1])


def estimate_error_prob(config: SchemeConfig, trials: int) -> SimulationSummary:
    """Run trials 0 .. ``trials`` - 1 and aggregate the error statistics.

    Trials run one keyed block at a time (see the module docstring), and
    counters and float sums are reduced in trial order.  Trial t's draws
    depend only on (master_seed, t // B, t mod B), so the aggregate is a
    pure function of (config, trials) and does not depend on how the
    trials are split into runs.  The summary's union-bound flag checks the
    real decode error rate against the coupled rate plus all aliasing
    rates, with three Wilson half-widths of slack.
    """
    if not _is_int(trials) or trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials!r}")
    k_rounds = config.rounds
    steps = k_rounds - 1
    n = config.dimension

    alias_counts = np.zeros((2, steps), dtype=np.int64)
    dec_errs = np.zeros(2, dtype=np.int64)  # per system
    union_mismatch = agreement = no_alias = 0
    ff_sum = fb_sum = eps2_sum = 0.0

    per_block = _block_trials(config)
    for start in range(0, trials, per_block):
        b = _run_block(config, start, min(trials, start + per_block))
        alias_counts += b.alias[_COUPLED].sum(axis=0)
        dec_errs += (b.decoded != b.msgs).sum(axis=(1, 2))
        wrapped = b.alias.any(axis=-1)
        union_mismatch += int(np.count_nonzero(wrapped[_REAL] != wrapped[_COUPLED]))
        clean = ~wrapped[_REAL]
        eps2_sum = _ordered_sum(eps2_sum, _sq(b.eps[_REAL][clean]))
        no_alias += int(np.count_nonzero(clean))
        ff_sum = _ordered_sum(ff_sum, b.ff_sq[_REAL])
        fb_sum = _ordered_sum(fb_sum, b.fb_sq[_REAL])
        agreement += int(np.count_nonzero(b.agree))

    copies = 2 * trials
    dec_err_real, dec_err_coupled = dec_errs.tolist()
    return SimulationSummary(
        trials=trials,
        rounds=k_rounds,
        alias_counts=tuple(map(tuple, alias_counts.tolist())),
        dec_errors_coupled=dec_err_coupled,
        dec_errors_real=dec_err_real,
        ff_power=ff_sum / (copies * k_rounds * n),
        fb_power=fb_sum / (copies * steps * n) if steps else 0.0,
        union_agreement=copies - union_mismatch,
        coupled_agreement=agreement,
        sigma_k2_hat=eps2_sum / (no_alias * n) if no_alias else math.nan,
        no_alias_dims=no_alias * n,
        realized_rate_bits=config.realized_rate_bits,
    )
