"""Monte-Carlo simulator of the K-round interactive feedback protocol.

One trial runs two independent copies of the scheme (the "interlaced" pair:
in a real deployment their blocks alternate on the channel so each terminal
always has a finished block to react to; statistically the interlacing is
pure scheduling, so the simulator runs both copies side by side on one trial
seed).  Per copy:

  round 1      Terminal A sends the codeword theta = c_m; B's estimate is
               Y_1 = theta + eps, so the estimation error eps starts at
               the channel noise (sigma_1^2 = sigma^2).
  rounds 2..K  B feeds back its estimate through a dithered modulo-lattice
               map scaled by gamma_k; A reconstructs gamma_k*eps + fb
               noise (exact unless the pre-modulo value leaves the Voronoi
               cell: the aliasing event), rescales it to full forward
               power as x, and sends it; B's MMSE correction on noise z
               is eps <- eps - beta_k (x + z).
  decode       B picks the nearest codeword to theta + eps (PAM by index
               arithmetic on m and eps / step; a Gaussian codebook first
               tries the sent codeword by a certified radius test on eps;
               the rest are screened by one matrix product per chunk of
               estimates, and near-ties settle by the direct distances).

The engine carries eps alone, as the analysis does (theta + eps would lose
eps below about 2.2e-16 |theta|): theta enters only the powers, |theta|^2
in round 1, |theta + eps|^2 under exact feedback and the coupled twin's
|gamma (theta + eps)|^2, and the screened Gaussian decodes.

The coupled twin runs the same rounds with the modulo maps removed (its
feedback power is deliberately unbounded).  Both systems consume the same
draws, and the receiver residue is computed in its dither-cancelled form
gamma*eps + noise, which equals the modulo-chain value exactly and keeps
the two sample paths bit-identical until the first aliasing event.  The
union-of-aliasing indicator therefore agrees between the systems on every
trial, not merely with high probability.  No dither is drawn: by the crypto
lemma the real feedback is uniform on the Voronoi cell whatever the
estimate is, so its power is the lattice's second moment; only exact
feedback, which sends the estimate itself, simulates its power.

One engine runs a range of consecutive trials in two steps: :func:`_draw`
draws the variates of a keyed block, and :func:`_propagate` advances both
systems of both copies together through the rounds as arrays of shape
(system, trial, copy, dimension).  Each correction round makes one
:func:`~.lattices.modulo` call, folding residues only: the real ones and
the coupled ones whose estimation error has parted from the real one; a
coupled residue with the real error is the real residue, bit for bit, so
it takes the real fold (none part before the first aliasing event).  The
final decode runs once per distinct error: a coupled error equal to its
real twin's takes the real decode.
A campaign makes one engine call per two keyed blocks and reduces each
call's outcomes in trial order; :func:`run_trial` and
:func:`run_coupled_trial` run ranges of one trial.

Randomness: trials are keyed in blocks of B = max(1, 4096 // (2 K n)), a
pure function of the config.  Block b holds trials [b B, (b + 1) B) and
draws them all from Generator(Philox(key=[master_seed, b])), one variable
after another: messages (B, 2), forward noise (B, 2, K, n) and feedback
noise (B, 2, K - 1, n).  A campaign builds one such generator and re-keys
it to that state for each block (see :class:`_Campaign`), which draws the
same numbers.  A range that ends inside a block draws the whole block and
keeps its rows, so trial t is row t mod B of block t // B however a
campaign is split or how long it runs, and a campaign is a pure function of
(config, trials).  The random codebook draws from the reserved stream key
[master_seed, 2**63]; trial indices stay below 2**63, so no block key
reaches it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._checks import count, real
from .feedback import ChannelParams, _check_looseness
from .lattices import Lattice, modulo, scale_to_power

__all__ = [
    "SchemeConfig",
    "SimulationSummary",
    "TrialRecord",
    "estimate_error_prob",
    "run_coupled_trial",
    "run_trial",
    "wilson_interval",
]

# 95% normal quantile, pinned so intervals are bit-stable across platforms
Z95 = 1.959963984540054

_CODEBOOK_STREAM = 1 << 63
_MAX_TRIAL_INDEX = 1 << 63
_MAX_PAM_BITS = 20
_MAX_CODEBOOK_BITS = 16
# rounds stay below this: the schedule and each trial's draws grow with K,
# far past e_fb's default k_max of 64 (and K R is no float at K = 10**400)
_ROUNDS_LIMIT = 1 << 16

# the engine's system axis
_REAL, _COUPLED = 0, 1

# values per (trials, 2, rounds, n) block array, and bytes per (rows, m)
# decode score chunk (64 rows of a 256-word codebook): small enough that a
# block's temporaries stay in cache, and small enough that a multithreaded
# BLAS does not pay its start-up on every product.  _BLOCK_VALUES also fixes
# the keyed blocks of the draws: changing it changes every campaign.
_BLOCK_VALUES = 4096
_DECODE_CHUNK_BYTES = 128 * 1024

# keyed blocks per engine call of a campaign.  Each call pays a fixed cost
# (Python steps, small numpy calls, one modulo per round) that one block of
# B trials does not amortize: on a 2-vCPU Xeon, a 10 000-trial Z1 K = 3
# campaign took 5.1 ms in calls of two blocks against 6.1 ms in calls of
# one; four ran no faster and peaked 0.9 MiB higher.  The keyed blocks and
# the trial-order reductions do not depend on it, so no summary bit does.
_CALL_BLOCKS = 2

# relative width of the decode screen per (n + 2): 1e-12 at n = 8, about
# a hundred times the rounding error of either distance form (see
# _decode_index)
_DECODE_SCREEN_TOL = 1e-13


# =============================================================================
# CONFIGURATION
# =============================================================================

@dataclass(frozen=True, eq=False)
class SchemeConfig:
    """A fully resolved simulation setup.

    The lattice passed in is rescaled so its dither power equals the
    feedback power budget.  The gamma/beta/variance schedule is fixed by the
    parameters alone (it never adapts to data), so it is computed once here
    (see ``_build_schedule``); construction fails, rather than any trial, if
    a correction round has no finite real gain.  The lattice's dimension
    fixes the codebook: PAM when it is 1, a random Gaussian codebook
    otherwise; ``codebook`` is 'auto' or that name, and is stored as the
    name.  ``rounds`` (below 2**16, as the schedule and each trial's draws
    grow with it), ``rate_bits``, ``master_seed`` and ``looseness`` are
    stored as the int or float their check makes of them.
    Either link may be noiseless (an infinite snr or dsnr in
    ``ChannelParams.from_snrs``); ``looseness`` lies in [1, bsnr), or is 0
    on a noiseless feedback link to select exact feedback, the
    Schalkwijk-Kailath limit.
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
    alpha: float = field(init=False, repr=False)  # sqrt(L P / P~), 0 if exact
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
        # exactly 0 selects exact feedback on a noiseless feedback link, whose
        # bsnr is inf, so any other L in [1, inf) passes there
        loose = real("looseness", self.looseness)
        exact = loose == 0.0 and p.sigma2_tilde == 0.0
        for name, value in (
            ("rounds", count("rounds", self.rounds, 1, _ROUNDS_LIMIT)),
            ("rate_bits", real("rate", self.rate_bits, at_least=0.0)),
            ("master_seed", count("master_seed", self.master_seed, 0, 1 << 64)),
            ("looseness", loose if exact else _check_looseness(loose, p.bsnr)),
            ("exact_feedback", exact),
            ("alpha", 0.0 if exact else math.sqrt(loose * p.p / p.p_tilde)),
        ):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "lattice", scale_to_power(self.lattice, p.p_tilde))

        self._build_codebook()
        self._build_schedule()

    # -- codebook -------------------------------------------------------

    def _build_codebook(self) -> None:
        p = self.params
        n = self.lattice.dimension
        mode = "pam" if n == 1 else "gaussian"
        if self.codebook.strip().lower() not in ("auto", mode):
            raise ValueError(f"codebook {self.codebook!r} does not fit dimension {n}; "
                             f"expected auto or {mode}")
        # checked before 2**bits or its ceiling, either of which can overflow
        if mode == "pam":
            bits = self.rounds * self.rate_bits
            if bits > _MAX_PAM_BITS:
                raise ValueError(f"PAM order 2**{bits:g} is beyond the simulator's range")
            m = max(1, math.ceil(2.0 ** bits))
            # extreme levels at +-sqrt(P): every codeword meets the power
            # constraint individually
            step = 2.0 * math.sqrt(p.p) / (m - 1) if m > 1 else 0.0
            levels = step * (np.arange(m) - 0.5 * (m - 1))
            codewords = levels[:, None]
        else:
            bits = n * self.rounds * self.rate_bits
            if bits > _MAX_CODEBOOK_BITS:
                raise ValueError(f"a codebook of {bits:g} bits is beyond brute-force ML")
            m = 1 << math.ceil(bits)
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
        codewords = np.ascontiguousarray(codewords, dtype=float)
        codewords.setflags(write=False)
        object.__setattr__(self, "codebook", mode)
        object.__setattr__(self, "m_codewords", m)
        object.__setattr__(self, "realized_rate_bits", math.log2(m) / (n * self.rounds))
        object.__setattr__(self, "codewords", codewords)
        object.__setattr__(self, "pam_step", step)

    # -- gamma/beta/variance schedule ------------------------------------

    def _build_schedule(self) -> None:
        """Round k = 2..K feeds gamma_k eps_k back with gamma_k^2 sigma_k^2 =
        P~/L - sigma~^2 (P if exact), A resends it times alpha (as is if
        exact), and B corrects by beta_k, so that
        sigma_{k+1}^2 = sigma_k^2 (1 + L/dsnr) / (1 + snr)."""
        p = self.params
        steps = self.rounds - 1
        if p.sigma2 == 0.0:
            # noiseless forward: the first estimate is already exact and no
            # correction round carries information
            object.__setattr__(self, "gains", (0.0,) * steps)
            object.__setattr__(self, "betas", (0.0,) * steps)
            object.__setattr__(self, "sigmas2", (0.0,) * self.rounds)
            return
        # num = gamma_k^2 sigma_k^2; a2s = alpha^2 sigma~^2, resent fb noise
        if self.exact_feedback:
            num, a2s, alpha = p.p, 0.0, 1.0
        else:
            num = p.p_tilde / self.looseness - p.sigma2_tilde
            a2s = (self.looseness * p.p / p.p_tilde) * p.sigma2_tilde
            alpha = self.alpha
        if steps and num <= 0.0:
            raise ValueError(f"looseness {self.looseness} leaves no signal power on "
                             f"the feedback link (needs L < bsnr = {p.bsnr})")
        s = p.sigma2
        gains, betas, sigmas = [], [], [s]
        for k in range(2, self.rounds + 1):
            # num / s overflows to inf once s is below num / 1.8e308
            g = math.sqrt(num / s) if 0.0 < s < math.inf else math.inf
            if g == math.inf:
                raise ValueError(f"round {k} has no finite gain: the estimation-"
                                 f"error variance before it is {s!r}; use fewer rounds")
            ag = alpha * g
            # (ag)^2 s = alpha^2 num is finite even where (ag)^2 overflows
            a2gs = ag * ag * s
            if a2gs == math.inf:
                a2gs = ag * (ag * s)
            denom = a2gs + a2s + p.sigma2
            gains.append(g)
            betas.append(ag * s / denom)
            s = s * (p.sigma2 + a2s) / denom
            sigmas.append(s)
        object.__setattr__(self, "gains", tuple(gains))
        object.__setattr__(self, "betas", tuple(betas))
        object.__setattr__(self, "sigmas2", tuple(sigmas))

    @property
    def dimension(self) -> int:
        return self.lattice.dimension


# =============================================================================
# TRIALS
# =============================================================================

@dataclass(frozen=True)
class TrialRecord:
    """Events and bookkeeping of one trial of one system (real or coupled).

    ``aliasing_flags[i][k]`` marks scheme copy i wrapping at correction
    round k; ``coupled_agreement`` states that the real and coupled
    estimation errors were equal up to the first aliasing event of each copy.
    Powers are per dimension, averaged over the trial's transmissions and,
    for feedback, over the dither (see :class:`SimulationSummary`).
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
    """Squared norms along the last axis: (x * x).sum(axis=-1), bit for bit.

    numpy reduces a short last axis row by row, at a fixed cost per row.
    Adding whole columns in numpy's own order gives the same bits for a
    fraction of it: left to right below 8 columns, and at 8 the pairwise
    tree of its eight accumulators, which numpy takes only when the rows
    lie contiguous (other layouts it adds column by column).
    """
    s = x * x
    n = s.shape[-1]
    if not 0 < n <= 8 or n == 8 and not s.flags.c_contiguous:
        return s.sum(axis=-1)
    c = [s[..., j] for j in range(n)]
    if n == 8:
        return ((c[0] + c[1]) + (c[2] + c[3])) + ((c[4] + c[5]) + (c[6] + c[7]))
    out = c[0]
    for cj in c[1:]:
        out = out + cj
    return out


def _rows_any(b: np.ndarray) -> np.ndarray:
    """b.any(axis=-1) for a bool array; a contiguous row of 1, 2, 4 or 8
    flags is read as one unsigned word, which skips numpy's per-row cost."""
    n = b.shape[-1]
    if n in (1, 2, 4, 8) and b.strides[-1] == 1:
        return b.view(f"u{n}")[..., 0] != 0
    return b.any(axis=-1)


def _screen_terms(cfg: SchemeConfig) -> tuple:
    """The Gaussian decode screen's terms (see :func:`_decode_index`): |c_j|^2
    per codeword, the relative width rel, the floor, the room below
    overflow, -2 C^T and the rows per chunk."""
    cw = cfg.codewords
    c2 = _sq(cw)
    rel = _DECODE_SCREEN_TOL * (cfg.dimension + 2)
    floor = rel * c2.max() + np.finfo(float).tiny
    # rows at least this large (or not finite) could overflow |x - c|^2
    room = 0.25 * np.finfo(float).max - c2.max()
    neg2ct = -2.0 * cw.T  # exact: scaling by a power of two
    chunk = max(1, _DECODE_CHUNK_BYTES // (8 * len(cw)))
    return c2, rel, floor, room, neg2ct, chunk


def _decode_index(cfg: SchemeConfig, theta_hat: np.ndarray) -> np.ndarray:
    """Nearest Gaussian codeword index of each estimate along the last axis.

    Returns, for each row x, exactly the direct form argmin_j |x - c_j|^2
    (first index on ties), but finds it by screen, then settle:

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
    cw = cfg.codewords
    rows = theta_hat.reshape(-1, cfg.dimension)
    out = np.empty(len(rows), dtype=np.intp)
    c2, rel, floor, room, neg2ct, chunk = _screen_terms(cfg)
    # the screen of rows not below room may overflow or meet inf - inf; it
    # is unused
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


def _decode_radius2(cfg: SchemeConfig, words: np.ndarray) -> np.ndarray:
    """Certified squared decode radius H_m of each Gaussian codeword index m
    in ``words``: if the error eps of an estimate c_m + eps has a rounded
    |eps|^2 below H_m, c_m is the unique nearest codeword to the exact
    estimate c_m + eps.

    H_m = (1 - rel) lo_m / 4, where lo_m is the least Gram-form value
    |c_m|^2 + |c_j|^2 - 2 c_m.c_j over j != m (inf in a one-word codebook),
    less the screen's tolerance rel (|c_m|^2 + max|c|^2) + floor (see
    :func:`_decode_index`); H_m = 0 where |c_m|^2 + max|c|^2 is not below
    a quarter of the largest float.  An H_m of 0 or less, as a duplicate
    codeword gets, certifies nothing.  Rows run in chunks of the screen's
    size.

    Why: let d be the exact distance from c_m to its nearest other codeword
    and r = |eps|, and write u = 2^-53.

    * lo_m <= d^2 - 2^-1023: below the guard no Gram value overflows, and
      each errs by at most the screen's bound plus one rounding, under a
      hundredth of rel (|c_m|^2 + max|c|^2), while floor holds the smallest
      normal float 2^-1022.  So H_m > 0 puts d^2 above 2^-1023.
    * The rounded |eps|^2 sums n rounded squares, all nonnegative, so it
      lies within a relative 1.01 n u of r^2, plus n 2^-1074 where it
      underflows, which is at most 4 n u d^2.
    * So |eps|^2 < H_m gives r^2 < (1 - rel + 18 n u) d^2 / 4, and
      rel = 900 (n + 2) u makes r < d / 2.  By the triangle inequality
      |c_m + eps - c_j| >= d - r > r for every j != m.

    An error that is not finite fails the test (NaN compares false) and
    goes to the screen with every other uncertified row.
    """
    cw = cfg.codewords
    c2, rel, floor, room, neg2ct, chunk = _screen_terms(cfg)
    out = np.empty(len(words))
    with np.errstate(invalid="ignore", over="ignore"):
        for i in range(0, len(words), chunk):
            m = words[i:i + chunk]
            d2 = cw[m] @ neg2ct
            d2 += c2
            d2[np.arange(len(m)), m] = np.inf  # not its own neighbour
            x2 = c2[m]
            lo = d2.min(axis=1) + x2 - (rel * x2 + floor)
            out[i:i + chunk] = np.where(x2 < room, 0.25 * (1.0 - rel) * lo, 0.0)
    return out


class _Draws(NamedTuple):
    """Variates of a run of trials, scaled as they enter the links."""

    msgs: np.ndarray      # (trials, 2) message per copy
    z_fwd: np.ndarray     # (trials, 2, rounds, n) forward noise
    z_fb: np.ndarray      # (trials, 2, rounds - 1, n) feedback noise


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


class _Campaign:
    """What one campaign reuses from block to block.

    :meth:`rng` re-keys one Philox bit generator to the state a fresh
    Philox(key=[master_seed, block]) starts in (counter 0, empty buffer, no
    stored 32-bit half), which skips the seeding entropy a fresh one draws
    only for its key to override it.  :meth:`radius2` computes each
    codeword's certified decode radius (:func:`_decode_radius2`) the first
    time the campaign sends it.  Each campaign builds its own, so
    concurrent campaigns share no state.
    """

    def __init__(self, cfg: SchemeConfig) -> None:
        self.cfg = cfg
        self._bits = np.random.Philox(0)
        self._rng = np.random.Generator(self._bits)
        self._radius2 = None  # per codeword; NaN until sent

    def rng(self, block: int) -> np.random.Generator:
        self._bits.state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64),
                      "key": np.array([self.cfg.master_seed, block], dtype=np.uint64)},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self._rng

    def radius2(self, words: np.ndarray) -> np.ndarray:
        if self._radius2 is None:
            self._radius2 = np.full(self.cfg.m_codewords, np.nan)
        fresh = np.zeros(len(self._radius2), dtype=bool)
        fresh[words] = True
        fresh &= np.isnan(self._radius2)
        if fresh.any():
            fresh = np.flatnonzero(fresh)
            self._radius2[fresh] = _decode_radius2(self.cfg, fresh)
        return self._radius2[words]


def _draw(cfg: SchemeConfig, block: int, campaign: _Campaign | None = None) -> _Draws:
    """All variates of the B trials of keyed block ``block``, whole.

    The block draws from Generator(Philox(key=[master_seed, block])), one
    variable after another: messages (B, 2), forward noise (B, 2, K, n) and
    feedback noise (B, 2, K - 1, n); no dither (see the module docstring).
    """
    p = cfg.params
    per = _block_trials(cfg)
    steps = cfg.rounds - 1
    n = cfg.dimension
    rng = (campaign or _Campaign(cfg)).rng(block)
    msgs = rng.integers(0, cfg.m_codewords, size=(per, 2))
    z_fwd = math.sqrt(p.sigma2) * rng.standard_normal((per, 2, cfg.rounds, n))
    z_fb = math.sqrt(p.sigma2_tilde) * rng.standard_normal((per, 2, steps, n))
    return _Draws(msgs, z_fwd, z_fb)


def _propagate(cfg: SchemeConfig, draws: _Draws,
               campaign: _Campaign | None = None) -> _Block:
    """Run real and coupled systems of both copies on the given draws.

    The one state is the estimation error eps, from z_fwd[0] on.  Each
    correction round folds, in one modulo call, the real residues and the
    coupled residues whose error has parted from the real one; every other
    coupled residue is its real twin's.  ``fb_sq`` is the feedback energy
    averaged over the dither: n M per round for the real system (M the
    second moment), |gamma (theta + eps)|^2 + n M for the unfolded coupled
    one, and |theta + eps|^2 under exact feedback.  ``agree`` compares both
    systems' own errors.  The decode runs once per distinct final error (see
    :func:`_decode_twins`).
    """
    lat = cfg.lattice
    steps = cfg.rounds - 1
    msgs, z_fwd, z_fb = draws
    trials, _, _, n = z_fwd.shape
    rows = 2 * trials  # (trial, copy) rows of one system

    theta = cfg.codewords[msgs]
    eps = np.broadcast_to(z_fwd[:, :, 0], (2, trials, 2, n))
    ff_sq = np.stack([_sq(theta)] * 2)
    fb_sq = np.zeros((2, trials, 2))
    alias = np.zeros((2, trials, 2, steps), dtype=bool)
    live = np.ones((trials, 2), dtype=bool)  # real copy not yet aliased
    agree = np.ones((trials, 2), dtype=bool)
    parted = np.empty(0, dtype=np.intp)  # (trial, copy) rows: coupled eps != real eps
    for k in range(steps):
        g = cfg.gains[k]
        if cfg.exact_feedback:
            fb_sq += _sq(theta + eps)
            x = g * eps
        else:
            # dither-cancelled receiver residue: equals the modulo chain
            w = g * eps + z_fb[:, :, k]
            w_parted = w[_COUPLED].reshape(rows, n)[parted]
            folded = modulo(lat, np.concatenate((w[_REAL].reshape(rows, n), w_parted)))
            residue = folded[:rows].reshape(trials, 2, n)
            wraps = _rows_any(residue != w[_REAL])
            alias[..., k] = wraps
            if len(parted):
                alias[_COUPLED].reshape(rows, steps)[parted, k] = _rows_any(
                    folded[rows:] != w_parted)
            live &= ~wraps
            x = cfg.alpha * np.stack((residue, w[_COUPLED]))
            # |g (theta + eps) + d|^2 averaged over d, folded by the crypto lemma
            fb_sq[_COUPLED] += _sq(g * (theta + eps[_COUPLED]))
            fb_sq += n * lat.second_moment
        ff_sq += _sq(x)
        eps = eps - cfg.betas[k] * (x + z_fwd[:, :, k + 1])
        differ = _rows_any(eps[_REAL] != eps[_COUPLED])
        agree &= ~(live & differ)
        parted = np.flatnonzero(differ)
    decoded = _decode_twins(cfg, msgs, eps, campaign or _Campaign(cfg))
    return _Block(msgs, alias, decoded, eps, ff_sq, fb_sq, agree)


def _decode_twins(cfg: SchemeConfig, msgs: np.ndarray, eps: np.ndarray,
                  campaign: _Campaign) -> np.ndarray:
    """Decoded index of each (system, trial, copy) estimate c_m + eps, with
    m its message in ``msgs``.

    PAM decodes the whole array by index arithmetic: m plus eps / step
    rounded to the nearest integer, ties to the lower one, clipped to
    [0, M - 1].  A Gaussian decode runs on every real error, then only on
    the coupled errors that differ from their real twin's (the final parted
    rows, past an aliasing event); the others copy the real decode.  Each
    error that passes its sent codeword's radius test
    (:func:`_decode_radius2`) decodes to that codeword; the rest go through
    :func:`_decode_index` as the estimate c_m + eps.
    """
    lead = eps.shape[:-1]
    if cfg.m_codewords == 1:
        return np.zeros(lead, dtype=np.intp)
    if cfg.codebook == "pam":
        j = msgs + np.ceil(eps[..., 0] / cfg.pam_step - 0.5)
        return np.clip(j, 0, cfg.m_codewords - 1).astype(np.intp)
    sent = msgs.reshape(-1)
    er, ec = eps.reshape(2, -1, cfg.dimension)
    radius2 = campaign.radius2(sent)

    def decode(err, words, r2):
        out = words.astype(np.intp)
        far = np.flatnonzero(~(_sq(err) < r2))
        if len(far):
            out[far] = _decode_index(cfg, cfg.codewords[words[far]] + err[far])
        return out

    dec = np.empty((2, len(sent)), dtype=np.intp)
    dec[_REAL] = dec[_COUPLED] = decode(er, sent, radius2)
    apart = np.flatnonzero(_rows_any(er != ec))
    if len(apart):
        dec[_COUPLED, apart] = decode(ec[apart], sent[apart], radius2[apart])
    return dec.reshape(lead)


def _run_block(cfg: SchemeConfig, start: int, stop: int,
               campaign: _Campaign | None = None) -> _Block:
    """Run trials [start, stop): rows of the keyed blocks they fall in."""
    campaign = campaign or _Campaign(cfg)
    per = _block_trials(cfg)
    parts = []
    for b in range(start // per, (stop - 1) // per + 1):
        rows = slice(max(start - b * per, 0), min(stop - b * per, per))
        parts.append([a[rows] for a in _draw(cfg, b, campaign)])
    draws = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
    return _propagate(cfg, _Draws(*draws), campaign)


def _record(cfg: SchemeConfig, trial_index: int, system: str) -> TrialRecord:
    trial_index = count("trial_index", trial_index, 0, _MAX_TRIAL_INDEX)
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
    total = count("total", total)
    successes = count("successes", successes, 0, total + 1)
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
    (``no_alias_dims`` of them).  ``ff_power`` and ``fb_power`` are the real
    system's powers per dimension; ``fb_power`` is the lattice's second
    moment, the feedback budget P~, by the crypto lemma, and is simulated
    only under exact feedback, which sends the estimate unfolded.

    ``union_agreement`` and ``coupled_agreement`` count copies, out of
    ``2 * trials``: the first counts matching union-of-aliasing indicators
    between the real and coupled runs, the second counts estimate paths
    that coincide bit for bit up to the first aliasing event.
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
        return _ordered_sum(0.0, np.array(self.p_mod))

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
        # one (lo, hi) pair per row and round; K = 1 leaves no pair axis
        ci = np.array(self.p_mod_ci).reshape(-1, 2)
        slack = _ordered_sum(slack, (ci[:, 1] - ci[:, 0]) / 2.0)
        return self.p_e <= self.p_dec + self.p_mod_total + 3.0 * slack


def _ordered_sum(total: float, values: np.ndarray) -> float:
    """total + v0 + v1 + ..., added left to right as a scalar loop would:
    sum() compensates float rounding from Python 3.12 on, and np.sum adds
    pairwise, so either would move the last bits."""
    return float(np.cumsum(np.concatenate(([total], values.ravel())))[-1])


def estimate_error_prob(config: SchemeConfig, trials: int) -> SimulationSummary:
    """Run trials 0 .. ``trials`` - 1 and aggregate the error statistics.

    Trials run in engine calls of two keyed blocks (see the module
    docstring), and each call's counters and float sums are reduced in
    trial order.  Trial t's draws depend only on (master_seed, t // B,
    t mod B), so the aggregate is a pure function of (config, trials) and
    does not depend on how the trials are split into runs or calls.  The
    summary's union-bound flag checks the real decode error rate against
    the coupled rate plus all aliasing rates, with three Wilson
    half-widths of slack.
    """
    trials = count("trials", trials)
    k_rounds = config.rounds
    steps = k_rounds - 1
    n = config.dimension

    alias_counts = np.zeros((2, steps), dtype=np.int64)
    dec_errs = np.zeros(2, dtype=np.int64)  # per system
    union_mismatch = agreement = no_alias = 0
    ff_sum = fb_sum = eps2_sum = 0.0

    per_call = _CALL_BLOCKS * _block_trials(config)
    campaign = _Campaign(config)
    for start in range(0, trials, per_call):
        b = _run_block(config, start, min(trials, start + per_call), campaign)
        alias_counts += b.alias[_COUPLED].sum(axis=0)
        dec_errs += (b.decoded != b.msgs).sum(axis=(1, 2))
        wrapped = _rows_any(b.alias)
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
