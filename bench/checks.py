"""Correctness checks applied to every benchmark operation.

Each checker returns a list of problems; an empty list means the output is
correct.  They read plain values (CSV text, summary attributes), so the
smoke test can feed them corrupted outputs without running the package.
"""

from __future__ import annotations

import csv
import io
import math

SWEEP_FIELDS = [
    "rate_bits",
    "rate_over_capacity",
    "e_sp_norm",
    "e_r_norm",
    "e_fb_norm",
    "k_star",
    "l_star",
    "r_region",
    "fb_binding",
]

# rows of the fixed --fig1 grid: 50 feedback points plus 49 closed-form points
SWEEP_ROWS = 99

# the pooled aliasing-rate check fails only beyond this many binomial
# standard deviations (a false alarm about once in two million runs)
ALIAS_SIGMAS = 5.0


def check_sweep(text: str, golden: str | None = None) -> tuple[int, list[str]]:
    """Check one ``exponents --fig1`` CSV; returns (data rows, problems).

    With ``golden`` the output must equal it byte for byte.  Otherwise the
    structure must hold: the fixed header and row count, finite nonnegative
    exponents, E_sp >= E_r, and R/C nondecreasing in [0, 1].
    """
    rows = list(csv.DictReader(io.StringIO(text)))
    if golden is not None:
        if text != golden:
            return len(rows), ["output differs from the golden fig-1 CSV"]
        return len(rows), []
    problems = []
    header = text.split("\n", 1)[0].split(",")
    if header != SWEEP_FIELDS:
        problems.append(f"header {header!r}")
    if len(rows) != SWEEP_ROWS:
        problems.append(f"{len(rows)} rows, expected {SWEEP_ROWS}")
    prev_x = -math.inf
    for i, row in enumerate(rows, start=1):
        try:
            x = float(row["rate_over_capacity"])
            sp = float(row["e_sp_norm"])
            er = float(row["e_r_norm"])
            fb = float(row["e_fb_norm"]) if row["e_fb_norm"] else 0.0
            k = int(row["k_star"]) if row["k_star"] else 1
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"row {i}: unparsable ({exc})")
            continue
        values = (x, sp, er, fb)
        if not all(math.isfinite(v) and v >= 0.0 for v in values) or k < 1:
            problems.append(f"row {i}: negative or non-finite value")
        elif sp < er - 1e-12 * max(1.0, er):
            problems.append(f"row {i}: E_sp {sp} < E_r {er}")
        if not prev_x <= x <= 1.0:
            problems.append(f"row {i}: R/C {x} out of order")
        prev_x = x
    return len(rows), problems


def check_campaign(summary, trials: int) -> list[str]:
    """The exact coupling identity and the union bound of one campaign."""
    problems = []
    copies = 2 * trials
    if summary.trials != trials:
        problems.append(f"ran {summary.trials} trials, asked for {trials}")
    if not summary.union_agreement == summary.coupled_agreement == copies:
        problems.append(
            f"agreement counts {summary.union_agreement}/"
            f"{summary.coupled_agreement}, expected {copies}"
        )
    if not summary.union_bound_ok:
        problems.append("union bound violated")
    return problems


def alias_count(summary) -> int:
    """Aliasing events of the coupled system over all copies and rounds."""
    return sum(
        round(p * summary.trials) for per_copy in summary.p_mod for p in per_copy
    )


def check_alias_rate(events: int, chances: int, looseness: float) -> list[str]:
    """Pooled per-round aliasing rate of the scalar lattice vs its closed form.

    At looseness L the feedback residue is Gaussian with variance P~/L and
    the Z^1 cell at power P~ is [-sqrt(3 P~), sqrt(3 P~)), so each round
    aliases with probability 2 Q(sqrt(3 L)) = erfc(sqrt(1.5 L)).
    """
    p = math.erfc(math.sqrt(1.5 * looseness))
    expected = chances * p
    slack = ALIAS_SIGMAS * math.sqrt(chances * p * (1.0 - p)) + 1.0
    if abs(events - expected) > slack:
        return [
            f"pooled aliasing: {events} events in {chances} rounds, "
            f"expected {expected:.1f} +- {slack:.1f}"
        ]
    return []
