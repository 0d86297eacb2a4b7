"""One workload process of the benchmark: set-up, closed loop, checks.

``bench/run.py`` starts this file in a fresh interpreter per workload run
and per set-up sample; it prints one JSON object as its last stdout line.
The package is imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import checks
from tracer import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = ROOT / "tests" / "golden" / "fig1_20_30.csv"

# the README campaign: 20 dB forward, 30 dB feedback advantage
SNR_DB, DSNR_DB = 20.0, 30.0

# operations strictly slower than the reported tail latency
TAIL_BEYOND = 10

# On a shared 2-core Xeon VM the speed a process gets swings by up to 2x
# for minutes at a time, which moved raw times by 12-40% between runs.
# Operation times are therefore rescaled by a reference kernel timed around
# each op in the same process; raw times are kept in the run info.  Set-up
# time stays raw: its large-array Monte Carlo does not track the kernel.
REF_ARRAY_STEPS = 3000
REF_SCALAR_STEPS = 20000
REF_NOMINAL_S = 0.0125


def import_package():
    """Import ``awgn_feedback`` from this checkout's ``src/``, never elsewhere."""
    sys.path.insert(0, str(SRC))
    import awgn_feedback
    import awgn_feedback.cli  # noqa: F401  (the CLI layer is traced too)

    where = Path(awgn_feedback.__file__).resolve().parent
    if where != SRC / "awgn_feedback":
        raise ImportError(f"awgn_feedback imported from {where}, not {SRC}")
    return awgn_feedback


class Op:
    """One closed-loop operation: ``run`` is timed, ``check`` is not."""

    def __init__(self, index, run, check):
        self.index = index
        self.run = run
        self.check = check  # result -> (items, problems)


# =============================================================================
# WORKLOADS
# =============================================================================

class Fig1Sweep:
    """``exponents --fig1`` sweeps through ``cli.main``, each to a temp file.

    The pair list is 64 long and every eighth entry is the golden 20/30
    pair; the rest are drawn from the seed over 10-25 dB forward and
    20-35 dB feedback advantage, where one sweep costs 0.45-0.65 s.
    """

    name = "fig1-sweep"
    unit = "rows"

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.trials = None

    def setup(self, af) -> None:
        from awgn_feedback import cli

        self.cli = cli
        self.golden = GOLDEN.read_text()
        self.tmp = OUT / "tmp"
        self.tmp.mkdir(parents=True, exist_ok=True)
        rng = random.Random(f"{self.name}:{self.seed}")
        self.pairs = [
            (SNR_DB, DSNR_DB) if i % 8 == 0
            else (round(rng.uniform(10.0, 25.0), 2),
                  round(rng.uniform(20.0, 35.0), 2))
            for i in range(64)
        ]

    def batches(self):
        for i in itertools.count():
            yield [self._op(i, *self.pairs[i % len(self.pairs)])]

    def _op(self, index, snr_db, dsnr_db):
        path = self.tmp / f"sweep-{index}.csv"
        golden = self.golden if (snr_db, dsnr_db) == (SNR_DB, DSNR_DB) else None
        argv = ["exponents", "--fig1", "--snr-db", repr(snr_db),
                "--dsnr-db", repr(dsnr_db), "--out", str(path)]

        def run():
            # looked up at call time, so an installed tracer sees the call
            return self.cli.main(argv)

        def check(code):
            text = path.read_text()
            path.unlink()
            rows, problems = checks.check_sweep(text, golden)
            if code != 0:
                problems.append(f"exit code {code}")
            return rows, problems

        return Op(index, run, check)

    def finish(self, records):
        return None


class Campaign:
    """Back-to-back ``estimate_error_prob`` campaigns, one config per op."""

    unit = "trials"

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.used_seeds: set[int] = set()

    def setup(self, af) -> None:
        self.af = af
        self.params = af.ChannelParams.from_snrs(10.0 ** (SNR_DB / 10.0),
                                                 10.0 ** (DSNR_DB / 10.0))

    def finish(self, records):
        return None

    def master_seed(self) -> int:
        while True:
            s = self.rng.getrandbits(63)
            if s not in self.used_seeds:
                self.used_seeds.add(s)
                return s

    def _op(self, index, make_config):
        af = self.af
        trials = self.trials

        def run():
            # a fresh config per campaign, as a user's campaign builds one
            return af.estimate_error_prob(make_config(), trials)

        def check(summary):
            return summary.trials, checks.check_campaign(summary, trials)

        return Op(index, run, check)


class Z1Campaign(Campaign):
    """The README campaign (Z^1/PAM, K=3, L=4, R=0.5) with fresh seeds.

    The scalar path never calls ``lattices.modulo``; all time is the
    per-trial loop in ``sim``.
    """

    name = "z1-campaign"
    rounds = 3
    looseness = 4.0

    def __init__(self, seed: int, tiny: bool):
        super().__init__(seed, tiny)
        self.trials = 500 if tiny else 10_000

    def setup(self, af) -> None:
        super().setup(af)
        self.lattice = af.cubic_lattice(1)
        self.config(self.master_seed())

    def config(self, master_seed: int):
        return self.af.SchemeConfig(
            params=self.params, rounds=self.rounds, looseness=self.looseness,
            lattice=self.lattice, rate_bits=0.5, master_seed=master_seed,
        )

    def batches(self):
        for i in itertools.count():
            ms = self.master_seed()
            yield [self._op(i, lambda ms=ms: self.config(ms))]

    def finish(self, records):
        """Pooled per-round aliasing rate of all campaigns vs its closed form."""
        events = sum(checks.alias_count(r.result) for r in records if r.result)
        trials = sum(r.result.trials for r in records if r.result)
        chances = 2 * (self.rounds - 1) * trials
        return checks.check_alias_rate(events, chances, self.looseness)


class LatticeGrid(Campaign):
    """Short D4/E8 campaigns over a seeded cycle of configurations.

    Each cycle of 16 ops covers every (lattice, K, L, codebook) with K in
    {2, 3}, L in {4, 8} and Gaussian codebooks of 16 or 256 words once, in
    seeded order.  Per-trial cost differs about 3x between the cheapest and
    dearest configuration, so whole cycles keep the mix, and the metrics,
    the same from seed to seed.  At 500 trials a 30 s run holds 8 or more
    cycles, so the 10 ops slower than the tail all come from the four
    equally costly E8, K=3 configurations whatever the cycle count.
    """

    name = "lattice-grid"
    families = ("d4", "e8")

    def __init__(self, seed: int, tiny: bool):
        super().__init__(seed, tiny)
        self.trials = 40 if tiny else 500

    def setup(self, af) -> None:
        super().setup(af)
        self.lattices = {f: af.make_lattice(f) for f in self.families}
        self.grid = [(f, k, loose, bits) for f in self.families
                     for k in (2, 3) for loose in (4.0, 8.0) for bits in (4, 8)]

    def config(self, family, rounds, looseness, bits, master_seed):
        lattice = self.lattices[family]
        return self.af.SchemeConfig(
            params=self.params, rounds=rounds, looseness=looseness,
            lattice=lattice, rate_bits=bits / (lattice.dimension * rounds),
            master_seed=master_seed, codebook="gaussian",
        )

    def batches(self):
        index = itertools.count()
        while True:
            cycle = list(self.grid)
            self.rng.shuffle(cycle)
            batch = []
            for spec in cycle:
                args = spec + (self.master_seed(),)
                batch.append(self._op(next(index),
                                      lambda args=args: self.config(*args)))
            yield batch


WORKLOADS = {w.name: w for w in (Fig1Sweep, Z1Campaign, LatticeGrid)}


# =============================================================================
# THE CLOSED LOOP
# =============================================================================

class Record:
    __slots__ = ("op", "latency", "items", "problems", "result", "ref")

    def __init__(self, op, latency, items, problems, result):
        self.op = op
        self.latency = latency
        self.items = items
        self.problems = problems
        self.result = result
        self.ref = 0.0


def execute(op: Op, tracer=None) -> Record:
    """Run one op, time it, then check its output; failures are recorded."""
    if tracer is not None:
        tracer.op_id = op.index
    t0 = time.perf_counter()
    try:
        result = op.run()
    except Exception:  # the loop keeps going; the failure is counted
        latency = time.perf_counter() - t0
        return Record(op, latency, 0, [traceback.format_exc(limit=3)], None)
    latency = time.perf_counter() - t0
    try:
        items, problems = op.check(result)
    except Exception:
        items, problems = 0, [traceback.format_exc(limit=3)]
    return Record(op, latency, items, problems, result)


def _ref_scalar(x: float) -> float:
    return 0.5 * math.log(1.0 + x) - math.sqrt(x) / (1.0 + math.exp(-x))


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of small-array numpy and scalar math.

    The mix resembles the package's hot paths (per-trial draws, exponent
    formulas) but calls no package code, so its time follows only the
    speed the host gives this process at that moment.
    """
    import numpy as np

    rng = np.random.Generator(np.random.Philox(key=[1, 2]))
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(REF_ARRAY_STEPS):
        z = rng.standard_normal(4)
        acc += float(np.dot(z, z)) + math.ceil(float(z[0]) - 0.5)
    x = 0.1
    for _ in range(REF_SCALAR_STEPS):
        acc += _ref_scalar(x)
        x = x * 1.0001 + 1e-4
    return time.perf_counter() - t0


def to_nominal(seconds: float, ref: float) -> float:
    """Rescale a time to a host on which the reference kernel takes
    REF_NOMINAL_S, using a reference run taken around it."""
    return seconds * REF_NOMINAL_S / ref


def measure(batches, seconds: float, tracer=None):
    """Run whole batches back to back until ``seconds`` have passed.

    The reference kernel runs before the first op and after every op; each
    record gets the mean of the two runs around it.
    """
    records = []
    ref_before = reference_kernel()
    start = time.perf_counter()
    for batch in batches:
        for op in batch:
            rec = execute(op, tracer)
            ref_after = reference_kernel()
            rec.ref = 0.5 * (ref_before + ref_after)
            ref_before = ref_after
            records.append(rec)
        if time.perf_counter() - start >= seconds:
            break
    return records


def tally(records, final):
    """(attempted, failed, problems): each op, plus a pooled check if any."""
    attempted = len(records)
    failed = sum(1 for r in records if r.problems)
    problems = [p for r in records for p in r.problems]
    if final is not None:
        attempted += 1
        failed += 1 if final else 0
        problems += final
    return attempted, failed, problems


def tail(latencies):
    """The latency with exactly TAIL_BEYOND slower ops, its percentile, count."""
    ordered = sorted(latencies)
    n = len(ordered)
    # too few ops for any tail: report the slowest
    k = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return ordered[k - 1], 100.0 * k / n, n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def op_seconds(records) -> float:
    return sum(r.latency for r in records)


def nominal_op_seconds(records) -> float:
    return sum(to_nominal(r.latency, r.ref) for r in records)


def e2e_metrics(records):
    raw = [r.latency for r in records]
    latencies = [to_nominal(r.latency, r.ref) for r in records]
    tail_value, tail_pct, n = tail(latencies)
    items = sum(r.items for r in records)
    metrics = {
        "items_per_s": (items / sum(latencies), "items/s"),
        "op_latency_s.p50": (statistics.median(latencies), "s"),
        "op_latency_s.tail": (tail_value, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }
    info = {"tail_percentile": tail_pct, "ops": n,
            "raw_items_per_s": items / op_seconds(records),
            "raw_p50": statistics.median(raw),
            "raw_tail": tail(raw)[0],
            "ref_median_s": statistics.median(r.ref for r in records)}
    return metrics, info


def layer_metrics(tracer, records, overhead, setup_wall):
    """Per-layer metrics of the traced pass (and of the traced set-up)."""
    wall = op_seconds(records)
    s = tracer.stat

    def ratio(num, den):
        return num / den if den else 0.0

    efb = s("feedback.e_fb")
    gal = s("exponents.gallager_exp")
    pol = s("exponents.poltyrev_exponent")
    eep = s("sim.estimate_error_prob")
    cfg = s("sim.SchemeConfig")
    mod = s("lattices.modulo")
    enc, rec = s("jscc.wz_encode"), s("jscc.wz_receive")
    family_busy = tracer.busy_by_tag("lattices.make_lattice")
    evals = (gal.by_parent.get("feedback.e_fb", 0)
             + pol.by_parent.get("feedback.e_fb", 0))
    campaigns = [r.result for r in records
                 if r.result is not None and hasattr(r.result, "p_mod")]
    trials = sum(c.trials for c in campaigns)
    events = sum(checks.alias_count(c) + round(c.p_e * 2 * c.trials)
                 for c in campaigns)

    m = {
        "cli.main.calls": (s("cli.main").calls, "count"),
        "cli.main.self_s": (s("cli.main").self, "s"),
        "feedback.e_fb.calls": (efb.calls, "count"),
        "feedback.e_fb.busy_s": (efb.busy, "s"),
        "feedback.e_fb.self_s": (efb.self, "s"),
        "feedback.e_fb.us_per_call": (1e6 * ratio(efb.busy, efb.calls), "us"),
        "exponents.gallager_exp.calls": (gal.calls, "count"),
        "exponents.gallager_exp.busy_s": (gal.busy, "s"),
        "exponents.poltyrev_exponent.calls": (pol.calls, "count"),
        "exponents.evals_per_e_fb": (ratio(evals, efb.calls), "ratio"),
        "sim.estimate_error_prob.busy_s": (eep.busy, "s"),
        "sim.estimate_error_prob.self_s": (eep.self, "s"),
        "sim.us_per_trial": (1e6 * ratio(eep.busy, eep.points), "us"),
        "sim.trials": (eep.points, "count"),
        "sim.SchemeConfig.calls": (cfg.calls, "count"),
        "sim.SchemeConfig.busy_s": (cfg.busy, "s"),
        "sim.events_per_trial": (ratio(events, trials), "ratio"),
        "lattices.make_lattice.busy_s.d4": (family_busy.get("d4", 0.0), "s"),
        "lattices.make_lattice.busy_s.e8": (family_busy.get("e8", 0.0), "s"),
        "lattices.make_lattice.setup_share": (
            ratio(sum(family_busy.values()), setup_wall), "ratio"),
        "lattices.modulo.calls": (mod.calls, "count"),
        "lattices.modulo.points": (mod.points, "count"),
        "lattices.modulo.busy_s": (mod.busy, "s"),
        "lattices.modulo.us_per_point": (1e6 * ratio(mod.busy, mod.points), "us"),
        "lattices.points_per_call": (ratio(mod.points, mod.calls), "ratio"),
        "jscc.wz_encode.calls": (enc.calls, "count"),
        "jscc.wz_receive.calls": (rec.calls, "count"),
        "jscc.busy_s": (enc.busy + rec.busy, "s"),
    }
    for layer, names in LAYERS.items():
        stats = [s(f"{layer}.{name}") for name in names]
        m[f"{layer}.errors"] = (sum(x.errors for x in stats), "count")
        m[f"{layer}.self_share"] = (ratio(sum(x.self for x in stats), wall),
                                    "ratio")
    m["trace.overhead_s"] = (overhead, "s")
    return m


# =============================================================================
# ENTRY POINT
# =============================================================================

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() of the parent just before it "
                         "started this process")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    tracer = Tracer() if args.trace else None
    import_start = time.monotonic()
    af = import_package()
    import_s = time.monotonic() - import_start
    if tracer is not None:
        tracer.install(af)
    setup_start = time.monotonic()
    workload.setup(af)
    setup_s = time.monotonic() - args.t0
    setup_wall = time.monotonic() - setup_start + import_s
    if tracer is not None:
        tracer.uninstall()

    info = {
        "setup_s": setup_s,
        "import_s": import_s,
        "trials_per_op": workload.trials,
        "python": sys.version.split()[0],
        "numpy": sys.modules["numpy"].__version__,
    }
    if args.setup_only:
        print(json.dumps({"info": info}))
        return 0

    batches = workload.batches()
    seconds = args.seconds / 2.0 if tracer is not None else args.seconds
    records = measure(batches, seconds)
    metrics, loop_info = e2e_metrics(records)
    info.update(loop_info)
    final = workload.finish(records)
    if tracer is not None:
        # replay the same ops traced; the difference in op time is overhead
        tracer.reset()
        tracer.install(af)
        traced = measure([[r.op for r in records]], 0.0, tracer)
        tracer.uninstall()
        overhead = nominal_op_seconds(traced) - nominal_op_seconds(records)
        records += traced
        metrics = layer_metrics(tracer, traced, overhead, setup_wall)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"trace-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        info["spans"] = str(spans_path.relative_to(ROOT))
        info["traced_op_s"] = op_seconds(traced)

    attempted, failed, problems = tally(records, final)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    info["items_unit"] = workload.unit
    print(json.dumps({
        "info": info,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
