"""Benchmark of the awgn_feedback package: one workload per run, or all.

    python3 bench/run.py --workload z1-campaign --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 [--trace 1]

A single-workload run prints a JSON line of run information (commit,
versions, thread settings, tail percentile) and, as its last line, the
result ``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
``--workload all`` runs every workload in turn and prints each metric by
name with its unit.

Every workload process is a fresh interpreter (``bench/worker.py``) with
numpy/BLAS capped at one thread.  ``setup_s`` is the median over
SETUP_SAMPLES further fresh processes that only set up.  Operation times
are rescaled to a nominal host speed by a reference kernel (``worker.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig1-sweep", "z1-campaign", "lattice-grid")
SETUP_SAMPLES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# a run must end within 180 s; leave room to report
RUN_DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """A workload process failed; the run reports no result."""


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over the package sources, so two programs never look alike."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args,
           "--t0", repr(time.monotonic())]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a workload process")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), text=True,
                              capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process timed out: {cmd}") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name, seed, seconds, trace, tiny, deadline) -> dict:
    common = ["--workload", name, "--seed", str(seed)]
    if tiny:
        common.append("--tiny")
    setups = []
    if not trace:
        for _ in range(1 if tiny else SETUP_SAMPLES):
            out = run_worker(common + ["--setup-only"], deadline)
            setups.append(out["info"]["setup_s"])
    out = run_worker(common + ["--seconds", str(seconds),
                               "--trace", str(trace)], deadline)
    metrics = out["metrics"]
    if not trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                   **metrics}
    info = out["info"]
    info["setup_samples_s"] = setups
    return {"info": info, "correct": out["failed"] == 0,
            "attempted": out["attempted"], "failed": out["failed"],
            "metrics": metrics}


def run_info(name, seed, seconds, trace) -> dict:
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {var: "1" for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny campaigns and one set-up sample (smoke test)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "awgn_feedback" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        deadline = time.monotonic() + RUN_DEADLINE_S
        try:
            res = run_workload(name, args.seed, args.seconds, args.trace,
                               args.tiny, deadline)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        res["info"] = {**run_info(name, args.seed, args.seconds, args.trace),
                       **res["info"]}
        results[name] = res

    if args.workload != "all":
        res = results[args.workload]
        print(json.dumps({"info": res.pop("info")}))
        print(json.dumps(res))
        return 0

    for name, res in results.items():
        info = res["info"]
        size = (f"{info['trials_per_op']} trials" if info["trials_per_op"]
                else "one sweep")
        print(f"# {name}: seed {args.seed}, commit {info['git_commit']}, "
              f"{info['ops']} ops of {size} each, items are "
              f"{info['items_unit']}")
        for metric, m in res["metrics"].items():
            print(f"{name:13s} {metric:38s} {m['value']:<14.6g} {m['unit']}")
        if not args.trace:
            print(f"{name:13s} {'op_latency_s.tail percentile':38s} "
                  f"{info['tail_percentile']:<14.4g} % of {info['ops']} ops")
        ratio = res["failed"] / res["attempted"]
        print(f"{name:13s} {'fail_ratio':38s} {ratio:<14.6g} "
              f"({res['failed']} failed / {res['attempted']} attempted)")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
