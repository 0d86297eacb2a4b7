"""Smoke test of the benchmark: tiny runs, output schema, checker failures.

Run with ``python3 -m pytest bench/test_bench.py``.  No timing bounds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GOLDEN = (ROOT / "tests" / "golden" / "fig1_20_30.csv").read_text()


# which layers each workload reaches: metric -> must it be nonzero
LAYER_MAP = {
    "fig1-sweep": {"feedback.e_fb.calls": True, "sim.trials": False,
                   "lattices.modulo.calls": False},
    "z1-campaign": {"sim.trials": True, "feedback.e_fb.calls": False,
                    "lattices.modulo.calls": False},
    "lattice-grid": {"lattices.modulo.calls": True,
                     "lattices.make_lattice.busy_s.e8": True,
                     "feedback.e_fb.calls": False},
}


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_schema(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = json.loads(lines[-2])["info"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in want]
    for m in want:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    for key in ("git_commit", "src_sha256", "python", "numpy", "nproc",
                "threads", "seed", "trials_per_op"):
        assert key in info
    if trace:
        assert (ROOT / info["spans"]).is_file()
        for name, nonzero in LAYER_MAP[workload].items():
            assert (result["metrics"][name]["value"] > 0) == nonzero, name
    else:
        assert info["tail_percentile"] > 0 and info["ops"] >= 1


def test_refuses_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "z1-campaign", "--seed", "1", "--seconds", "1",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_golden_sweep_passes_and_corruption_fails():
    rows, problems = checks.check_sweep(GOLDEN, GOLDEN)
    assert rows == checks.SWEEP_ROWS and problems == []
    assert checks.check_sweep(GOLDEN, None)[1] == []
    corrupt = GOLDEN.replace("0.5,0.25", "0.5,0.26", 1)
    assert corrupt != GOLDEN
    assert checks.check_sweep(corrupt, GOLDEN)[1]


@pytest.mark.parametrize("edit", [
    lambda lines: lines[:-1],                                  # row missing
    lambda lines: [lines[0]] + [l.replace(",0.25,", ",-0.25,", 1)
                                for l in lines[1:]],           # negative E_r
    lambda lines: [lines[0]] + [l.replace(",0.5,", ",0.1,", 1)
                                for l in lines[1:]],           # E_sp < E_r
    lambda lines: [lines[0]] + [l.replace(",0.25,", ",nan,", 1)
                                for l in lines[1:]],           # not finite
])
def test_structural_sweep_check_catches(edit):
    lines = GOLDEN.rstrip("\n").split("\n")
    text = "\n".join(edit(lines)) + "\n"
    assert checks.check_sweep(text, None)[1]


def _summary(trials, union, coupled, ok=True):
    return SimpleNamespace(trials=trials, union_agreement=union,
                           coupled_agreement=coupled, union_bound_ok=ok,
                           p_mod=((0.0,), (0.0,)))


def test_campaign_check():
    assert checks.check_campaign(_summary(10, 20, 20), 10) == []
    assert checks.check_campaign(_summary(10, 20, 19), 10)
    assert checks.check_campaign(_summary(10, 19, 20), 10)
    assert checks.check_campaign(_summary(10, 20, 20, ok=False), 10)


def test_failed_check_counts_as_failed_op():
    sweep = worker.Op(0, lambda: GOLDEN.replace("0.5", "0.6", 1),
                      lambda text: checks.check_sweep(text, GOLDEN))
    campaign = worker.Op(1, lambda: _summary(5, 10, 9),
                         lambda s: (s.trials, checks.check_campaign(s, 5)))
    raises = worker.Op(2, lambda: 1 / 0, lambda r: (1, []))
    good = worker.Op(3, lambda: _summary(5, 10, 10),
                     lambda s: (s.trials, checks.check_campaign(s, 5)))
    records = worker.measure(iter([[sweep, campaign, raises, good]]), 0.0)
    assert [bool(r.problems) for r in records] == [True, True, True, False]
    assert worker.tally(records, None)[:2] == (4, 3)
    assert worker.tally(records, ["pooled check failed"])[:2] == (5, 4)


def test_alias_rate_check():
    # L = 4: per-round probability erfc(sqrt(6)) ~ 5.3e-4
    assert checks.check_alias_rate(532, 1_000_000, 4.0) == []
    assert checks.check_alias_rate(700, 1_000_000, 4.0)
    assert checks.check_alias_rate(0, 1_000_000, 4.0)


def test_tail_has_ten_slower_ops():
    lat = [float(i) for i in range(100)]
    value, pct, n = worker.tail(lat)
    assert n == 100 and value == 89.0 and pct == 90.0
    assert sum(x > value for x in lat) == worker.TAIL_BEYOND
    assert worker.tail([3.0, 1.0, 2.0])[0] == 3.0
