"""End-to-end tests of the command-line interface."""

import csv
import io
import math
import warnings
from pathlib import Path

import pytest

from awgn_feedback import SimulationSummary, e_fb, sim, wilson_interval
from awgn_feedback.cli import (
    ConfigError,
    _db_to_linear,
    _g17,
    _params_from_db,
    _sim_rows,
    _sweep_rows,
    main,
    parse_config,
)

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = GOLDEN_DIR / "fig1_20_30.csv"


def run_main(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# -----------------------------------------------------------------------------
# config parsing
# -----------------------------------------------------------------------------

FULL_CONFIG = """\
# campaign setup
snr_db = 20
dsnr_db = 30
rounds = 3          # K
looseness = 40
lattice = z
dimension = 1
rate_bits = 0.5
codebook = auto
seed = 42
"""


def test_parse_full_config():
    cfg = parse_config(FULL_CONFIG)
    assert cfg["snr_db"] == 20.0
    assert cfg["rounds"] == 3
    assert cfg["looseness"] == 40.0
    assert cfg["lattice"] == "z"
    assert cfg["dimension"] == 1
    assert cfg["seed"] == 42


def test_parse_defaults():
    cfg = parse_config(
        "snr_db=20\ndsnr_db=30\nrounds=2\nlooseness=4\nrate_bits=1\n"
    )
    assert cfg["lattice"] == "z"
    assert cfg["dimension"] is None
    assert cfg["seed"] == 0
    assert cfg["codebook"] == "auto"


def test_parse_infinite_dsnr():
    cfg = parse_config(
        "snr_db=20\ndsnr_db=inf\nrounds=2\nlooseness=0\nrate_bits=1\n"
    )
    assert math.isinf(cfg["dsnr_db"])


@pytest.mark.parametrize("text,fragment", [
    ("snr_db = 20\nwat = 3\n", "line 2"),
    ("snr_db = 20\nwat = 3\n", "wat"),
    ("snr_db = 20\nsnr_db = 21\n", "duplicate"),
    ("snr_db\n", "line 1"),
    ("snr_db =\n", "empty value"),
    ("snr_db = twenty\ndsnr_db = 30\nrounds = 2\nlooseness = 4\n"
     "rate_bits = 1\n", "line 1"),
    ("snr_db = 20\ndsnr_db = 30\nrounds = 2.5\nlooseness = 4\n"
     "rate_bits = 1\n", "line 3"),
    ("snr_db = 20\n", "missing required"),
])
def test_parse_errors_name_the_line(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(text)


def test_parse_duplicate_reports_both_lines():
    with pytest.raises(ConfigError, match="first set on line 1"):
        parse_config("rounds = 2\nrounds = 3\n")


# -----------------------------------------------------------------------------
# exit codes
# -----------------------------------------------------------------------------

def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus-subcommand"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_domain_error_exits_3(capsys):
    code, _, err = run_main(
        ["optimize", "--snr-db", "20", "--dsnr-db", "30", "--rate", "99"],
        capsys,
    )
    assert code == 3
    assert "capacity" in err


@pytest.mark.parametrize("command", ["optimize", "exponents"])
def test_feedback_snr_below_one_exits_3_naming_bsnr(command, capsys):
    """-10 dB forward plus 7 dB advantage puts bsnr near 0.5."""
    argv = [command, "--snr-db", "-10", "--dsnr-db", "7"]
    argv += ["--rate", "0.01"] if command == "optimize" else ["--grid", "3"]
    code, out, err = run_main(argv, capsys)
    assert (code, out) == (3, "")
    assert err.startswith("error: bsnr 0.50118") and "looseness 1.0" not in err


def test_missing_config_exits_4(capsys):
    code, _, err = run_main(
        ["simulate", "--config", "/no/such/file.cfg"], capsys
    )
    assert code == 4


def test_bad_config_exits_3(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("snr_db = 20\nmystery = 1\n")
    code, _, err = run_main(["simulate", "--config", str(cfg)], capsys)
    assert code == 3
    assert "line 2" in err


def test_codebook_beyond_float_range_exits_3(tmp_path, capsys):
    """2**(K R) past the float range is a config error, not a traceback."""
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(FULL_CONFIG.replace("rounds = 3", "rounds = 2000")
                   .replace("rate_bits = 0.5", "rate_bits = 1.0"))
    code, out, err = run_main(["simulate", "--config", str(cfg)], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("error:") and "beyond" in err


def test_rounds_beyond_the_limit_exit_3(tmp_path, capsys):
    """A round count whose K R is no float is a config error, not a
    traceback."""
    cfg = tmp_path / "rounds.cfg"
    cfg.write_text(FULL_CONFIG.replace("rounds = 3", f"rounds = {10**400}"))
    code, out, err = run_main(["simulate", "--config", str(cfg)], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("error: rounds must be in") and "Traceback" not in err


def test_trials_beyond_the_trial_index_range_exit_3(tmp_path, capsys):
    """More trials than trial indices below 2**63 is an argument error, not
    a campaign that never ends."""
    cfg = tmp_path / "full.cfg"
    cfg.write_text(FULL_CONFIG)
    for trials in (0, 2**63 + 1, 10**20):
        code, out, err = run_main(
            ["simulate", "--config", str(cfg), "--trials", str(trials)], capsys)
        assert (code, out) == (3, "")
        assert err.startswith("error: trials must be in [1, 9223372036854775809)")


def test_unwritable_output_exits_4(tmp_path, capsys):
    code, _, err = run_main(
        ["exponents", "--grid", "4", "--out", str(tmp_path / "no" / "x.csv")],
        capsys,
    )
    assert code == 4


def test_small_grid_rejected(capsys):
    code, _, err = run_main(["exponents", "--grid", "1"], capsys)
    assert code == 3


# -----------------------------------------------------------------------------
# exponents sweep
# -----------------------------------------------------------------------------

def test_exponents_csv_structure(capsys):
    code, out, _ = run_main(
        ["exponents", "--snr-db", "20", "--dsnr-db", "30", "--grid", "10"],
        capsys,
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 10
    assert rows[0]["rate_over_capacity"] == "0"
    assert float(rows[0]["e_sp_norm"]) == 0.5
    assert float(rows[0]["e_r_norm"]) == 0.25
    # feedback columns populated up to 0.9
    for row in rows:
        x = float(row["rate_over_capacity"])
        assert (row["e_fb_norm"] != "") == (x <= 0.9 + 1e-12)
        # every emitted value is a finite nonnegative number
        for field, text in row.items():
            if field in ("fb_binding", "r_region") or text == "":
                continue
            value = float(text)
            assert math.isfinite(value) and value >= 0.0
        assert float(row["e_sp_norm"]) >= float(row["e_r_norm"])


@pytest.mark.parametrize(
    "golden", sorted(GOLDEN_DIR.glob("fig1_*_*.csv")), ids=lambda path: path.stem
)
def test_exponents_golden_bytes(golden, tmp_path):
    """Each pinned sweep reproduces byte for byte, twice.

    The (snr_db, dsnr_db) pair is read from the file name fig1_<snr>_<dsnr>.
    """
    snr_db, dsnr_db = golden.stem.split("_")[1:]
    for name in ("fig1.csv", "fig1_again.csv"):
        out = tmp_path / name
        assert main([
            "exponents", "--snr-db", snr_db, "--dsnr-db", dsnr_db, "--fig1",
            "--out", str(out),
        ]) == 0
        assert out.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize(
    "golden", sorted(GOLDEN_DIR.glob("simulate_*.csv")), ids=lambda path: path.stem
)
def test_simulate_golden_bytes(golden, tmp_path):
    """Pinned campaigns reproduce byte for byte: Gaussian codebooks (D4, E8;
    256 codewords) at 4.8 dB, where both systems decode wrongly on a few
    percent of copies or more, so the decode decisions show in p_dec and
    p_e; the README's Z1 PAM config; exact feedback (sk), whose feedback
    power is simulated rather than the cell's second moment; Z1 PAM at
    K = 20 (z1_k20), whose final error sigma_K ~ 1e-20 lies far below the
    float resolution of the codewords; and D4 at K = 22 (d4_k22), where the
    residues of copies that alias early pass 2**53 cell widths, so its
    forward power holds only if modulo folds them into the cell.

    The campaign's config is the .cfg file of the same stem.
    """
    out = tmp_path / "sim.csv"
    assert main([
        "simulate", "--config", str(golden.with_suffix(".cfg")),
        "--trials", "2000", "--out", str(out),
    ]) == 0
    assert out.read_bytes() == golden.read_bytes()


def test_sim_rows_build_each_interval_once(monkeypatch):
    """A K-round report costs O(K): it reads exactly 2 K Wilson intervals,
    2 (K - 1) for its p_mod rows plus p_dec and p_e, as the union-bound
    flag builds none (the report once built all 2 (K - 1) of them per
    p_mod row), and each row carries its own rate and interval."""
    k = 200
    alias = tuple(tuple((7 * i + 3 * j) % 50 for j in range(k - 1)) for i in range(2))
    summary = SimulationSummary(
        trials=1000, rounds=k, alias_counts=alias, dec_errors_coupled=3,
        dec_errors_real=5, ff_power=1.0, fb_power=1.0, union_agreement=2000,
        coupled_agreement=2000, unaliased_splits=0, sigma_k2_hat=1e-9,
        no_alias_dims=1500, realized_rate_bits=0.5)
    calls = []

    def counted(successes, total):
        calls.append(successes)
        return wilson_interval(successes, total)

    monkeypatch.setattr(sim, "wilson_interval", counted)
    rows = _sim_rows(summary)
    assert len(calls) == 2 * k
    p_mod = [r for r in rows if r["metric"] == "p_mod"]
    assert len(p_mod) == 2 * (k - 1)
    for r in p_mod:
        i, j = int(r["scheme"]) - 1, int(r["round"]) - 1
        lo, hi = wilson_interval(alias[i][j], 1000)
        assert (r["value"], r["ci_low"], r["ci_high"]) == (
            _g17(alias[i][j] / 1000), _g17(lo), _g17(hi))
    p_e = next(r for r in rows if r["metric"] == "p_e")
    assert (p_e["ci_low"], p_e["ci_high"]) == tuple(map(_g17, wilson_interval(5, 2000)))


@pytest.mark.filterwarnings("ignore:e_fb argmax hit k_max")
@pytest.mark.parametrize("snr_db,dsnr_db", [("50", "20"), ("60", "40")])
def test_exponents_fig1_beyond_float_range(snr_db, dsnr_db, capsys):
    """At these SNRs the boosted SNR of large round counts exceeds the float
    range; the sweep still completes with finite exponents."""
    code, out, _ = run_main(
        ["exponents", "--snr-db", snr_db, "--dsnr-db", dsnr_db, "--fig1"],
        capsys,
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 99
    fb = [float(r["e_fb_norm"]) for r in rows if r["e_fb_norm"] != ""]
    assert len(fb) == 50
    assert all(math.isfinite(v) and v > 0.0 for v in fb)


def test_fig1_sweep_rows_match_one_rate_calls():
    """Each rate's search starts at the previous rate's K*; the rows keep the
    bits of one e_fb call per rate without that start, also where the
    argmax hits k_max = 64 and warns."""
    with pytest.warns(RuntimeWarning, match="e_fb argmax hit k_max=64"):
        rows = _sweep_rows(3.0, 33.0, 0, True)
    snr, params = _db_to_linear(3.0), _params_from_db(3.0, 33.0)
    fb_rows = [row for row in rows if row["e_fb_norm"] != ""]
    assert len(fb_rows) == 50
    assert "64" in {row["k_star"] for row in fb_rows}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for row in fb_rows:
            res = e_fb(params, float(row["rate_bits"]))
            assert (row["e_fb_norm"], row["k_star"], row["l_star"],
                    row["fb_binding"]) == (
                _g17(res.e_fb / snr), str(res.k_star), _g17(res.l_star),
                res.binding.value), row["rate_over_capacity"]


def test_exponents_reject_noiseless_feedback(capsys):
    """inf dB builds a noiseless link, which the optimizer rejects."""
    code, out, err = run_main(
        ["exponents", "--snr-db", "20", "--dsnr-db", "inf", "--grid", "4"], capsys
    )
    assert (code, out) == (3, "")
    assert "noisy" in err


def test_fig1_grid_shape():
    with GOLDEN.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 99
    fb = [r for r in rows if r["e_fb_norm"] != ""]
    assert len(fb) == 50
    xs = [float(r["rate_over_capacity"]) for r in rows]
    assert xs == sorted(xs)
    assert xs[-1] == 1.0
    assert float(rows[-1]["e_sp_norm"]) == 0.0


# -----------------------------------------------------------------------------
# point reports
# -----------------------------------------------------------------------------

def parse_report(out):
    pairs = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition(" = ")
        pairs[key] = value
    return pairs


def test_optimize_report(capsys):
    code, out, _ = run_main(
        ["optimize", "--snr-db", "20", "--dsnr-db", "30", "--rate", "0"],
        capsys,
    )
    assert code == 0
    rep = parse_report(out)
    assert float(rep["e_fb_over_snr"]) == pytest.approx(3.6416194901350507)
    assert rep["k_star"] == "6"
    assert rep["binding"] == "balanced"
    assert rep["region_valid"] == "True"


def test_bound_report(capsys):
    code, out, _ = run_main(
        ["bound", "--snr-db", "20", "--dsnr-db", "30", "--rate", "0",
         "--rounds", "5"],
        capsys,
    )
    assert code == 0
    rep = parse_report(out)
    assert float(rep["bound_nats"]) == pytest.approx(279.90980624916727)
    assert float(rep["l_star"]) == pytest.approx(22392.784499933383)
    assert float(rep["kstar_zero_rate"]) == pytest.approx(4.84739431676931)


def test_bound_beyond_float_range(capsys):
    """1200 rounds boost the SNR past the float range; the report stands."""
    code, out, _ = run_main(
        ["bound", "--snr-db", "40", "--dsnr-db", "20", "--rate", "0.01",
         "--rounds", "1200"],
        capsys,
    )
    assert code == 0
    assert parse_report(out)["region_valid"] == "True"


def test_bound_rejects_single_round(capsys):
    code, _, err = run_main(
        ["bound", "--snr-db", "20", "--dsnr-db", "30", "--rate", "0",
         "--rounds", "1"],
        capsys,
    )
    assert code == 3


def test_bound_past_the_closed_form_is_a_domain_error(capsys):
    """eta(R K) underflows to 0 at R K = 1280 bits: no closed form there."""
    code, out, err = run_main(
        ["bound", "--snr-db", "3000", "--dsnr-db", "10", "--rate", "20",
         "--rounds", "64"],
        capsys,
    )
    assert (code, out) == (3, "")
    assert err.startswith("error: rate 20.0 ")


# -----------------------------------------------------------------------------
# simulate
# -----------------------------------------------------------------------------

SIM_CONFIG = """\
snr_db = 20
dsnr_db = 30
rounds = 3
looseness = 4
rate_bits = 0.5
seed = 7
"""


def test_simulate_end_to_end(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(SIM_CONFIG)
    out = tmp_path / "sim.csv"
    code, _, _ = run_main(
        ["simulate", "--config", str(cfg), "--trials", "400",
         "--out", str(out)],
        capsys,
    )
    assert code == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    metrics = {r["metric"] for r in rows}
    assert {"trials", "p_mod", "p_dec", "p_e", "ff_power", "fb_power",
            "sigma_k2_hat", "union_agreement", "union_bound_ok"} <= metrics
    by_metric = {r["metric"]: r for r in rows}
    assert by_metric["trials"]["value"] == "400"
    assert by_metric["union_agreement"]["value"] == "800"
    assert by_metric["union_bound_ok"]["value"] == "1"
    # per-round aliasing rows carry scheme and round labels
    mod_rows = [r for r in rows if r["metric"] == "p_mod"]
    assert len(mod_rows) == 4
    assert {(r["scheme"], r["round"]) for r in mod_rows} == {
        ("1", "1"), ("1", "2"), ("2", "1"), ("2", "2")
    }


def test_simulate_seed_override(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(SIM_CONFIG)
    code, base, _ = run_main(
        ["simulate", "--config", str(cfg), "--trials", "300"], capsys
    )
    assert code == 0
    code, same, _ = run_main(
        ["simulate", "--config", str(cfg), "--trials", "300"], capsys
    )
    assert same == base
    code, moved, _ = run_main(
        ["simulate", "--config", str(cfg), "--trials", "300", "--seed", "8"],
        capsys,
    )
    assert moved != base


def test_simulate_d4_config(tmp_path, capsys):
    cfg = tmp_path / "d4.cfg"
    cfg.write_text(
        "snr_db = 20\ndsnr_db = 30\nrounds = 2\nlooseness = 12\n"
        "lattice = d4\nrate_bits = 0.25\nseed = 5\n"
    )
    code, out, _ = run_main(
        ["simulate", "--config", str(cfg), "--trials", "200"], capsys
    )
    assert code == 0
    rows = {r["metric"]: r for r in csv.DictReader(io.StringIO(out))}
    assert rows["union_agreement"]["value"] == "400"


def test_simulate_noiseless_reports_all_zero(tmp_path, capsys):
    cfg = tmp_path / "clean.cfg"
    cfg.write_text(
        "snr_db = inf\ndsnr_db = 30\nrounds = 3\nlooseness = 0\n"
        "rate_bits = 1\nseed = 3\n"
    )
    code, out, _ = run_main(
        ["simulate", "--config", str(cfg), "--trials", "250"], capsys
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    for r in rows:
        if r["metric"] in ("p_mod", "p_mod_total", "p_dec", "p_e"):
            assert float(r["value"]) == 0.0


def test_simulate_zero_snr_is_a_domain_error(tmp_path, capsys):
    cfg = tmp_path / "dead.cfg"
    cfg.write_text(
        "snr_db = -inf\ndsnr_db = 30\nrounds = 3\nlooseness = 4\n"
        "rate_bits = 1\n"
    )
    code, out, err = run_main(
        ["simulate", "--config", str(cfg), "--trials", "10"], capsys
    )
    assert (code, out) == (3, "")
    assert "snr must be positive" in err


@pytest.mark.parametrize("argv", [
    ["exponents", "--snr-db", "4000", "--grid", "3"],
    ["optimize", "--snr-db", "4000", "--rate", "1"],
    ["bound", "--snr-db", "4000", "--dsnr-db", "10", "--rate", "1",
     "--rounds", "4"],
], ids=lambda argv: argv[0])
def test_decibels_past_the_float_range_are_a_domain_error(argv, capsys):
    code, out, err = run_main(argv, capsys)
    assert (code, out) == (3, "")
    assert err.startswith("error: 4000.0 dB")


def test_simulate_decibels_past_the_float_range_are_a_domain_error(
        tmp_path, capsys):
    cfg = tmp_path / "loud.cfg"
    cfg.write_text(
        "snr_db = 4000\ndsnr_db = 30\nrounds = 3\nlooseness = 4\n"
        "rate_bits = 1\n"
    )
    code, out, err = run_main(
        ["simulate", "--config", str(cfg), "--trials", "10"], capsys
    )
    assert (code, out) == (3, "")
    assert err.startswith("error: 4000.0 dB")


@pytest.mark.parametrize("argv", [
    ["exponents", "--grid", "3"],
    ["optimize", "--rate", "0"],
    ["bound", "--rate", "0", "--rounds", "3"],
    ["simulate", "--trials", "10"],
], ids=lambda argv: argv[0])
def test_snr_product_past_the_float_range_is_a_domain_error(argv, tmp_path, capsys):
    """-3000 dB forward and -400 dB advantage: snr * dsnr underflows to 0."""
    if argv[0] == "simulate":
        cfg = tmp_path / "faint.cfg"
        cfg.write_text("snr_db = -3000\ndsnr_db = -400\nrounds = 3\n"
                       "looseness = 4\nrate_bits = 0\n")
        argv = [*argv, "--config", str(cfg)]
    else:
        argv = [*argv, "--snr-db", "-3000", "--dsnr-db", "-400"]
    code, out, err = run_main(argv, capsys)
    assert (code, out) == (3, "")
    assert err.startswith("error: snr ") and "leaves the float range" in err


def test_simulate_underflowing_schedule_is_a_domain_error(tmp_path, capsys):
    """Exact feedback at 120 dB drives sigma_k^2 to 0 well before round 40."""
    cfg = tmp_path / "deep.cfg"
    cfg.write_text(
        "snr_db = 120\ndsnr_db = inf\nrounds = 40\nlooseness = 0\n"
        "rate_bits = 0\n"
    )
    code, out, err = run_main(
        ["simulate", "--config", str(cfg), "--trials", "10"], capsys
    )
    assert (code, out) == (3, "")
    assert err.startswith("error: round ") and "has no finite gain" in err


def test_simulate_overflowing_gain_is_a_domain_error(tmp_path, capsys):
    """At 100 dB the variance before round 32 is subnormal and its gain
    overflows; no trial runs on an inf gain and a nan correction."""
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(
        "snr_db = 100\ndsnr_db = inf\nrounds = 32\nlooseness = 0\n"
        "rate_bits = 0.05\nseed = 1\n"
    )
    code, out, err = run_main(
        ["simulate", "--config", str(cfg), "--trials", "100"], capsys
    )
    assert (code, out) == (3, "")
    assert err.startswith("error: round 32 has no finite gain")


def test_simulate_dimension_conflict(tmp_path, capsys):
    cfg = tmp_path / "d4.cfg"
    cfg.write_text(
        "snr_db = 20\ndsnr_db = 30\nrounds = 2\nlooseness = 12\n"
        "lattice = d4\ndimension = 5\nrate_bits = 0.25\n"
    )
    code, _, err = run_main(
        ["simulate", "--config", str(cfg), "--trials", "10"], capsys
    )
    assert code == 3
    assert "dimension" in err
