"""End-to-end tests of the command-line interface."""

import csv
import io
import math
from pathlib import Path

import pytest

from awgn_feedback.cli import ConfigError, main, parse_config

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


def test_exponents_reject_noiseless_feedback(capsys):
    """inf dB builds a noiseless link, which the optimizer rejects."""
    code, out, err = run_main(
        ["exponents", "--snr-db", "20", "--dsnr-db", "inf", "--grid", "4"], capsys
    )
    assert (code, out) == (3, "")
    assert "noisy" in err


def test_fig1_grid_shape():
    rows = list(csv.DictReader(GOLDEN.open()))
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
    rows = list(csv.DictReader(out.open()))
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
