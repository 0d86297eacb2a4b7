"""Command-line front end.

Four subcommands: ``exponents`` sweeps the no-feedback and feedback exponent
curves over a rate grid and writes CSV; ``optimize`` reports the optimizer
result at one rate; ``bound`` evaluates the high-SNR closed form; and
``simulate`` runs a Monte-Carlo campaign from a config file.  Reports go to
stdout as ``key = value`` lines; CSV uses LF line endings and 17 significant
digits so outputs are byte-reproducible.  Exit codes: 0 success, 2 usage
error, 3 domain/config error, 4 I/O error.

Grid rows and trials are mutually independent, so they parallelize; the
implementation runs them in deterministic order, which any parallel variant
must also reproduce when assembling output.
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys
from contextlib import nullcontext

from .exponents import capacity, gallager_exp, sphere_packing_exp
from .feedback import (
    ChannelParams,
    balance_looseness,
    e_fb,
    high_snr_bound,
    kstar_zero_rate,
    region_assumptions_hold,
)
from .lattices import make_lattice
from .sim import SchemeConfig, estimate_error_prob

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_IO = 4

# the classic 50-point comparison grid: the feedback curve is sampled on
# multiples of this R/C ceiling divided by 49, the closed-form curves on
# multiples of 1/49
_FB_GRID_TOP = 0.899805086281822
_GRID_STEPS = 49

# default sweep computes the feedback column up to this R/C
_FB_DEFAULT_TOP = 0.9

_CURVE_FIELDS = [
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


class ConfigError(ValueError):
    """Malformed simulation config file."""


def _g17(x: float) -> str:
    return "%.17g" % x


def _db_to_linear(db: float) -> float:
    # inf dB is inf; a finite value past the float range is a domain error
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise ValueError(f"{db} dB is beyond the float range") from None


def _params_from_db(snr_db: float, dsnr_db: float) -> ChannelParams:
    # inf dB is a noiseless link
    return ChannelParams.from_snrs(_db_to_linear(snr_db), _db_to_linear(dsnr_db))


# =============================================================================
# EXPONENTS SWEEP
# =============================================================================

def _sweep_rows(snr_db: float, dsnr_db: float, grid: int, fig1: bool):
    snr = _db_to_linear(snr_db)
    params = _params_from_db(snr_db, dsnr_db)
    cap = capacity(snr)

    if fig1:
        points = [(k * _FB_GRID_TOP / _GRID_STEPS, True)
                  for k in range(_GRID_STEPS + 1)]
        points += [(k / _GRID_STEPS, False) for k in range(1, _GRID_STEPS + 1)]
        points.sort(key=lambda p: p[0])
    else:
        if grid < 2:
            raise ValueError(f"grid must have at least 2 points, got {grid}")
        points = [(i / grid, i / grid <= _FB_DEFAULT_TOP + 1e-12)
                  for i in range(grid)]

    rows = []
    # K* rises slowly with the rate: the previous rate's optimum runs first
    k_first = None
    for x, want_fb in points:
        rate = x * cap
        sp = sphere_packing_exp(snr, rate)
        gal, region = gallager_exp(snr, rate)
        row = {
            "rate_bits": _g17(rate),
            "rate_over_capacity": _g17(x),
            "e_sp_norm": _g17(sp / snr),
            "e_r_norm": _g17(gal / snr),
            "e_fb_norm": "",
            "k_star": "",
            "l_star": "",
            "r_region": region.value,
            "fb_binding": "",
        }
        if want_fb and rate < cap:
            res = e_fb(params, rate, k_first=k_first)
            k_first = res.k_star
            row["e_fb_norm"] = _g17(res.e_fb / snr)
            row["k_star"] = str(res.k_star)
            row["l_star"] = _g17(res.l_star)
            row["fb_binding"] = res.binding.value
        rows.append(row)
    return rows


def _write_csv(path: str, fieldnames, rows) -> None:
    out = nullcontext(sys.stdout) if path == "-" else open(path, "w", newline="")
    with out as fh:
        w = csv.DictWriter(fh, fieldnames=fieldnames, lineterminator="\n")
        w.writeheader()
        w.writerows(rows)


def cmd_exponents(args) -> int:
    rows = _sweep_rows(args.snr_db, args.dsnr_db, args.grid, args.fig1)
    _write_csv(args.out, _CURVE_FIELDS, rows)
    return EXIT_OK


# =============================================================================
# POINT REPORTS
# =============================================================================

def _report(pairs) -> None:
    for key, value in pairs:
        if isinstance(value, float):
            value = _g17(value)
        print(f"{key} = {value}")


def cmd_optimize(args) -> int:
    snr = _db_to_linear(args.snr_db)
    params = _params_from_db(args.snr_db, args.dsnr_db)
    res = e_fb(params, args.rate)
    _report([
        ("snr_db", args.snr_db),
        ("dsnr_db", args.dsnr_db),
        ("rate_bits", args.rate),
        ("capacity_bits", capacity(snr)),
        ("e_fb_nats", res.e_fb),
        ("e_fb_over_snr", res.e_fb / snr),
        ("k_star", res.k_star),
        ("l_star", res.l_star),
        ("binding", res.binding.value),
        ("region_valid", res.region_valid),
        ("k_at_boundary", res.k_at_boundary),
    ])
    return EXIT_OK


def cmd_bound(args) -> int:
    snr = _db_to_linear(args.snr_db)
    params = _params_from_db(args.snr_db, args.dsnr_db)
    bound = high_snr_bound(params, args.rate, args.rounds)
    l_star = balance_looseness(params, args.rate, args.rounds)
    _report([
        ("snr_db", args.snr_db),
        ("dsnr_db", args.dsnr_db),
        ("rate_bits", args.rate),
        ("rounds", args.rounds),
        ("bound_nats", bound),
        ("bound_over_snr", bound / snr),
        ("l_star", l_star),
        ("region_valid",
         region_assumptions_hold(params, args.rate, args.rounds, l_star)),
        ("kstar_zero_rate",  # needs dsnr >= 2, which the bound does not
         kstar_zero_rate(params.dsnr) if params.dsnr >= 2.0 else float("nan")),
    ])
    return EXIT_OK


# =============================================================================
# SIMULATION
# =============================================================================

_REQUIRED = object()

# key -> (conversion, default); a key whose default is _REQUIRED must be set
_CONFIG_SCHEMA = {
    "snr_db": (float, _REQUIRED),
    "dsnr_db": (float, _REQUIRED),
    "rounds": (int, _REQUIRED),
    "looseness": (float, _REQUIRED),
    "rate_bits": (float, _REQUIRED),
    "dimension": (int, None),
    "seed": (int, 0),
    "lattice": (str, "z"),
    "codebook": (str, "auto"),
}


def parse_config(text: str) -> dict:
    """Parse the line-oriented ``key = value`` simulation config format."""
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value', "
                              f"got {raw.strip()!r}")
        key, _, val = line.partition("=")
        key = key.strip().lower()
        val = val.strip()
        if key not in _CONFIG_SCHEMA:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r} "
                              f"(first set on line {lines[key]})")
        if not val:
            raise ConfigError(f"config line {lineno}: empty value for {key!r}")
        values[key] = val
        lines[key] = lineno

    missing = sorted(key for key, (_, default) in _CONFIG_SCHEMA.items()
                     if default is _REQUIRED and key not in values)
    if missing:
        raise ConfigError(f"config is missing required keys: {', '.join(missing)}")
    cfg = {}
    for key, (conv, default) in _CONFIG_SCHEMA.items():
        try:
            cfg[key] = conv(values[key]) if key in values else default
        except ValueError as exc:
            raise ConfigError(
                f"config line {lines[key]}: bad value for {key!r}: {exc}"
            ) from None
    return cfg


def config_to_scheme(cfg: dict, seed_override: int | None = None) -> SchemeConfig:
    seed = cfg["seed"] if seed_override is None else seed_override
    return SchemeConfig(
        params=_params_from_db(cfg["snr_db"], cfg["dsnr_db"]),
        rounds=cfg["rounds"],
        looseness=cfg["looseness"],
        lattice=make_lattice(cfg["lattice"], cfg["dimension"]),
        rate_bits=cfg["rate_bits"],
        master_seed=seed,
        codebook=cfg["codebook"],
    )


_SIM_FIELDS = ["metric", "scheme", "round", "value", "ci_low", "ci_high"]


def _sim_rows(summary) -> list[dict]:
    def row(metric, value, scheme="", rnd="", lo="", hi=""):
        return {
            "metric": metric,
            "scheme": scheme,
            "round": rnd,
            "value": value,
            "ci_low": lo,
            "ci_high": hi,
        }

    rows = [
        row("trials", str(summary.trials)),
        row("rounds", str(summary.rounds)),
        row("realized_rate_bits", _g17(summary.realized_rate_bits)),
    ]
    # each rate property builds its tuple anew: read each once
    for i, (p_mod, p_mod_ci) in enumerate(zip(summary.p_mod, summary.p_mod_ci)):
        for k, (value, (lo, hi)) in enumerate(zip(p_mod, p_mod_ci)):
            rows.append(row("p_mod", _g17(value), scheme=str(i + 1),
                            rnd=str(k + 1), lo=_g17(lo), hi=_g17(hi)))
    rows.append(row("p_mod_total", _g17(summary.p_mod_total)))
    for name, value, (lo, hi) in (("p_dec", summary.p_dec, summary.p_dec_ci),
                                  ("p_e", summary.p_e, summary.p_e_ci)):
        rows.append(row(name, _g17(value), lo=_g17(lo), hi=_g17(hi)))
    rows.append(row("ff_power", _g17(summary.ff_power)))
    rows.append(row("fb_power", _g17(summary.fb_power)))
    rows.append(row("sigma_k2_hat", _g17(summary.sigma_k2_hat)))
    rows.append(row("no_alias_dims", str(summary.no_alias_dims)))
    rows.append(row("union_agreement", str(summary.union_agreement)))
    rows.append(row("coupled_agreement", str(summary.coupled_agreement)))
    rows.append(row("union_bound_ok", str(int(summary.union_bound_ok))))
    return rows


def cmd_simulate(args) -> int:
    with open(args.config, "r") as fh:
        cfg = parse_config(fh.read())
    scheme = config_to_scheme(cfg, args.seed)
    summary = estimate_error_prob(scheme, args.trials)
    _write_csv(args.out, _SIM_FIELDS, _sim_rows(summary))
    return EXIT_OK


# =============================================================================
# ENTRY POINT
# =============================================================================

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="awgn-feedback",
        description="Error exponents and Monte-Carlo simulation of AWGN "
                    "communication with noisy feedback",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exponents", help="sweep exponent curves to CSV")
    p.add_argument("--snr-db", type=float, default=20.0)
    p.add_argument("--dsnr-db", type=float, default=30.0)
    p.add_argument("--grid", type=int, default=50,
                   help="number of uniform R/C points in [0, 1)")
    p.add_argument("--fig1", action="store_true",
                   help="use the classic 50-point comparison grids instead of "
                        "a uniform grid")
    p.add_argument("--out", default="-", help="output CSV path ('-' = stdout)")
    p.set_defaults(func=cmd_exponents)

    p = sub.add_parser("optimize", help="optimize the feedback exponent at one rate")
    p.add_argument("--snr-db", type=float, default=20.0)
    p.add_argument("--dsnr-db", type=float, default=30.0)
    p.add_argument("--rate", type=float, required=True, help="rate in bits per use")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("bound", help="evaluate the high-SNR closed-form bound")
    p.add_argument("--snr-db", type=float, default=20.0)
    p.add_argument("--dsnr-db", type=float, default=30.0)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--rounds", type=int, required=True,
                   help="round count K (must be > 1)")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("simulate", help="run a Monte-Carlo campaign from a config")
    p.add_argument("--config", required=True, help="path to a key = value config")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=None,
                   help="override the config's master seed")
    p.add_argument("--out", default="-", help="output CSV path ('-' = stdout)")
    p.set_defaults(func=cmd_simulate)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # main's parser, built once per process; parsing leaves it unchanged
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
