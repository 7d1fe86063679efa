"""Boundary sweeps, point evaluations, witness queries and MC validation.

Output is CSV (RFC-4180 style, LF endings) or JSON; all floats are printed
with nine significant digits in scientific notation so that repeated runs
with the same configuration are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Optional, Sequence

import numpy as np

from . import boundary, channel, montecarlo, witness
from .errors import InfeasibleError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ALL_INFEASIBLE = 3

MAX_SAMPLES = 1e9  # Monte Carlo budget of one mc-validate run
MAX_POINTS = 100_000  # largest sweep grid or ng-curve table, checked before allocation

_CRITERION_ALIASES = {
    "security": boundary.SECURITY,
    "nc": boundary.NONCLASSICAL,
    "nonclassical": boundary.NONCLASSICAL,
    "ng": boundary.NONGAUSSIAN,
    "nongaussian": boundary.NONGAUSSIAN,
}

SWEEP_HEADER = "model,criterion,T,mu_max,feasible"


def _fmt(x: float) -> str:
    return f"{x:.8e}"


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        raise _CliError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="dvqkd", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_args(p: argparse.ArgumentParser, with_mu: bool = True) -> None:
        models = sorted(entry.name for entry in channel.MODELS.values())
        p.add_argument("--model", required=True, choices=models)
        p.add_argument("--p", type=float, default=1.0, help="single-photon emission probability")
        p.add_argument("--nu", type=float, default=0.0, help="mean photon pairs per pump pulse")
        if with_mu:
            p.add_argument("--mu", type=float, default=0.0, help="noise mean photons per pulse")
        p.add_argument("--e", type=float, default=0.0, help="depolarization probability")
        p.add_argument("--d", type=float, default=0.0, help="dark-count probability per gate")
        p.add_argument("--noise", choices=["thermal", "poisson"], default="thermal")

    sw = sub.add_parser("sweep", help="mu_max(T) boundary curves over a transmittance grid")
    add_model_args(sw, with_mu=False)
    sw.add_argument("--criteria", default="security", help="comma list: security,nc,ng")
    sw.add_argument("--t-grid", required=True, help="min:max:count:log|lin")
    sw.add_argument("--out", default=None, help="output path (default stdout)")
    sw.add_argument("--format", choices=["csv", "json"], default="csv")

    pt = sub.add_parser("point", help="all statistics at one parameter point")
    add_model_args(pt)
    pt.add_argument("--t", type=float, required=True)
    pt.add_argument("--out", default=None)
    pt.add_argument("--format", choices=["csv", "json"], default="csv")

    wt = sub.add_parser("witness", help="witness boundaries at a given P_S")
    wt.add_argument("--ps", type=float, required=True)
    wt.add_argument("--pc", type=float, default=None, help="optional coincidence to classify")
    wt.add_argument("--out", default=None)
    wt.add_argument("--format", choices=["csv", "json"], default="csv")

    tm = sub.add_parser("tmin", help="minimal secure transmittance, numeric and analytic")
    add_model_args(tm)
    tm.add_argument("--out", default=None)
    tm.add_argument("--format", choices=["csv", "json"], default="csv")

    mc = sub.add_parser("mc-validate", help="analytic statistics against the Monte Carlo oracle")
    add_model_args(mc)
    mc.add_argument("--t", type=float, default=0.5)
    mc.add_argument("--samples", type=float, default=1e6)
    mc.add_argument("--seed", type=int, default=0)
    mc.add_argument("--out", default=None)
    mc.add_argument("--format", choices=["csv", "json"], default="csv")
    mc.set_defaults(mu=0.1, nu=0.05)

    ng = sub.add_parser("ng-curve", help="dump the non-Gaussianity boundary table")
    ng.add_argument("--points", type=int, default=512)
    ng.add_argument("--out", default=None)
    ng.add_argument("--format", choices=["csv", "json"], default="csv")

    return parser


def _parse_t_grid(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 4:
        raise _CliError(f"t-grid must be min:max:count:log|lin, got {spec!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise _CliError(f"bad t-grid numbers in {spec!r}: {exc}") from exc
    scale = parts[3]
    if scale not in ("log", "lin"):
        raise _CliError(f"t-grid scale must be log or lin, got {scale!r}")
    if not 2 <= count <= MAX_POINTS:
        raise _CliError(f"t-grid count must be in [2, {MAX_POINTS}], got {count}")
    if not 0.0 < lo < hi <= 1.0:
        raise _CliError("t-grid must satisfy 0 < min < max <= 1")
    if scale == "log":
        return [float(t) for t in np.geomspace(lo, hi, count)]
    return [float(t) for t in np.linspace(lo, hi, count)]


def _make_params(args: argparse.Namespace, t: float, mu: float):
    params_type = next(m.params_type for m in channel.MODELS.values() if m.name == args.model)
    values = {
        "p": args.p, "nu": args.nu, "T": t, "mu": mu, "e": args.e, "d": args.d,
        "noise_kind": args.noise,
    }
    return params_type(**{f.name: values[f.name] for f in dataclasses.fields(params_type)})


def _resolved_config(args: argparse.Namespace) -> dict:
    cfg = {k: v for k, v in sorted(vars(args).items()) if k not in ("out", "format")}
    return cfg


def _emit(rows: list[dict], header: list[str], args: argparse.Namespace) -> None:
    if args.format == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_cell(row[h]) for h in header))
        text = "\n".join(lines) + "\n"
    else:
        payload = {"meta": _resolved_config(args), "rows": rows}
        text = json.dumps(payload, indent=2, default=_cell) + "\n"
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def _criterion_order(criterion: str) -> int:
    return boundary.CRITERIA.index(criterion)


def _cmd_sweep(args: argparse.Namespace) -> int:
    criteria = []
    for name in args.criteria.split(","):
        key = name.strip().lower()
        if key not in _CRITERION_ALIASES:
            raise _CliError(f"unknown criterion {name!r}")
        criteria.append(_CRITERION_ALIASES[key])
    t_grid = _parse_t_grid(args.t_grid)
    params = _make_params(args, t=t_grid[0], mu=0.0)
    rows = []
    any_feasible = False
    for criterion in sorted(set(criteria), key=_criterion_order):
        curve = boundary.sweep(params, criterion, t_grid)
        for pt in curve.points:
            any_feasible = any_feasible or pt.feasible
            rows.append(
                {
                    "model": curve.model,
                    "criterion": criterion,
                    "T": pt.T,
                    "mu_max": pt.mu_max,
                    "feasible": pt.feasible,
                }
            )
    _emit(rows, SWEEP_HEADER.split(","), args)
    return EXIT_OK if any_feasible else EXIT_ALL_INFEASIBLE


def _cmd_point(args: argparse.Namespace) -> int:
    params = _make_params(args, t=args.t, mu=args.mu)
    model = channel.model(params).module
    rate = model.key_rate(params)
    clicks = model.click_stats(params)
    omega1, omega2plus = model.omega(params)
    row = {
        "model": args.model,
        "T": args.t,
        "mu": args.mu,
        "qber": rate.qber,
        "y": rate.single_photon_fraction,
        "p_exp": rate.p_exp,
        "delta_i": rate.delta_i,
        "p_single": clicks.p_single,
        "p_coincidence": clicks.p_coincidence,
        "omega1": omega1,
        "omega2plus": omega2plus,
        "nonclassical": witness.is_nonclassical(clicks),
        "nongaussian": witness.is_nongaussian(clicks),
    }
    _emit([row], list(row.keys()), args)
    return EXIT_OK


def _cmd_witness(args: argparse.Namespace) -> int:
    row = {
        "p_single": args.ps,
        "nc_boundary": witness.nc_boundary(args.ps),
        "ng_boundary": witness.ng_boundary(args.ps),
    }
    if args.pc is not None:
        stats = witness.ClickStats(
            p_single=args.ps, p_coincidence=args.pc, p_none=1.0 - args.ps - args.pc
        )
        row["nonclassical"] = witness.is_nonclassical(stats)
        row["nongaussian"] = witness.is_nongaussian(stats)
    _emit([row], list(row.keys()), args)
    return EXIT_OK


def _cmd_tmin(args: argparse.Namespace) -> int:
    params = _make_params(args, t=0.5, mu=args.mu)
    numeric = boundary.t_min_numeric(params)
    row = {
        "model": args.model,
        "t_min_numeric": float("nan") if numeric is None else numeric,
        "feasible": numeric is not None,
    }
    if args.model in ("thermal-bath", "noise-before"):
        row["t_min_analytic"] = boundary.t_min_ideal_source(args.p, args.e, args.d)
    else:
        row["t_min_rare_pairs"] = boundary.t_min_spdc_rare_pairs(args.e, args.d)
        row["t_min_bright_pairs"] = boundary.t_min_spdc_bright_pairs(args.e, args.nu)
        row["t_min_nongaussian"] = boundary.t_min_ng_spdc(args.nu)
    _emit([row], list(row.keys()), args)
    return EXIT_OK


def _cmd_mc_validate(args: argparse.Namespace) -> int:
    if not (1.0 <= args.samples <= MAX_SAMPLES and args.samples.is_integer()):
        raise _CliError(f"samples must be an integer in [1, {MAX_SAMPLES:g}], got {args.samples:g}")
    params = _make_params(args, t=args.t, mu=args.mu)
    config = montecarlo.McConfig(samples=int(args.samples), seed=args.seed)
    analytic = _analytic_reference(params)
    rows = []
    for target in (montecarlo.KEY, montecarlo.AUTOCORR):
        estimates = montecarlo.simulate(params, config, target)
        for name, est in estimates.items():
            if name not in analytic:
                continue
            sigma = abs(analytic[name] - est.value) / est.std_err if est.std_err > 0 else 0.0
            rows.append(
                {
                    "target": target,
                    "statistic": name,
                    "analytic": analytic[name],
                    "mc": est.value,
                    "std_err": est.std_err,
                    "sigma_distance": sigma,
                }
            )
    _emit(rows, ["target", "statistic", "analytic", "mc", "std_err", "sigma_distance"], args)
    return EXIT_OK


def _analytic_reference(params) -> dict:
    model = channel.model(params).module
    clicks = model.click_stats(params)
    omega1, omega2plus = model.omega(params)
    return {
        **model.key_statistics(params),
        "p_single": clicks.p_single,
        "p_coincidence": clicks.p_coincidence,
        "p_none": clicks.p_none,
        "omega1": omega1,
        "omega2plus": omega2plus,
    }


def _cmd_ng_curve(args: argparse.Namespace) -> int:
    if args.points > MAX_POINTS:
        raise _CliError(f"points must be at most {MAX_POINTS}, got {args.points}")
    rows = [
        {"V": pt.v, "n": pt.n_of_v, "p_single": pt.p_single, "p_coincidence": pt.p_coincidence}
        for pt in witness.ng_boundary_curve(args.points)
    ]
    _emit(rows, ["V", "n", "p_single", "p_coincidence"], args)
    return EXIT_OK


_COMMANDS = {
    "sweep": _cmd_sweep,
    "point": _cmd_point,
    "witness": _cmd_witness,
    "tmin": _cmd_tmin,
    "mc-validate": _cmd_mc_validate,
    "ng-curve": _cmd_ng_curve,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (_CliError, ValueError, InfeasibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
