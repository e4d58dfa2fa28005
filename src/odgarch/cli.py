"""Command-line front end: simulate, fit, mc, verify, plot.

Exit codes: 0 success, 1 runtime error, 2 usage error, 3 verification
failure. All randomness flows from explicit seeds.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import io as odio
from .estimation import FitOptions, mle_fit
from .models import simulate
from .montecarlo import ExperimentConfig, run_experiment
from .params import NbinParams, NmParams, TingParams
from .svgplot import boxplot_panel
from .verifier import verify_model


def _parse_vector(text):
    return np.array([float(v) for v in text.replace(";", ",").split(",") if v != ""])


def _parse_matrix(text):
    rows = [r for r in text.split(";") if r != ""]
    return np.array([[float(v) for v in r.split(",")] for r in rows])


def _params_from_args(args):
    if args.model == "nbin":
        _require(args, ["omega", "a", "b", "r"])
        return NbinParams(omega=float(args.omega), a=args.a, b=args.b, r=args.r)
    if args.model == "ting":
        _require(args, ["omega", "a", "b", "tau"])
        return TingParams(omega=float(args.omega), a=args.a, b=args.b, tau=args.tau)
    _require(args, ["gamma", "omega", "A", "bvec"])
    return NmParams(gamma=_parse_vector(args.gamma),
                    omega_vec=_parse_vector(args.omega),
                    A=_parse_matrix(args.A), b_vec=_parse_vector(args.bvec))


def _require(args, names):
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        raise UsageError(f"--model {args.model} requires " +
                         " ".join(f"--{m}" for m in missing))


class UsageError(Exception):
    pass


def _add_param_flags(p):
    p.add_argument("--model", required=True, choices=["nbin", "nm", "ting"])
    p.add_argument("--omega", help="scalar, or comma list for nm")
    p.add_argument("--a", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--r", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--gamma", help="comma list on the simplex (nm)")
    p.add_argument("--A", help="matrix literal, rows ; separated (nm)")
    p.add_argument("--bvec", help="comma list (nm)")


def _add_opt_flags(p):
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-outer", type=int, default=20)
    p.add_argument("--max-inner", type=int, default=500)
    p.add_argument("--margin", type=float, default=1e-4)


def _opts_from_args(args):
    return FitOptions(tol=args.tol, max_outer=args.max_outer,
                      max_inner=args.max_inner, margin=args.margin)


def cmd_simulate(args):
    params = _params_from_args(args)
    if not params.stable():
        print("warning: parameters are outside the stability region", file=sys.stderr)
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        series = simulate(params, args.n, x0=args.x1, seed=args.seed,
                          burn_in=args.burn_in)
    odio.write_series(args.out, series)
    return 0


def cmd_fit(args):
    series = odio.read_series(args.series, model_tag=args.model)
    x1 = None
    if args.x1 is not None:
        x1 = _parse_vector(args.x1) if series.model_tag == "nm" else float(args.x1)
    fit = mle_fit(series, x1=x1, options=_opts_from_args(args))
    if args.out:
        odio.write_fit_result(args.out, fit)
    names = fit.theta_hat.param_names
    vals = fit.theta_hat.as_array()
    print("theta_hat: " + "  ".join(f"{n}={v:.6g}" for n, v in zip(names, vals)))
    print(f"loglik: {fit.loglik_hat:.10g}  converged: {fit.converged}")
    return 0


def cmd_mc(args):
    try:
        config = ExperimentConfig.from_json(args.config)
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        raise ValueError(f"bad experiment config: {exc}") from exc
    summary = run_experiment(config, jobs=args.jobs)
    os.makedirs(args.out_dir, exist_ok=True)
    odio.write_mc_outputs(os.path.join(args.out_dir, "summary.csv"),
                          os.path.join(args.out_dir, "replicates.csv"), summary)
    _print_table(summary)
    return 0


def _print_table(summary):
    ns = summary.sample_sizes
    print(f"model {summary.model_tag}: mean of estimates, MADEs (within parentheses)")
    print("parameter  " + "  ".join(f"n={n}" for n in ns))
    for i, name in enumerate(summary.param_names):
        cells = [f"{summary.mc_mean[n][i]:.3f}({summary.made_[n][i]:.3f})" for n in ns]
        print(f"{name:>9}  " + "  ".join(cells))


def cmd_verify(args):
    params = _params_from_args(args)
    report = verify_model(params, n_triples=args.triples, seed=args.seed)
    if args.out:
        odio.write_json(args.out, report.to_dict())
    for c in report.checks:
        status = "skip" if c.skipped else ("pass" if c.passed else "FAIL")
        extra = f" ({c.reason})" if c.skipped else f" violations={c.n_violations}"
        print(f"{c.name}: {status}{extra}")
    return 0 if report.passed else 3


def cmd_plot(args):
    rep = odio.read_replicates(args.replicates)
    os.makedirs(args.out_dir, exist_ok=True)
    ns = sorted(set(rep["n"].tolist()))
    groups = [(f"n={n}", rep["gap"][rep["n"] == n]) for n in ns]
    odio.atomic_write_text(os.path.join(args.out_dir, "loglik_gap.svg"),
                           boxplot_panel(groups, title="loglik(MLE) - loglik(truth)",
                                         ref_line=0.0))
    theta_star = None
    if args.config:
        theta_star = ExperimentConfig.from_json(args.config).theta_star.as_array()
    for i, name in enumerate(rep["param_names"]):
        groups = [(f"n={n}", rep["estimates"][rep["n"] == n, i]) for n in ns]
        tv = float(theta_star[i]) if theta_star is not None else None
        svg = boxplot_panel(groups, title=name, true_value=tv, mean_markers=True)
        odio.atomic_write_text(os.path.join(args.out_dir, f"estimates_{name}.svg"), svg)
    return 0


def build_parser():
    ap = argparse.ArgumentParser(prog="odgarch",
                                 description="observation-driven GARCH-type models: "
                                             "simulation, MLE, Monte Carlo, checks")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a series to CSV + metadata JSON")
    _add_param_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--x1", type=float, default=None)
    p.add_argument("--burn-in", type=int, default=500)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit the MLE on a series CSV")
    p.add_argument("--series", required=True)
    p.add_argument("--model", choices=["nbin", "nm", "ting"])
    p.add_argument("--x1", default=None)
    p.add_argument("--out", default=None)
    _add_opt_flags(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("mc", help="run a Monte Carlo experiment from a config JSON")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("verify", help="numerical checks of the stability hypotheses")
    _add_param_flags(p)
    p.add_argument("--triples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("plot", help="SVG boxplots from replicates.csv")
    p.add_argument("--replicates", required=True)
    p.add_argument("--config", default=None,
                   help="experiment config JSON, used for true-value lines")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_plot)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, FloatingPointError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
