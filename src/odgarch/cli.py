"""Command-line front end: simulate, fit, mc, verify, plot.

Exit codes: 0 success, 1 runtime error, 2 usage error, 3 verification
failure. All randomness flows from explicit seeds.
"""

import argparse
import functools
import os
import sys

from . import io as odio
from .estimation import FitOptions, mle_fit
from .models import BURN_IN, simulate
from .montecarlo import run_experiment
from .params import MODELS, model_class
from .svgplot import boxplot_panel
from .verifier import N_TRIPLES, verify_model


def _params_from_args(args):
    """The parameters of --model from its flags; a flag of another model is refused."""
    model = model_class(args.model)
    stray = [f for f, _, _ in _PARAM_FLAGS
             if f not in model.cli_help and getattr(args, f) is not None]
    if stray:
        raise UsageError(f"--model {args.model} takes no " + " ".join(f"--{f}" for f in stray))
    missing = [f for f in model.cli_help if getattr(args, f) is None]
    if missing:
        raise UsageError(f"--model {args.model} requires " + " ".join(f"--{f}" for f in missing))
    return model.from_flags([getattr(args, f) for f in model.cli_help])


class UsageError(Exception):
    pass


def _parse_x1(model, text):
    """The --x1 literal as a state of model; a literal that is not one raises naming x1."""
    try:
        return model.parse_state(text)
    except ValueError:
        raise ValueError(f"x1 must be one positive finite {model.tag} state, "
                         f"got {text!r}") from None


def _param_flags():
    """(flag, metavar, help) of each parameter flag; a flag's models with equal help
    share its text."""
    flags = []
    for flag in dict.fromkeys(f for model in MODELS.values() for f in model.cli_help):
        metavars, texts = {}, {}
        for model in MODELS.values():
            if flag in model.cli_help:
                metavar, text = model.cli_help[flag]
                metavars[metavar] = None
                texts.setdefault(text, []).append(model.tag)
        flags.append((flag, "|".join(metavars),
                      "; ".join(f"{', '.join(tags)}: {text}" for text, tags in texts.items())))
    return flags


_PARAM_FLAGS = _param_flags()  # once: the parser is built for every command


def _add_param_flags(p):
    p.add_argument("--model", required=True, choices=list(MODELS))
    for flag, metavar, text in _PARAM_FLAGS:
        p.add_argument(f"--{flag}", metavar=metavar, help=text)


def _add_opt_flags(p):
    defaults = FitOptions()
    p.add_argument("--tol", type=float, default=defaults.tol)
    p.add_argument("--max-outer", type=int, default=defaults.max_outer)
    p.add_argument("--max-inner", type=int, default=defaults.max_inner)
    p.add_argument("--margin", type=float, default=defaults.margin)


def _opts_from_args(args):
    return FitOptions(tol=args.tol, max_outer=args.max_outer,
                      max_inner=args.max_inner, margin=args.margin)


def cmd_simulate(args):
    params = _params_from_args(args)
    x0 = None if args.x1 is None else _parse_x1(params, args.x1)
    if not params.stable():
        print("warning: parameters are outside the stability region", file=sys.stderr)
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        series = simulate(params, args.n, x0=x0, seed=args.seed, burn_in=args.burn_in)
    odio.write_series(args.out, series)
    return 0


def cmd_fit(args):
    options = _opts_from_args(args)
    series = odio.read_series(args.series, model_tag=args.model)
    x1 = None if args.x1 is None else _parse_x1(series.model, args.x1)
    fit = mle_fit(series, x1=x1, options=options)
    if args.out:
        odio.write_json(args.out, fit.to_dict())
    names = fit.theta_hat.param_names
    vals = fit.theta_hat.as_array()
    print("theta_hat: " + "  ".join(f"{n}={v:.6g}" for n, v in zip(names, vals)))
    print(f"loglik: {fit.loglik_hat:.10g}  converged: {fit.converged}")
    return 0


def cmd_mc(args):
    config = odio.read_config(args.config)
    summary = run_experiment(config, jobs=args.jobs)
    os.makedirs(args.out_dir, exist_ok=True)
    odio.write_mc_outputs(os.path.join(args.out_dir, "summary.csv"),
                          os.path.join(args.out_dir, "replicates.csv"), summary)
    _print_table(summary)
    return 0


def _print_table(summary):
    ns = summary.sample_sizes
    print(f"model {summary.theta_star.tag}: mean of estimates, MADEs (within parentheses)")
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
    true_values = [None] * len(rep["param_names"])
    if args.config:
        star = odio.read_config(args.config).theta_star
        if star.tag != rep["model"]:
            raise ValueError(f"{args.config} is a {star.tag} config, but "
                             f"{args.replicates} holds {rep['model']} replicates")
        if list(star.param_names) != rep["param_names"]:
            raise ValueError(f"{args.config} has parameters {', '.join(star.param_names)}, "
                             f"but {args.replicates} has {', '.join(rep['param_names'])}")
        true_values = star.as_array().tolist()
    os.makedirs(args.out_dir, exist_ok=True)
    ns = sorted(set(rep["n"].tolist()))
    groups = [(f"n={n}", rep["gap"][rep["n"] == n]) for n in ns]
    odio.atomic_write_text(os.path.join(args.out_dir, "loglik_gap.svg"),
                           boxplot_panel(groups, title="loglik(MLE) - loglik(truth)",
                                         ref_line=0.0))
    for i, name in enumerate(rep["param_names"]):
        groups = [(f"n={n}", rep["estimates"][rep["n"] == n, i]) for n in ns]
        svg = boxplot_panel(groups, title=name, true_value=true_values[i], mean_markers=True)
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
    p.add_argument("--x1", default=None, help="start state: scalar, or comma list for nm")
    p.add_argument("--burn-in", type=int, default=BURN_IN)
    p.add_argument("--out", required=True)

    p = sub.add_parser("fit", help="fit the MLE on a series CSV")
    p.add_argument("--series", required=True)
    p.add_argument("--model", choices=list(MODELS))
    p.add_argument("--x1", default=None)
    p.add_argument("--out", default=None)
    _add_opt_flags(p)

    p = sub.add_parser("mc", help="run a Monte Carlo experiment from a config JSON")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("verify", help="numerical checks of the stability hypotheses")
    _add_param_flags(p)
    p.add_argument("--triples", type=int, default=N_TRIPLES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("plot", help="SVG boxplots from replicates.csv")
    p.add_argument("--replicates", required=True)
    p.add_argument("--config", default=None,
                   help="experiment config JSON, used for true-value lines")
    p.add_argument("--out-dir", required=True)
    return ap


@functools.cache
def _parser():
    """The parser, built on the first call of the process and reused after it."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    command = globals()[f"cmd_{args.command}"]  # looked up now, so a rebinding is seen
    try:
        return command(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
