"""Monte Carlo study: replicate scheduling, fitting, MADE aggregation."""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .estimation import FitOptions, mle_fit
from .likelihood import loglik
from .models import BURN_IN, simulate
from .params import _check_int, model_class

MIN_SAMPLE_SIZE = 16  # the least n of a study


def splitmix64(x):
    """One splitmix64 step; used to derive independent replicate seeds."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def replicate_seed(base_seed, n, j):
    return splitmix64(splitmix64(base_seed ^ splitmix64(n)) ^ splitmix64(j + 1))


@dataclass
class ExperimentConfig:
    model_tag: str
    theta_star: object
    sample_sizes: tuple = (128, 256, 512, 1024)
    m: int = 200
    base_seed: int = 0
    x1: object = None  # None: fixed point of the initializer's parameters
    burn_in: int = BURN_IN
    options: FitOptions = field(default_factory=FitOptions)
    drop_nonconverged: bool = False

    def __post_init__(self):
        if self.model_tag != self.theta_star.tag:
            raise ValueError(f"model {self.model_tag} is not theta_star's {self.theta_star.tag}")
        self.sample_sizes = tuple(self.sample_sizes)
        _check_int("m", self.m, 1)
        _check_int("base_seed", self.base_seed, None)
        _check_int("burn_in", self.burn_in, 0)
        for n in self.sample_sizes:
            _check_int("sample_sizes", n, MIN_SAMPLE_SIZE)
        if not isinstance(self.drop_nonconverged, (bool, np.bool_)):
            raise ValueError(f"drop_nonconverged must be a boolean, got {self.drop_nonconverged!r}")
        if not self.theta_star.stable():
            raise ValueError("theta_star must be stable")
        if self.x1 is not None:
            self.theta_star.check_anchor(self.x1)
        if not self.sample_sizes:
            raise ValueError("sample_sizes must not be empty")
        if len(set(self.sample_sizes)) < len(self.sample_sizes):
            raise ValueError(f"sample_sizes must be distinct, got {list(self.sample_sizes)}")

    @classmethod
    def from_dict(cls, d):
        """From the experiment config's JSON object; a key left out takes the field's default."""
        if not isinstance(d, dict):
            raise ValueError(f"bad experiment config: the config must be a JSON object, got {d!r}")
        plain = {f.name for f in fields(cls)} - {"model_tag", "theta_star", "options"}
        unknown = set(d) - plain - {"model", "theta_star", "optimizer"}
        if unknown:
            raise ValueError(f"bad experiment config: unknown keys {sorted(unknown)}")
        missing = {"model", "theta_star"} - set(d)
        if missing:
            raise ValueError(f"bad experiment config: missing keys {sorted(missing)}")
        for key, kind, what in [("theta_star", dict, "a JSON object"),
                                ("optimizer", dict, "a JSON object"),
                                ("sample_sizes", list, "a list")]:
            if not isinstance(d.get(key, kind()), kind):
                raise ValueError(f"bad experiment config: {key} must be {what}, got {d[key]!r}")
        optimizer = d.get("optimizer", {})
        unknown = set(optimizer) - {f.name for f in fields(FitOptions)}
        if unknown:
            raise ValueError(f"bad experiment config: unknown optimizer keys {sorted(unknown)}")
        try:
            star = model_class(d["model"]).from_dict(d["theta_star"])
        except ValueError as exc:
            raise ValueError(f"bad experiment config: {exc}") from None
        return cls(model_tag=d["model"], theta_star=star, options=FitOptions(**optimizer),
                   **{k: d[k] for k in plain & set(d)})


@dataclass
class McSummary:
    theta_star: object
    estimates: dict       # n -> (m, p) array of theta_hat
    gaps: dict            # n -> (m,) array of loglik(theta_hat) - loglik(theta_star)
    converged: dict       # n -> (m,) bool array
    seeds: dict           # n -> (m,) uint64 array
    param_names: tuple = field(init=False)
    sample_sizes: tuple = field(init=False)  # the keys of estimates, in order
    mc_mean: dict = field(init=False)
    made_: dict = field(init=False)
    n_converged: dict = field(init=False)

    def __post_init__(self):
        star = self.theta_star.as_array()
        self.param_names = tuple(self.theta_star.param_names)
        self.sample_sizes = tuple(self.estimates)
        self.mc_mean = {n: est.mean(axis=0) for n, est in self.estimates.items()}
        self.made_ = {n: np.abs(est - star).mean(axis=0) for n, est in self.estimates.items()}
        self.n_converged = {n: int(c.sum()) for n, c in self.converged.items()}


def _run_replicate(args):
    config, n, j = args
    seed = replicate_seed(config.base_seed, n, j)
    series = simulate(config.theta_star, n, seed=seed, burn_in=config.burn_in)
    fit = mle_fit(series, x1=config.x1, options=config.options)
    gap = fit.loglik_hat - loglik(config.theta_star, fit.x1_used, series).value
    return n, j, fit.theta_hat.as_array(), gap, fit.converged, seed


def run_experiment(config, jobs=1):
    """Simulate -> fit over all (n, replicate) cells; aggregate means and MADEs.

    Replicates are independent and results are stored by index, so the
    summary does not depend on execution order or parallelism.
    """
    _check_int("jobs", jobs, 1)
    tasks = [(config, n, j) for n in config.sample_sizes for j in range(config.m)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_replicate, tasks, chunksize=8))
    else:
        results = [_run_replicate(t) for t in tasks]

    p = config.theta_star.as_array().size
    estimates = {n: np.empty((config.m, p)) for n in config.sample_sizes}
    gaps = {n: np.empty(config.m) for n in config.sample_sizes}
    converged = {n: np.zeros(config.m, dtype=bool) for n in config.sample_sizes}
    seeds = {n: np.zeros(config.m, dtype=np.uint64) for n in config.sample_sizes}
    for n, j, est, gap, conv, seed in results:
        estimates[n][j] = est
        gaps[n][j] = gap
        converged[n][j] = conv
        seeds[n][j] = seed

    if config.drop_nonconverged:
        empty = [n for n in config.sample_sizes if not converged[n].any()]
        if empty:
            raise ValueError(f"drop_nonconverged: no replicate converged at sample sizes {empty}")
        estimates, gaps, seeds, converged = [{n: col[n][converged[n]] for n in config.sample_sizes}
                                             for col in (estimates, gaps, seeds, converged)]

    return McSummary(theta_star=config.theta_star, estimates=estimates, gaps=gaps,
                     converged=converged, seeds=seeds)
