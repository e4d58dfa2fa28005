"""The benchmark's workloads: inputs from a seed, one op, its checks.

Each workload class builds its inputs in ``__init__`` from the seed, runs
one operation per ``op(k)`` call and checks a result in ``check``. Checks
that need the plain reference loops run in ``oracle``. Both run right after
the op, outside its latency. Calls into odgarch go through module
attributes, looked up at call time, so that the tracer's wrappers are the
functions called.

Scale "full" is what the benchmark measures; "tiny" shrinks every input so
that the benchmark's own self-check runs every workload in seconds.
"""

import json
import math
import os

import numpy as np

import odgarch
from odgarch import cli, estimation, io, models, montecarlo, verifier

NBIN_STAR = odgarch.NbinParams(3.0, 0.2, 0.2, 2.0)      # the paper's first NBIN set
NBIN_M2 = odgarch.NbinParams(3.0, 0.35, 0.1, 1.5)
TING_STAR = odgarch.TingParams(3.0, 0.35, 0.1, 4.0)
NM_STAR = odgarch.NmParams(gamma=[0.4, 0.6], omega_vec=[1.0, 2.0],
                           A=[[0.3, 0.1], [0.05, 0.25]], b_vec=[0.2, 0.1])
# init_generic always starts NM at d = 1, so d = 2 fits need their own start.
NM_START = odgarch.NmParams(gamma=[0.5, 0.5], omega_vec=[0.8, 1.5],
                            A=[[0.25, 0.05], [0.05, 0.2]], b_vec=[0.15, 0.15])


def sub_seed(seed, stream, k):
    """Independent 32-bit seed for item k of a named input stream."""
    key = sum(ord(c) << (8 * i) for i, c in enumerate(stream))
    return int(np.random.SeedSequence([seed, key, k]).generate_state(1)[0])


class Outcome:
    """What one op produced, as the report aggregates it."""

    def __init__(self, errors=(), fits=0, nonconverged=0, gaps=(), flags=()):
        self.errors = list(errors)
        self.fits = fits
        self.nonconverged = nonconverged
        self.gaps = list(gaps)
        self.flags = list(flags)


class Workload:
    """Inputs built from a seed, one op per ``op(k)``, and its checks."""

    name = ""
    count_ops = 1  # ops whose calls the traced run counts, after set-up

    def round_done(self, k):
        """Whether ops 0..k-1 end a round of the op mix; a run stops only there."""
        return True


def _fit_errors(fit, label):
    errors = []
    theta = fit.theta_hat.as_array()
    if not (np.all(np.isfinite(theta)) and math.isfinite(fit.loglik_hat)):
        errors.append(f"{label}: non-finite fit")
    return errors


class McNbin(Workload):
    """run_experiment over the paper's sizes with m = 1, then CSV I/O and SVG plots."""

    name = "mc_nbin"
    count_ops = 40

    def __init__(self, seed, scale, workdir):
        self.seed = seed
        self.sizes = (128, 256, 512, 1024) if scale == "full" else (32, 64)
        self.workdir = workdir
        self.config_path = os.path.join(workdir, "experiment.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump({"model": "nbin",
                       "theta_star": odgarch.params.params_to_dict(NBIN_STAR)}, fh)
        self.options = estimation.FitOptions()

    def config(self, k):
        return montecarlo.ExperimentConfig(
            model_tag="nbin", theta_star=NBIN_STAR, sample_sizes=self.sizes, m=1,
            base_seed=sub_seed(self.seed, "mc", k), burn_in=500, options=self.options)

    def op(self, k):
        summary = montecarlo.run_experiment(self.config(k), jobs=1)
        summary_csv = os.path.join(self.workdir, "summary.csv")
        replicates_csv = os.path.join(self.workdir, "replicates.csv")
        io.write_mc_outputs(summary_csv, replicates_csv, summary)
        with open(summary_csv, encoding="utf-8") as fh:
            summary_text = fh.read()
        replicates = io.read_replicates(replicates_csv)
        figdir = os.path.join(self.workdir, "figures")
        rc = cli.main(["plot", "--replicates", replicates_csv, "--config", self.config_path,
                       "--out-dir", figdir])
        svgs = {}
        for name in ["loglik_gap"] + [f"estimates_{p}" for p in NBIN_STAR.param_names]:
            with open(os.path.join(figdir, f"{name}.svg"), encoding="utf-8") as fh:
                svgs[name] = fh.read()
        return summary, summary_text, replicates, rc, svgs

    def check(self, k, result):
        summary, summary_text, replicates, rc, svgs = result
        errors = []
        label = f"mc_nbin op {k}"
        if rc != 0:
            errors.append(f"{label}: plot exited {rc}")
        for name, svg in svgs.items():
            if not (svg.startswith("<svg") and svg.endswith("</svg>\n")):
                errors.append(f"{label}: {name}.svg is not a complete SVG")
        if summary_text.count("\n") != 1 + len(self.sizes) * len(NBIN_STAR.param_names):
            errors.append(f"{label}: summary.csv has the wrong number of rows")
        est = np.concatenate([summary.estimates[n] for n in self.sizes])
        gaps = np.concatenate([summary.gaps[n] for n in self.sizes])
        if not (np.all(np.isfinite(est)) and np.all(np.isfinite(gaps))):
            errors.append(f"{label}: non-finite estimates or gaps")
        # replicates.csv holds 12 significant digits
        if not (np.allclose(replicates["estimates"], est, rtol=1e-11, atol=0)
                and np.allclose(replicates["gap"], gaps, rtol=1e-11, atol=1e-300)):
            errors.append(f"{label}: replicates.csv does not read back as written")
        conv = np.concatenate([summary.converged[n] for n in self.sizes])
        return Outcome(errors, fits=conv.size, nonconverged=int(np.sum(~conv)),
                       gaps=gaps.tolist())

    def oracle(self, k, result, orc):
        """Re-simulate each replicate's series and recompute its gap and gradient."""
        summary = result[0]
        cfg = self.config(k)
        for n in self.sizes:
            label = f"mc_nbin op {k} n={n}"
            seed = montecarlo.replicate_seed(cfg.base_seed, n, 0)
            series = models.simulate(NBIN_STAR, n, seed=seed, burn_in=cfg.burn_in)
            theta_hat = odgarch.NbinParams.from_array(summary.estimates[n][0])
            x1 = estimation.init_generic(series.y, "nbin").fixed_point()
            ref_hat = orc.loglik(theta_hat, x1, series.y, label)
            ref_star = orc.loglik(NBIN_STAR, x1, series.y, label)
            orc.value(float(summary.gaps[n][0]), ref_hat - ref_star, f"{label}: loglik_gap")
            orc.grad_nbin(theta_hat, x1, series.y, label)
            orc.margin(theta_hat, self.options.margin, label)


class FitLong(Workload):
    """NBIN mle_fit on long series; per-observation kernel cost dominates."""

    name = "fit_long"
    count_ops = 16  # one round of the series

    def __init__(self, seed, scale, workdir):
        n, count = (4096, 16) if scale == "full" else (512, 2)
        self.series = [models.simulate(NBIN_STAR, n, seed=sub_seed(seed, "long", i),
                                       burn_in=500) for i in range(count)]
        self.options = estimation.FitOptions()

    def round_done(self, k):
        # The series differ in cost, so a run fits each of them equally often.
        return k % len(self.series) == 0

    def op(self, k):
        return estimation.mle_fit(self.series[k % len(self.series)], model_tag="nbin",
                                  options=self.options)

    def check(self, k, fit):
        return Outcome(_fit_errors(fit, f"fit_long op {k}"), fits=1,
                       nonconverged=int(not fit.converged))

    def oracle(self, k, fit, orc):
        if k >= len(self.series):  # the same series and fit as op k % count
            return None
        y = self.series[k].y
        label = f"fit_long op {k}"
        ref_hat = orc.loglik(fit.theta_hat, fit.x1_used, y, label)
        orc.value(fit.loglik_hat, ref_hat, f"{label}: loglik_hat")
        orc.grad_nbin(fit.theta_hat, fit.x1_used, y, label)
        orc.margin(fit.theta_hat, self.options.margin, label)
        return ref_hat - orc.loglik(NBIN_STAR, fit.x1_used, y, label)


class FitFd(Workload):
    """TING and NM (d = 2) mle_fit: central-difference gradients."""

    name = "fit_fd"
    count_ops = 2

    def __init__(self, seed, scale, workdir):
        n_ting, n_nm, count = (512, 256, 16) if scale == "full" else (64, 64, 1)
        self.ting = [models.simulate(TING_STAR, n_ting, seed=sub_seed(seed, "ting", i))
                     for i in range(count)]
        self.nm = [models.simulate(NM_STAR, n_nm, seed=sub_seed(seed, "nm", i))
                   for i in range(count)]
        self.options = estimation.FitOptions()

    def round_done(self, k):
        return k % 2 == 0  # whole (TING, NM) pairs

    def inputs(self, k):
        """(series, theta_star, theta_init) of op k: TING on even k, NM on odd k."""
        i = (k // 2) % len(self.ting)
        if k % 2 == 0:
            return self.ting[i], TING_STAR, None
        return self.nm[i], NM_STAR, NM_START

    def op(self, k):
        series, _, start = self.inputs(k)
        return estimation.mle_fit(series, options=self.options, theta_init=start)

    def check(self, k, fit):
        return Outcome(_fit_errors(fit, f"fit_fd op {k}"), fits=1,
                       nonconverged=int(not fit.converged))

    def oracle(self, k, fit, orc):
        if k >= 2 * len(self.ting):
            return None
        series, star, _ = self.inputs(k)
        label = f"fit_fd op {k} ({star.tag})"
        ref_hat = orc.loglik(fit.theta_hat, fit.x1_used, series.y, label)
        orc.value(fit.loglik_hat, ref_hat, f"{label}: loglik_hat")
        orc.margin(fit.theta_hat, self.options.margin, label)
        return ref_hat - orc.loglik(star, fit.x1_used, series.y, label)


# The random stable parameter draws of the criterion-6 test (tests/conftest.py),
# reproduced here so that the benchmark seeds them itself.
def _random_nbin(rng, margin=0.1):
    omega = rng.uniform(0.5, 5.0)
    r = rng.uniform(0.5, 4.0)
    a = rng.uniform(0.05, 0.8)
    b = rng.uniform(0.05, 1.0) * (1.0 - margin - a) / r
    return odgarch.NbinParams(omega, a, b, r)


def _random_ting(rng):
    return odgarch.TingParams(rng.uniform(0.5, 5.0), rng.uniform(0.05, 0.9),
                              rng.uniform(0.05, 1.0), rng.uniform(0.5, 8.0))


def _random_nm(rng, d):
    gamma = rng.dirichlet(np.ones(d))
    omega = rng.uniform(0.5, 3.0, d)
    a_mat = rng.uniform(0.0, 1.0, (d, d))
    b_vec = rng.uniform(0.0, 1.0, d)
    p = odgarch.NmParams(gamma=gamma, omega_vec=omega, A=a_mat, b_vec=b_vec)
    rho = 1.0 - p.margin()
    s = rng.uniform(0.3, 0.9) / max(rho, 1e-6)
    return odgarch.NmParams(gamma=gamma, omega_vec=omega, A=a_mat * s, b_vec=b_vec * s)


N_NAMED = 4
VERIFIER_CHECKS = ("contraction", "drift", "minorization", "lipschitz_logg")
DRIFT_MC_FALSE_ALARMS = 2  # of the drift check's 20 Monte Carlo points
NM_ROUNDING = 1e-6         # worst NM contraction slack still put down to rounding
RATE_RTOL = 1e-6           # power iteration against an eigenvalue solver


class VerifySweep(Workload):
    """verify_model over the criterion-6 mix: four named sets, then random draws."""

    name = "verify_sweep"
    count_ops = 10

    def __init__(self, seed, scale, workdir):
        self.seed = seed
        self.n_triples = 10_000 if scale == "full" else 500
        rng = np.random.default_rng(sub_seed(seed, "sets", 0))
        self.sets = [NBIN_STAR, NBIN_M2, TING_STAR, NM_STAR]
        # Draws interleave the models, and NM alternates d = 1 and d = 2, so
        # that every run, however short, sees the same mix of costs.
        for i in range(20):
            self.sets += [_random_nbin(rng), _random_ting(rng), _random_nm(rng, 1 + i % 2)]

    def round_done(self, k):
        # A run ends after whole rounds of (NBIN, TING, NM), which differ in
        # cost 20-fold, so that ops_per_s does not depend on where it stops.
        return k >= N_NAMED and (k - N_NAMED) % 3 == 0

    def op(self, k):
        params = self.sets[k % len(self.sets)]
        return verifier.verify_model(params, n_triples=self.n_triples,
                                     seed=sub_seed(self.seed, "verify", k))

    def check(self, k, report):
        """A report must be complete and consistent, and every check must pass.

        Every parameter set here is stable. Two failures are known false
        alarms of the verifier; they print a flag and do not fail the op:

        - drift, when its closed-form grid passes and only its Monte Carlo
          z-test fails, at no more than DRIFT_MC_FALSE_ALARMS of its points.
          On skewed NM sets the z-test fails far above its nominal level;
        - NM contraction, when the weighted rate is below 1 and the worst
          slack is above -NM_ROUNDING: the fixed 1e-10 slack of that check
          is below the rounding error of the ratio for close state pairs.

        Any other failed check fails the op.
        """
        errors, flags = [], []
        label = f"verify_sweep op {k} ({report.model_tag})"
        if [c.name for c in report.checks] != list(VERIFIER_CHECKS):
            errors.append(f"{label}: report has checks {[c.name for c in report.checks]}")
        for c in report.checks:
            if c.skipped:
                errors.append(f"{label}: {c.name} skipped on a stable set: {c.reason}")
                continue
            if c.passed != (c.n_violations == 0):
                errors.append(f"{label}: {c.name} passed={c.passed} with "
                              f"{c.n_violations} violations")
            if c.name in ("minorization", "lipschitz_logg") and c.n_samples != self.n_triples:
                errors.append(f"{label}: {c.name} checked {c.n_samples} of "
                              f"{self.n_triples} triples")
            if c.passed:
                continue
            what = (f"{label}: {c.name} check failed, {c.n_violations} violations, "
                    f"worst slack {c.worst_slack:.3g}, info {c.info}, "
                    f"params {odgarch.params.params_to_dict(report.params)}")
            (flags if self._false_alarm(report.model_tag, c) else errors).append(what)
        return Outcome(errors, flags=flags)

    @staticmethod
    def _false_alarm(tag, c):
        if c.name == "drift":
            mc = c.info.get("mc_failures", 0)
            return 0 < mc <= DRIFT_MC_FALSE_ALARMS and c.n_violations == mc
        if c.name == "contraction" and tag == "nm":
            return c.info["rho_weighted"] < 1.0 and c.worst_slack >= -NM_ROUNDING
        return False

    def oracle(self, k, report, orc):
        """The contraction and drift rates of the report against the parameters,
        and the package loglik of this op's set on a short simulated series."""
        params = self.sets[k % len(self.sets)]
        label = f"verify_sweep op {k} ({params.tag})"
        checks = {c.name: c for c in report.checks}
        if params.tag == "nm":
            rho = float(np.max(np.abs(np.linalg.eigvals(params.A))))
            rho_w = checks["contraction"].info["rho_weighted"]
            orc.value(rho_w, rho, f"{label}: contraction rate vs spectral radius of A",
                      rtol=RATE_RTOL)
        else:
            orc.value(checks["contraction"].info["rate"], params.a, f"{label}: contraction rate")
            lam = params.a + params.b * params.r if params.tag == "nbin" else params.a
            orc.value(checks["drift"].info["lambda"], lam, f"{label}: drift lambda")
        if k < len(self.sets):
            series = models.simulate(params, 128, seed=sub_seed(self.seed, "oracle", k),
                                     burn_in=100)
            orc.loglik(params, params.fixed_point(), series.y, label)
        return None


WORKLOADS = {w.name: w for w in (McNbin, FitFd, FitLong, VerifySweep)}
