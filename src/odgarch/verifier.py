"""Numerical spot checks of the stability/ergodicity hypotheses.

Each check evaluates a closed-form inequality from the theory (state-map
contraction, drift RV <= lambda*V + beta, the alpha/phi minorization of
the emission family, and the Lipschitz bound on log emission ratios) on
a low-discrepancy grid and reports any violation beyond double-precision
slack. These are certificates on sampled points, not proofs.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import qmc

from .models import log_emission, psi_step, sample_emission
from .params import params_to_dict

STATE_HI = 1e3
N_Y_DISCRETE = 201     # y in {0..200}
N_Y_NODES = 64         # Gauss-Hermite-style nodes for the continuous model
SLACK_TIGHT = 1e-12
SLACK_LOOSE = 1e-10


@dataclass
class CheckRecord:
    name: str
    n_samples: int
    n_violations: int
    worst_slack: float
    passed: bool
    skipped: bool = False
    reason: str = ""
    info: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "name": self.name,
            "n_samples": self.n_samples,
            "n_violations": self.n_violations,
            "worst_slack": self.worst_slack,
            "passed": self.passed,
            "skipped": self.skipped,
            "reason": self.reason,
            "info": self.info,
        }


@dataclass
class VerifierReport:
    model_tag: str
    params: object
    checks: list

    @property
    def passed(self):
        return all(c.passed or c.skipped for c in self.checks)

    def to_dict(self):
        return {
            "model": self.model_tag,
            "params": params_to_dict(self.params),
            "out_of_scope": ["weak-Feller", "reachable point",
                             "stationary moment conditions", "coupling kernel"],
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }


def _omega_floor(params):
    if params.tag == "nm":
        return float(params.omega_vec.min())
    return params.omega


def _halton(dims, n, seed):
    return qmc.Halton(d=dims, scramble=True, seed=seed).random(n)


def _state_from_unit(params, u):
    """Map unit-cube samples to log-scaled states in [omega_floor, STATE_HI]."""
    lo = _omega_floor(params)
    x = lo * (STATE_HI / lo) ** u
    return x


def _y_from_unit(params, u):
    if params.tag in ("nbin", "ting"):
        return np.floor(u * N_Y_DISCRETE)
    # symmetric probabilists'-Hermite nodes scaled to the stationary spread
    nodes = np.polynomial.hermite_e.hermegauss(N_Y_NODES)[0]
    scale = math.sqrt(max(float(params.gamma @ params.fixed_point()), 1.0))
    idx = np.minimum((u * N_Y_NODES).astype(int), N_Y_NODES - 1)
    return nodes[idx] * scale


def _sample_triples(params, n, seed):
    d = params.d if params.tag == "nm" else 1
    u = _halton(2 * d + 1, n, seed)
    if params.tag == "nm":
        x = _state_from_unit(params, u[:, :d])
        xp = _state_from_unit(params, u[:, d:2 * d])
    else:
        x = _state_from_unit(params, u[:, 0])
        xp = _state_from_unit(params, u[:, 1])
    y = _y_from_unit(params, u[:, -1])
    return x, xp, y


def _perron_weights(a_mat):
    """Left Perron vector of a non-negative matrix, made strictly positive."""
    vals, vecs = np.linalg.eig((np.asarray(a_mat, dtype=float) + 1e-12).T)
    w = np.abs(vecs[:, np.argmax(vals.real)].real)
    return w / w.sum()


def check_contraction(params, n_triples=10_000, seed=0):
    """Ratio d(psi_y(x), psi_y(x')) / d(x, x') stays below 1."""
    x, xp, y = _sample_triples(params, n_triples, seed)
    if params.tag == "nm":
        w = _perron_weights(params.A)
        rho_w = float(np.max((params.A.T @ w) / w))
        num = np.abs(psi_step(params, x, y) - psi_step(params, xp, y)) @ w
        den = np.abs(x - xp) @ w
        mask = den > 0
        ratio = num[mask] / den[mask]
        slack = (rho_w + SLACK_LOOSE) - ratio
        violations = int(np.sum(slack < 0) + (rho_w >= 1.0))
        info = {"rho_weighted": rho_w}
    else:
        mask = x != xp
        dpsi = np.abs(psi_step(params, x, y) - psi_step(params, xp, y))[mask]
        dx = np.abs(x - xp)[mask]
        # |psi(x)-psi(x')| = a|x-x'| exactly; allow rounding at state scale
        scale = np.maximum(1.0, np.maximum(x, xp)[mask])
        slack = SLACK_TIGHT * scale - np.abs(dpsi - params.a * dx)
        violations = int(np.sum(slack < 0))
        info = {"rate": params.a}
    worst = float(slack.min()) if slack.size else math.inf
    return CheckRecord("contraction", int(mask.sum()), violations, worst,
                       violations == 0, info=info)


def _drift_closed_form(params, x):
    """(RV(x), V(x), lambda, beta) with the proofs' drift functions."""
    if params.tag == "nbin":
        lam = params.a + params.b * params.r
        return params.omega + lam * x, x, lam, params.omega
    if params.tag == "ting":
        rv = params.omega + params.a * x + params.b * np.minimum(x, params.tau)
        return rv, x, params.a, params.omega + params.b * params.tau
    k = params.companion()
    one_plus_x0 = np.linalg.solve(np.eye(params.d) - k.T, np.ones(params.d))
    x0 = one_plus_x0 - 1.0
    v = x @ one_plus_x0
    rv = float(params.omega_vec @ one_plus_x0) + x @ x0
    lam = float(np.max(x0 / one_plus_x0))
    beta = float(params.omega_vec @ one_plus_x0)
    return rv, v, lam, beta


def check_drift(params, n_triples=10_000, seed=0, mc_points=20, mc_draws=2000):
    """RV <= lambda*V + beta on the grid, with a Monte Carlo cross-check."""
    if not params.stable():
        return CheckRecord("drift", 0, 0, math.nan, True, skipped=True,
                           reason="unstable parameters: drift need not close")
    x, _, _ = _sample_triples(params, n_triples, seed)
    rv, v, lam, beta = _drift_closed_form(params, x)
    slack = (lam * v + beta + SLACK_LOOSE) - rv
    violations = int(np.sum(slack < 0))

    rng = np.random.default_rng(seed + 1)
    idx = np.linspace(0, len(x) - 1, mc_points).astype(int)
    mc_fail = 0
    for i in idx:
        xi = np.broadcast_to(x[i], (mc_draws,) + np.shape(x[i]))
        xn = psi_step(params, xi, sample_emission(params, xi, rng))
        vals = _drift_closed_form(params, xn)[1]
        est = vals.mean()
        se = vals.std(ddof=1) / math.sqrt(mc_draws)
        if abs(est - rv[i]) > 4.0 * se + 1e-9:
            mc_fail += 1
    violations += mc_fail
    return CheckRecord("drift", n_triples + mc_points, violations,
                       float(slack.min()), violations == 0,
                       info={"lambda": lam, "beta": beta, "mc_failures": mc_fail})


def minorization_alpha(params, x, xp):
    """Closed-form coupling weight alpha(x, x'); phi is the componentwise min."""
    if params.tag == "nbin":
        lo = np.minimum(x, xp)
        hi = np.maximum(x, xp)
        return ((1.0 + lo) / (1.0 + hi)) ** params.r
    if params.tag == "ting":
        lo = np.minimum(x, xp)
        hi = np.maximum(x, xp)
        return np.exp(-np.minimum(hi, params.tau) + np.minimum(lo, params.tau))
    lo = np.minimum(x, xp)
    hi = np.maximum(x, xp)
    return np.min(np.sqrt(lo / hi), axis=-1)


def check_minorization(params, n_triples=10_000, seed=0):
    """min{g(x;y), g(x';y)} >= alpha(x,x') * g(min(x,x'); y)."""
    x, xp, y = _sample_triples(params, n_triples, seed)
    alpha = minorization_alpha(params, x, xp)
    phi = np.minimum(x, xp)
    lhs = np.exp(np.minimum(log_emission(params, x, y), log_emission(params, xp, y)))
    rhs = alpha * np.exp(log_emission(params, phi, y))
    slack = (lhs + SLACK_TIGHT) - rhs
    bad_alpha = int(np.sum((alpha <= 0) | (alpha > 1.0 + SLACK_TIGHT)))
    violations = int(np.sum(slack < 0)) + bad_alpha
    return CheckRecord("minorization", n_triples, violations, float(slack.min()),
                       violations == 0)


def _lipschitz_k(params, y):
    if params.tag == "nbin":
        return params.r + y * (1.0 + 1.0 / params.omega)
    if params.tag == "ting":
        return 1.0 + y / min(params.omega, params.tau)
    w_min = float(params.omega_vec.min())
    return 0.5 * (y ** 2 / w_min ** 2 + 1.0 / w_min)


def check_lipschitz_logg(params, n_triples=10_000, seed=0):
    """|ln g(x;y) - ln g(x';y)| <= K(y) |x - x'| on X1 = [omega_floor, inf)."""
    x, xp, y = _sample_triples(params, n_triples, seed)
    lhs = np.abs(log_emission(params, x, y) - log_emission(params, xp, y))
    if params.tag == "nm":
        dist = np.abs(x - xp).sum(axis=1)
    else:
        dist = np.abs(x - xp)
    slack = (_lipschitz_k(params, y) * dist + SLACK_LOOSE) - lhs
    violations = int(np.sum(slack < 0))
    return CheckRecord("lipschitz_logg", n_triples, violations, float(slack.min()),
                       violations == 0)


def verify_model(params, n_triples=10_000, seed=0):
    checks = [
        check_contraction(params, n_triples, seed),
        check_drift(params, n_triples, seed + 101),
        check_minorization(params, n_triples, seed + 202),
        check_lipschitz_logg(params, n_triples, seed + 303),
    ]
    return VerifierReport(model_tag=params.tag, params=params, checks=checks)
