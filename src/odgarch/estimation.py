"""Constrained maximum-likelihood fitting.

The stability constraint is enforced by an augmented-Lagrangian outer
loop; the inner problems are solved by BFGS with Armijo backtracking in
the unconstrained log/softmax coordinates of FeasibleMap. Gradients are
analytic for NBIN and central-difference for NM/TING. Observations are a
Series of the model or a 1-d array, checked once by ``Series.of``.

Every inner problem starts BFGS from one inverse-Hessian estimate taken at
the fit's start: for a model with per-observation scores (NBIN), the damped
inverse of their outer product (OPG), an estimate of the information
(Berndt, Hall, Hall & Hausman 1974); otherwise the identity.
"""

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .likelihood import FD_STEP, grad_loglik_numeric
from .models import _check_anchor
from .params import EPS_MARGIN, ModelParams, Series, params_to_dict
from .reparam import FeasibleMap

# delta of the start metric (OPG + delta I)^-1: where the start pins a coefficient near
# its bound the OPG's condition number reaches 1e7-1e16, and its plain inverse then
# sends the first steps far along directions the scores barely see.
OPG_DAMPING = 1e-2


@dataclass
class FitOptions:
    tol: float = 1e-6
    max_outer: int = 20
    max_inner: int = 500
    margin: float = EPS_MARGIN
    fd_step: float = FD_STEP

    def __post_init__(self):
        """Every field lies in (0, inf), margin in (0, 1); an int field is an integer."""
        for f in fields(self):
            value, hi = getattr(self, f.name), 1 if f.name == "margin" else math.inf
            kind = numbers.Integral if f.type is int else numbers.Real
            if isinstance(value, bool) or not isinstance(value, kind) or not 0 < value < hi:
                what = "an integer" if f.type is int else "a real"
                raise ValueError(f"{f.name} must be {what} in (0, {hi}), got {value!r}")


@dataclass
class FitResult:
    theta_init: object
    theta_hat: object
    loglik_init: float
    loglik_hat: float
    converged: bool
    n_outer: int
    n_inner: int
    constraint_margin: float
    x1_used: object
    seed: int = 0
    projected_grad_norm: float = math.nan

    def to_dict(self):
        """The model's tag and every field as JSON holds it, x1_used under "x1"."""
        out = {"model": self.theta_hat.tag}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name.removesuffix("_used")] = (params_to_dict(v) if isinstance(v, ModelParams)
                                                 else np.asarray(v).tolist())
        return out


def _validate_series(series):
    """The Series, checked to be long and varied enough for a fit."""
    if series.n < 10:
        raise ValueError("need at least 10 observations")
    if np.ptp(series.y) == 0:
        raise ValueError("degenerate series: all observations equal")
    return series


def init_generic(series, model_tag=None, x1=None):
    """Feasible, roughly scaled starting point for a Series, or an array of model_tag.

    For NM, x1 (the state anchor of the fit) gives the number of mixture
    components when the series carries neither parameters nor a state trace.
    """
    s = _validate_series(Series.of(series, model_tag))
    return s.model.start(s, x1)


def _start_metric(theta0, x1, series):
    """BFGS's first inverse Hessian in z at the start theta0: (OPG + delta I)^-1.

    OPG = s_z' s_z / n, where s_z is the per-observation scores mapped to z by the
    chain rule row by row. The identity where the model has no scores, or where a
    score leaves the floating-point range: the kernel raises there instead of
    returning inf or nan, and the error is caught as ``_bfgs`` catches it at a
    trial point.
    """
    eye = np.eye(theta0.encode().size)
    try:
        s = theta0.scores(x1, series)
    except (FloatingPointError, OverflowError, ValueError):
        s = None
    if s is None:
        return eye
    s_z = theta0.chain_rule(s)
    return np.linalg.inv(s_z.T @ s_z / len(s_z) + OPG_DAMPING * eye)


def _bfgs(f_and_g, z0, start, tol, max_iter, h0):
    """BFGS with Armijo backtracking. Returns (z, fval, grad, extra, n_iter, ok).

    f_and_g(z) returns (fval, grad, extra); extra is handed back unchanged for
    the returned point. start is f_and_g(z0), already in hand. h0 is the first
    inverse-Hessian estimate; a restart after lost curvature goes to steepest
    descent.
    """
    z = z0.copy()
    fval, g, extra = start
    eye = np.eye(z.size)
    h = h0
    n_iter = 0
    n_flat = 0
    for n_iter in range(1, max_iter + 1):
        if abs(g).max() < tol:
            return z, fval, g, extra, n_iter - 1, True
        p = -h @ g
        slope = float(g @ p)
        if slope >= 0:  # lost curvature; restart from steepest descent
            h = eye
            p = -g
            slope = float(g @ p)
        step = 1.0
        accepted = False
        for _ in range(60):
            z_new = z + step * p
            try:
                f_new, g_new, extra_new = f_and_g(z_new)
            except (FloatingPointError, OverflowError, ValueError):
                f_new = np.inf
                g_new = extra_new = None
            if math.isfinite(f_new) and f_new <= fval + 1e-4 * step * slope:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            return z, fval, g, extra, n_iter, False
        # stop once improvements sink below double precision for a while
        n_flat = n_flat + 1 if fval - f_new <= 1e-13 * max(1.0, abs(fval)) else 0
        if n_flat >= 3:
            return z_new, f_new, g_new, extra_new, n_iter, abs(g_new).max() < tol
        s = z_new - z
        yk = g_new - g
        sy = float(s @ yk)
        if sy > 1e-12 * math.sqrt(s @ s) * math.sqrt(yk @ yk):
            rho = 1.0 / sy
            v = eye - rho * np.multiply.outer(s, yk)
            h = v @ h @ v.T + rho * np.multiply.outer(s, s)
        z, fval, g, extra = z_new, f_new, g_new, extra_new
    return z, fval, g, extra, n_iter, abs(g).max() < tol


def mle_fit(series, model_tag=None, x1=None, options=None, theta_init=None):
    """Maximize the conditional log-likelihood over the stable region.

    A Series carries its model; a plain array needs model_tag.
    """
    opts = options or FitOptions()
    series = _validate_series(Series.of(series, model_tag))
    theta0 = theta_init if theta_init is not None else init_generic(series, x1=x1)
    theta0 = theta0.pull_inside(opts.margin)
    x1 = _check_anchor(theta0, theta0.fixed_point() if x1 is None else x1)
    fmap = FeasibleMap(theta0)
    z = fmap.encode(theta0)
    theta0 = fmap.decode(z)  # the start as the optimizer evaluates it
    h0 = _start_metric(theta0, x1, series)

    def loglik_and_grad_z(params):
        """The loglik and its gradient in z: exact where the model has one."""
        val, grad = params.loglik_and_grad(x1, series)
        if grad is None:
            return val, grad_loglik_numeric(params, x1, series, step=opts.fd_step)
        return val, fmap.chain_rule(grad, params)

    def penalized(params, val, gz, lam, mu):
        c = params.constraint(opts.margin)
        t = min(lam / mu + c, 1e100)  # clip wild trial points
        if t > 0:
            pen = 0.5 * mu * t * t
            cg = np.minimum(np.maximum(params.constraint_grad_z(), -1e100), 1e100)
            pen_g = min(mu * t, 1e100) * cg
        else:
            pen = 0.0
            pen_g = 0.0
        return -val + pen, -gz + pen_g

    ll0, gz0 = loglik_and_grad_z(theta0)
    theta, ll_z, gz_z = theta0, ll0, gz0  # the point z, its loglik and gradient
    lam = 0.0
    mu = 10.0
    n_inner_total = 0
    n_outer = 0
    inner_ok = False
    v_prev = np.inf
    fv_prev = np.inf
    for n_outer in range(1, opts.max_outer + 1):
        def f_and_g(zv, _lam=lam, _mu=mu):
            params = fmap.decode(zv)
            val, gz = loglik_and_grad_z(params)
            return (*penalized(params, val, gz, _lam, _mu), (val, gz))

        # each inner problem starts at the point the last one accepted
        start = (*penalized(theta, ll_z, gz_z, lam, mu), (ll_z, gz_z))
        z, fv, _, (ll_z, gz_z), n_it, inner_ok = _bfgs(f_and_g, z, start, opts.tol,
                                                      opts.max_inner, h0)
        n_inner_total += n_it
        theta = fmap.decode(z)
        c = theta.constraint(opts.margin)
        v = max(0.0, c)
        lam = max(0.0, lam + mu * c)
        stalled = abs(fv - fv_prev) <= 1e-12 * max(1.0, abs(fv))
        if v < 1e-8 and (inner_ok or stalled):
            break
        if v > 0.25 * v_prev:
            mu *= 10.0
        v_prev = v
        fv_prev = fv

    theta_hat, ll_hat, gz = theta, ll_z, gz_z
    # the outer loop accepts a violation up to 1e-8: never return a point inside the margin
    if theta_hat.margin() < opts.margin:
        theta_hat = theta_hat.pull_inside(opts.margin)
        ll_hat, gz = loglik_and_grad_z(theta_hat)
    if ll_hat < ll0 - 1e-12:
        theta_hat, ll_hat, gz = theta0, ll0, gz0
        inner_ok = False

    c_final = theta_hat.constraint(opts.margin)
    if c_final >= -1e-8:
        cg = theta_hat.constraint_grad_z()
        cg_norm = np.linalg.norm(cg)
        if cg_norm > 0:
            gz = gz - (gz @ cg) / (cg_norm * cg_norm) * cg
    pg_norm = float(np.max(np.abs(gz)))
    converged = bool(inner_ok and max(0.0, c_final) < 1e-8)
    return FitResult(
        theta_init=theta0,
        theta_hat=theta_hat,
        loglik_init=ll0,
        loglik_hat=ll_hat,
        converged=converged,
        n_outer=n_outer,
        n_inner=n_inner_total,
        constraint_margin=theta_hat.margin(),
        x1_used=x1,
        seed=int(series.seed),
        projected_grad_norm=pg_norm,
    )
