"""Constrained maximum-likelihood fitting.

The stability constraint is enforced by an augmented-Lagrangian outer
loop; the inner problems are solved by BFGS with Armijo backtracking in
the unconstrained log/softmax coordinates of FeasibleMap. Gradients are
analytic for NBIN and central-difference for NM/TING.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .likelihood import grad_loglik_nbin, grad_loglik_numeric, loglik
from .params import NbinParams, NmParams, Series, TingParams, params_to_dict
from .reparam import FeasibleMap

EPS_MARGIN = 1e-4


@dataclass
class FitOptions:
    tol: float = 1e-6
    max_outer: int = 20
    max_inner: int = 500
    margin: float = EPS_MARGIN
    fd_step: float = 1e-5


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
        x1 = self.x1_used
        return {
            "model": self.theta_hat.tag,
            "theta_init": params_to_dict(self.theta_init),
            "theta_hat": params_to_dict(self.theta_hat),
            "loglik_init": self.loglik_init,
            "loglik_hat": self.loglik_hat,
            "converged": self.converged,
            "n_outer": self.n_outer,
            "n_inner": self.n_inner,
            "constraint_margin": self.constraint_margin,
            "x1": x1.tolist() if isinstance(x1, np.ndarray) else x1,
            "seed": self.seed,
            "projected_grad_norm": self.projected_grad_norm,
        }


def _validate_series(y):
    y = np.asarray(y, dtype=float)
    if y.size < 10:
        raise ValueError("need at least 10 observations")
    if np.ptp(y) == 0:
        raise ValueError("degenerate series: all observations equal")
    return y


def _acf(y, lag):
    ym = y - y.mean()
    return float((ym[:-lag] * ym[lag:]).sum() / (ym * ym).sum())


def cls_init_nbin(series):
    """Conditional-least-squares starting point for NBIN.

    The conditional mean follows an ARMA(1,1) in Y with AR coefficient
    phi = a + r*b, recovered as the autocorrelation ratio rho(2)/rho(1).
    r comes from the conditional over-dispersion E[(Y-m)^2|m] = m + m^2/r,
    regressing squared one-step residuals on the squared fitted mean.
    The (a, b) split is the symmetric one a = phi/2, b = phi/(2 r), and
    omega = mean * (1 - phi) / r matches the stationary mean.
    """
    y = _validate_series(series.y if hasattr(series, "y") else series)
    mu = y.mean()
    var = y.var()
    n = y.size
    rho1 = _acf(y, 1)
    rho2 = _acf(y, 2)
    if abs(rho1) < 2.0 / math.sqrt(n):  # no detectable dependence
        phi = EPS_MARGIN
    else:
        phi = rho2 / rho1
    phi = min(max(phi, EPS_MARGIN), 1.0 - EPS_MARGIN)
    # one-step mean proxy with matched lag-1 autocovariance
    beta1 = min(max(rho1, EPS_MARGIN), 1.0 - EPS_MARGIN)
    m = mu * (1.0 - beta1) + beta1 * y[:-1]
    e2 = (y[1:] - m) ** 2
    den = (m ** 4).sum()
    slope = ((e2 - m) * m * m).sum() / den if den > 0 else np.inf
    if var <= mu or slope <= 1e-4:
        r0 = 10.0  # near-Poisson: no over-dispersion detected
    else:
        r0 = 1.0 / slope
    r0 = min(max(r0, 0.05), 100.0)
    a0 = phi / 2.0
    b0 = phi / (2.0 * r0)
    w0 = max(mu * (1.0 - phi) / r0, EPS_MARGIN)
    return NbinParams(omega=w0, a=a0, b=b0, r=r0)


def _mixture_size(series, x1):
    """NM component count: from the series' parameters or state trace, else x1, else 1."""
    params = getattr(series, "params", None)
    if params is not None and params.tag == "nm":
        return params.d
    x_trace = getattr(series, "x_trace", None)
    if x_trace is not None:
        return x_trace.shape[1] if x_trace.ndim == 2 else 1
    return np.size(x1) if x1 is not None else 1


def init_generic(series, model_tag, x1=None):
    """Feasible, roughly scaled starting point for any model.

    For NM, x1 (the state anchor of the fit) gives the number of mixture
    components when the series carries neither parameters nor a state trace.
    """
    if model_tag == "nbin":
        return cls_init_nbin(series)
    y = _validate_series(series.y if hasattr(series, "y") else series)
    if model_tag == "ting":
        base = cls_init_nbin(y)
        # Rescale the NBIN start to unit shape (TING's mean is x, not r*x).
        w0, a0, b0 = base.omega * base.r, base.a, base.b * base.r
        # Running conditional-mean proxy caps the threshold guess.
        u = w0 / (1.0 - a0) + b0 * y / (1.0 - a0)
        tau0 = max(float(u.max()), EPS_MARGIN)
        return TingParams(omega=w0, a=a0, b=b0, tau=tau0)
    if model_tag == "nm":
        # Equal weights, A = 0.3 I and b = 0.2 put the spectral radius of
        # A + b gamma' at 0.5 for every d. The stationary component variances
        # are m2 * spread with spread in (0.5, 1.5) and mean 1, so gamma'X
        # matches the sample second moment m2; distinct components keep BFGS
        # off the symmetric set where all components stay equal.
        d = _mixture_size(series, x1)
        m2 = max(float((y * y).mean()), EPS_MARGIN)
        spread = 0.5 + (np.arange(d) + 0.5) / d
        return NmParams(gamma=np.full(d, 1.0 / d),
                        omega_vec=m2 * (0.5 + 0.7 * (spread - 1.0)),
                        A=0.3 * np.eye(d), b_vec=np.full(d, 0.2))
    raise ValueError(f"unknown model tag {model_tag!r}")


def _constraint(params, margin):
    """c(theta) <= 0 encodes stability with the interior margin."""
    if params.tag == "nbin":
        return params.a + params.b * params.r - (1.0 - margin)
    if params.tag == "ting":
        return params.a - (1.0 - margin)
    return -(params.margin() - margin)


def _constraint_grad_z(params, fmap, fd_step):
    """Gradient of the constraint in unconstrained coordinates."""
    if params.tag == "nbin":
        return np.array([0.0, params.a, params.b * params.r, params.b * params.r])
    if params.tag == "ting":
        return np.array([0.0, params.a, 0.0, 0.0])
    z0 = fmap.encode(params)
    g = np.empty(z0.size)
    for i in range(z0.size):
        z = z0.copy()
        z[i] += fd_step
        hi = _constraint(fmap.decode(z), 0.0)
        z[i] = z0[i] - fd_step
        lo = _constraint(fmap.decode(z), 0.0)
        g[i] = (hi - lo) / (2.0 * fd_step)
    return g


def _bfgs(f_and_g, z0, start, tol, max_iter):
    """BFGS with Armijo backtracking. Returns (z, fval, grad, extra, n_iter, ok).

    f_and_g(z) returns (fval, grad, extra); extra is handed back unchanged for
    the returned point. start is f_and_g(z0), already in hand.
    """
    z = z0.copy()
    fval, g, extra = start
    h = np.eye(z.size)
    n_iter = 0
    n_flat = 0
    for n_iter in range(1, max_iter + 1):
        gnorm = np.max(np.abs(g))
        if gnorm < tol:
            return z, fval, g, extra, n_iter - 1, True
        p = -h @ g
        slope = g @ p
        if slope >= 0:  # lost curvature; restart from steepest descent
            h = np.eye(z.size)
            p = -g
            slope = g @ p
        step = 1.0
        accepted = False
        for _ in range(60):
            z_new = z + step * p
            try:
                f_new, g_new, extra_new = f_and_g(z_new)
            except (FloatingPointError, OverflowError, ValueError):
                f_new = np.inf
                g_new = extra_new = None
            if np.isfinite(f_new) and f_new <= fval + 1e-4 * step * slope:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            return z, fval, g, extra, n_iter, False
        # stop once improvements sink below double precision for a while
        n_flat = n_flat + 1 if fval - f_new <= 1e-13 * max(1.0, abs(fval)) else 0
        if n_flat >= 3:
            return z_new, f_new, g_new, extra_new, n_iter, np.max(np.abs(g_new)) < tol
        s = z_new - z
        yk = g_new - g
        sy = s @ yk
        if sy > 1e-12 * np.linalg.norm(s) * np.linalg.norm(yk):
            rho = 1.0 / sy
            v = np.eye(z.size) - rho * np.outer(s, yk)
            h = v @ h @ v.T + rho * np.outer(s, s)
        z, fval, g, extra = z_new, f_new, g_new, extra_new
    return z, fval, g, extra, n_iter, np.max(np.abs(g)) < tol


def mle_fit(series, model_tag=None, x1=None, options=None, theta_init=None, seed=None):
    """Maximize the conditional log-likelihood over the stable region."""
    opts = options or FitOptions()
    tag = model_tag or series.model_tag
    if not isinstance(series, Series):
        series = Series(y=series, model_tag=tag)  # checks y, builds the count table once
    _validate_series(series.y)
    theta0 = theta_init if theta_init is not None else init_generic(series, tag, x1)
    if theta0.margin() < opts.margin:
        theta0 = _pull_inside(theta0, opts.margin)
    if x1 is None:
        x1 = theta0.fixed_point()
    fmap = FeasibleMap(tag, d=theta0.d if tag == "nm" else 1)
    z = fmap.encode(theta0)
    theta0 = fmap.decode(z)  # the start as the optimizer evaluates it

    def value_and_grad_z(params):
        """The loglik and its gradient in z; NBIN gets both from one state solve."""
        if tag == "nbin":
            val, grad = grad_loglik_nbin(params, x1, series, with_value=True)
            return val, fmap.chain_rule(grad, params)
        return (loglik(params, x1, series).value,
                grad_loglik_numeric(params, x1, series, step=opts.fd_step))

    def penalized(params, val, gz, lam, mu):
        c = _constraint(params, opts.margin)
        t = min(lam / mu + c, 1e100)  # clip wild trial points
        if t > 0:
            pen = 0.5 * mu * t * t
            cg = np.clip(_constraint_grad_z(params, fmap, opts.fd_step), -1e100, 1e100)
            pen_g = min(mu * t, 1e100) * cg
        else:
            pen = 0.0
            pen_g = 0.0
        return -val + pen, -gz + pen_g

    ll0, gz0 = value_and_grad_z(theta0)
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
            val, gz = value_and_grad_z(params)
            return (*penalized(params, val, gz, _lam, _mu), (val, gz))

        # each inner problem starts at the point the last one accepted
        start = (*penalized(theta, ll_z, gz_z, lam, mu), (ll_z, gz_z))
        z, fv, _, (ll_z, gz_z), n_it, inner_ok = _bfgs(f_and_g, z, start, opts.tol,
                                                      opts.max_inner)
        n_inner_total += n_it
        theta = fmap.decode(z)
        c = _constraint(theta, opts.margin)
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
        theta_hat = _pull_inside(theta_hat, opts.margin)
        ll_hat, gz = value_and_grad_z(theta_hat)
    if ll_hat < ll0 - 1e-12:
        theta_hat, ll_hat, gz = theta0, ll0, gz0
        inner_ok = False

    c_final = _constraint(theta_hat, opts.margin)
    if c_final >= -1e-8:
        cg = _constraint_grad_z(theta_hat, fmap, opts.fd_step)
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
        seed=int(seed if seed is not None else getattr(series, "seed", 0)),
        projected_grad_norm=pg_norm,
    )


def _pull_inside(params, margin):
    """Scale parameters toward the stable region until margin is met.

    The target is a hair inside, 1 - margin (1 + 1e-9): the rescaled point is
    rounded (NM's spectral radius most of all), and a target of exactly
    1 - margin can leave its margin an ulp or so short.
    """
    target = 1.0 - margin * (1.0 + 1e-9)
    if params.tag == "nbin":
        s = params.a + params.b * params.r
        if s > target:
            shrink = target / s
            return NbinParams(params.omega, params.a * shrink, params.b * shrink, params.r)
        return params
    if params.tag == "ting":
        if params.a > target:
            return TingParams(params.omega, target, params.b, params.tau)
        return params
    rho = 1.0 - params.margin()
    if rho > target:
        shrink = target / rho
        return NmParams(params.gamma, params.omega_vec,
                        params.A * shrink, params.b_vec * shrink)
    return params
