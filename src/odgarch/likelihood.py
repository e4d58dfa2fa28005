"""Conditional log-likelihood: iterated state map, filter trace, gradients."""

from dataclasses import dataclass

import numpy as np
from scipy.special import psi

from . import kernels
from .models import _check_obs, _check_state, _step
from .params import NbinParams, Series
from .reparam import feasible_map_for


def digamma(x):
    """Derivative of ln Gamma, for x > 0."""
    if not np.isfinite(x) or x <= 0:
        raise ValueError("digamma requires x > 0")
    return float(psi(x))


@dataclass
class FilterTrace:
    """u[k] is the state reached by iterating the update map along y[:k]."""

    u: np.ndarray
    x1: object
    du: np.ndarray | None = None  # NBIN only: d u[k] / d (omega, a, b)


@dataclass
class LoglikValue:
    value: float
    n: int
    x1: object


def _as_y(series):
    if isinstance(series, Series):
        return series.y
    y = np.asarray(series, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("observations must be a nonempty 1-d array")
    return y


def iterate_f(params, x, y_slice):
    """Compose the state-update map along y_slice; empty slice returns x."""
    x = _check_state(params, x)
    for y in _check_obs(params, np.asarray(y_slice, dtype=float).ravel()):
        x = _step(params, x, y)
    return x


def filter_series(params, x1, series):
    """Filter trace u[k] (and the NBIN parameter sensitivity du)."""
    y = _as_y(series)
    x1 = _check_state(params, x1)
    if params.tag == "nbin":
        u, du = kernels.nbin_filter(y, x1, params.omega, params.a, params.b)
        return FilterTrace(u=u, x1=x1, du=du)
    if params.tag == "ting":
        u = kernels.affine_filter(y, x1, params.omega, params.a, params.b)
        return FilterTrace(u=u, x1=x1)
    u = kernels.nm_filter(y, x1, params.omega_vec, params.A, params.b_vec)
    return FilterTrace(u=u, x1=x1)


def loglik(params, x1, series):
    """Normalized conditional log-likelihood given X_1 = x1."""
    y = _as_y(series)
    x1 = _check_state(params, x1)
    if params.tag == "nbin":
        value = kernels.nbin_loglik(y, x1, params.omega, params.a, params.b, params.r)
    elif params.tag == "ting":
        value = kernels.ting_loglik(y, x1, params.omega, params.a, params.b, params.tau)
    else:
        value = kernels.nm_loglik(y, x1, params.omega_vec, params.A,
                                  params.b_vec, params.gamma)
    if not np.isfinite(value):
        raise FloatingPointError("log-likelihood is not finite")
    return LoglikValue(value=float(value), n=y.size, x1=x1)


def grad_loglik_nbin(params, x1, series):
    """Exact gradient of the normalized NBIN log-likelihood in (omega, a, b, r)."""
    if not isinstance(params, NbinParams):
        raise TypeError("grad_loglik_nbin requires NbinParams")
    y = _as_y(series)
    x1 = _check_state(params, x1)
    _, grad = kernels.nbin_loglik_grad(y, x1, params.omega, params.a,
                                       params.b, params.r)
    return grad


def grad_loglik_numeric(params, x1, series, step=1e-5):
    """Central-difference gradient in the unconstrained reparameterization."""
    y = _as_y(series)
    fmap = feasible_map_for(params)
    z0 = fmap.encode(params)
    grad = np.empty(z0.size)
    for i in range(z0.size):
        z = z0.copy()
        z[i] = z0[i] + step
        hi = loglik(fmap.decode(z), x1, y).value
        z[i] = z0[i] - step
        lo = loglik(fmap.decode(z), x1, y).value
        grad[i] = (hi - lo) / (2.0 * step)
    return grad
