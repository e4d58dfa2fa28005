"""Conditional log-likelihood: iterated state map, filter trace, gradients."""

from dataclasses import dataclass

import numpy as np
from scipy.special import psi

from . import kernels
from .models import _check_state
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


@dataclass
class LoglikValue:
    value: float
    n: int
    x1: object


def _as_y(params, series):
    """The observations of a Series, or a plain array checked as the model checks them."""
    if isinstance(series, Series):
        return series.y
    y = np.asarray(series, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("observations must be a nonempty 1-d array")
    return params.check_obs(y)


def _obs_table(params, series, y):
    """The series' distinct-count table, or the model's summary of a plain array."""
    table = getattr(series, "count_table", None)
    return params.obs_table(y) if table is None else table


def iterate_f(params, x, y_slice):
    """Compose the state-update map along y_slice; empty slice returns x."""
    x = _check_state(params, x)
    for y in params.check_obs(np.asarray(y_slice, dtype=float).ravel()):
        x = params.step(x, y)
    return x


def filter_series(params, x1, series):
    """Filter trace u[k]: the state path of the affine map along the series."""
    y = _as_y(params, series)
    x1 = _check_state(params, x1)
    return FilterTrace(u=kernels.affine_filter(params.h(y), x1, *params.coefficients()), x1=x1)


def loglik(params, x1, series):
    """Normalized conditional log-likelihood given X_1 = x1."""
    y = _as_y(params, series)
    x1 = _check_state(params, x1)
    value = params.kernel_loglik(y, x1, _obs_table(params, series, y))
    if not np.isfinite(value):
        raise FloatingPointError("log-likelihood is not finite")
    return LoglikValue(value=float(value), n=y.size, x1=x1)


def grad_loglik_nbin(params, x1, series, *, with_value=False):
    """Exact gradient of the normalized NBIN log-likelihood in (omega, a, b, r).

    With with_value, returns (value, gradient) from one solve of the state
    path; the value equals ``loglik(params, x1, series).value`` bit for bit.
    """
    if not isinstance(params, NbinParams):
        raise TypeError("grad_loglik_nbin requires NbinParams")
    y = _as_y(params, series)
    x1 = _check_state(params, x1)
    value, grad = kernels.nbin_loglik_grad(y, x1, params.omega, params.a, params.b,
                                           params.r, _obs_table(params, series, y))
    if not with_value:
        return grad
    if not np.isfinite(value):
        raise FloatingPointError("log-likelihood is not finite")
    return float(value), grad


def grad_loglik_numeric(params, x1, series, step=1e-5):
    """Central-difference gradient in the unconstrained reparameterization."""
    if not isinstance(series, Series):
        series = _as_y(params, series)
    return feasible_map_for(params).central_difference(
        lambda p: loglik(p, x1, series).value, params, step)
