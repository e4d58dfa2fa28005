"""Conditional log-likelihood: state path, value, gradients.

Observations are a Series of the params' model or a 1-d array, checked once
by ``Series.of``.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .params import NbinParams, Series
from .reparam import FeasibleMap

FD_STEP = 1e-5  # the default step of the fit's central differences, in its coordinates z


@dataclass
class LoglikValue:
    value: float


def filter_series(params, x1, series):
    """The state path, (n,) or (n, d): row k is the state reached from x1 along y[:k]."""
    s = Series.of(series, params.tag)
    return kernels.affine_filter(params.h(s.y), params.check_anchor(x1), *params.coefficients())


def loglik(params, x1, series):
    """Normalized conditional log-likelihood given X_1 = x1: finite, or the kernel raises
    FloatingPointError."""
    s = Series.of(series, params.tag)
    x1 = params.check_anchor(x1)
    value = params.kernel_loglik(s.y, x1, s.count_table)
    return LoglikValue(value=float(value))


def grad_loglik_nbin(params, x1, series, *, with_value=False):
    """Exact gradient of the normalized NBIN log-likelihood in (omega, a, b, r).

    With with_value, returns (value, gradient) from one solve of the state
    path; the value equals ``loglik(params, x1, series).value`` bit for bit.
    """
    if not isinstance(params, NbinParams):
        raise TypeError("grad_loglik_nbin requires NbinParams")
    s = Series.of(series, params.tag)
    x1 = params.check_anchor(x1)
    value, grad = kernels.nbin_loglik_grad(s.y, x1, params.omega, params.a, params.b,
                                           params.r, s.count_table)
    return (float(value), grad) if with_value else grad


def grad_loglik_numeric(params, x1, series, step=FD_STEP):
    """Central-difference gradient in the fit's unconstrained coordinates z."""
    s = Series.of(series, params.tag)
    fmap = FeasibleMap(params)
    z0 = fmap.encode(params)
    grad = np.empty(z0.size)
    for i in range(z0.size):
        z = z0.copy()
        z[i] = z0[i] + step
        hi = loglik(fmap.decode(z), x1, s).value
        z[i] = z0[i] - step
        lo = loglik(fmap.decode(z), x1, s).value
        grad[i] = (hi - lo) / (2.0 * step)
    return grad
