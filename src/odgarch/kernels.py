"""Log-likelihood kernels: one affine scan, then elementwise log densities.

All three models move their state by the affine map x' = w + A x + b h(y),
with h(y) = y for NBIN and TING and h(y) = y^2 for NM. A state path is
therefore the linear recurrence x[k] = A x[k-1] + c[k] with the drive
c[0] = x1, c[k] = w + b h(y[k-1]). ``affine_scan`` evaluates it in
ceil(log2 n) doubling passes of whole-array numpy operations, a prefix
scan (Blelloch 1990, "Prefix sums and their applications"). The
log-likelihood is the mean of the model's log density along the path.

The kernels run with numpy raising on overflow, invalid operations and
division by zero: a parameter point whose path or density leaves the
floating-point range raises ``FloatingPointError`` instead of returning
inf or nan.
"""

import numpy as np
from scipy.special import psi

from .models import nbin_log_pmf, nm_log_density, poisson_log_pmf

# There is a single numpy backend and no JIT. The flag stays because the
# environment block of perfbench/run.py reads it.
USE_NUMBA = False

_raise_fp = np.errstate(over="raise", invalid="raise", divide="raise")


def affine_scan(c, a):
    """x[0] = c[0], x[k] = a x[k-1] + c[k], for a scalar or a d x d matrix a.

    c has shape (n, ...) for a scalar a and (n, d) for a matrix. Before
    the pass with shift s, x[k] holds the last s terms of the recurrence,
    sum over j in (k-s, k] of a^(k-j) c[j]; adding a^s x[k-s] doubles that.
    """
    x = np.array(c, dtype=float)
    matrix = np.ndim(a) == 2
    power = a
    shift = 1
    while shift < len(x):
        x[shift:] += x[:-shift] @ power.T if matrix else x[:-shift] * power
        shift *= 2
        if shift < len(x):
            power = power @ power if matrix else power * power
    return x


@_raise_fp
def affine_filter(y, x1, w, a, b):
    """State path u[0] = x1, u[k] = w + a u[k-1] + b y[k-1]; a scalar or d x d."""
    c = np.empty((len(y),) + np.shape(x1))
    c[0] = x1
    c[1:] = w + np.multiply.outer(y[:-1], b)
    return affine_scan(c, a)


@_raise_fp
def nbin_filter(y, x1, w, a, b):
    """State path plus its sensitivity du[k] = d u[k] / d (w, a, b).

    The sensitivities follow the state's recursion from 0, driven by
    1, u[k-1] and y[k-1].
    """
    u = affine_filter(y, x1, w, a, b)
    c = np.zeros((len(y), 3))
    c[1:, 0] = 1.0
    c[1:, 1] = u[:-1]
    c[1:, 2] = y[:-1]
    return u, affine_scan(c, a)


@_raise_fp
def nm_filter(y, x1, wv, A, bv):
    """NM state path: the affine filter driven by the squared observations."""
    return affine_filter(y * y, x1, wv, A, bv)


@_raise_fp
def nbin_loglik(y, x1, w, a, b, r):
    return np.mean(nbin_log_pmf(affine_filter(y, x1, w, a, b), y, r))


@_raise_fp
def nbin_loglik_grad(y, x1, w, a, b, r):
    """Normalized log-likelihood and its exact gradient in (w, a, b, r)."""
    u, du = nbin_filter(y, x1, w, a, b)
    grad = np.empty(4)
    grad[:3] = (y / u - (y + r) / (1.0 + u)) @ du / len(y)
    grad[3] = np.mean(psi(r + y) - np.log1p(u)) - psi(r)
    return np.mean(nbin_log_pmf(u, y, r)), grad


@_raise_fp
def ting_loglik(y, x1, w, a, b, tau):
    u = affine_filter(y, x1, w, a, b)
    return np.mean(poisson_log_pmf(np.minimum(u, tau), y))


@_raise_fp
def nm_loglik(y, x1, wv, A, bv, gamma):
    return np.mean(nm_log_density(nm_filter(y, x1, wv, A, bv), y, gamma))
