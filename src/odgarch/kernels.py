"""Log-likelihood kernels: one affine recursion, then elementwise log densities.

All three models move their state by the affine map x' = w + A x + b h(y),
with h(y) = y for NBIN and TING and h(y) = y^2 for NM. A state path is
therefore the linear recurrence x[k] = A x[k-1] + c[k] with the drive
c[0] = x1, c[k] = w + b h(y[k-1]), which ``affine_filter`` evaluates.
Stacked into one vector of n d entries, the path solves L x = c, with L
unit block lower-bidiagonal: identity blocks on its diagonal and -A below
it. L is banded with 2d - 1 subdiagonals, so one call of the BLAS banded
solver ``dtbsv`` gives the path by forward substitution in O(n d^2); the
scalar a of NBIN and TING is the case d = 1. The log-likelihood is the
mean of the model's log density along the path.

The NBIN gradient in (w, a, b) is the adjoint of the state recursion
(reverse mode, Griewank & Walther 2008, "Evaluating Derivatives"): with
the score g[k] = d log p / d u[k], the transposed solve L^T v = g, that is
v[j] = g[j] + A^T v[j+1], gives d/dtheta sum_k log p = sum_{j>=1} v[j] dc[j]/dtheta,
where the drive's derivatives are (1, u[j-1], y[j-1]). ``_reverse`` is that
solve for any d: ``dtbsv`` on the path's own band with trans=1, which
substitutes backward and leaves v in order. ``nbin_loglik_grad`` returns
the value and the gradient from one solve of the state path, for a fitter
that needs both at every point; ``nbin_loglik`` is its value. The score is
written (y - r u) / (u (1 + u)), which does not cancel at large counts as
y / u - (y + r) / (1 + u) does. ``nbin_scores`` gives the per-observation
scores instead of their mean: the forward sensitivities du/d(w, a, b) solve
the same recursion, driven by (1, u[k-1], y[k-1]), on the same band.

The count models' log pmfs split into a part that depends on the count
alone and a part that depends on the state. The count-only part, and the
digamma term of the NBIN gradient, are summed over the distinct counts,
weighted by their frequencies: a series of n counts has far fewer
distinct values than n. The NBIN and TING kernels take that table,
``params.count_table(y)``, as their last argument. It has three columns:
the distinct counts, their relative frequencies, and their log factorials
gammaln(count + 1), which a series computes once and passes to the count
terms of ``models``, as ``log_density`` does with its own.

The kernels run with numpy raising on overflow, invalid operations and
division by zero: a parameter point whose path or density leaves the
floating-point range raises ``FloatingPointError`` instead of returning
inf or nan. Each kernel sets that error state once per call; the private
helpers it calls do not set it again. BLAS ignores numpy's error state, so
``_solve`` checks the path it returns to ``affine_filter``, TING and NM;
TING's cap at tau would otherwise hide an infinite path. The NBIN kernels
solve unchecked and check their outputs once instead: an infinite path
raises at log(u) - log1p(u), which is inf - inf, and a nan or an adjoint
that overflows shows up in the outputs.
"""

import math

import numpy as np
from scipy.linalg.blas import dtbsv
from scipy.special import psi

from .models import nbin_count_term, nm_log_density, poisson_count_term, poisson_state_term
from .params import _per_count

# There is a single numpy backend and no JIT. The flag stays because the
# environment block of perfbench/run.py reads it.
USE_NUMBA = False

_raise_fp = np.errstate(over="raise", invalid="raise", divide="raise")


def _band(a, n):
    """L for n states of the scalar or d x d a, in LAPACK lower-band storage.

    band[r - s, s] = L[r, s]: column k d + j holds -A[:, j] in rows d - j ... 2d - 1 - j
    and zeros above. With diag=1 dtbsv takes the diagonal as ones and never reads row 0.
    A scalar a, the d = 1 of NBIN and TING, is one fill of both rows with -a.
    """
    if np.ndim(a) == 0:
        band = np.empty((2, n), order="F")
        band.fill(-a)
        return band
    neg = -np.asarray(a, dtype=float)
    d = len(neg)
    band = np.zeros((2 * d, n * d), order="F")
    for j in range(d):
        band[d - j:2 * d - j, j::d] = neg[:, j, None]
    return band


def _forward(x, band):
    """Solve L x = c in place for the drive c held in x, a C-contiguous float array."""
    # positional: incx=1, offx=0, lower=1, trans=0, diag=1, overwrite_x=1
    dtbsv(len(band) - 1, band, x.reshape(-1), 1, 0, 1, 0, 1, 1)
    return x


def _reverse(v, band):
    """Solve L^T v = g in place for g held in v: v[k] = g[k] + A^T v[k+1], the adjoint.

    dtbsv with trans=1 reads the path's own band and substitutes backward, so v comes
    out in order, C-contiguous, for any d.
    """
    # positional: incx=1, offx=0, lower=1, trans=1, diag=1, overwrite_x=1
    dtbsv(len(band) - 1, band, v.reshape(-1), 1, 0, 1, 1, 1, 1)
    return v


def _solve(x, band):
    """``_forward``, raising where the path leaves the floating-point range."""
    if not np.isfinite(_forward(x, band)).all():
        raise FloatingPointError("affine recursion left the floating-point range")
    return x


def _drive(y, x1, w, b):
    """The drive c[0] = x1, c[k] = w + b y[k-1] of the state path; y broadcasts against b."""
    c = np.empty((len(y),) + np.shape(x1))
    c[0] = x1
    drive = c[1:]
    np.multiply(y[:-1], b, out=drive)
    drive += w
    return c


@_raise_fp
def affine_filter(y, x1, w, a, b):
    """State path u[0] = x1, u[k] = w + a u[k-1] + b y[k-1]; a scalar or d x d."""
    return _solve(_drive(y if np.ndim(b) == 0 else y[:, None], x1, w, b), _band(a, len(y)))


def _nbin_score(y, u, r, out, work):
    """The NBIN score d log p / d u = (y - r u) / (u (1 + u)) in out; work is overwritten."""
    np.multiply(u, r, out=out)
    np.subtract(y, out, out=out)
    np.add(u, 1.0, out=work)
    work *= u
    out /= work
    return out


def nbin_loglik(y, x1, w, a, b, r, table):
    """The normalized log-likelihood: ``nbin_loglik_grad``'s value."""
    return nbin_loglik_grad(y, x1, w, a, b, r, table)[0]


@_raise_fp
def nbin_loglik_grad(y, x1, w, a, b, r, table):
    """The normalized log-likelihood and its exact gradient in (w, a, b, r).

    Returns (value, grad) from one solve of the state path. The (w, a, b) part
    of the gradient comes from one reverse solve of the state recursion driven
    by the score, on the path's band; the forward sensitivities are never formed.
    The state term is summed as y @ (log u - log1p u) - r sum(log1p u), whose sum of
    log1p(u) the r-gradient shares. Each sum is one pass over a contiguous array.
    """
    values, weights, log_factorial = table
    n = len(y)
    band = _band(a, n)
    u = _forward(_drive(y, x1, w, b), band)
    l1p = np.log1p(u)
    sum_l1p = l1p.sum()
    log_odds = np.log(u)
    log_odds -= l1p  # inf - inf raises where the path is infinite
    state = (y @ log_odds - r * sum_l1p) / n
    values_r = values + r
    value = weights @ nbin_count_term(values_r, r, log_factorial) + state
    v = _reverse(_nbin_score(y, u, r, log_odds, l1p), band)[1:]  # j >= 1: c[0] is fixed
    grad = (v.sum() / n, (v @ u[:-1]) / n, (v @ y[:-1]) / n,
            weights @ psi(values_r) - psi(r) - sum_l1p / n)
    if not all(map(math.isfinite, (value, *grad))):
        raise FloatingPointError("NBIN loglik or gradient left the floating-point range")
    return value, np.array(grad)


@_raise_fp
def nbin_scores(y, x1, w, a, b, r):
    """The (n, 4) per-observation scores d log p(y[k] | u[k]) / d(w, a, b, r).

    Column j < 3 is score[k] du[k]/dtheta_j: each sensitivity is one forward solve,
    on the state path's band, of the drive (1, u[k-1], y[k-1]), zero at k = 0 because
    the anchor is fixed; the three are held as C-contiguous rows. Column 3 is
    psi(y[k] + r) - psi(r) - log1p(u[k]), with psi(y + r) evaluated once per count.
    The column means are ``nbin_loglik_grad``'s gradient.
    """
    n = len(y)
    band = _band(a, n)
    u = _forward(_drive(y, x1, w, b), band)
    out = np.empty((4, n))
    du = out[:3]
    du[:, 0] = 0.0
    du[0, 1:] = 1.0
    du[1, 1:] = u[:-1]
    du[2, 1:] = y[:-1]
    for row in du:
        _forward(row, band)
    du *= _nbin_score(y, u, r, out[3], np.empty(n))
    out[3] = _per_count(lambda v: psi(r + v), y)
    out[3] -= psi(r)
    out[3] -= np.log1p(u)
    if not np.isfinite(out).all():
        raise FloatingPointError("NBIN scores left the floating-point range")
    return out.T


@_raise_fp
def ting_loglik(y, x1, w, a, b, tau, table):
    _, weights, log_factorial = table
    lam = np.minimum(_solve(_drive(y, x1, w, b), _band(a, len(y))), tau)
    return weights @ poisson_count_term(log_factorial) + poisson_state_term(lam, y).sum() / len(y)


@_raise_fp
def nm_loglik(y, x1, wv, A, bv, gamma):
    u = _solve(_drive((y * y)[:, None], x1, wv, bv), _band(A, len(y)))
    return nm_log_density(u, y, gamma).sum() / len(y)
