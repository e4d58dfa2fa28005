"""The array kernels against plain reference loops kept in this file."""

import math

import numpy as np
import pytest
from conftest import random_nm
from scipy.special import digamma

from odgarch import NbinParams, TingParams, kernels, simulate

TOL = dict(rtol=1e-12, atol=1e-12)
SIZES = (1, 2, 128, 4096)
NBIN = NbinParams(3.0, 0.2, 0.2, 2.0)
TING = TingParams(3.0, 0.35, 0.1, 4.0)


def ref_nbin(y, x1, w, a, b, r):
    """Loop state path, sensitivities, loglik and gradient in (w, a, b, r)."""
    n = len(y)
    u, du = np.empty(n), np.zeros((n, 3))
    s, g = 0.0, np.zeros(4)
    for k in range(n):
        if k == 0:
            u[0] = x1
        else:
            u[k] = w + a * u[k - 1] + b * y[k - 1]
            du[k] = np.array([1.0, u[k - 1], y[k - 1]]) + a * du[k - 1]
        s += (math.lgamma(y[k] + r) - math.lgamma(r) - math.lgamma(y[k] + 1.0)
              + y[k] * math.log(u[k]) - (y[k] + r) * math.log1p(u[k]))
        g[:3] += (y[k] / u[k] - (y[k] + r) / (1.0 + u[k])) * du[k]
        g[3] += digamma(r + y[k]) - digamma(r) - math.log1p(u[k])
    return u, du, s / n, g / n


def ref_ting(y, x1, w, a, b, tau):
    u, s = x1, 0.0
    for k in range(len(y)):
        if k:
            u = w + a * u + b * y[k - 1]
        lam = min(u, tau)
        s += -lam + y[k] * math.log(lam) - math.lgamma(y[k] + 1.0)
    return s / len(y)


def ref_nm(y, x1, wv, A, bv, gamma):
    n, d = len(y), len(x1)
    u = np.empty((n, d))
    s = 0.0
    for k in range(n):
        if k == 0:
            u[0] = x1
        else:
            for i in range(d):
                u[k, i] = wv[i] + y[k - 1] ** 2 * bv[i] + sum(A[i, j] * u[k - 1, j]
                                                              for j in range(d))
        terms = [math.log(gamma[l]) - 0.5 * y[k] ** 2 / u[k, l]
                 - 0.5 * math.log(2.0 * math.pi * u[k, l]) for l in range(d)]
        top = max(terms)
        s += top + math.log(sum(math.exp(t - top) for t in terms))
    return u, s / n


def ref_scan(c, a):
    x = np.array(c, dtype=float)
    for k in range(1, len(x)):
        x[k] += a @ x[k - 1] if np.ndim(a) == 2 else a * x[k - 1]
    return x


@pytest.mark.parametrize("n", SIZES + (3, 5, 1000))
def test_affine_scan_matches_loop(n):
    rng = np.random.default_rng(n)
    for c, a in [(rng.uniform(0, 2, n), 0.7),
                 (rng.uniform(0, 2, (n, 3)), 0.95),
                 (rng.uniform(0, 2, (n, 3)), rng.uniform(0, 0.3, (3, 3)))]:
        np.testing.assert_allclose(kernels.affine_scan(c, a), ref_scan(c, a), **TOL)


@pytest.mark.parametrize("n", SIZES)
def test_nbin_kernels_match_loop(n):
    y = simulate(NBIN, n, seed=n).y
    args = (y, 7.5, NBIN.omega, NBIN.a, NBIN.b, NBIN.r)
    u, du, value, grad = ref_nbin(*args)
    np.testing.assert_allclose(kernels.affine_filter(*args[:5]), u, **TOL)
    got_u, got_du = kernels.nbin_filter(*args[:5])
    np.testing.assert_allclose(got_u, u, **TOL)
    np.testing.assert_allclose(got_du, du, **TOL)
    np.testing.assert_allclose(kernels.nbin_loglik(*args), value, **TOL)
    got_value, got_grad = kernels.nbin_loglik_grad(*args)
    np.testing.assert_allclose(got_value, value, **TOL)
    np.testing.assert_allclose(got_grad, grad, **TOL)


@pytest.mark.parametrize("n", SIZES)
def test_ting_kernel_matches_loop(n):
    y = simulate(TING, n, seed=n).y
    args = (y, 5.0, TING.omega, TING.a, TING.b, TING.tau)
    np.testing.assert_allclose(kernels.ting_loglik(*args), ref_ting(*args), **TOL)


@pytest.mark.parametrize("d", (1, 2, 3))
@pytest.mark.parametrize("n", SIZES)
def test_nm_kernels_match_loop(n, d):
    p = random_nm(np.random.default_rng(10 * d + n), d=d)
    y = simulate(p, n, seed=n).y
    args = (y, p.fixed_point(), p.omega_vec, p.A, p.b_vec, p.gamma)
    u, value = ref_nm(*args)
    np.testing.assert_allclose(kernels.nm_filter(*args[:5]), u, **TOL)
    np.testing.assert_allclose(kernels.nm_loglik(*args), value, **TOL)


def test_overflow_raises():
    # an explosive trial point overflows the state path: an error, not inf
    y = simulate(NBIN, 4096, seed=1).y
    with pytest.raises(FloatingPointError):
        kernels.nbin_loglik(y, 7.5, 3.0, 5.0, 0.2, 2.0)
    with pytest.raises(FloatingPointError):
        kernels.nbin_loglik_grad(y, 7.5, 3.0, 5.0, 0.2, 2.0)
