"""The array kernels against plain reference loops kept in this file."""

import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest
from conftest import random_nm
from scipy.special import digamma, gammaln

from odgarch import NbinParams, NmParams, TingParams, kernels, likelihood, simulate
from odgarch.params import count_table

TOL = dict(rtol=1e-12, atol=1e-12)
SIZES = (1, 2, 128, 4096)
NBIN = NbinParams(3.0, 0.2, 0.2, 2.0)
# The count kernels are compared at a = 0.2, 0.5 and 0.95. At a = 0.5 and
# n = 4096 the weight a^k of the start underflows through the subnormals to
# zero; at a = 0.95 the recursion forgets its start slowly.
NBINS = (NBIN, NbinParams(3.0, 0.5, 0.2, 2.0), NbinParams(0.5, 0.95, 0.02, 2.0))
# The first TING set caps nearly every state at tau; in the other three
# 3-15 % of the states are capped.
TINGS = (TingParams(3.0, 0.35, 0.1, 4.0), TingParams(2.0, 0.2, 0.1, 3.2),
         TingParams(1.2, 0.5, 0.1, 3.2), TingParams(0.1, 0.95, 0.02, 3.5))


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
        g[:3] += (y[k] - r * u[k]) / (u[k] * (1.0 + u[k])) * du[k]
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


# Non-symmetric with spectral radius 0.95: a transposed band changes the path.
SKEW = np.array([[0.8, 0.3], [0.05, 0.4]])
SKEW *= 0.95 / np.max(np.abs(np.linalg.eigvals(SKEW)))


@pytest.mark.parametrize("n", SIZES + (3, 5, 1000))
def test_affine_scan_matches_loop(n):
    # the banded solve of x[k] = a x[k-1] + c[k] on a C-ordered drive, as _filter builds it
    rng = np.random.default_rng(n)
    for c, a in [(rng.uniform(0, 2, n), 0.7),
                 (rng.uniform(0, 2, (n, 1)), np.array([[0.7]])),
                 (rng.uniform(0, 2, (n, 3)), 0.95 * np.eye(3)),
                 (rng.uniform(0, 2, (n, 3)), 0.5 * np.eye(3)),
                 (rng.uniform(0, 2, (n, 3)), rng.uniform(0, 0.3, (3, 3))),
                 (rng.uniform(0, 2, (n, 2)), SKEW)]:
        x = kernels._solve(np.array(c, dtype=float, order="C"), kernels._band(a, n))
        np.testing.assert_allclose(x, ref_scan(c, a), **TOL)


def count_series(params, kind):
    """A simulated series of length kind, or a series whose counts stress the
    distinct-count table: heavy repeats (mostly zeros, a long run of one
    count), all counts distinct, a single distinct count, or counts above
    10^5, whose log factorials exceed 10^6."""
    if kind == "repeats":
        y = np.zeros(4096)
        y[1000:2500] = 7.0
        y[::61] = 2.0
        return y
    if kind == "distinct":
        return np.random.default_rng(5).permutation(512).astype(float)
    if kind == "constant":
        return np.full(300, 4.0)
    if kind == "large":
        return np.random.default_rng(6).integers(100_001, 400_000, 512).astype(float)
    return simulate(params, kind, seed=kind).y


COUNT_KINDS = SIZES + ("repeats", "distinct", "constant", "large")


@pytest.mark.parametrize("n", COUNT_KINDS)
def test_count_table(n):
    y = count_series(NBIN, n)
    values, weights, log_factorial = count_table(y)
    assert np.array_equal(values, np.unique(y))
    assert np.array_equal(weights * y.size, [np.sum(y == v) for v in values])
    # the log factorials are gammaln's, bit for bit, so the kernels' sums do not move
    assert log_factorial.tobytes() == gammaln(values + 1.0).tobytes()


@pytest.mark.parametrize("n", COUNT_KINDS)
def test_nbin_kernels_match_loop(n):
    for p in NBINS:
        y = count_series(p, n)
        args = (y, 7.5, p.omega, p.a, p.b, p.r)
        u, _, value, grad = ref_nbin(*args)
        np.testing.assert_allclose(kernels.affine_filter(*args[:5]), u, **TOL)
        table = count_table(y)
        np.testing.assert_allclose(kernels.nbin_loglik(*args, table), value, **TOL)
        got_value, got_grad = kernels.nbin_loglik_grad(*args, table)
        np.testing.assert_allclose(got_value, value, **TOL)
        np.testing.assert_allclose(got_grad, grad, **TOL)
        assert got_value == kernels.nbin_loglik(*args, table)


def mp_nbin_grad(y, x1, w, a, b, r):
    """The (w, a, b) gradient of ``ref_nbin`` in 40-digit mpmath arithmetic."""
    with mpmath.workdps(40):
        w, a, b, r = map(mpmath.mpf, (w, a, b, r))
        u, du, g = mpmath.mpf(x1), [mpmath.mpf(0)] * 3, [mpmath.mpf(0)] * 3
        for k, yk in enumerate(map(mpmath.mpf, y)):
            if k:
                du = [1 + a * du[0], u + a * du[1], y_prev + a * du[2]]
                u = w + a * u + b * y_prev
            score = yk / u - (yk + r) / (1 + u)
            g = [gi + score * di for gi, di in zip(g, du)]
            y_prev = yk
        return [float(gi / len(y)) for gi in g]


def test_nbin_grad_on_large_counts_matches_mpmath():
    # the score (y - r u) / (u (1 + u)) keeps its digits at counts above 10^5, where
    # y / u - (y + r) / (1 + u) cancelled to about 1e-12
    for p in NBINS:
        y = count_series(p, "large")
        args = (y, 7.5, p.omega, p.a, p.b, p.r)
        grad = kernels.nbin_loglik_grad(*args, count_table(y))[1]
        np.testing.assert_allclose(grad[:3], mp_nbin_grad(*args), rtol=1e-14, atol=0)


def ref_nbin_scores(y, x1, w, a, b, r):
    """The (n, 4) per-observation scores from ``ref_nbin``'s loop sensitivities."""
    u, du, _, _ = ref_nbin(y, x1, w, a, b, r)
    s = np.empty((len(y), 4))
    for k in range(len(y)):
        s[k, :3] = (y[k] - r * u[k]) / (u[k] * (1.0 + u[k])) * du[k]
        s[k, 3] = digamma(r + y[k]) - digamma(r) - math.log1p(u[k])
    return s


@pytest.mark.parametrize("n", COUNT_KINDS)
def test_nbin_scores_match_loop(n):
    for p in NBINS:
        y = count_series(p, n)
        args = (y, 7.5, p.omega, p.a, p.b, p.r)
        table = count_table(y)
        scores = kernels.nbin_scores(*args, table)
        assert scores.shape == (len(y), 4)
        np.testing.assert_allclose(scores, ref_nbin_scores(*args), **TOL)
        # their mean is the gradient, summed another way
        grad = kernels.nbin_loglik_grad(*args, table)[1]
        np.testing.assert_allclose(scores.mean(axis=0), grad, rtol=1e-12, atol=0)


def dense_l(a, n):
    """L as a dense (n d) x (n d) matrix: identity blocks, -a below the diagonal."""
    d = len(np.atleast_2d(a))
    big = np.eye(n * d)
    for k in range(1, n):
        big[k * d:(k + 1) * d, (k - 1) * d:k * d] = -np.atleast_2d(a)
    return big


@pytest.mark.parametrize("d", (1, 2, 3))
@pytest.mark.parametrize("n", (1, 2, 128))
def test_reverse_solve_matches_dense(n, d):
    # the adjoint's solve L^T v = g on the path's own band, in the (n, d) layout of a path
    rng = np.random.default_rng(100 * d + n)
    a = {1: np.array([[0.95]]), 2: SKEW, 3: rng.uniform(0, 0.3, (3, 3))}[d]
    g = rng.normal(0, 1, (n, d))
    want = np.linalg.solve(dense_l(a, n).T, g.reshape(-1)).reshape(n, d)
    v = kernels._reverse(g.copy(), kernels._band(a, n))
    np.testing.assert_allclose(v, want, rtol=1e-13, atol=0)
    if d == 1:  # the scalar band of NBIN and TING, against v[j] = g[j] + a v[j+1]
        g, a = g[:, 0], a[0, 0]
        loop = g.copy()
        for j in range(n - 2, -1, -1):
            loop[j] += a * loop[j + 1]
        v = kernels._reverse(g.copy(), kernels._band(a, n))
        assert v.flags.c_contiguous
        np.testing.assert_allclose(v, loop, **TOL)


# From 1e-310 (subnormal) to 1e3. At 1e-310 the score, about y / u, overflows; near
# 1e-306 and 1e-305 the path and the score are finite but the adjoint's sums overflow.
EXTREME = (1e-310, 1e-306, 1e-305, 1e-303, 1.0, 1e3)


@pytest.mark.parametrize("n", (128, 512))
def test_nbin_kernels_finite_or_raise(n):
    # on every point each NBIN kernel returns finite numbers or raises FloatingPointError,
    # and never warns; a = 5 overflows the path at n = 512
    y = simulate(NBIN, n, seed=n).y
    table = count_table(y)
    raised = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, r, w, b, x1 in itertools.product((0.5, 0.999, 1.05, 5.0), (1e-3, 2.0, 1e6),
                                                EXTREME, EXTREME, EXTREME):
            for kernel in (kernels.nbin_loglik_grad, kernels.nbin_scores):
                try:
                    out = kernel(y, x1, w, a, b, r, table)
                except FloatingPointError:
                    raised.add((kernel, a, r, w, b, x1))
                    continue
                assert all(np.isfinite(o).all() for o in out), (kernel, a, r, w, b, x1)
    # it raises where only the adjoint leaves the range, and where the path is infinite
    assert (kernels.nbin_loglik_grad, 0.999, 2.0, 1e-305, 1e-305, 1e-305) in raised
    assert ((kernels.nbin_loglik_grad, 5.0, 2.0, 1.0, 1.0, 1.0) in raised) == (n == 512)
    assert len(raised) < 2 * 4 * 3 * len(EXTREME) ** 3


@pytest.mark.parametrize("n", COUNT_KINDS)
def test_ting_kernel_matches_loop(n):
    for p in TINGS:
        y = count_series(p, n)
        args = (y, 5.0, p.omega, p.a, p.b, p.tau)
        np.testing.assert_allclose(kernels.ting_loglik(*args, count_table(y)),
                                   ref_ting(*args), **TOL)


@pytest.mark.parametrize("d", (1, 2, 3))
@pytest.mark.parametrize("n", SIZES)
def test_nm_kernels_match_loop(n, d):
    p = random_nm(np.random.default_rng(10 * d + n), d=d)
    y = simulate(p, n, seed=n).y
    args = (y, p.fixed_point(), p.omega_vec, p.A, p.b_vec, p.gamma)
    u, value = ref_nm(*args)
    np.testing.assert_allclose(kernels.affine_filter(y * y, *args[1:5]), u, **TOL)
    np.testing.assert_allclose(kernels.nm_loglik(*args), value, **TOL)


def test_overflow_raises():
    # an explosive trial point overflows the state path: an error, not inf
    y = simulate(NBIN, 4096, seed=1).y
    with pytest.raises(FloatingPointError):
        kernels.nbin_loglik(y, 7.5, 3.0, 5.0, 0.2, 2.0, count_table(y))
    with pytest.raises(FloatingPointError):
        kernels.nbin_loglik_grad(y, 7.5, 3.0, 5.0, 0.2, 2.0, count_table(y))
    # TING caps the state at tau: an infinite state must raise, not become tau
    with pytest.raises(FloatingPointError):
        kernels.ting_loglik(y, 5.0, 3.0, 5.0, 0.1, 4.0, count_table(y))
    # NM: the BLAS solve ignores numpy's error state, so _solve's own
    # check is what catches the path at spectral radius 1.44
    nm = NmParams(gamma=[0.4, 0.6], omega_vec=[1.0, 2.0], A=[[1.4, 0.1], [0.05, 1.3]],
                  b_vec=[0.2, 0.1])
    y = simulate(nm.pull_inside(0.1), 4096, seed=1).y
    with pytest.raises(FloatingPointError):
        kernels.nm_loglik(y, nm.omega_vec, *nm.coefficients(), nm.gamma)
    with pytest.raises(FloatingPointError):
        likelihood.loglik(nm, nm.omega_vec, y)


# nbin_loglik_grad's value and gradient on simulate(NBIN, n, seed=n) from x1 = 7.5, as
# float hex, recorded after the value became y @ (log u - log1p u) - r sum(log1p u) and
# the adjoint the transposed band solve, with BLAS dots for the sums. The last point has
# a > 1 and a path that stays finite. A rewrite of the kernel that keeps its expressions
# keeps these bits.
NBIN_PINS = [
    (2, NBIN, "-0x1.eb106f3fa4520p+1", ["0x1.eff0385b4c38dp-4", "0x1.d0f134d597754p-1",
                                        "0x1.73f42a44792aap+0", "0x1.ccfe10f13ab00p-2"]),
    (128, NBIN, "-0x1.e2c310f948b27p+1", ["0x1.9773cf0ee99ecp-6", "0x1.de3b997211f6cp-3",
                                          "0x1.8f23e90ac889fp-2", "0x1.5de9a6d2b7200p-4"]),
    (4096, NBIN, "-0x1.c9e1f56555e46p+1", ["-0x1.206d5c6123f26p-8", "-0x1.bd36ef73767b6p-6",
                                           "-0x1.9fc111c36ffddp-6", "-0x1.e92e2a07d7000p-8"]),
    (128, NbinParams(0.5, 1.1, 0.02, 2.0), "-0x1.e6a3c5564b7f6p+3",
     ["-0x1.12332cbf7da19p+0", "-0x1.a81aa6a67bca1p+6", "-0x1.7a16d628873b5p+4",
      "-0x1.a4f4b13fb514bp+2"]),
]


@pytest.mark.parametrize("n,p,value,grad", NBIN_PINS, ids=["2", "128", "4096", "a>1"])
def test_nbin_loglik_grad_pinned(n, p, value, grad):
    y = simulate(NBIN, n, seed=n).y
    got_value, got_grad = kernels.nbin_loglik_grad(y, 7.5, p.omega, p.a, p.b, p.r,
                                                   count_table(y))
    assert float(got_value).hex() == value
    assert [float(g).hex() for g in got_grad] == grad


@pytest.mark.parametrize("a", (0.7, SKEW), ids=["scalar", "2x2"])
def test_solve_never_reads_the_diagonal_row(a):
    # with diag=1 dtbsv takes L's unit diagonal as given; OpenBLAS picks its kernel per
    # CPU, so a NaN in that band row checks that the one in use does not read it
    c = np.random.default_rng(3).uniform(0, 2, (257,) + np.shape(a)[:1])
    band = kernels._band(a, len(c))
    want = kernels._solve(c.copy(), band)
    band[0] = np.nan
    assert kernels._solve(c.copy(), band).tobytes() == want.tobytes()
