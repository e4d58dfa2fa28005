"""Plain reference loops for the conditional log-likelihoods and the NBIN gradient.

These are written from the model definitions, one observation at a time,
with ``math.lgamma`` and ``scipy.special.digamma``; they share no code with
the package. The benchmark compares the package's values with them on the
inputs of every run, so a faster kernel that is wrong cannot pass as a gain.
"""

import math

from scipy.special import digamma

RTOL = 1e-10


def close(value, ref, rtol=RTOL):
    """True when value matches ref to rtol, relative to max(1, |ref|)."""
    return math.isfinite(value) and abs(value - ref) <= rtol * max(1.0, abs(ref))


def nbin_loglik(y, x1, omega, a, b, r):
    y = [float(v) for v in y]
    u = float(x1)
    s = 0.0
    for k, yk in enumerate(y):
        if k:
            u = omega + a * u + b * y[k - 1]
        s += (math.lgamma(yk + r) - math.lgamma(r) - math.lgamma(yk + 1.0)
              + yk * math.log(u) - (yk + r) * math.log1p(u))
    return s / len(y)


def nbin_grad(y, x1, omega, a, b, r):
    """Gradient in (omega, a, b, r) of the normalized NBIN log-likelihood."""
    y = [float(v) for v in y]
    u = float(x1)
    du = [0.0, 0.0, 0.0]
    g = [0.0, 0.0, 0.0, 0.0]
    for k, yk in enumerate(y):
        if k:
            du = [1.0 + a * du[0], u + a * du[1], y[k - 1] + a * du[2]]
            u = omega + a * u + b * y[k - 1]
        c = yk / u - (yk + r) / (1.0 + u)
        for i in range(3):
            g[i] += c * du[i]
        g[3] += float(digamma(yk + r)) - float(digamma(r)) - math.log1p(u)
    return [v / len(y) for v in g]


def ting_loglik(y, x1, omega, a, b, tau):
    y = [float(v) for v in y]
    u = float(x1)
    s = 0.0
    for k, yk in enumerate(y):
        if k:
            u = omega + a * u + b * y[k - 1]
        lam = min(u, tau)
        s += -lam + yk * math.log(lam) - math.lgamma(yk + 1.0)
    return s / len(y)


def nm_loglik(y, x1, omega_vec, A, b_vec, gamma):
    """Mixture-normal log-likelihood with a d-dimensional state."""
    y = [float(v) for v in y]
    d = len(gamma)
    omega_vec = [float(v) for v in omega_vec]
    b_vec = [float(v) for v in b_vec]
    A = [[float(v) for v in row] for row in A]
    gamma = [float(v) for v in gamma]
    u = [float(v) for v in x1]
    s = 0.0
    for k, yk in enumerate(y):
        if k:
            y2 = y[k - 1] * y[k - 1]
            u = [omega_vec[i] + sum(A[i][j] * u[j] for j in range(d)) + y2 * b_vec[i]
                 for i in range(d)]
        terms = [math.log(gamma[l]) - 0.5 * yk * yk / u[l]
                 - 0.5 * math.log(2.0 * math.pi * u[l]) for l in range(d) if gamma[l] > 0]
        top = max(terms)
        s += top + math.log(sum(math.exp(t - top) for t in terms))
    return s / len(y)


def loglik(params, x1, y):
    """Reference log-likelihood for any of the three models."""
    if params.tag == "nbin":
        return nbin_loglik(y, x1, params.omega, params.a, params.b, params.r)
    if params.tag == "ting":
        return ting_loglik(y, x1, params.omega, params.a, params.b, params.tau)
    return nm_loglik(y, x1, params.omega_vec, params.A, params.b_vec, params.gamma)


class Oracle:
    """Counts comparisons and collects mismatches for one run."""

    def __init__(self, odgarch):
        self.od = odgarch
        self.checks = 0
        self.mismatches = []

    def _expect(self, ok, what):
        self.checks += 1
        if not ok:
            self.mismatches.append(what)
        return ok

    def loglik(self, params, x1, y, label):
        """Package loglik against the reference; returns the reference value."""
        ref = loglik(params, x1, y)
        got = self.od.likelihood.loglik(params, x1, y).value
        self._expect(close(got, ref), f"{label}: loglik {got!r} != reference {ref!r}")
        return ref

    def grad_nbin(self, params, x1, y, label):
        ref = nbin_grad(y, x1, params.omega, params.a, params.b, params.r)
        got = self.od.likelihood.grad_loglik_nbin(params, x1, y)
        for i, (g, r) in enumerate(zip(got, ref)):
            self._expect(close(float(g), r),
                         f"{label}: gradient[{i}] {float(g)!r} != reference {r!r}")

    def value(self, got, ref, label, rtol=RTOL):
        self._expect(close(got, ref, rtol), f"{label}: {got!r} != reference {ref!r}")

    def margin(self, theta_hat, margin, label):
        m = theta_hat.margin()
        self._expect(m >= margin, f"{label}: margin {m!r} below FitOptions.margin {margin!r}")
