"""Shared helpers: random stable parameter draws for property-style tests, and the
state map iterated one step at a time."""

import numpy as np

from odgarch import NbinParams, NmParams, TingParams


def random_nbin(rng, margin=0.1):
    omega = rng.uniform(0.5, 5.0)
    r = rng.uniform(0.5, 4.0)
    a = rng.uniform(0.05, 0.8)
    b = rng.uniform(0.05, 1.0) * (1.0 - margin - a) / r
    return NbinParams(omega, a, b, r)


def random_ting(rng):
    return TingParams(rng.uniform(0.5, 5.0), rng.uniform(0.05, 0.9),
                      rng.uniform(0.05, 1.0), rng.uniform(0.5, 8.0))


def random_nm(rng, d=None):
    d = int(rng.integers(1, 3)) if d is None else d
    gamma = rng.dirichlet(np.ones(d))
    omega = rng.uniform(0.5, 3.0, d)
    a_mat = rng.uniform(0.0, 1.0, (d, d))
    b_vec = rng.uniform(0.0, 1.0, d)
    p = NmParams(gamma=gamma, omega_vec=omega, A=a_mat, b_vec=b_vec)
    rho = 1.0 - p.margin()
    s = rng.uniform(0.3, 0.9) / max(rho, 1e-6)
    return NmParams(gamma=gamma, omega_vec=omega, A=a_mat * s, b_vec=b_vec * s)


def iterate_step(params, x, ys):
    """The state reached from x along the observations ys, one ``params.step`` each."""
    for y in ys:
        x = params.step(x, y)
    return x
