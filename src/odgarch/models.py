"""Model primitives: state update, emission density, exact emission samplers.

The public functions take a single state or a batch of states along
leading axes: a scalar-state model takes x of any shape S, NM takes x of
shape S + (d,), and observations broadcast against S.
"""

import math
import warnings

import numpy as np
from scipy.special import gammaln, logsumexp

from .params import Series

_LOG_2PI = math.log(2.0 * math.pi)


def nbin_log_pmf(x, y, r):
    """Log pmf of NB(r, x/(1+x)) at y, elementwise."""
    return (gammaln(y + r) - gammaln(r) - gammaln(y + 1.0)
            + y * np.log(x) - (y + r) * np.log1p(x))


def poisson_log_pmf(lam, y):
    """Log pmf of Poisson(lam) at y, elementwise."""
    return -lam + y * np.log(lam) - gammaln(y + 1.0)


def nm_log_density(x, y, gamma):
    """Log density at y of the zero-mean normal mixture with variances x (last axis)."""
    with np.errstate(divide="ignore"):  # a zero weight drops its component
        log_gamma = np.log(gamma)
    comps = log_gamma - 0.5 * (np.square(y)[..., None] / x + _LOG_2PI + np.log(x))
    return logsumexp(comps, axis=-1)


def _check_state(params, x):
    x = np.asarray(x, dtype=float)
    if params.tag == "nm" and x.shape[-1:] != (params.d,):
        raise ValueError(f"state must have shape ({params.d},)")
    if np.any(x <= 0) or not np.all(np.isfinite(x)):
        raise ValueError("state must be positive and finite")
    return x[()]


def _check_obs(params, y):
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValueError("observation must be finite")
    if params.tag in ("nbin", "ting") and (np.any(y < 0) or np.any(y != np.round(y))):
        raise ValueError("count models require non-negative integer observations")
    return y[()]


def _step(params, x, y):
    if params.tag == "nm":
        return params.omega_vec + x @ params.A.T + np.multiply.outer(y * y, params.b_vec)
    return params.omega + params.a * x + params.b * y


def _draw(params, x, rng):
    if params.tag == "nbin":
        # Gamma-Poisson compounding gives NB(r, x/(1+x)) exactly.
        y = rng.poisson(rng.gamma(shape=params.r, scale=x))
    elif params.tag == "ting":
        y = rng.poisson(np.minimum(x, params.tau))
    else:
        comp = rng.choice(params.d, size=np.shape(x)[:-1], p=params.gamma)
        y = rng.normal(0.0, np.sqrt(np.take_along_axis(x, comp[..., None], -1)[..., 0]))
    return np.asarray(y, dtype=float)[()]


def psi_step(params, x, y):
    """One application of the state-update map."""
    return _step(params, _check_state(params, x), _check_obs(params, y))


def log_emission(params, x, y):
    """Log conditional density/pmf of an observation given the state."""
    x = _check_state(params, x)
    y = _check_obs(params, y)
    if params.tag == "nbin":
        return nbin_log_pmf(x, y, params.r)
    if params.tag == "ting":
        return poisson_log_pmf(np.minimum(x, params.tau), y)
    return nm_log_density(x, y, params.gamma)


def sample_emission(params, x, rng):
    """One exact draw from the emission distribution at each state in x."""
    return _draw(params, _check_state(params, x), rng)


def simulate(params, n, x0=None, seed=0, burn_in=500):
    """Simulate n observations, recording the hidden-state trace.

    Starts the chain at x0 (default: the noise-free fixed point), runs
    burn_in discarded steps so recorded samples approximate the
    stationary law, then records n (x, y) pairs. Deterministic given
    the seed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    stable = bool(params.stable())
    if not stable:
        warnings.warn("parameters are outside the stability region; "
                      "the simulated path need not be stationary", stacklevel=2)
    x = _check_state(params, params.fixed_point() if x0 is None else x0)
    if np.ndim(x) != (1 if params.tag == "nm" else 0):
        raise ValueError("x0 must be a single state")
    rng = np.random.default_rng(np.uint64(seed))
    # Draws are valid observations by construction, so the loop skips the
    # per-step checks; an unstable path can still overflow, so the recorded
    # trace is checked once at the end.
    for _ in range(burn_in):
        x = _step(params, x, _draw(params, x, rng))
    ys = np.empty(n)
    xs = np.empty((n,) + np.shape(x))
    for k in range(n):
        xs[k] = x
        ys[k] = _draw(params, x, rng)
        x = _step(params, x, ys[k])
    _check_state(params, xs)
    return Series(y=ys, model_tag=params.tag, seed=int(seed), x_trace=xs,
                  stable=stable, burn_in=burn_in, params=params)
