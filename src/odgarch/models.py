"""Model primitives: the log densities, and the state map and sampler of any model.

The public functions take a single state or a batch of states along
leading axes: a scalar-state model takes x of any shape S, NM takes x of
shape S + (d,), and observations broadcast against S.
"""

import functools
import math
import warnings

import numpy as np
from scipy.special import gammaln

from .params import Series, _check_int

BURN_IN = 500  # the default number of simulated steps discarded before the recorded ones
_LOG_2PI = math.log(2.0 * math.pi)
_FLOAT_MAX = np.finfo(float).max


def nbin_count_term(y_r, r, log_factorial):
    """The count-only part of the NBIN log pmf, log C(y + r - 1, y), from y_r = y + r
    and log_factorial = log y!."""
    return gammaln(y_r) - gammaln(r) - log_factorial


def nbin_state_term(x, y, r):
    """The part of the NBIN log pmf that depends on the state x."""
    return y * np.log(x) - (y + r) * np.log1p(x)


def poisson_count_term(log_factorial):
    """The count-only part of the Poisson log pmf, -log y!, from log_factorial = log y!."""
    return -log_factorial


def poisson_state_term(lam, y):
    """The part of the Poisson log pmf that depends on the intensity lam."""
    return y * np.log(lam) - lam


def nm_log_density(x, y, gamma):
    """Log density at y of the zero-mean normal mixture with variances x (last axis).

    The log-sum-exp over the components is ``scipy.special.logsumexp``'s, bit for
    bit, without its per-call overhead: the maximum, the m components tied at it
    left out of the sum s of the shifted exponentials, then
    log1p(s / m) + log(m) + maximum.

    Each component is one column x[..., l], worked on whole: numpy runs an op
    that broadcasts a (d,) vector along a short last axis as one inner loop of
    length d per row, several times slower. The maximum and the count are exact
    in any order. numpy's sum over a last axis of fewer than 8 terms adds them
    in order, which the columns' running sum repeats; from 8 terms on it sums
    each row pairwise, so there the (..., d) sum itself runs.
    """
    with np.errstate(divide="ignore"):  # a zero weight drops its component
        log_gamma = np.log(gamma)
    y2 = np.square(y)
    comps = [lg - 0.5 * (y2 / x[..., l] + _LOG_2PI + np.log(x[..., l]))
             for l, lg in enumerate(log_gamma)]
    top = functools.reduce(np.maximum, comps)
    tied = [c == top for c in comps]
    m = sum(tied)
    # where y^2 / x overflows in every component, top is -inf and the shift is finite,
    # so the result is -inf, as scipy's, and not -inf - (-inf) = nan
    shift = np.maximum(top, -_FLOAT_MAX)
    exps = [np.exp(np.where(t, -np.inf, c) - shift) for c, t in zip(comps, tied)]
    s = functools.reduce(np.add, exps) if len(exps) < 8 else np.stack(exps, -1).sum(axis=-1)
    return np.log1p(s / m) + np.log(m) + top


def psi_step(params, x, y):
    """One application of the state-update map."""
    return params.step(params.check_state(x), params.check_obs(y))


def log_emission(params, x, y):
    """Log conditional density/pmf of an observation given the state."""
    return params.log_density(params.check_state(x), params.check_obs(y))


def sample_emission(params, x, rng, size=None):
    """One exact draw from the emission distribution at each state in x.

    With size, x is one state and the result holds size draws at it: the draws,
    and the generator's state after them, are those at size copies of x.
    """
    x = params.check_state(x)
    if size is not None:
        _check_int("size", size, 1)
        if np.shape(x) != params.state_shape:
            raise ValueError(f"size draws at one {params.tag} state, got states of shape "
                             f"{np.shape(x)}")
    return np.asarray(params.sampler(rng)(x, size), dtype=float)[()]


def simulate(params, n, x0=None, seed=0, burn_in=BURN_IN):
    """Simulate n observations, recording the hidden-state trace.

    Starts the chain at x0 (default: the noise-free fixed point), runs
    burn_in discarded steps so recorded samples approximate the
    stationary law, then records n (x, y) pairs. Deterministic given
    the seed.
    """
    _check_int("n", n, 1)
    _check_int("burn_in", burn_in, 0)
    stable = bool(params.stable())
    if not stable:
        warnings.warn("parameters are outside the stability region; "
                      "the simulated path need not be stationary", stacklevel=2)
    x = params.check_anchor(params.fixed_point() if x0 is None else x0)
    draw, step = params.sampler(np.random.default_rng(_check_int("seed", seed, 0))), params.step
    if params.state_shape == ():
        x = x.item()  # a Python float steps faster than a numpy scalar, to the same bits
    # Draws are valid observations by construction, so the loop skips the
    # per-step checks. An unstable path can still explode: NBIN's draw then
    # raises, and a TING or NM path overflows, which the Series returned
    # refuses in its trace.
    ys = np.empty(n)
    xs = np.empty((n,) + np.shape(x))
    done = 0  # the steps of the loops that have ended
    try:
        for k in range(burn_in):
            x = step(x, draw(x))
        done = burn_in
        for k in range(n):
            xs[k] = x
            ys[k] = y = draw(x)
            x = step(x, y)
    except ValueError as exc:
        why = "" if stable else "; the parameters are outside the stability region"
        raise ValueError(f"{params.tag} draw failed at step {done + k + 1} of {burn_in + n} "
                         f"(burn-in included), from state {x}: {exc}{why}") from exc
    return Series(y=ys, model_tag=params.tag, seed=int(seed), x_trace=xs,
                  stable=stable, burn_in=burn_in, params=params)
