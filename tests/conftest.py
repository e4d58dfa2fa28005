"""Shared helpers: random stable parameter draws for property-style tests, the state
map iterated one step at a time, and the bad values of each parameter field."""

import math

import numpy as np
import pytest

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


# One valid parameter set of each model, in ``to_dict``'s form.
VALID_PARAMS = {"nbin": {"omega": 3.0, "a": 0.2, "b": 0.2, "r": 2.0},
                "ting": {"omega": 3.0, "a": 0.35, "b": 0.1, "tau": 4.0},
                "nm": {"gamma": [0.4, 0.6], "omega_vec": [1.0, 2.0],
                       "A": [[0.3, 0.1], [0.05, 0.25]], "b_vec": [0.2, 0.1]}}


# Each NM list field with a bool inside, where the number numpy casts it to (1.0 or 0.0)
# would be a valid entry.
_BOOL_INSIDE = {"gamma": [True, 0.0], "omega_vec": [True, 2.0],
                "A": [[0.3, False], [0.05, 0.25]], "b_vec": [0.2, False]}


def _bad_values(name, good):
    """(kind, value) of each bad value of a field: a bool, a string, None, nan, inf, one
    out of range, and an integer beyond float range (a count-model field) or a bool inside
    the list (an NM field). A list field takes nan, inf and the out-of-range value as its
    first entry, so that its shape stays right."""
    bad = [("bool", True), ("str", "x"), ("none", None)]
    for kind, x in [("nan", math.nan), ("inf", math.inf), ("range", -1.0)]:
        if isinstance(good, list):
            v = np.array(good)
            v.flat[0] = x
            x = v.tolist()
        bad.append((kind, x))
    if isinstance(good, list):
        bad.append(("bool-inside", _BOOL_INSIDE[name]))
    else:
        bad.append(("huge", 10**400))
    return bad


# (model tag, field, bad value) of each bad value of each field, NM's A also ragged
BAD_FIELDS = [pytest.param(tag, name, value, id=f"{tag}-{name}-{kind}")
              for tag, d in VALID_PARAMS.items() for name, good in d.items()
              for kind, value in _bad_values(name, good)]
BAD_FIELDS.append(pytest.param("nm", "A", [[0.3, 0.1], [0.05]], id="nm-A-ragged"))
