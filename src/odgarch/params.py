"""Parameter containers for the three observation-driven models.

Each container validates positivity at construction and exposes the
model's stationarity margin: distance of the parameter point to the
stability boundary (a + b*r = 1 for NBIN, spectral radius 1 for NM,
a = 1 for TING).
"""

from dataclasses import dataclass, field
from typing import Union

import numpy as np


def spectral_radius(m):
    """Spectral radius of an entrywise non-negative matrix: max |eigenvalue|."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("square matrix required")
    if np.any(m < 0):
        raise ValueError("entries must be non-negative")
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def _check_positive(name, value):
    if not np.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a positive finite real, got {value!r}")


@dataclass(frozen=True)
class NbinParams:
    """Negative-binomial INGARCH: state w + a*x + b*y, emission NB(r, x/(1+x))."""

    omega: float
    a: float
    b: float
    r: float

    tag = "nbin"
    param_names = ("omega", "a", "b", "r")

    def __post_init__(self):
        for name in self.param_names:
            _check_positive(name, getattr(self, name))

    def margin(self):
        return 1.0 - (self.a + self.b * self.r)

    def stable(self):
        return self.margin() > 0.0

    def fixed_point(self):
        """Fixed point of the noise-free state recursion."""
        return self.omega / (1.0 - self.a) if self.a < 1.0 else self.omega

    def as_array(self):
        return np.array([self.omega, self.a, self.b, self.r])

    @classmethod
    def from_array(cls, v):
        return cls(*map(float, v))


@dataclass(frozen=True)
class TingParams:
    """Threshold INGARCH: state w + a*x + b*y, emission Poisson(min(x, tau))."""

    omega: float
    a: float
    b: float
    tau: float

    tag = "ting"
    param_names = ("omega", "a", "b", "tau")

    def __post_init__(self):
        for name in self.param_names:
            _check_positive(name, getattr(self, name))

    def margin(self):
        return 1.0 - self.a

    def stable(self):
        return self.margin() > 0.0

    def fixed_point(self):
        return self.omega / (1.0 - self.a) if self.a < 1.0 else self.omega

    def as_array(self):
        return np.array([self.omega, self.a, self.b, self.tau])

    @classmethod
    def from_array(cls, v):
        return cls(*map(float, v))


@dataclass(frozen=True)
class NmParams:
    """Gaussian-mixture GARCH with vector state w + A x + y^2 b."""

    gamma: np.ndarray
    omega_vec: np.ndarray
    A: np.ndarray
    b_vec: np.ndarray

    tag = "nm"

    def __post_init__(self):
        object.__setattr__(self, "gamma", np.atleast_1d(np.asarray(self.gamma, dtype=float)))
        object.__setattr__(self, "omega_vec", np.atleast_1d(np.asarray(self.omega_vec, dtype=float)))
        object.__setattr__(self, "A", np.atleast_2d(np.asarray(self.A, dtype=float)))
        object.__setattr__(self, "b_vec", np.atleast_1d(np.asarray(self.b_vec, dtype=float)))
        d = self.gamma.shape[0]
        if self.omega_vec.shape != (d,) or self.b_vec.shape != (d,) or self.A.shape != (d, d):
            raise ValueError("inconsistent dimensions for gamma/omega_vec/A/b_vec")
        if np.any(self.gamma < 0) or abs(self.gamma.sum() - 1.0) > 1e-10:
            raise ValueError("gamma must lie on the simplex")
        if np.any(self.omega_vec <= 0) or not np.all(np.isfinite(self.omega_vec)):
            raise ValueError("omega_vec entries must be positive")
        if np.any(self.A < 0) or np.any(self.b_vec < 0):
            raise ValueError("A and b_vec entries must be non-negative")
        for arr in (self.gamma, self.omega_vec, self.A, self.b_vec):
            arr.setflags(write=False)

    @property
    def d(self):
        return self.gamma.shape[0]

    @property
    def param_names(self):
        d = self.d
        names = [f"gamma{l + 1}" for l in range(d)]
        names += [f"omega{l + 1}" for l in range(d)]
        names += [f"A{i + 1}{j + 1}" for i in range(d) for j in range(d)]
        names += [f"b{l + 1}" for l in range(d)]
        return tuple(names)

    def companion(self):
        return self.A + np.outer(self.b_vec, self.gamma)

    def margin(self):
        return 1.0 - spectral_radius(self.companion())

    def stable(self):
        return self.margin() > 0.0

    def fixed_point(self):
        if spectral_radius(self.A) < 1.0:
            return np.linalg.solve(np.eye(self.d) - self.A, self.omega_vec)
        return self.omega_vec.copy()

    def as_array(self):
        return np.concatenate([self.gamma, self.omega_vec, self.A.ravel(), self.b_vec])

    @classmethod
    def from_array(cls, v, d):
        v = np.asarray(v, dtype=float)
        return cls(gamma=v[:d], omega_vec=v[d:2 * d],
                   A=v[2 * d:2 * d + d * d].reshape(d, d), b_vec=v[2 * d + d * d:])


ModelParams = Union[NbinParams, NmParams, TingParams]

MODEL_TAGS = ("nbin", "nm", "ting")


def stability_check(params):
    """Return {'stable': bool, 'margin': float}, margin clipped at 0 when unstable."""
    m = params.margin()
    return {"stable": m > 0.0, "margin": max(m, 0.0)}


def params_to_dict(params):
    if params.tag == "nm":
        return {
            "gamma": params.gamma.tolist(),
            "omega_vec": params.omega_vec.tolist(),
            "A": params.A.tolist(),
            "b_vec": params.b_vec.tolist(),
        }
    return {name: getattr(params, name) for name in params.param_names}


def params_from_dict(tag, d):
    if tag == "nbin":
        return NbinParams(**d)
    if tag == "ting":
        return TingParams(**d)
    if tag == "nm":
        return NmParams(gamma=d["gamma"], omega_vec=d["omega_vec"], A=d["A"], b_vec=d["b_vec"])
    raise ValueError(f"unknown model tag {tag!r}")


@dataclass
class Series:
    """An observed sample with optional simulated hidden-state trace."""

    y: np.ndarray
    model_tag: str
    seed: int = 0
    x_trace: np.ndarray | None = None
    stable: bool = True
    burn_in: int = 0
    params: ModelParams | None = field(default=None, repr=False)

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        if self.model_tag not in MODEL_TAGS:
            raise ValueError(f"unknown model tag {self.model_tag!r}")
        if self.model_tag in ("nbin", "ting"):
            if np.any(self.y < 0) or np.any(self.y != np.round(self.y)):
                raise ValueError("count models require non-negative integer observations")
        if self.x_trace is not None:
            self.x_trace = np.asarray(self.x_trace, dtype=float)
            if self.x_trace.shape[0] != self.y.shape[0]:
                raise ValueError("x_trace must match y in length")

    @property
    def n(self):
        return self.y.shape[0]
