"""The three observation-driven models, one class each, and the observed series.

Every model moves its state by the affine map X' = w + A X + b h(Y) (Douc,
Doukhan & Moulines 2013), with h(y) = y for NBIN and TING (scalar state) and
h(y) = y^2 for NM (d-vector state). All else that is particular to a model
is held by its class, from the log density to the verifier's closed forms.
A model tag from outside (JSON, the CSV sidecar, ``--model``) is looked up
once in ``MODELS``: a new model is one class and one entry there. The classes
call ``kernels``, ``models`` and ``likelihood`` through module attributes at
call time; those modules import this one, so they are imported at its end.
"""

import functools
import math
import numbers
from dataclasses import dataclass, field, fields, replace

import numpy as np
from scipy.special import gammaln

# Default interior margin of the stability constraint; the fit's starts keep
# at least this far from their bounds.
EPS_MARGIN = 1e-4
_LOG_FLOOR = 1e-12
# Rounding allowances of the verifier's checks: SLACK_TIGHT, scaled by the
# state, for an identity that holds exactly; SLACK_LOOSE for an inequality.
SLACK_TIGHT = 1e-12
SLACK_LOOSE = 1e-10


def spectral_radius(m):
    """Spectral radius of an entrywise non-negative matrix: max |eigenvalue|."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("square matrix required")
    if np.any(m < 0):
        raise ValueError("entries must be non-negative")
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def _field_error(tag, name, what, value):
    return ValueError(f"{tag} parameter {name} must be {what}, got {value!r}")


def _check_positive(tag, name, value):
    # the float test first: the fit's decode builds every point from floats
    real = type(value) is float or (isinstance(value, numbers.Real)
                                     and not isinstance(value, bool))
    try:
        good = real and math.isfinite(value) and value > 0
    except OverflowError:  # an integer beyond float range
        good = False
    if not good:
        raise _field_error(tag, name, "a positive finite real", value)


def _read_array(value):
    """value as an array, or None where numpy cannot read it as one (a ragged list), so
    that each caller raises its own message for it."""
    try:
        return np.asarray(value)
    except ValueError:
        return None


def _holds_bool(value):
    """Whether value holds a bool, which numpy casts to a number among numbers: a list
    or tuple is searched, an array is judged by its dtype."""
    if isinstance(value, (list, tuple)):
        return any(map(_holds_bool, value))
    return type(value) not in (int, float) and np.asarray(value).dtype == bool


def _is_state(x, shape):
    """The rule for a model's states: whether the array x has a real dtype (not bool,
    string or object), positive finite entries and a shape that ends in shape."""
    return (x.dtype.kind in "iuf" and x.shape[x.ndim - len(shape):] == shape
            and bool(((x > 0) & (x < np.inf)).all()))  # also false for nan


def _safe_log(v):
    return np.log(np.maximum(v, _LOG_FLOOR))


def _acf(ym, ss, lag):
    """The autocorrelation at lag of a centred series ym whose sum of squares is ss."""
    return float((ym[:-lag] * ym[lag:]).sum() / ss)


def _number(v):
    """v as a float, or v itself where float() cannot read it: the constructor names it."""
    try:
        return float(v)
    except ValueError:
        return v


def _parse_vector(text):
    return [_number(v) for v in text.replace(";", ",").split(",") if v != ""]


def _parse_matrix(text):
    return [[_number(v) for v in r.split(",")] for r in text.split(";") if r != ""]


def _perron_vector(m):
    """A right eigenvector of a non-negative matrix for its Perron root, up to scale."""
    vals, vecs = np.linalg.eig(m)
    return vecs[:, np.argmax(vals.real)].real


def _perron_weights(a_mat):
    """Left Perron vector of a non-negative matrix, made strictly positive."""
    w = np.abs(_perron_vector((np.asarray(a_mat, dtype=float) + 1e-12).T))
    return w / w.sum()


def count_table(y):
    """Distinct values of y, their relative frequencies and their log factorials.

    A mean over y of a function of the count alone is weights @ f(values),
    one evaluation per distinct count instead of one per observation. The log
    factorials gammaln(values + 1) do not depend on the parameters, so a fit
    computes them once per series, not once per point.
    """
    values, counts = np.unique(y, return_counts=True)
    return values, counts / y.size, gammaln(values + 1.0)


def _per_count(f, y):
    """f(y) for counts y (non-negative integers as floats), f elementwise.

    Where y repeats its counts (max y < y.size), f is evaluated once for each of
    0..max y and indexed back, as ``count_table`` serves the kernels' sums;
    the bits are f(y)'s. A scalar or an array of few repeats is evaluated
    directly, which also keeps a count beyond the integer range uncast.
    """
    if np.ndim(y) and y.size and (top := y.max()) < y.size:
        return f(np.arange(top + 1.0))[y.astype(np.intp)]
    return f(y)


class _Model:
    """What the three model classes share. Each states its stability quantity (stable iff
    below 1), its theta-gradient, and ``scaled``: the coefficients it is 1-homogeneous in."""

    def stable(self):
        return self.margin() > 0.0

    def margin(self):
        """1 minus the stability quantity: positive iff the model is stable."""
        return 1.0 - self.stability()

    def constraint(self, margin):
        """c(theta) <= 0 encodes stability with the interior margin."""
        return self.stability() - (1.0 - margin)

    def constraint_grad_z(self):
        """The gradient of the constraint in the fit's coordinates z."""
        with np.errstate(over="ignore"):  # inf at a wild trial point; the fitter clips it
            return self.chain_rule(self.stability_grad())

    def pull_inside(self, margin):
        """self if its margin is met, else ``scaled`` shrunk to a stability quantity of
        1 - margin (1 + 1e-9): the hair inside keeps the rounded point (NM's spectral
        radius most of all) from ending an ulp or so short of the margin."""
        s = self.stability()
        if 1.0 - s >= margin:
            return self
        shrink = (1.0 - margin * (1.0 + 1e-9)) / s
        return replace(self, **{name: getattr(self, name) * shrink for name in self.scaled})

    @staticmethod
    def check_obs(y):
        """y as floats (a scalar for a single observation); raises unless real and finite."""
        arr = _read_array(y)
        if (arr is None or arr.dtype.kind not in "iuf" or _holds_bool(y)
                or not np.all(np.isfinite(arr))):
            raise ValueError("observation must be finite and real")
        return np.asarray(arr, dtype=float)[()]

    @staticmethod
    def obs_table(y):
        """The summary of y that the model's likelihood kernel takes: none."""
        return None

    def to_dict(self):
        """The fields as plain numbers and lists, the form that JSON holds."""
        return {f.name: np.asarray(getattr(self, f.name)).tolist() for f in fields(self)}

    @classmethod
    def from_dict(cls, d):
        """From the form of ``to_dict``; raises unless d has exactly the fields."""
        names = [f.name for f in fields(cls)]
        if set(d) != set(names):
            raise ValueError(f"{cls.tag} parameters are {', '.join(names)}; "
                             f"got {', '.join(map(str, d))}")
        return cls(**d)

    def loglik_and_grad(self, x1, series):
        """The loglik and its exact gradient in theta, or None where there is none."""
        return likelihood.loglik(self, x1, series).value, None

    def scores(self, x1, series):
        """The (n, p) per-observation scores in theta, or None where there are none."""
        return None


class _CountModel(_Model):
    """NBIN and TING: the scalar state w + a x + b y, driven by a count y."""

    d = 1
    state_shape = ()
    N_Y_GRID = 201  # the verifier's observations: y in {0..200}
    # (metavar, help) of each command-line flag, in the order ``from_flags`` takes them
    cli_help = {"omega": ("NUM", "intercept w > 0"),
                "a": ("NUM", "coefficient a > 0 of the state"),
                "b": ("NUM", "coefficient b > 0 of the count")}

    def __post_init__(self):
        for name in self.param_names:
            _check_positive(self.tag, name, getattr(self, name))

    @staticmethod
    def check_obs(y):
        y = _Model.check_obs(y)
        if np.any(y < 0) or np.any(y != np.round(y)):
            raise ValueError("count models require non-negative integer observations")
        return y

    @staticmethod
    def obs_table(y):
        return count_table(y)

    @staticmethod
    def h(y):
        return y

    def coefficients(self):
        """The state map's (w, A, b)."""
        return self.omega, self.a, self.b

    def step(self, x, y):
        return self.omega + self.a * x + self.b * y

    def fixed_point(self):
        """Fixed point of the noise-free state recursion."""
        return self.omega / (1.0 - self.a) if self.a < 1.0 else self.omega

    def as_array(self):
        return np.array([getattr(self, name) for name in self.param_names])

    @classmethod
    def from_array(cls, v):
        return cls(*map(_number, v))

    from_flags = from_array  # the command-line flags are the parameters, in order

    @staticmethod
    def parse_state(text):
        return float(text)

    @classmethod
    def state_trace(cls, columns):
        """The (n,) trace that ``simulate`` records, from it or from one state column."""
        if columns.ndim == 2 and columns.shape[1] != 1:
            raise ValueError(f"a {cls.tag} state trace has one column, got {columns.shape[1]}")
        return columns.reshape(len(columns))

    def encode(self):
        return _safe_log(self.as_array())

    @classmethod
    def decode(cls, z, d):
        return cls(*np.exp(z).tolist())

    def chain_rule(self, grad_theta):
        """d/dz = theta * d/dtheta: the coordinates are plain logs."""
        return np.asarray(grad_theta) * self.as_array()

    # the verifier's closed forms

    def y_from_unit(self, u):
        return np.floor(u * self.N_Y_GRID)

    def contraction(self, x, xp, psi_x, psi_xp):
        """(pairs checked, slack, violations, info) of |psi(x) - psi(x')| = a |x - x'|."""
        mask = x != xp
        dx = np.abs(x - xp)[mask]
        scale = np.maximum(1.0, np.maximum(x, xp)[mask])
        slack = SLACK_TIGHT * scale - np.abs(np.abs(psi_x - psi_xp)[mask] - self.a * dx)
        return mask, slack, int(np.sum(slack < 0)), {"rate": self.a}


@dataclass(frozen=True)
class NbinParams(_CountModel):
    """Negative-binomial INGARCH: state w + a*x + b*y, emission NB(r, x/(1+x))."""

    omega: float
    a: float
    b: float
    r: float

    tag = "nbin"
    param_names = ("omega", "a", "b", "r")
    cli_help = {**_CountModel.cli_help, "r": ("NUM", "shape r > 0 of the negative binomial")}
    scaled = ("a", "b")

    def stability(self):
        return self.a + self.b * self.r

    def stability_grad(self):
        return np.array([0.0, 1.0, self.r, self.b])

    def log_density(self, x, y):
        """Log pmf of NB(r, x/(1+x)) at y."""
        count = _per_count(lambda v: models.nbin_count_term(v, self.r, gammaln(v + 1.0)), y)
        return count + models.nbin_state_term(x, y, self.r)

    def sampler(self, rng):
        """The emission draw as a function of the state, rng's methods and r bound once.

        draw(x) draws once at each state in x; draw(x, size) draws size times at the
        one state x, with a scalar scale, the draws and stream of size copies of x.
        """
        poisson, gamma, r = rng.poisson, rng.gamma, self.r
        # Gamma-Poisson compounding gives NB(r, x/(1+x)) exactly.
        return lambda x, size=None: poisson(gamma(r, x, size))

    def kernel_loglik(self, y, x1, table):
        return kernels.nbin_loglik(y, x1, self.omega, self.a, self.b, self.r, table)

    def loglik_and_grad(self, x1, series):
        """The loglik and its exact gradient, from one solve of the state path."""
        return likelihood.grad_loglik_nbin(self, x1, series, with_value=True)

    def scores(self, x1, series):
        """The (n, 4) per-observation scores in theta; their mean is the gradient."""
        s = Series.of(series, self.tag)
        return kernels.nbin_scores(s.y, models._check_anchor(self, x1), self.omega, self.a,
                                   self.b, self.r)

    @classmethod
    def start(cls, series, x1=None):
        """Conditional-least-squares starting point from the series' observations y.

        The conditional mean follows an ARMA(1,1) in Y with AR coefficient
        phi = a + r*b, recovered as the autocorrelation ratio rho(2)/rho(1).
        r comes from the conditional over-dispersion E[(Y-m)^2|m] = m + m^2/r,
        regressing squared one-step residuals on the squared fitted mean.
        The (a, b) split is the symmetric one a = phi/2, b = phi/(2 r), and
        omega = mean * (1 - phi) / r matches the stationary mean.
        """
        y = series.y
        mu = y.mean()
        n = y.size
        ym = y - mu
        ss = (ym * ym).sum()  # as y.var() sums it
        var = ss / n
        rho1 = _acf(ym, ss, 1)
        rho2 = _acf(ym, ss, 2)
        if abs(rho1) < 2.0 / math.sqrt(n):  # no detectable dependence
            phi = EPS_MARGIN
        else:
            phi = rho2 / rho1
        phi = min(max(phi, EPS_MARGIN), 1.0 - EPS_MARGIN)
        # one-step mean proxy with matched lag-1 autocovariance
        beta1 = min(max(rho1, EPS_MARGIN), 1.0 - EPS_MARGIN)
        m = mu * (1.0 - beta1) + beta1 * y[:-1]
        e2 = (y[1:] - m) ** 2
        den = (m ** 4).sum()
        slope = ((e2 - m) * m * m).sum() / den if den > 0 else np.inf
        if var <= mu or slope <= 1e-4:
            r0 = 10.0  # near-Poisson: no over-dispersion detected
        else:
            r0 = 1.0 / slope
        r0 = min(max(r0, 0.05), 100.0)
        a0 = phi / 2.0
        b0 = phi / (2.0 * r0)
        w0 = max(mu * (1.0 - phi) / r0, EPS_MARGIN)
        return cls(omega=w0, a=a0, b=b0, r=r0)

    def drift(self, x):
        """(RV(x), V(x), lambda, beta) with V(x) = x."""
        lam = self.stability()
        return self.omega + lam * x, x, lam, self.omega

    def minorization_alpha(self, x, xp):
        """Closed-form coupling weight alpha(x, x'); phi is the componentwise min."""
        return ((1.0 + np.minimum(x, xp)) / (1.0 + np.maximum(x, xp))) ** self.r

    def lipschitz_k(self, y):
        return self.r + y * (1.0 + 1.0 / self.omega)


@dataclass(frozen=True)
class TingParams(_CountModel):
    """Threshold INGARCH: state w + a*x + b*y, emission Poisson(min(x, tau))."""

    omega: float
    a: float
    b: float
    tau: float

    tag = "ting"
    param_names = ("omega", "a", "b", "tau")
    cli_help = {**_CountModel.cli_help, "tau": ("NUM", "threshold tau > 0 of the intensity")}
    scaled = ("a",)

    def stability(self):
        return self.a

    def stability_grad(self):
        return np.array([0.0, 1.0, 0.0, 0.0])

    def log_density(self, x, y):
        lam = np.minimum(x, self.tau)
        count = _per_count(lambda v: models.poisson_count_term(gammaln(v + 1.0)), y)
        return count + models.poisson_state_term(lam, y)

    def sampler(self, rng):
        """As ``NbinParams.sampler``'s: Poisson(min(x, tau)) at each state, or size times."""
        poisson, tau = rng.poisson, self.tau
        return lambda x, size=None: poisson(np.minimum(x, tau), size)

    def kernel_loglik(self, y, x1, table):
        return kernels.ting_loglik(y, x1, self.omega, self.a, self.b, self.tau, table)

    @classmethod
    def start(cls, series, x1=None):
        base = NbinParams.start(series)
        # Rescale the NBIN start to unit shape (TING's mean is x, not r*x).
        w0, a0, b0 = base.omega * base.r, base.a, base.b * base.r
        # Running conditional-mean proxy caps the threshold guess.
        u = w0 / (1.0 - a0) + b0 * series.y / (1.0 - a0)
        tau0 = max(float(u.max()), EPS_MARGIN)
        return cls(omega=w0, a=a0, b=b0, tau=tau0)

    def drift(self, x):
        rv = self.omega + self.a * x + self.b * np.minimum(x, self.tau)
        return rv, x, self.a, self.omega + self.b * self.tau

    def minorization_alpha(self, x, xp):
        lo = np.minimum(x, xp)
        hi = np.maximum(x, xp)
        return np.exp(-np.minimum(hi, self.tau) + np.minimum(lo, self.tau))

    def lipschitz_k(self, y):
        return 1.0 + y / min(self.omega, self.tau)


@dataclass(frozen=True)
class NmParams(_Model):
    """Gaussian-mixture GARCH with vector state w + A x + y^2 b."""

    gamma: np.ndarray
    omega_vec: np.ndarray
    A: np.ndarray
    b_vec: np.ndarray

    tag = "nm"
    cli_help = {"gamma": ("LIST", "weights, a comma list of d values >= 0 summing to 1"),
                "omega": ("LIST", "intercepts, a comma list of d values > 0"),
                "A": ("ROWS", "d x d matrix >= 0, its rows comma lists joined by ';', "
                              "as in .3,.1;.05,.25"),
                "bvec": ("LIST", "coefficients b of y^2, a comma list of d values >= 0")}
    scaled = ("A", "b_vec")
    # The verifier's observations: symmetric probabilists'-Hermite nodes,
    # scaled to the stationary spread.
    _Y_NODES = np.polynomial.hermite_e.hermegauss(64)[0]

    def __post_init__(self):
        for name, ndim in (("gamma", 1), ("omega_vec", 1), ("A", 2), ("b_vec", 1)):
            value = getattr(self, name)
            arr = _read_array(value)
            if (arr is None or arr.dtype.kind not in "iuf" or not np.all(np.isfinite(arr))
                    or _holds_bool(value)):
                raise _field_error(self.tag, name, "an array of finite reals", value)
            arr = np.array(arr, dtype=float, ndmin=ndim)  # a copy: the caller's stays writeable
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        d = len(self.gamma)
        for name, bad, what in [
                ("gamma", self.gamma.ndim != 1 or np.any(self.gamma < 0)
                 or abs(self.gamma.sum() - 1.0) > 1e-10, "a list of weights >= 0 summing to 1"),
                ("omega_vec", self.omega_vec.shape != (d,) or np.any(self.omega_vec <= 0),
                 f"a list of {d} values > 0"),
                ("A", self.A.shape != (d, d) or np.any(self.A < 0), f"a {d} x {d} matrix >= 0"),
                ("b_vec", self.b_vec.shape != (d,) or np.any(self.b_vec < 0),
                 f"a list of {d} values >= 0")]:
            if bad:
                raise _field_error(self.tag, name, what, getattr(self, name).tolist())

    @property
    def d(self):
        return self.gamma.shape[0]

    @property
    def state_shape(self):
        return (self.d,)

    @property
    def param_names(self):
        d = self.d
        names = [f"gamma{l + 1}" for l in range(d)]
        names += [f"omega{l + 1}" for l in range(d)]
        names += [f"A{i + 1}{j + 1}" for i in range(d) for j in range(d)]
        names += [f"b{l + 1}" for l in range(d)]
        return tuple(names)

    @staticmethod
    def h(y):
        return y * y

    def coefficients(self):
        return self.omega_vec, self.A, self.b_vec

    def step(self, x, y):
        """w + A x + b y^2 at the states x against the observations y.

        A batch is built one component column at a time, in place, as
        ``models.nm_log_density`` is: a (d,) vector broadcast along a short last
        axis runs one short inner loop per row. Its A x is one 2-D (rows, d)
        product, which rounds as the product over any broadcast of those rows
        does; a stacked (P, 1, d) one does not. One state is one row, where the
        vectors cost nothing extra.
        """
        if x.ndim == 1:
            return self.omega_vec + x @ self.A.T + np.multiply.outer(y * y, self.b_vec)
        y2 = y * y
        ax = (x.reshape(-1, self.d) @ self.A.T).reshape(x.shape)
        shape = np.broadcast_shapes(x.shape[:-1], np.shape(y2))
        out = ax if shape == x.shape[:-1] else np.empty(shape + (self.d,))
        for l in range(self.d):
            col = out[..., l]
            np.add(ax[..., l], self.omega_vec[l], out=col)
            col += y2 * self.b_vec[l]
        return out

    def companion(self):
        return self.A + np.outer(self.b_vec, self.gamma)

    def stability(self):
        return spectral_radius(self.companion())

    def stability_grad(self):
        """From d rho / dK = u v' / (u'v), u and v the left and right Perron vectors of
        K = A + b gamma' (Horn & Johnson, Matrix Analysis, 6.3)."""
        k = self.companion()
        u, v = _perron_vector(k.T), _perron_vector(k)
        dk = np.outer(u, v) / (u @ v)
        return np.concatenate([self.b_vec @ dk, np.zeros(self.d), dk.ravel(), dk @ self.gamma])

    def fixed_point(self):
        if spectral_radius(self.A) < 1.0:
            return np.linalg.solve(np.eye(self.d) - self.A, self.omega_vec)
        return self.omega_vec.copy()

    def log_density(self, x, y):
        return models.nm_log_density(x, y, self.gamma)

    def sampler(self, rng):
        """As ``NbinParams.sampler``'s: a component by gamma, then a zero-mean normal
        with its variance, at each state, or size times at one state from its d
        standard deviations, taken once."""
        choice, normal, d, gamma = rng.choice, rng.normal, self.d, self.gamma

        def draw(x, size=None):
            if size is not None:
                return normal(0.0, np.sqrt(x)[choice(d, size=size, p=gamma)])
            comp = choice(d, size=np.shape(x)[:-1], p=gamma)
            return normal(0.0, np.sqrt(np.take_along_axis(x, comp[..., None], -1)[..., 0]))
        return draw

    def kernel_loglik(self, y, x1, table):
        return kernels.nm_loglik(y, x1, self.omega_vec, self.A, self.b_vec, self.gamma)

    def as_array(self):
        return np.concatenate([self.gamma, self.omega_vec, self.A.ravel(), self.b_vec])

    @classmethod
    def from_array(cls, v, d):
        v = np.asarray(v, dtype=float)
        return cls(gamma=v[:d], omega_vec=v[d:2 * d],
                   A=v[2 * d:2 * d + d * d].reshape(d, d), b_vec=v[2 * d + d * d:])

    @classmethod
    def from_flags(cls, values):
        """From the literals of --gamma, --omega, --A and --bvec."""
        gamma, omega, a_mat, b_vec = values
        return cls(gamma=_parse_vector(gamma), omega_vec=_parse_vector(omega),
                   A=_parse_matrix(a_mat), b_vec=_parse_vector(b_vec))

    @staticmethod
    def parse_state(text):
        return np.array(_parse_vector(text), dtype=float)

    @staticmethod
    def state_trace(columns):
        """The (n, d) trace that ``simulate`` records, one column per state component; a
        1-d trace is one column."""
        columns = columns.reshape(len(columns), -1)
        if columns.shape[1] == 0:
            raise ValueError("a nm state trace has one column per state component, got 0")
        return columns

    def encode(self):
        """Softmax logits of gamma with the first pinned to 0, then logs."""
        logits = _safe_log(self.gamma)
        return np.concatenate([logits[1:] - logits[0], _safe_log(self.as_array()[self.d:])])

    @classmethod
    def decode(cls, z, d):
        logits = np.concatenate([[0.0], z[:d - 1]])
        logits -= logits.max()
        gamma = np.exp(logits)
        gamma /= gamma.sum()
        return cls.from_array(np.concatenate([gamma, np.exp(z[d - 1:])]), d)

    def chain_rule(self, grad_theta):
        """d/dz: the softmax Jacobian for the logits, theta * d/dtheta for the logs."""
        g = np.asarray(grad_theta)
        d = self.d
        d_logits = self.gamma * (g[:d] - self.gamma @ g[:d])
        return np.concatenate([d_logits[1:], g[d:] * self.as_array()[d:]])

    @classmethod
    def start(cls, series, x1=None):
        """Moment start; d from the series' parameters or state trace, else x1, else 1.

        Equal weights, A = 0.3 I and b = 0.2 put the spectral radius of
        A + b gamma' at 0.5 for every d. The stationary component variances
        are m2 * spread with spread in (0.5, 1.5) and mean 1, so gamma'X
        matches the sample second moment m2; distinct components keep BFGS
        off the symmetric set where all components stay equal.
        """
        if isinstance(series.params, cls):
            d = series.params.d
        elif series.x_trace is not None:
            d = series.x_trace.shape[1]
        else:  # None, or a ragged x1 that the fit's anchor check then refuses, gives d = 1
            d = 1 if (x := _read_array(x1)) is None else x.size
        m2 = max(float((series.y * series.y).mean()), EPS_MARGIN)
        spread = 0.5 + (np.arange(d) + 0.5) / d
        return cls(gamma=np.full(d, 1.0 / d), omega_vec=m2 * (0.5 + 0.7 * (spread - 1.0)),
                   A=0.3 * np.eye(d), b_vec=np.full(d, 0.2))

    # the verifier's closed forms

    def y_from_unit(self, u):
        scale = math.sqrt(max(float(self.gamma @ self.fixed_point()), 1.0))
        idx = np.minimum((u * len(self._Y_NODES)).astype(int), len(self._Y_NODES) - 1)
        return self._Y_NODES[idx] * scale

    def contraction(self, x, xp, psi_x, psi_xp):
        """(pairs checked, slack, violations, info) in the Perron-weighted l1 norm.

        The ratio |psi(x) - psi(x')| w / |x - x'| w is at most rho_w in exact
        arithmetic; its allowance is the bound on its rounding error. With unit
        roundoff u = eps / 2 (Higham 2002, ch. 3): each component of psi(x) =
        omega + A x + b y^2 sums d + 2 rounded non-negative terms, so it is off by at
        most (d + 2) u psi(x), and the numerator by (d + 2) u (psi(x) + psi(x')) w
        plus (d + 1) u of itself for its difference and dot product. The denominator,
        the division and rho_w add (2d + 3) u of the ratio. Hence
        4 (d + 2) eps ((psi(x) + psi(x')) w / den + ratio), with a factor of at
        least 2 to spare. A fixed slack cannot serve: the first term grows without
        bound as x' nears x.
        """
        w = _perron_weights(self.A)
        rho_w = float(np.max((self.A.T @ w) / w))
        num = np.abs(psi_x - psi_xp) @ w
        den = np.abs(x - xp) @ w
        mask = den > 0
        ratio = num[mask] / den[mask]
        allowance = 4 * (self.d + 2) * np.finfo(float).eps * (
            (psi_x + psi_xp)[mask] @ w / den[mask] + ratio)
        slack = (rho_w + allowance) - ratio
        violations = int(np.sum(slack < 0) + (rho_w >= 1.0))
        return mask, slack, violations, {"rho_weighted": rho_w}

    def drift(self, x):
        """(RV(x), V(x), lambda, beta) with V(x) = x'(1 + x0), x0 from the companion."""
        k = self.companion()
        one_plus_x0 = np.linalg.solve(np.eye(self.d) - k.T, np.ones(self.d))
        x0 = one_plus_x0 - 1.0
        beta = float(self.omega_vec @ one_plus_x0)
        return beta + x @ x0, x @ one_plus_x0, float(np.max(x0 / one_plus_x0)), beta

    def minorization_alpha(self, x, xp):
        """The least component of sqrt(min(x, x') / max(x, x')), a column at a time."""
        ratio = np.sqrt(np.minimum(x, xp) / np.maximum(x, xp))
        return functools.reduce(np.minimum, [ratio[..., l] for l in range(self.d)])

    def lipschitz_k(self, y):
        w_min = float(self.omega_vec.min())
        return 0.5 * (y ** 2 / w_min ** 2 + 1.0 / w_min)


ModelParams = NbinParams | NmParams | TingParams

MODELS = {"nbin": NbinParams, "nm": NmParams, "ting": TingParams}


def model_class(tag):
    """The class of a model tag that comes from outside the program."""
    try:
        return MODELS[tag]
    except (KeyError, TypeError):
        raise ValueError(f"unknown model tag {tag!r}") from None


def params_to_dict(params):
    return params.to_dict()


@dataclass
class Series:
    """An observed sample with optional simulated hidden-state trace.

    For the count models, ``count_table`` holds ``count_table(y)``, built
    once here for the likelihood kernels; y is not to be changed afterwards.
    """

    y: np.ndarray
    model_tag: str
    seed: int = 0
    x_trace: np.ndarray | None = None
    stable: bool = True
    burn_in: int = 0
    params: ModelParams | None = field(default=None, repr=False)
    count_table: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _model: type | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        y = self.y
        arr = _read_array(y)  # None where y is ragged, which check_obs refuses below
        if arr is not None and (arr.ndim != 1 or arr.size == 0):
            raise ValueError("observations must be a nonempty 1-d array")
        self._model = model = model_class(self.model_tag)
        if self.params is not None and not isinstance(self.params, model):
            raise ValueError(f"a {self.model_tag} series cannot carry {self.params.tag} parameters")
        self.y = model.check_obs(y)  # checked as given, before it is cast to floats
        self.count_table = model.obs_table(self.y)
        if self.x_trace is not None:
            x_trace = _read_array(self.x_trace)
            if x_trace is not None and x_trace.ndim not in (1, 2):
                raise ValueError(f"x_trace must be a 1-d or 2-d array, got {x_trace.ndim}-d")
            # its columns' shape is the model's state shape, checked below
            if x_trace is None or not _is_state(x_trace, ()) or _holds_bool(self.x_trace):
                raise ValueError("x_trace must hold positive finite real states")
            self.x_trace = model.state_trace(np.asarray(x_trace, dtype=float))
            if self.x_trace.shape[0] != self.y.shape[0]:
                raise ValueError("x_trace must match y in length")
            if self.params is not None and self.x_trace.shape[1:] != self.params.state_shape:
                raise ValueError(f"x_trace has {self.x_trace[0].size} state columns, "
                                 f"but the parameters have d = {self.params.d}")

    @classmethod
    def of(cls, obs, tag=None):
        """obs as a checked Series of model tag; with tag None, a Series of any model.

        A Series of another model raises; a plain array is wrapped and checked.
        """
        if not isinstance(obs, cls):
            if tag is None:
                raise ValueError("a plain array needs a model tag")
            return cls(y=obs, model_tag=tag)
        if tag is not None and obs.model_tag != tag:
            raise ValueError(f"a {obs.model_tag} series cannot be used with model {tag}")
        return obs

    @property
    def model(self):
        """The class of the series' model, looked up once from its tag."""
        return self._model

    @property
    def n(self):
        return self.y.shape[0]


from . import kernels, likelihood, models  # noqa: E402  (they import this module)
