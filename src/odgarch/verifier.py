"""Numerical spot checks of the stability/ergodicity hypotheses.

Each check evaluates a closed-form inequality from the theory (state-map
contraction, drift RV <= lambda*V + beta, the alpha/phi minorization of
the emission family, and the Lipschitz bound on log emission ratios) on
a low-discrepancy grid and reports any violation beyond double-precision
slack. These are certificates on sampled points, not proofs. The closed
forms, the observation grid and the norms are each model's, held by its
parameter class in ``params``.

The grid is Owen's scrambled Halton sequence (Owen 2017, "A randomized
Halton algorithm in R", arXiv:1706.02808), generated in this module. It
gives the same points, bit for bit, as scipy's
``qmc.Halton(d, scramble=True, seed=seed).random(n)``, without importing
``scipy.stats``.

A report builds one grid. The four checks share one set of triples (x, x', y), the
columns of one (2d + 1)-column grid (``sample_triples``), with states log-scaled in
[min w, max(STATE_HI, 100 min w)]; the drift check reads only their states x. Each check
still certifies its own inequality on those points, and none combines its evidence with
another's, so nothing needs their grids to be independent. The drift check's Monte Carlo
draws come from the generator at the report's seed + 1.

A set of triples is a ``Triples``, made for one parameter set and checked once as its
states and observations where it is built; a check takes the set alone, reads its model
from it, and steps and evaluates it without checking it again. It keeps log g(x; y) and
log g(x'; y) once they are evaluated, for minorization and the Lipschitz bound to share.
Where the state has one component, min(x, x') is x or x' at every point, so
log g(min(x, x'); y) is selected from those two. A report thus evaluates the log density
2 times for NBIN, TING and NM with d = 1, and 3 times for NM with d >= 2; the README has
what a report costs.

Each check works on its whole grid in a few numpy calls. The drift check's
Monte Carlo cross-check draws from a few grid states and batches everything
but the draws: each state's draws stay one draw call, in the order of the
states, because one call over all of them would consume the generator's
stream in another order and change which draws each state gets. That call
draws all of a state's observations at the one state, with ``size``, so a
scalar-state model's draw takes a scalar parameter and NM's takes the state's
standard deviations once; the state map then meets the (points, 1) states
against the (points, draws) observations, and evaluates A x once per state.
"""

import functools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .models import _check_int, _check_state, sample_emission
from .params import SLACK_LOOSE, SLACK_TIGHT, params_to_dict

STATE_HI = 1e3
N_TRIPLES = 10_000  # the default number of grid points each check certifies
DRIFT_MC_POINTS, DRIFT_MC_DRAWS = 20, 2000  # the drift check's Monte Carlo cross-check


@dataclass
class CheckRecord:
    name: str
    n_samples: int
    n_violations: int
    worst_slack: float
    passed: bool
    skipped: bool = False
    reason: str = ""
    info: dict = field(default_factory=dict)

    def to_dict(self):
        return asdict(self)


@dataclass
class VerifierReport:
    params: object
    checks: list

    @property
    def model_tag(self):
        return self.params.tag

    @property
    def passed(self):
        return all(c.passed or c.skipped for c in self.checks)

    def to_dict(self):
        return {
            "model": self.model_tag,
            "params": params_to_dict(self.params),
            "out_of_scope": ["weak-Feller", "reachable point",
                             "stationary moment conditions", "coupling kernel"],
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }


def _primes(k):
    """The first k primes."""
    primes = []
    m = 2
    while len(primes) < k:
        if all(m % p for p in primes if p * p <= m):
            primes.append(m)
        m += 1
    return primes


def _halton(dims, n, seed):
    """n points of the scrambled Halton sequence in [0, 1)^dims.

    Column c is the van der Corput sequence in the c-th prime base b, with
    digit j of every point mapped through the random permutation perms[j]
    of 0..b-1; the permutations are drawn as scipy draws them. Point i sums
    perms[j][digit_j(i)] / b^(j+1) over j in the same order, so the result
    rounds exactly as scipy's per-point loop. Only the first ceil(log_b n)
    digits vary over the n points: their partial sums are built for every
    digit combination at once, the last digit only for the values that
    points below n take. The remaining digits are all 0, so they add the same
    constant perms[j][0] / b^(j+1) to every point, one whole-grid add each,
    skipped where it is 0. In base 2 every partial sum has bits only at
    2^-1 ... 2^-53, so each of those adds is exact, and so is one add of
    their exact sum.
    """
    rng = np.random.default_rng(seed)
    out = np.empty((n, dims))
    for col, base in enumerate(_primes(dims)):
        # every digit whose weight b^-(j+1) exceeds 2^-54 gets a permutation; permuting
        # the rows in one call draws what scipy's shuffle of each row in turn draws
        count = math.ceil(54 / math.log2(base)) - 1
        perms = rng.permuted(np.repeat(np.arange(base)[None], count, axis=0), axis=1)
        s = np.zeros(1)
        b2r = 1.0 / base
        j = 0
        while s.size < n:  # s[i] for i < b^j (fewer at the last j): the sum over its digits so far
            used = perms[j, :-(-n // s.size)]  # digit j's values at i < n: all but at the last
            s = (s[None, :] + (used * b2r)[:, None]).ravel()
            b2r /= base
            j += 1
        s = s[:n]
        zero_to = perms[:, 0].tolist()  # what a digit 0 maps to
        tail = []  # digits j.. are 0 at every point
        for k in range(j, count):
            tail.append(zero_to[k] * b2r)
            b2r /= base
        if base == 2:  # exact: every partial sum has bits only at 2^-1 ... 2^-53
            tail = [math.fsum(tail)]
        for w in tail:
            if w:  # adding 0 changes no bit
                s += w
        out[:, col] = s
    return out


def _states(params, u):
    """States log-scaled in [min w, max(STATE_HI, 100 min w)] from d grid columns: w bounds
    every state, and the grid spans at least two decades above it."""
    lo = float(np.min(params.coefficients()[0]))
    return lo * (max(STATE_HI, 100.0 * lo) / lo) ** u.reshape((len(u),) + params.state_shape)


class Triples:
    """Grid points (x, x', y) checked once as states and observations of params' model.

    Unpacks as (x, x', y). A set carries the parameters it is made for, and the checks
    take it alone. log g(x; y) and log g(x'; y) are computed on first use and kept, so the
    checks that share a set evaluate each once.
    """

    def __init__(self, params, x, xp, y):
        # x, y, then x', as psi_step(params, x, y) and psi_step(params, xp, y) check them
        self.x = _check_state(params, x)
        self.y = params.check_obs(y)
        self.xp = _check_state(params, xp)
        self.params = params

    def __iter__(self):
        return iter((self.x, self.xp, self.y))

    @functools.cached_property
    def log_g(self):
        """(log g(x; y), log g(x'; y)), evaluated on first use."""
        log_density, y = self.params.log_density, self.y
        return log_density(self.x, y), log_density(self.xp, y)

    def log_g_at_min(self):
        """log g(min(x, x'); y), the componentwise minimum.

        A state of one component has min(x, x') = x or x' at every point, so this is a
        selection from ``log_g``; only a state of several components evaluates it.
        """
        x, xp, y = self
        if self.params.d > 1:
            return self.params.log_density(np.minimum(x, xp), y)
        first = x <= xp if self.params.state_shape == () else (x <= xp)[..., 0]
        lx, lxp = self.log_g
        return np.where(first, lx, lxp)


def sample_triples(params, n_triples=N_TRIPLES, seed=0):
    """n_triples grid points (x, x', y), from the columns of one (2d + 1)-column grid.

    The arrays are read-only, so the checks that share them cannot change what the
    next one sees.
    """
    d = params.d
    u = _halton(2 * d + 1, _check_int("n_triples", n_triples, 1), _check_int("seed", seed, 0))
    triples = Triples(params, _states(params, u[:, :d]), _states(params, u[:, d:2 * d]),
                      params.y_from_unit(u[:, -1]))
    for a in triples:
        a.flags.writeable = False
    return triples


def _l1_distance(x, xp):
    """The l1 distance between x and x' at each grid point, over the state's components.

    A sum over the short last axis runs as one inner loop per row, so the components are
    added as whole columns instead: in order below 8 of them, the order numpy's sum takes
    there; from 8 on numpy sums each row pairwise, and that sum runs as it is.
    """
    diff = np.abs(x - xp).reshape(len(x), -1)  # one column per component
    return functools.reduce(np.add, diff.T) if diff.shape[1] < 8 else diff.sum(axis=1)


def _model_of(triples):
    """The parameters that a set of triples was made for; raises unless it is a set."""
    if not isinstance(triples, Triples):
        raise TypeError("a check takes a Triples, from sample_triples or "
                        f"Triples(params, x, x', y), got {type(triples).__name__}")
    return triples.params


def check_contraction(triples):
    """Ratio d(psi_y(x), psi_y(x')) / d(x, x') stays below 1 on the triples (x, x', y)."""
    params = _model_of(triples)
    x, xp, y = triples
    mask, slack, violations, info = params.contraction(x, xp, params.step(x, y),
                                                       params.step(xp, y))
    worst = float(slack.min()) if slack.size else math.inf
    return CheckRecord("contraction", int(mask.sum()), violations, worst,
                       violations == 0, info=info)


def check_drift(triples, seed=0):
    """RV <= lambda*V + beta at the states x of the triples (x, x', y), with a Monte Carlo
    cross-check drawn from the generator at seed."""
    params, x = _model_of(triples), triples.x
    seed = _check_int("seed", seed, 0)
    if not params.stable():
        return CheckRecord("drift", 0, 0, math.nan, True, skipped=True,
                           reason="unstable parameters: drift need not close")
    rv, v, lam, beta = params.drift(x)
    slack = (lam * v + beta + SLACK_LOOSE) - rv
    violations = int(np.sum(slack < 0))

    # DRIFT_MC_DRAWS one-step draws from each of DRIFT_MC_POINTS grid states: one draw
    # call per point, in order, to keep the stream; the rest runs once over the batch,
    # stepping the grid states and draws as they are: both are valid by construction.
    rng = np.random.default_rng(seed)
    idx = np.linspace(0, len(x) - 1, DRIFT_MC_POINTS).astype(int)
    ys = np.array([sample_emission(params, x[i], rng, size=DRIFT_MC_DRAWS) for i in idx])
    vals = params.drift(params.step(x[idx, None], ys))[1]
    se = vals.std(axis=1, ddof=1) / math.sqrt(DRIFT_MC_DRAWS)
    mc_fail = int(np.sum(np.abs(vals.mean(axis=1) - rv[idx]) > 4.0 * se + 1e-9))
    violations += mc_fail
    return CheckRecord("drift", len(x) + DRIFT_MC_POINTS, violations,
                       float(slack.min()), violations == 0,
                       info={"lambda": lam, "beta": beta, "mc_failures": mc_fail})


def check_minorization(triples):
    """min{g(x;y), g(x';y)} >= alpha(x,x') * g(min(x,x'); y) on the triples (x, x', y)."""
    params = _model_of(triples)
    x, xp, y = triples
    alpha = params.minorization_alpha(x, xp)
    lhs = np.exp(np.minimum(*triples.log_g))
    rhs = alpha * np.exp(triples.log_g_at_min())
    slack = (lhs + SLACK_TIGHT) - rhs
    # each class's alpha is positive by its closed form and reaches 0.0 only by
    # underflow (NBIN at large r, TING at large tau): only an alpha above 1 is broken
    bad_alpha = int(np.sum(alpha > 1.0 + SLACK_TIGHT))
    violations = int(np.sum(slack < 0)) + bad_alpha
    return CheckRecord("minorization", len(y), violations, float(slack.min()),
                       violations == 0)


def check_lipschitz_logg(triples):
    """|ln g(x;y) - ln g(x';y)| <= K(y) |x - x'| on X1 = [min w, inf), on the triples."""
    params = _model_of(triples)
    x, xp, y = triples
    lx, lxp = triples.log_g
    lhs = np.abs(lx - lxp)
    slack = (params.lipschitz_k(y) * _l1_distance(x, xp) + SLACK_LOOSE) - lhs
    violations = int(np.sum(slack < 0))
    return CheckRecord("lipschitz_logg", len(y), violations, float(slack.min()),
                       violations == 0)


def verify_model(params, n_triples=N_TRIPLES, seed=0):
    """The four checks of params on the one set ``sample_triples(params, n_triples, seed)``;
    the drift check takes its Monte Carlo draws from the generator at seed + 1."""
    triples = sample_triples(params, n_triples, seed)
    checks = [
        check_contraction(triples),
        check_drift(triples, seed + 1),
        check_minorization(triples),
        check_lipschitz_logg(triples),
    ]
    return VerifierReport(params=params, checks=checks)
