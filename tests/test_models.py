import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from conftest import random_nbin, random_nm, random_ting

from scipy.special import gammaln

from odgarch import (NbinParams, NmParams, TingParams, log_emission, loglik, psi_step,
                     sample_emission, simulate, verifier)
from odgarch.models import nm_log_density


def test_psi_step_examples():
    assert abs(psi_step(NbinParams(3, .2, .2, 2), 5.0, 2.0) - 4.4) < 1e-15
    p = NmParams(gamma=[1.0], omega_vec=[1.0], A=[[0.5]], b_vec=[0.3])
    assert np.allclose(psi_step(p, np.array([2.0]), 2.0), [3.2])
    assert abs(psi_step(TingParams(1, .5, .25, 2), 4.0, 0.0) - 3.0) < 1e-15


def test_psi_step_lower_bound():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = random_nbin(rng)
        x = rng.uniform(p.omega, 100.0)
        y = float(rng.integers(0, 50))
        assert psi_step(p, x, y) >= p.omega
    for _ in range(20):
        p = random_nm(rng)
        x = rng.uniform(p.omega_vec, p.omega_vec + 50.0)
        assert np.all(psi_step(p, x, rng.normal()) >= p.omega_vec)


def test_psi_step_validation():
    p = NbinParams(3, .2, .2, 2)
    with pytest.raises(ValueError):
        psi_step(p, -1.0, 2.0)
    with pytest.raises(ValueError):
        psi_step(p, 1.0, 2.5)  # non-integer count
    q = NmParams(gamma=[0.5, 0.5], omega_vec=[1.0, 1.0],
                 A=np.eye(2) * 0.1, b_vec=[0.1, 0.1])
    with pytest.raises(ValueError):
        psi_step(q, np.array([1.0]), 0.5)  # wrong state dimension


NM1 = NmParams(gamma=[1.0], omega_vec=[1.0], A=[[0.5]], b_vec=[0.3])
NM2 = NmParams(gamma=[0.4, 0.6], omega_vec=[1.0, 2.0], A=[[0.3, 0.1], [0.05, 0.25]],
               b_vec=[0.2, 0.1])
# States that cast to positive floats but are not real numbers: a bool, a string, an
# object, and a bool inside a list of numbers, which numpy casts to a float
NOT_REAL_STATES = [(NbinParams(3, .2, .2, 2), True), (NbinParams(3, .2, .2, 2), "3.0"),
                   (TingParams(1, .5, .25, 2), np.bool_(True)),
                   (TingParams(1, .5, .25, 2), np.array([3.0, 2.0], dtype=object)),
                   (NM1, np.array([True])), (NM1, ["2.5"]),
                   (NbinParams(3, .2, .2, 2), [True, 2.0]), (NM2, [True, 2.0]),
                   (NM2, [[1.0, 2.0], [2.0, np.True_]])]
STATE_ENTRY_POINTS = {
    "psi_step": lambda p, x: psi_step(p, x, 1),
    "log_emission": lambda p, x: log_emission(p, x, 1),
    "sample_emission": lambda p, x: sample_emission(p, x, np.random.default_rng(0)),
}


@pytest.mark.parametrize("entry", sorted(STATE_ENTRY_POINTS))
@pytest.mark.parametrize("params,x", NOT_REAL_STATES,
                         ids=[f"{p.tag}-{x!r}" for p, x in NOT_REAL_STATES])
def test_a_state_that_is_not_real_is_refused(entry, params, x):
    with pytest.raises(ValueError, match=f"^a {params.tag} state must be real, positive "
                                         "and finite"):
        STATE_ENTRY_POINTS[entry](params, x)


@pytest.mark.parametrize("y", [True, "2", np.array([True, False]), np.array(["1", "2"]),
                               [True, 2.0]], ids=repr)
def test_log_emission_refuses_an_observation_that_is_not_real(y):
    for p in (NbinParams(3, .2, .2, 2), NM1):
        with pytest.raises(ValueError, match="^observation must be finite and real$"):
            log_emission(p, p.fixed_point(), y)


def _count_log_pmf(params, x, y):
    """The NBIN or TING log pmf at each (x, y), elementwise: the count term plus the state
    term, in the order ``log_density`` adds them."""
    y = np.asarray(y, dtype=float)
    if params.tag == "nbin":
        r = params.r
        return (gammaln(y + r) - gammaln(r) - gammaln(y + 1.0)) + (y * np.log(x)
                                                                   - (y + r) * np.log1p(x))
    lam = np.minimum(x, params.tau)
    return -gammaln(y + 1.0) + (y * np.log(lam) - lam)


def _count_cases(params):
    """(x, y) pairs: the verifier's grids of params, counts that repeat little or not at
    all, a scalar count, and (3, 4) batches of states against 4 counts."""
    rng = np.random.default_rng(5)
    for seed in (0, 202, 303):  # the checks' triples at seed 0, and two more grids
        x, xp, y = verifier.sample_triples(params, 10_000, seed)
        yield x, y
        yield xp, y
    y = rng.integers(0, 10 ** 6, size=50).astype(float)
    y[0] = 10 ** 6
    yield rng.uniform(0.5, 2e6, size=50), y
    yield rng.uniform(0.5, 50.0, size=5), np.array([0.0, 3.0, 1e15, 1e200, 1e300])
    yield 7.5, 4.0
    yield rng.uniform(0.5, 20.0, size=(3, 4)), np.array([0.0, 2.0, 2.0, 9.0])
    yield rng.uniform(0.5, 20.0, size=(3, 4)), np.array([0.0, 1.0, 1.0, 3.0])  # max < size


@pytest.mark.parametrize("params", [NbinParams(3, .2, .2, 2), NbinParams(1.5, .3, .1, 0.7),
                                    TingParams(3, .35, .1, 4), TingParams(1.2, .5, .1, 3.2)],
                         ids=["nbin", "nbin-r<1", "ting", "ting-tau3.2"])
def test_count_log_emission_is_the_elementwise_formula(params):
    # log_density evaluates the count term once per count where counts repeat; the
    # bits must be the elementwise formula's
    for x, y in _count_cases(params):
        got = log_emission(params, x, y)
        assert np.array_equal(got, _count_log_pmf(params, x, y)), (x, y)
        assert np.shape(got) == np.broadcast_shapes(np.shape(x), np.shape(y))


def test_log_emission_hand_values():
    assert abs(log_emission(NbinParams(1, .2, .2, 1), 1.0, 0.0)
               - math.log(0.5)) < 1e-12
    p = NmParams(gamma=[1.0], omega_vec=[1.0], A=[[0.5]], b_vec=[0.3])
    assert abs(log_emission(p, np.array([1.0]), 0.0)
               - math.log(1.0 / math.sqrt(2 * math.pi))) < 1e-12
    assert abs(log_emission(TingParams(1, .2, .2, 1), 2.0, 0.0) + 1.0) < 1e-12


def test_log_emission_zero_mixture_weight():
    # gamma on the edge of the simplex: the zero-weight component drops out
    p = NmParams(gamma=[1.0, 0.0], omega_vec=[1.0, 2.0],
                 A=[[0.3, 0.1], [0.05, 0.25]], b_vec=[0.2, 0.1])
    ref = -0.5 * (0.25 / 1.5 + math.log(2 * math.pi * 1.5))
    assert abs(log_emission(p, np.array([1.5, 4.0]), 0.5) - ref) < 1e-14
    s = simulate(p, 64, seed=1)
    assert np.isfinite(loglik(p, p.fixed_point(), s).value)


# d = 8 and 9: numpy sums a last axis of 8 or more terms pairwise, not in order
@pytest.mark.parametrize("d", [1, 2, 3, 8, 9])
def test_nm_log_density_is_scipy_logsumexp(d):
    from scipy.special import logsumexp
    rng = np.random.default_rng(d)
    for gamma in (rng.dirichlet(np.ones(d)), np.eye(d)[0], np.full(d, 1.0 / d)):
        x = rng.uniform(0.1, 50.0, (4000, d))
        x[::3] = x[::3, :1]  # equal variances: with equal weights, tied components
        y = rng.normal(0.0, 5.0, 4000)
        y[::7] = 1e200  # y^2 / x overflows in every component: -inf
        with np.errstate(over="ignore"):
            comps = np.log(gamma, where=gamma > 0, out=np.full(d, -np.inf)) - 0.5 * (
                np.square(y)[:, None] / x + math.log(2 * math.pi) + np.log(x))
            got = nm_log_density(x, y, gamma)
        assert np.array_equal(got, logsumexp(comps, axis=-1))
        assert got.dtype == float and np.all(got[::7] == -np.inf)
        one = nm_log_density(x[1], y[1], gamma)  # one state: a scalar, as scipy gives
        assert type(one) is np.float64 and one == logsumexp(comps[1])


def test_log_emission_exact_rational_oracle():
    # NB(r=2, p=x/(1+x)) pmf at x=3, y=4 in exact rational arithmetic
    pmf = Fraction(math.comb(4 + 2 - 1, 4)) * Fraction(1, 4) ** 2 * Fraction(3, 4) ** 4
    got = log_emission(NbinParams(1, .2, .2, 2), 3.0, 4.0)
    assert abs(got - math.log(float(pmf))) < 1e-12


def test_log_emission_validation():
    p = NbinParams(3, .2, .2, 2)
    with pytest.raises(ValueError):
        log_emission(p, 0.0, 1.0)
    with pytest.raises(ValueError):
        log_emission(p, 1.0, -1.0)


def test_normalization_count_models():
    rng = np.random.default_rng(1)
    ys = np.arange(5001, dtype=float)
    for _ in range(40):
        p = random_nbin(rng)
        x = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
        total = sum(math.exp(log_emission(p, x, y)) for y in ys)
        assert abs(total - 1.0) < 1e-8
    ys = np.arange(501, dtype=float)
    for _ in range(30):
        p = random_ting(rng)
        x = float(rng.uniform(0.1, 50.0))
        total = sum(math.exp(log_emission(p, x, y)) for y in ys)
        assert abs(total - 1.0) < 1e-8


def test_normalization_mixture_density():
    rng = np.random.default_rng(2)
    nodes, weights = np.polynomial.legendre.leggauss(400)
    for _ in range(30):
        p = random_nm(rng)
        x = rng.uniform(0.2, 10.0, p.d)
        half = 20.0 * math.sqrt(float(x.max()))
        ys = nodes * half
        vals = np.array([math.exp(log_emission(p, x, y)) for y in ys])
        assert abs(float(vals @ weights) * half - 1.0) < 1e-8


def test_sampler_moments():
    rng = np.random.default_rng(7)
    draws = np.array([sample_emission(NbinParams(1, .2, .2, 2), 5.0, rng)
                      for _ in range(100_000)])
    assert abs(draws.mean() - 10.0) < 0.2  # NB mean r*x

    p = NmParams(gamma=[0.5, 0.5], omega_vec=[1.0, 1.0],
                 A=np.eye(2) * 0.1, b_vec=[0.1, 0.1])
    draws = np.array([sample_emission(p, np.array([1.0, 3.0]), rng)
                      for _ in range(100_000)])
    assert abs((draws ** 2).mean() - 2.0) < 0.05  # mixture second moment

    draws = np.array([sample_emission(TingParams(1, .2, .2, 1.5), 4.0, rng)
                      for _ in range(100_000)])
    assert abs(draws.mean() - 1.5) < 0.02  # Poisson mean x ^ tau


def test_sampler_conditional_means_4se():
    rng = np.random.default_rng(8)
    m = 20_000
    for p, x, target in [
        (random_nbin(rng), 3.0, None),          # E[Y|x] = r x
        (random_ting(rng), 6.0, None),          # E[Y|x] = x ^ tau
    ]:
        target = p.r * x if p.tag == "nbin" else min(x, p.tau)
        d = np.array([sample_emission(p, x, rng) for _ in range(m)])
        assert abs(d.mean() - target) <= 4.0 * d.std(ddof=1) / math.sqrt(m)
    p = random_nm(rng, d=2)
    x = np.array([1.5, 2.5])
    d = np.array([sample_emission(p, x, rng) for _ in range(m)]) ** 2
    assert abs(d.mean() - float(p.gamma @ x)) <= 4.0 * d.std(ddof=1) / math.sqrt(m)


def test_batches_match_single_states():
    rng = np.random.default_rng(9)
    nbin, ting = NbinParams(3, .2, .2, 2), TingParams(3, .35, .1, 4)
    nm = NmParams(gamma=[0.4, 0.6], omega_vec=[1.0, 2.0],
                  A=[[0.3, 0.1], [0.05, 0.25]], b_vec=[0.2, 0.1])
    for p, x, y in [(nbin, rng.uniform(0.5, 20.0, (3, 4)), rng.integers(0, 30, (3, 4))),
                    (ting, rng.uniform(0.5, 20.0, 7), rng.integers(0, 30, 7)),
                    (nm, rng.uniform(0.5, 20.0, (7, 2)), rng.normal(0.0, 2.0, 7))]:
        y = y.astype(float)
        lg = log_emission(p, x, y)
        xn = psi_step(p, x, y)
        assert lg.shape == y.shape and xn.shape == x.shape
        for i in np.ndindex(y.shape):
            assert abs(lg[i] - log_emission(p, x[i], y[i])) <= 1e-13 * abs(lg[i])
            assert np.allclose(xn[i], psi_step(p, x[i], y[i]), rtol=1e-14, atol=0)
        draws = sample_emission(p, x, rng)
        assert draws.shape == y.shape and np.all(np.isfinite(draws))
    with pytest.raises(ValueError):
        psi_step(nm, np.ones((3, 1)), np.zeros(3))  # wrong state dimension
    with pytest.raises(ValueError):
        log_emission(nbin, np.array([1.0, -1.0]), np.zeros(2))


def test_batched_sampler_moments():
    rng = np.random.default_rng(10)
    draws = sample_emission(NbinParams(1, .2, .2, 2), np.full(100_000, 5.0), rng)
    assert abs(draws.mean() - 10.0) < 0.2  # NB mean r*x
    x = np.tile([1.0, 3.0], (100_000, 1))
    p = NmParams(gamma=[0.5, 0.5], omega_vec=[1.0, 1.0],
                 A=np.eye(2) * 0.1, b_vec=[0.1, 0.1])
    assert abs((sample_emission(p, x, rng) ** 2).mean() - 2.0) < 0.05


# one set of each model, NM at d = 1, 2, 3 with a zero weight at d = 3, and a state of each
SIZE_CASES = [(NbinParams(3, .2, .2, 2), 4.5), (TingParams(3, .35, .1, 4), 6.0),
              (TingParams(3, .35, .1, 4), 2.5),
              (NmParams(gamma=[1.0], omega_vec=[1.0], A=[[.4]], b_vec=[.25]), [2.0]),
              (NmParams(gamma=[.4, .6], omega_vec=[1.0, 2.0], A=[[.3, .1], [.05, .25]],
                        b_vec=[.2, .1]), [1.5, 7.0]),
              (NmParams(gamma=[.5, 0.0, .5], omega_vec=[1.0, 2.0, .5], A=np.eye(3) * .3,
                        b_vec=[.2, .1, .1]), [1.5, 7.0, 3.0])]


@pytest.mark.parametrize("p, x", SIZE_CASES)
def test_sample_emission_size_draws_as_size_copies_of_the_state(p, x):
    rng_a, rng_b = np.random.default_rng(31), np.random.default_rng(31)
    got = sample_emission(p, x, rng_a, size=2000)
    want = sample_emission(p, np.broadcast_to(x, (2000,) + p.state_shape), rng_b)
    assert got.shape == (2000,) and got.dtype == float
    assert got.tobytes() == want.tobytes()
    assert rng_a.bit_generator.state == rng_b.bit_generator.state
    assert sample_emission(p, x, rng_a) == sample_emission(p, x, rng_b)


@pytest.mark.parametrize("p, x", SIZE_CASES)
def test_sample_emission_size_needs_one_state_and_a_positive_integer(p, x):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=f"size draws at one {p.tag} state"):
        sample_emission(p, np.stack([np.asarray(x, dtype=float)] * 3), rng, size=5)
    for bad in (0, -2, 2.0, True, "5", [5]):
        with pytest.raises(ValueError, match="size must be"):
            sample_emission(p, x, rng, size=bad)


def _nm_step_reference(p, x, y):
    """NmParams.step as the one vector expression it was, (d,) vectors broadcast."""
    return p.omega_vec + x @ p.A.T + np.multiply.outer(y * y, p.b_vec)


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_nm_step_rounds_as_the_vector_expression(d):
    rng = np.random.default_rng(40 + d)
    for _ in range(20):
        p = random_nm(rng, d)
        x = rng.uniform(0.5, 1e3, (4000, d))  # a contiguous batch
        y = rng.normal(0.0, 30.0, 4000)
        got = p.step(x, y)
        assert got.flags.c_contiguous and np.array_equal(got, _nm_step_reference(p, x, y))
        assert np.array_equal(p.step(x[7], y[7]), _nm_step_reference(p, x[7], y[7]))
        # (P, 1, d) states against (P, M) observations, as the drift check steps them,
        # round as the old batch: the (P, M, d) stride-0 broadcast of the states
        xs, ys = x[:20, None], rng.normal(0.0, 30.0, (20, 2000))
        got = p.step(xs, ys)
        want = _nm_step_reference(p, np.broadcast_to(xs, (20, 2000, d)), ys)
        assert got.flags.c_contiguous and np.array_equal(got, want)


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_nm_minorization_alpha_is_the_least_component(d):
    rng = np.random.default_rng(50 + d)
    p = random_nm(rng, d)
    x, xp = rng.uniform(0.5, 1e3, (2, 4000, d))
    want = np.min(np.sqrt(np.minimum(x, xp) / np.maximum(x, xp)), axis=-1)
    assert np.array_equal(p.minorization_alpha(x, xp), want)
    assert p.minorization_alpha(x[3], xp[3]) == want[3]


def test_simulate_stream_pinned():
    # first draws at seed 2024, recorded before the samplers took batches
    nm = NmParams(gamma=[0.4, 0.6], omega_vec=[1.0, 2.0],
                  A=[[0.3, 0.1], [0.05, 0.25]], b_vec=[0.2, 0.1])
    cases = [
        (NbinParams(3.0, 0.2, 0.2, 2.0),
         [7.0, 7.0, 9.0, 18.0, 4.0, 6.0, 3.0, 22.0], 4.654259833821181),
        (TingParams(3.0, 0.35, 0.1, 4.0),
         [4.0, 6.0, 1.0, 4.0, 3.0, 4.0, 10.0, 1.0], 5.815127671232684),
        (nm, [0.637384188834783, -0.08539930671636535, -0.7267155751782998,
              -3.479039464473635, 0.14304855402714134, -2.875669140937221,
              -2.9027264607498418, 0.3905513267840969],
         [4.197511931629888, 3.973755965814944]),
    ]
    for p, ys, x_last in cases:
        s = simulate(p, 8, seed=2024, burn_in=50)
        assert s.y.tolist() == ys
        assert s.x_trace[-1].tolist() == x_last


def test_simulate_determinism_and_trace():
    p = NbinParams(3, .2, .2, 2)
    s1 = simulate(p, 200, seed=42)
    s2 = simulate(p, 200, seed=42)
    assert np.array_equal(s1.y, s2.y) and np.array_equal(s1.x_trace, s2.x_trace)
    assert not np.array_equal(s1.y, simulate(p, 200, seed=43).y)
    for k in range(s1.n - 1):
        assert s1.x_trace[k + 1] == psi_step(p, s1.x_trace[k], s1.y[k])


def test_simulate_trace_consistency_nm():
    p = NmParams(gamma=[0.4, 0.6], omega_vec=[1.0, 2.0],
                 A=[[0.3, 0.1], [0.05, 0.25]], b_vec=[0.2, 0.1])
    s = simulate(p, 100, seed=5)
    for k in range(s.n - 1):
        assert np.array_equal(s.x_trace[k + 1], psi_step(p, s.x_trace[k], s.y[k]))


def test_simulate_n1_and_errors():
    p = NbinParams(3, .2, .2, 2)
    s = simulate(p, 1, seed=0)
    assert s.n == 1 and s.y[0] >= 0
    with pytest.raises(ValueError):
        simulate(p, 0, seed=0)
    with pytest.raises(ValueError, match="burn_in must be >= 0"):
        simulate(p, 16, seed=0, burn_in=-3)


@pytest.mark.parametrize("name,value,message", [
    ("n", 2.5, "n must be an integer, got 2.5"), ("n", True, "n must be an integer, got True"),
    ("n", "8", "n must be an integer, got '8'"),
    ("burn_in", 2.5, "burn_in must be an integer, got 2.5"),
    ("burn_in", True, "burn_in must be an integer, got True")],
    ids=["n-float", "n-bool", "n-str", "burn_in-float", "burn_in-bool"])
def test_simulate_needs_integer_settings(name, value, message):
    kwargs = {"n": 8, "burn_in": 2, name: value}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        simulate(NbinParams(3, .2, .2, 2), seed=0, **kwargs)


def test_simulate_explosive_nbin_names_the_step():
    # the state passes what rng.negative_binomial takes; the error says where the path
    # went. numpy 2 ends its message with "Notes", numpy 1 with "Docstring".
    with pytest.warns(UserWarning), pytest.raises(ValueError) as info:
        simulate(NbinParams(3, .9, .5, 2), 64)
    assert re.fullmatch(r"nbin draw failed at step 67 of 564 \(burn-in included\), from "
                        r"state \S+e\+17: n too large or p too small, see "
                        r"Generator\.negative_binomial (Notes|Docstring); the parameters are "
                        r"outside the stability region", str(info.value)), str(info.value)


def test_nbin_draw_refused_past_the_poisson_limit():
    # numpy refuses a state once x (r + 10 sqrt(r)) passes about 9.2e18: r = 2 draws at
    # 1e17 and raises at 1e18, before drawing
    p, rng = NbinParams(3, .2, .2, 2), np.random.default_rng(0)
    assert sample_emission(p, 1e17, rng) >= 0
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="n too large or p too small"):
        sample_emission(p, 1e18, rng)
    assert rng.bit_generator.state == state


NBIN_STREAM_SETS = [(3, .2, .2, 2), (3, .35, .1, 1.5), (.5, .3, .05, 8)]


@pytest.mark.parametrize("theta", NBIN_STREAM_SETS, ids=str)
def test_simulate_nbin_is_the_gamma_poisson_loop(theta):
    # one negative_binomial call per step draws what rng.poisson(rng.gamma(r, x)) does,
    # on whatever numpy is installed
    p = NbinParams(*theta)
    for seed in range(50):
        rng, x = np.random.default_rng(seed), float(p.fixed_point())
        ys, xs = [], []
        for k in range(100 + 256):
            y = float(rng.poisson(rng.gamma(p.r, x)))
            if k >= 100:
                xs.append(x)
                ys.append(y)
            x = p.omega + p.a * x + p.b * y
        s = simulate(p, 256, seed=seed, burn_in=100)
        assert s.y.tobytes() == np.array(ys).tobytes(), seed
        assert s.x_trace.tobytes() == np.array(xs).tobytes(), seed


def test_simulate_unstable_warns():
    p = NbinParams(1, .6, .5, 1)
    with pytest.warns(UserWarning):
        s = simulate(p, 16, seed=0, burn_in=5)
    assert not s.stable


def test_simulate_overflow_raises():
    # an explosive NM path overflows to inf; simulate must not return it
    p = NmParams(gamma=[1.0], omega_vec=[1.0], A=[[1.5]], b_vec=[0.9])
    with pytest.warns(UserWarning), np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError):
            simulate(p, 5000, seed=1, burn_in=10)


def test_stationary_mean_m1():
    # E[Y] = r*omega/(1 - a - b*r) = 2*3/0.4 = 15 under (3, .2, .2, 2)
    p = NbinParams(3, .2, .2, 2)
    means = [simulate(p, 1024, seed=s).y.mean() for s in range(50)]
    assert abs(float(np.mean(means)) - 15.0) < 1.0


ANCHOR_CASES = [  # x1, what check_anchor returns for an NBIN state, or None for its message
    (2.5, 2.5), (np.float64(2.5), 2.5), (np.float32(2.5), 2.5), (np.array(3), 3.0),
    (np.array(2.5), 2.5), (7, 7.0), (True, None), (np.bool_(True), None), (math.nan, None),
    (np.float64(math.nan), None), (math.inf, None), (0.0, None), (-1.0, None),
    (np.float32(math.inf), None), (np.array([2.5]), None), ("2.5", None)]


@pytest.mark.parametrize("x1,want", ANCHOR_CASES, ids=[repr(c[0]) for c in ANCHOR_CASES])
def test_check_anchor_scalar_state(x1, want):
    # a float takes a shortcut past the array checks; every case ends as before it
    p = NbinParams(3, .2, .2, 2)
    if want is None:
        # a numpy value is named by its values, not by its repr
        shown = x1.tolist() if isinstance(x1, (np.ndarray, np.generic)) else x1
        message = re.escape(f"x1 must be one positive finite nbin state, got {shown!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            p.check_anchor(x1)
        return
    got = p.check_anchor(x1)
    assert type(got) is np.float64 and got == want


def test_a_bool_inside_a_vector_anchor_is_refused():
    # numpy casts [True, 2.0] to [1.0, 2.0]; the anchor is refused as a lone True is
    series = simulate(NM2, 64, seed=1)
    for x1 in ([True, 2.0], (1.0, np.True_)):
        with pytest.raises(ValueError, match="^x1 must be one positive finite nm state, got "):
            NM2.check_anchor(x1)
        with pytest.raises(ValueError, match="^x1 must be one positive finite nm state, got "):
            loglik(NM2, x1, series)


def test_check_anchor_float_for_a_vector_state():
    nm = NmParams(gamma=[1.0], omega_vec=[1.0], A=[[0.4]], b_vec=[0.25])
    with pytest.raises(ValueError, match="^x1 must be one positive finite nm state, got 2.5$"):
        nm.check_anchor(2.5)
    assert nm.check_anchor([2.5]).tolist() == [2.5]
