import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from conftest import random_nbin, random_nm, random_ting

from odgarch import (NbinParams, NmParams, TingParams, log_emission, loglik, psi_step,
                     sample_emission, simulate)


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
