import math

import mpmath
import numpy as np
import pytest
from conftest import iterate_step, random_nbin, random_nm, random_ting
from scipy.special import psi

from odgarch import (NbinParams, NmParams, TingParams, filter_series, grad_loglik_nbin,
                     grad_loglik_numeric, log_emission, loglik, simulate)
from odgarch.reparam import FeasibleMap


def nbin_closed_form(p, x, y):
    """Direct evaluation of the affine-recursion closed form."""
    n = len(y)
    an = p.a ** n
    s = sum(p.a ** j * y[n - 1 - j] for j in range(n))
    return p.omega * (1.0 - an) / (1.0 - p.a) + an * x + p.b * s


def test_iterate_f_empty_slice():
    p = NbinParams(1, .5, 1, 2)
    assert iterate_step(p, 2.0, []) == 2.0


def test_iterate_f_two_step_hand_value():
    p = NbinParams(1, .5, 1, 2)
    got = iterate_step(p, 2.0, [2.0, 3.0])
    assert abs(got - 6.0) < 1e-14
    assert abs(got - nbin_closed_form(p, 2.0, [2.0, 3.0])) < 1e-14


def test_iterate_f_closed_form_random():
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = random_nbin(rng)
        n = int(rng.integers(1, 201))
        y = rng.integers(0, 30, n).astype(float)
        x = float(rng.uniform(p.omega, 20.0))
        got = iterate_step(p, x, y)
        ref = nbin_closed_form(p, x, y)
        assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))


def test_contraction_identity():
    rng = np.random.default_rng(12)
    for _ in range(50):
        p = random_nbin(rng) if rng.random() < 0.5 else random_ting(rng)
        n = int(rng.integers(1, 13))
        y = rng.integers(0, 20, n).astype(float)
        x1 = float(rng.uniform(p.omega, p.omega + 5.0))
        x2 = x1 + float(rng.uniform(5.0, 20.0))
        lhs = abs(iterate_step(p, x1, y) - iterate_step(p, x2, y))
        rhs = p.a ** n * abs(x1 - x2)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)


def test_filter_base_case():
    p = NbinParams(1, .5, 1, 2)
    u = filter_series(p, 2.0, np.array([3.0]))
    assert np.array_equal(u, [2.0])


def test_filter_one_step():
    p = NbinParams(1, .5, 1, 2)
    u = filter_series(p, 2.0, np.array([3.0, 0.0]))
    assert np.allclose(u, [2.0, 5.0])


def test_loglik_single_term():
    p = NbinParams(1, .2, .2, 1)
    v = loglik(p, 1.0, np.array([0.0]))
    assert abs(v.value - math.log(0.5)) < 1e-12


@pytest.mark.parametrize("draw", [random_nbin, random_ting, lambda rng: random_nm(rng, 1),
                                  lambda rng: random_nm(rng, 2)],
                         ids=["nbin", "ting", "nm-d1", "nm-d2"])
def test_loglik_equals_mean_of_emissions(draw):
    # each kernel's value is the mean of the model's log density along the filtered path
    rng = np.random.default_rng(14)
    p = draw(rng)
    s = simulate(p, 64, seed=3)
    x1 = p.fixed_point()
    path = filter_series(p, x1, s)
    ref = np.mean([log_emission(p, u, yk) for u, yk in zip(path, s.y)])
    assert abs(loglik(p, x1, s).value - ref) < 1e-12


def test_loglik_kl_direction():
    p = NbinParams(3, .2, .2, 2)
    worse = NbinParams(6, .2, .2, 2)
    diffs = []
    for seed in range(50):
        s = simulate(p, 1024, seed=seed)
        diffs.append(loglik(p, 7.5, s).value - loglik(worse, 7.5, s).value)
    assert float(np.mean(diffs)) > 0


def test_loglik_forgets_initial_point():
    p = NbinParams(3, .2, .2, 2)  # a <= 0.5: geometric forgetting
    s = simulate(p, 1024, seed=9)
    assert abs(loglik(p, 7.5, s).value - loglik(p, 17.5, s).value) < 1e-3


def test_grad_nbin_single_term():
    p = NbinParams(1, .2, .2, 1)
    g = grad_loglik_nbin(p, 1.0, np.array([0.0]))
    assert np.allclose(g[:3], 0.0)
    assert abs(g[3] + math.log(2.0)) < 1e-12  # d/dr = -ln(1 + x1)


def test_grad_nbin_refuses_another_model():
    with pytest.raises(TypeError, match="grad_loglik_nbin requires NbinParams"):
        grad_loglik_nbin(TingParams(1, .2, .2, 1), 1.0, np.array([0.0]))


def test_series_and_array_agree():
    # a Series brings its distinct-count table; a plain array has one built per call
    rng = np.random.default_rng(16)
    for p in (random_nbin(rng), random_ting(rng)):
        s = simulate(p, 512, seed=int(rng.integers(1 << 30)))
        x1 = p.fixed_point()
        np.testing.assert_allclose(loglik(p, x1, s).value, loglik(p, x1, s.y).value,
                                   rtol=1e-14, atol=0)
        if p.tag == "nbin":
            np.testing.assert_allclose(grad_loglik_nbin(p, x1, s),
                                       grad_loglik_nbin(p, x1, s.y), rtol=1e-14, atol=0)


def test_grad_nbin_vs_finite_differences():
    rng = np.random.default_rng(15)
    for _ in range(30):
        p = random_nbin(rng)
        s = simulate(p, 64, seed=int(rng.integers(1 << 30)))
        x1 = p.fixed_point()
        fmap = FeasibleMap(p)
        ga = fmap.chain_rule(grad_loglik_nbin(p, x1, s), p)
        gn = grad_loglik_numeric(p, x1, s, step=1e-5)
        assert np.max(np.abs(ga - gn)) <= 1e-5 * max(1.0, np.max(np.abs(ga)))


def test_grad_numeric_nm_permutation_symmetry():
    p = NmParams(gamma=[0.3, 0.7], omega_vec=[1.0, 2.0],
                 A=[[0.2, 0.1], [0.05, 0.3]], b_vec=[0.15, 0.1])
    q = NmParams(gamma=[0.7, 0.3], omega_vec=[2.0, 1.0],
                 A=[[0.3, 0.05], [0.1, 0.2]], b_vec=[0.1, 0.15])
    rng = np.random.default_rng(16)
    y = rng.normal(0.0, 1.5, 64)
    x = np.array([1.5, 2.5])
    assert abs(loglik(p, x, y).value - loglik(q, x[::-1].copy(), y).value) < 1e-12


def test_grad_numeric_step_halving():
    rng = np.random.default_rng(17)
    p = random_nbin(rng)
    s = simulate(p, 128, seed=21)
    x1 = p.fixed_point()
    g4 = grad_loglik_numeric(p, x1, s, step=1e-4)
    g5 = grad_loglik_numeric(p, x1, s, step=1e-5)
    assert np.max(np.abs(g4 - g5)) <= 1e-4 * max(1.0, np.max(np.abs(g5)))


# scipy.special.psi is the digamma function the NBIN r-gradient calls
def test_digamma_hand_values():
    euler = 0.5772156649015329
    assert abs(psi(1.0) + euler) < 1e-12
    assert abs(psi(2.0) - (psi(1.0) + 1.0)) < 1e-14
    assert abs(psi(0.5) - (-euler - 2.0 * math.log(2.0))) < 1e-12


def test_digamma_vs_mpmath():
    mpmath.mp.dps = 30
    xs = np.exp(np.linspace(math.log(1e-3), math.log(50.0), 100))
    for x in xs:
        ref = float(mpmath.digamma(mpmath.mpf(float(x))))
        assert abs(psi(float(x)) - ref) <= 1e-10 * max(1.0, abs(ref))


def test_loglik_ting_and_nm_paths():
    t = TingParams(3, .35, .1, 4)
    s = simulate(t, 128, seed=2)
    v = loglik(t, t.fixed_point(), s)
    assert np.isfinite(v.value)
    p = NmParams(gamma=[0.4, 0.6], omega_vec=[1.0, 2.0],
                 A=[[0.3, 0.1], [0.05, 0.25]], b_vec=[0.2, 0.1])
    s = simulate(p, 128, seed=2)
    v = loglik(p, p.fixed_point(), s)
    assert np.isfinite(v.value)


# The paper's forgetting of the initial state: each state pair started at x1 and x1'
# contracts at rate a (NBIN, TING) or by A (NM), so the summed log-likelihood gap
# S_n = n (l_n(theta; x1) - l_n(theta; x1')) stops changing once the states agree to
# rounding. S_n for n = 16384 draws (seed 1), x1 = 0.1 and x1' = 10 times the fixed point.
FORGETTING = [
    (NbinParams(3.0, 0.2, 0.2, 2.0), -11.42502521),
    (TingParams(1.2, 0.5, 0.1, 3.2), -6.325912986),
    (NmParams(gamma=[0.4, 0.6], omega_vec=[1.0, 2.0], A=[[0.3, 0.1], [0.05, 0.25]],
              b_vec=[0.2, 0.1]), -0.04098448336),
]


@pytest.mark.parametrize("params,measured", FORGETTING, ids=["nbin", "ting", "nm-d2"])
def test_loglik_forgets_the_initial_state(params, measured):
    y = simulate(params, 16384, seed=1).y
    x1, x1p = 0.1 * params.fixed_point(), 10.0 * params.fixed_point()
    gaps = [n * (loglik(params, x1, y[:n]).value - loglik(params, x1p, y[:n]).value)
            for n in (256, 1024, 4096, 16384)]
    assert max(gaps) - min(gaps) <= 1e-8, gaps
    assert abs(gaps[-1] - measured) <= 1e-8
    if params.tag == "nm":
        return
    # Bound for a scalar state: from k = 2 on both states lie in [omega, inf), where
    # |log g(x; y) - log g(x'; y)| <= K(y) |x - x'|, and they differ by a^(k-1) |x1 - x1'|.
    k = np.arange(2, y.size + 1)
    bound = (abs(log_emission(params, x1, y[0]) - log_emission(params, x1p, y[0]))
             + float(np.sum(params.lipschitz_k(y[1:]) * params.a ** (k - 1))) * abs(x1 - x1p))
    assert abs(gaps[-1]) <= bound
