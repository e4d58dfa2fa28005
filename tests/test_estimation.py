import numpy as np
import pytest
from conftest import random_nbin, random_nm, random_ting
from hypothesis import given, settings
from hypothesis import strategies as st

from odgarch import (FeasibleMap, FitOptions, NbinParams, NmParams, TingParams,
                     cls_init_nbin, grad_loglik_nbin, init_generic, loglik, mle_fit,
                     simulate)
from odgarch.estimation import EPS_MARGIN
from odgarch.reparam import feasible_map_for

M1 = NbinParams(3.0, 0.2, 0.2, 2.0)


def test_feasible_map_roundtrip_all_models():
    rng = np.random.default_rng(20)
    for draw in (random_nbin, random_ting, random_nm):
        for _ in range(20):
            p = draw(rng)
            fmap = feasible_map_for(p)
            q = fmap.decode(fmap.encode(p))
            assert np.allclose(p.as_array(), q.as_array(), rtol=1e-12, atol=1e-14)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=1e-6, max_value=1e3), min_size=4, max_size=4))
def test_feasible_map_roundtrip_hypothesis(vals):
    p = NbinParams(*vals)
    fmap = FeasibleMap("nbin")
    q = fmap.decode(fmap.encode(p))
    assert np.allclose(p.as_array(), q.as_array(), rtol=1e-12)


def test_decode_always_positive():
    fmap = FeasibleMap("nbin")
    rng = np.random.default_rng(21)
    for _ in range(50):
        z = rng.uniform(-1e6, 1e6, 4)
        p = fmap.decode(z)  # huge z clipped, still valid and positive
        assert np.all(p.as_array() > 0) and np.all(np.isfinite(p.as_array()))


def test_chain_rule_matches_numeric():
    rng = np.random.default_rng(22)
    from odgarch import grad_loglik_numeric
    p = random_nbin(rng)
    s = simulate(p, 128, seed=4)
    x1 = p.fixed_point()
    fmap = feasible_map_for(p)
    ga = fmap.chain_rule(grad_loglik_nbin(p, x1, s), p)
    gn = grad_loglik_numeric(p, x1, s)
    assert np.max(np.abs(ga - gn)) <= 1e-4 * max(1.0, np.max(np.abs(ga)))


def test_cls_init_ball_rate_m1():
    # initializer lands within max-norm radius 1.5 of the truth >= 90% of seeds
    star = M1.as_array()
    hits = 0
    for seed in range(200):
        s = simulate(M1, 1024, seed=seed)
        th = cls_init_nbin(s).as_array()
        hits += np.max(np.abs(th - star)) <= 1.5
    assert hits / 200 >= 0.9


def test_cls_init_clamp_contract():
    # a series whose ACF ratio exceeds one: phi clamps, margin exactly EPS_MARGIN
    y = np.array([0.0, 0.0, 9.0] * 40)
    p = cls_init_nbin(y)
    assert abs(p.margin() - EPS_MARGIN) < 1e-12


def test_cls_init_white_noise():
    rng = np.random.default_rng(23)
    y = rng.poisson(5.0, 2000).astype(float)
    p = cls_init_nbin(y)
    assert p.a < 1e-3
    assert p.stable() and p.margin() >= EPS_MARGIN - 1e-15


def test_cls_init_degenerate():
    with pytest.raises(ValueError):
        cls_init_nbin(np.full(100, 4.0))
    with pytest.raises(ValueError):
        cls_init_nbin(np.array([1.0, 2.0, 3.0]))  # too short


def test_init_generic_contract():
    rng = np.random.default_rng(24)
    for tag, draw in (("nbin", random_nbin), ("ting", random_ting)):
        for _ in range(10):
            s = simulate(draw(rng), 256, seed=int(rng.integers(1 << 30)))
            p0 = init_generic(s.y, tag)
            assert p0.stable() and p0.margin() >= EPS_MARGIN - 1e-12


def test_init_generic_nm_white_noise():
    rng = np.random.default_rng(25)
    y = rng.normal(0.0, 1.0, 4000)
    p = init_generic(y, "nm")
    assert p.d == 1
    assert abs(p.omega_vec[0] - 0.5) < 0.05
    assert np.allclose(p.A, [[0.3]]) and np.allclose(p.b_vec, [0.2])


def test_init_generic_ting_poisson():
    rng = np.random.default_rng(26)
    y = rng.poisson(3.0, 2000).astype(float)
    p = init_generic(y, "ting")
    assert p.tau >= 2.5


def test_mle_fit_ascent_and_feasibility():
    rng = np.random.default_rng(27)
    for _ in range(5):
        p = random_nbin(rng)
        s = simulate(p, 256, seed=int(rng.integers(1 << 30)))
        fit = mle_fit(s)
        assert fit.loglik_hat >= fit.loglik_init - 1e-12
        assert fit.theta_hat.stable()
        assert fit.theta_hat.margin() >= EPS_MARGIN - 1e-8


def test_mle_fit_determinism():
    s = simulate(M1, 512, seed=77)
    f1 = mle_fit(s)
    f2 = mle_fit(s)
    assert np.array_equal(f1.theta_hat.as_array(), f2.theta_hat.as_array())
    assert f1.loglik_hat == f2.loglik_hat
    assert (f1.n_outer, f1.n_inner, f1.converged) == (f2.n_outer, f2.n_inner, f2.converged)


def test_mle_fit_m1_recovers_truth():
    s = simulate(M1, 1024, seed=123)
    fit = mle_fit(s)
    assert fit.converged
    assert fit.projected_grad_norm < 1e-5
    assert np.max(np.abs(fit.theta_hat.as_array() - M1.as_array())) < 1.5
    # the MLE dominates the truth on its own data
    assert fit.loglik_hat >= loglik(M1, fit.x1_used, s).value - 1e-10


def test_mle_fit_convergence_rate():
    ok = sum(mle_fit(simulate(M1, 1024, seed=s)).converged for s in range(50))
    assert ok / 50 >= 0.95


def test_mle_fit_x1_override_and_seed():
    s = simulate(M1, 256, seed=5)
    fit = mle_fit(s, x1=7.5)
    assert fit.x1_used == 7.5
    d = fit.to_dict()
    for key in ("model", "theta_init", "theta_hat", "loglik_init", "loglik_hat",
                "converged", "n_outer", "n_inner", "constraint_margin", "x1",
                "seed", "projected_grad_norm"):
        assert key in d
    assert d["x1"] == 7.5
    assert d["seed"] == 5 and d["projected_grad_norm"] == fit.projected_grad_norm


def test_mle_fit_ting():
    t = TingParams(3.0, 0.35, 0.1, 4.0)
    s = simulate(t, 1024, seed=31)
    fit = mle_fit(s)
    assert fit.loglik_hat >= fit.loglik_init - 1e-12
    assert fit.theta_hat.stable()
    assert fit.loglik_hat >= loglik(t, fit.x1_used, s).value - 1e-8


def test_mle_fit_nm_d1():
    p = NmParams(gamma=[1.0], omega_vec=[1.0], A=[[0.4]], b_vec=[0.25])
    s = simulate(p, 512, seed=32)
    fit = mle_fit(s, options=FitOptions(tol=1e-5))
    assert fit.loglik_hat >= fit.loglik_init - 1e-12
    assert fit.theta_hat.stable()


def test_mle_fit_degenerate_series():
    from odgarch.params import Series
    with pytest.raises(ValueError):
        mle_fit(Series(y=np.full(50, 3.0), model_tag="nbin"))
