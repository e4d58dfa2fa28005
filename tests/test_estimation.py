import math
import warnings

import numpy as np
import pytest
from conftest import random_nbin, random_nm, random_ting
from hypothesis import given, settings
from hypothesis import strategies as st

from odgarch import (FeasibleMap, FitOptions, NbinParams, NmParams, TingParams,
                     grad_loglik_nbin, init_generic, loglik, mle_fit,
                     simulate)
from odgarch.estimation import EPS_MARGIN, OPG_DAMPING, _bfgs, _start_metric
from odgarch.montecarlo import replicate_seed
from odgarch.params import Series

M1 = NbinParams(3.0, 0.2, 0.2, 2.0)
M2 = NbinParams(3.0, 0.35, 0.1, 1.5)
TING = TingParams(3.0, 0.35, 0.1, 4.0)
NM_STAR = NmParams(gamma=[0.4, 0.6], omega_vec=[1.0, 2.0],
                   A=[[0.3, 0.1], [0.05, 0.25]], b_vec=[0.2, 0.1])
NM_START = NmParams(gamma=[0.5, 0.5], omega_vec=[0.8, 1.5],
                    A=[[0.25, 0.05], [0.05, 0.2]], b_vec=[0.15, 0.15])


def test_feasible_map_roundtrip_all_models():
    rng = np.random.default_rng(20)
    for draw in (random_nbin, random_ting, random_nm):
        for _ in range(20):
            p = draw(rng)
            fmap = FeasibleMap(p)
            q = fmap.decode(fmap.encode(p))
            assert np.allclose(p.as_array(), q.as_array(), rtol=1e-12, atol=1e-14)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=1e-6, max_value=1e3), min_size=4, max_size=4))
def test_feasible_map_roundtrip_hypothesis(vals):
    p = NbinParams(*vals)
    fmap = FeasibleMap(p)
    q = fmap.decode(fmap.encode(p))
    assert np.allclose(p.as_array(), q.as_array(), rtol=1e-12)


def test_decode_always_positive():
    fmap = FeasibleMap(NbinParams(3.0, 0.2, 0.2, 2.0))
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
    fmap = FeasibleMap(p)
    ga = fmap.chain_rule(grad_loglik_nbin(p, x1, s), p)
    gn = grad_loglik_numeric(p, x1, s)
    assert np.max(np.abs(ga - gn)) <= 1e-4 * max(1.0, np.max(np.abs(ga)))


def _central_difference(fn, p, step=1e-6):
    """The central-difference gradient of fn at p in p's coordinates z, sharing no code
    with the chain rule it checks."""
    z0 = p.encode()
    grad = np.empty(z0.size)
    for i in range(z0.size):
        hi, lo = z0.copy(), z0.copy()
        hi[i] += step
        lo[i] -= step
        grad[i] = (fn(type(p).decode(hi, p.d)) - fn(type(p).decode(lo, p.d))) / (2.0 * step)
    return grad


@pytest.mark.parametrize("d", [1, 2, 3])
def test_nm_chain_rule_and_constraint_grad(d):
    # the softmax and log chain rule, and the Perron-root gradient of the constraint,
    # against central differences in the fit's coordinates z
    rng = np.random.default_rng(40 + d)
    for _ in range(10):
        p = random_nm(rng, d=d)
        c = rng.normal(size=p.as_array().size)
        numeric = _central_difference(lambda q: q.as_array() @ c, p)
        np.testing.assert_allclose(p.chain_rule(c), numeric, rtol=1e-7, atol=1e-9)
        numeric = _central_difference(lambda q: q.constraint(0.0), p)
        np.testing.assert_allclose(p.constraint_grad_z(), numeric, rtol=1e-7, atol=1e-9)


def test_count_constraint_grad_closed_forms():
    rng = np.random.default_rng(44)
    for _ in range(50):
        p, t = random_nbin(rng), random_ting(rng)
        assert np.array_equal(p.constraint_grad_z(), [0.0, p.a, p.b * p.r, p.b * p.r])
        assert np.array_equal(t.constraint_grad_z(), [0.0, t.a, 0.0, 0.0])
    # a wild BFGS trial point: b r overflows to inf without a warning, and the
    # fitter clips the penalty's gradient to 1e100
    wild = NbinParams(2.0, 0.5, 1e304, 3.3e4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert wild.constraint(EPS_MARGIN) == math.inf
        assert np.array_equal(np.clip(wild.constraint_grad_z(), -1e100, 1e100),
                              [0.0, 0.5, 1e100, 1e100])


def test_cls_init_ball_rate_m1():
    # initializer lands within max-norm radius 1.5 of the truth >= 90% of seeds
    star = M1.as_array()
    hits = 0
    for seed in range(200):
        s = simulate(M1, 1024, seed=seed)
        th = init_generic(s, "nbin").as_array()
        hits += np.max(np.abs(th - star)) <= 1.5
    assert hits / 200 >= 0.9


def test_cls_init_clamp_contract():
    # a series whose ACF ratio exceeds one: phi clamps, margin exactly EPS_MARGIN
    y = np.array([0.0, 0.0, 9.0] * 40)
    p = init_generic(y, "nbin")
    assert abs(p.margin() - EPS_MARGIN) < 1e-12


def test_cls_init_white_noise():
    rng = np.random.default_rng(23)
    y = rng.poisson(5.0, 2000).astype(float)
    p = init_generic(y, "nbin")
    assert p.a < 1e-3
    assert p.stable() and p.margin() >= EPS_MARGIN - 1e-15


def test_cls_init_degenerate():
    with pytest.raises(ValueError):
        init_generic(np.full(100, 4.0), "nbin")
    with pytest.raises(ValueError):
        init_generic(np.array([1.0, 2.0, 3.0]), "nbin")  # too short


# init_generic(simulate(truth, n, seed=1)) as float hex: the NBIN start's bits
PINNED_STARTS = {
    "m1-4096": (M1, 4096, ("0x1.8842c311fc067p+1", "0x1.1e232f439ab7ap-2",
                           "0x1.1b7cb1bc91ea6p-3", "0x1.0264b417e4503p+1")),
    "m2-128": (M2, 128, ("0x1.73d8fa75a24dfp+2", "0x1.a36e2eb1c432dp-15",
                         "0x1.1bdb8e5bf68ebp-15", "0x1.7a44893d06815p+0")),
}


@pytest.mark.parametrize("truth,n,theta", PINNED_STARTS.values(), ids=PINNED_STARTS.keys())
def test_cls_init_pinned(truth, n, theta):
    start = init_generic(simulate(truth, n, seed=1))
    assert tuple(float(v).hex() for v in start.as_array()) == theta


def test_init_generic_contract():
    rng = np.random.default_rng(24)
    for tag, draw in (("nbin", random_nbin), ("ting", random_ting)):
        for _ in range(10):
            s = simulate(draw(rng), 256, seed=int(rng.integers(1 << 30)))
            p0 = init_generic(s.y, tag)
            assert p0.stable() and p0.margin() >= EPS_MARGIN - 1e-12


@pytest.mark.parametrize("star", [M1, TingParams(3.0, 0.35, 0.1, 4.0), NM_STAR],
                         ids=["nbin", "ting", "nm-d2"])
def test_init_generic_takes_the_model_of_a_series(star):
    s = simulate(star, 256, seed=5)
    start, tagged = init_generic(s), init_generic(s, s.model_tag)
    assert type(start) is type(tagged) is type(star)
    assert start.as_array().tobytes() == tagged.as_array().tobytes()
    with pytest.raises(ValueError, match="a plain array needs a model tag"):
        init_generic(s.y)


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


# The paper's forgetting property, statistical half: the filtered state forgets its
# anchor x1, so theta_hat cannot depend on x1 in the limit (the deterministic half is
# test_loglik_forgets_the_initial_state). D_n, the largest change of any parameter of
# theta_hat between the anchors 0.1 and 10 times the fixed point, over seeds 1-10, falls
# by at least 3x for each 4x in n. Over seeds 1-10, 11-20 and 21-30 every such ratio was
# 3.47 or more at these n; from n = 1024 one was 2.38.
@pytest.mark.parametrize("truth", [M1, M2], ids=["m1", "m2"])
def test_mle_forgets_the_initial_state(truth):
    x1, x1p = 0.1 * truth.fixed_point(), 10.0 * truth.fixed_point()
    d_n = []
    for n in (4096, 16384, 65536):
        d = 0.0
        for seed in range(1, 11):
            s = simulate(truth, n, seed=seed)
            a, b = (mle_fit(s, x1=x).theta_hat.as_array() for x in (x1, x1p))
            d = max(d, float(np.max(np.abs(a - b))))
        d_n.append(d)
    assert d_n[0] >= 3.0 * d_n[1] and d_n[1] >= 3.0 * d_n[2], d_n


def test_mle_fit_degenerate_series():
    with pytest.raises(ValueError):
        mle_fit(Series(y=np.full(50, 3.0), model_tag="nbin"))


def test_mle_fit_array_needs_model_tag():
    y = simulate(NbinParams(3.0, 0.2, 0.2, 2.0), 64, seed=1).y
    with pytest.raises(ValueError, match="a plain array needs a model tag"):
        mle_fit(y)


def test_mle_fit_evaluates_each_point_once(monkeypatch):
    # the count table is built once per fit, each point is evaluated by exactly
    # one fused value-and-gradient call, and the value-only kernel is not used
    from collections import Counter

    from odgarch import kernels, likelihood, params
    built, value_only, fused = [], [], Counter()
    real_table, real_ll, real_fused = (params.count_table, kernels.nbin_loglik,
                                       kernels.nbin_loglik_grad)

    def table(y):
        built.append(len(y))
        return real_table(y)

    def ll(y, *args):
        value_only.append(args[:5])
        return real_ll(y, *args)

    def fused_call(y, *args):
        fused[args[:5]] += 1  # before the call: a trial point that overflows counts too
        return real_fused(y, *args)

    y = simulate(M1, 512, seed=8).y
    monkeypatch.setattr(params, "count_table", table)
    monkeypatch.setattr(kernels, "nbin_loglik", ll)
    monkeypatch.setattr(kernels, "nbin_loglik_grad", fused_call)
    fit = mle_fit(y, model_tag="nbin")
    assert fit.converged
    assert built == [512]
    assert fused and max(fused.values()) == 1
    assert value_only == []
    # the fused value is the value-only kernel's, bit for bit
    assert fit.loglik_hat == loglik(fit.theta_hat, fit.x1_used, y).value
    assert fit.loglik_init == loglik(fit.theta_init, fit.x1_used, y).value


def _at_margin(params, excess):
    """params rescaled so that its stability quantity is 1 - EPS_MARGIN + excess."""
    target = 1.0 - EPS_MARGIN + excess
    if params.tag == "ting":
        return TingParams(params.omega, target, params.b, params.tau)
    shrink = target / (1.0 - params.margin())
    if params.tag == "nbin":
        return NbinParams(params.omega, params.a * shrink, params.b * shrink, params.r)
    return NmParams(params.gamma, params.omega_vec, params.A * shrink, params.b_vec * shrink)


@pytest.mark.parametrize("draw", [random_nbin, random_ting, random_nm],
                         ids=["nbin", "ting", "nm"])
def test_pull_inside_meets_margin(draw):
    # a point 2e-12 inside the margin comes out with the margin met exactly
    rng = np.random.default_rng(31)
    for _ in range(50):
        p = _at_margin(draw(rng), 2e-12)
        assert p.margin() < EPS_MARGIN
        q = p.pull_inside(EPS_MARGIN)
        assert q.margin() >= EPS_MARGIN
        assert q.margin() < EPS_MARGIN + 1e-9


def test_bfgs_restarts_when_rounding_loses_curvature():
    # on a quadratic of condition 1e10, rounding leaves the inverse-Hessian estimate
    # indefinite along the gradient; _bfgs restarts from steepest descent, whose first
    # trial is z - g exactly, and still converges
    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    rot = np.array([[c, -s], [s, c]])
    h = rot @ np.diag([1.0, 1e10]) @ rot.T
    seen = []

    def f_and_g(z):
        g = h @ z
        seen.append((z, g))
        return 0.5 * z @ g, g, None

    z0 = np.ones(2)
    z, fval, g, _, n_iter, ok = _bfgs(f_and_g, z0, f_and_g(z0), 1e-8, 50, np.eye(2))
    # the first iteration's h is the identity: restarts are trials after it
    restarts = [k for k in range(2, len(seen))
                if any(np.array_equal(seen[k][0], zj - gj) for zj, gj in seen[1:k])]
    assert restarts
    assert ok and abs(g).max() < 1e-8 and fval < 1e-20 and n_iter < 50


def test_bfgs_starts_from_h0():
    # from the exact inverse Hessian of a quadratic, the first trial is its minimum; an h0
    # that points uphill is dropped for steepest descent, whose first trial is z0 - g
    h = np.array([[4.0, 1.0], [1.0, 2.0]])
    seen = []

    def f_and_g(z):
        g = h @ z
        seen.append(z)
        return 0.5 * z @ g, g, None

    z0 = np.array([1.0, -2.0])
    z, fval, g, _, n_iter, ok = _bfgs(f_and_g, z0, f_and_g(z0), 1e-8, 50, np.linalg.inv(h))
    assert ok and n_iter == 1 and abs(z).max() < 1e-15
    seen.clear()
    z, fval, g, _, n_iter, ok = _bfgs(f_and_g, z0, f_and_g(z0), 1e-8, 50, -np.eye(2))
    assert np.array_equal(seen[1], z0 - h @ z0)
    assert ok and abs(g).max() < 1e-8


@pytest.mark.parametrize("star", [TING, NM_STAR], ids=["ting", "nm-d2"])
def test_start_metric_is_the_identity_without_scores(star):
    s = simulate(star, 256, seed=5)
    start = init_generic(s)
    h0 = _start_metric(start, start.fixed_point(), s)
    assert np.array_equal(h0, np.eye(start.encode().size))


def test_start_metric_nbin():
    # the damped inverse OPG is symmetric with eigenvalues in (0, 1/delta]; at a start
    # whose scores overflow (a state path near 1e-310) the kernel raises, and the start
    # metric is the identity
    s = simulate(M1, 256, seed=5)
    start = init_generic(s)
    h0 = _start_metric(start, start.fixed_point(), s)
    assert np.allclose(h0, h0.T, rtol=1e-12, atol=0)
    eig = np.linalg.eigvalsh(h0)
    assert eig.min() > 0 and eig.max() <= 1.0 / OPG_DAMPING * (1 + 1e-12)
    assert not np.allclose(h0, np.eye(4))
    tiny = NbinParams(1e-310, 0.2, 1e-310, 2.0)
    with pytest.raises(FloatingPointError):
        tiny.scores(1e-310, s)
    assert np.array_equal(_start_metric(tiny, 1e-310, s), np.eye(4))


# The first 50 replicates of the criterion-1 and criterion-2 studies at n = 128 and 1024:
# no fit started from the damped inverse OPG ends below its identity-start fit by more
# than 1e-6. The worst over the 1600 fits of both studies was -7.9e-7, at n = 128.
@pytest.mark.parametrize("truth", [M1, M2], ids=["m1", "m2"])
def test_opg_start_loses_no_likelihood(truth, monkeypatch):
    series = [simulate(truth, n, seed=replicate_seed(20250823, n, j))
              for n in (128, 1024) for j in range(50)]
    opg = [mle_fit(s).loglik_hat for s in series]
    monkeypatch.setattr(NbinParams, "scores", lambda self, x1, series: None)
    eye = [mle_fit(s).loglik_hat for s in series]
    assert min(np.subtract(opg, eye)) >= -1e-6


def test_bfgs_gives_up_when_the_line_search_fails():
    trials = []

    def f_and_g(z):
        trials.append(z)
        raise FloatingPointError("overflow")

    z0, g0 = np.array([1.0, 2.0]), np.array([1.0, -1.0])
    z, fval, g, extra, n_iter, ok = _bfgs(f_and_g, z0, (3.0, g0, "start"), 1e-8, 10,
                                          np.eye(2))
    assert np.array_equal(z, z0) and fval == 3.0 and g is g0 and extra == "start"
    assert (n_iter, ok) == (1, False)
    assert len(trials) == 60 and np.array_equal(trials[-1], z0 - 0.5 ** 59 * g0)


def test_mle_fit_falls_back_to_its_start():
    # one outer iteration from a start on the margin ends outside it; pulled back
    # inside, the point is worse than the start, so the fit returns the start
    series = simulate(NbinParams(0.5, 0.7, 0.149, 2.0), 256, seed=2)
    start = mle_fit(series).theta_hat
    fit = mle_fit(series, theta_init=start, options=FitOptions(max_outer=1))
    assert fit.theta_hat is fit.theta_init
    assert fit.loglik_hat == fit.loglik_init and not fit.converged


def test_mle_fit_nm_ends_outside_margin():
    # this NM fit used to end at margin 9.999999794e-05, under FitOptions.margin
    series = simulate(NM_STAR, 256, seed=3929593871)
    fit = mle_fit(series, theta_init=NM_START)
    assert fit.theta_hat.margin() >= FitOptions().margin
    assert fit.loglik_hat == loglik(fit.theta_hat, fit.x1_used, series).value


def test_mle_fit_nm_takes_d_from_series():
    s = simulate(NM_STAR, 256, seed=3)
    assert init_generic(Series(y=s.y, model_tag="nm", x_trace=s.x_trace), "nm").d == 2
    assert init_generic(s.y, "nm", x1=np.ones(3)).d == 3
    start = init_generic(s, "nm")
    assert start.d == 2 and start.margin() >= EPS_MARGIN
    fit = mle_fit(s, options=FitOptions(tol=1e-4, max_outer=3, max_inner=60))
    assert fit.theta_hat.d == 2 and fit.theta_hat.stable()
    assert fit.loglik_hat >= fit.loglik_init


# mle_fit(simulate(truth, n, seed=seed), theta_init=start): theta_hat and loglik_hat as
# float hex, n_inner, n_outer, converged and projected_grad_norm as float hex. A change
# to the arithmetic of the kernels, the decode path or the optimizer shows up here.
PINNED_FITS = {
    "m1-128-1": (M1, 128, 1, None, ("0x1.057dc1742d89cp+2", "0x1.a0249372670cep-26",
                                    "0x1.42d71c1f7672dp-3", "0x1.12156b020b159p+1"),
                 "-0x1.bf7d67bae128bp+1", 36, 1, True, "0x1.09d816c84fbbbp-23"),
    "m1-128-2": (M1, 128, 2, None, ("0x1.46f785911656cp+1", "0x1.5d97fcb6c7c4dp-3",
                                    "0x1.8c13c99880214p-3", "0x1.39c8c0c9b17f9p+1"),
                 "-0x1.d91f4de5b94b9p+1", 13, 1, True, "0x1.01b57eb70803bp-26"),
    "m1-1024-1": (M1, 1024, 1, None, ("0x1.a80af7152db61p+1", "0x1.8a86213c39bc3p-4",
                                      "0x1.87d698bdefb39p-3", "0x1.1309241a1329ep+1"),
                  "-0x1.c6d498b8c0513p+1", 13, 1, True, "0x1.c36b60b32b6ffp-22"),
    "m1-1024-2": (M1, 1024, 2, None, ("0x1.693fc7ebdff84p+1", "0x1.0f7d1794ba559p-2",
                                      "0x1.7a65feae615d9p-3", "0x1.0d75cbc6bdbb8p+1"),
                  "-0x1.db4b85437b9bep+1", 9, 1, True, "0x1.6811d3392ab40p-27"),
    "m1-4096-1": (M1, 4096, 1, None, ("0x1.67f00acb8f542p+1", "0x1.9a14b9712937cp-3",
                                      "0x1.7d95106a780ccp-3", "0x1.08833acdc90a5p+1"),
                  "-0x1.c3d78192851b6p+1", 9, 1, True, "0x1.9770f7bde6097p-23"),
    "m1-4096-2": (M1, 4096, 2, None, ("0x1.7fd55fc2233f2p+1", "0x1.a941841999e9ep-3",
                                      "0x1.a37037663390dp-3", "0x1.020522e813ee1p+1"),
                  "-0x1.d2a3193177d4ap+1", 10, 1, True, "0x1.240612c3a956ap-23"),
    "m2-128-1": (M2, 128, 1, None, ("0x1.5e518a6f4a6bdp+0", "0x1.4de21d5e2c7c5p-1",
                                    "0x1.367836fd159d2p-4", "0x1.7f4278eaf9ad7p+0"),
                 "-0x1.957fe08392731p+1", 74, 1, True, "0x1.bc6e7c1e61915p-25"),
    "m2-128-2": (M2, 128, 2, None, ("0x1.081418b7df691p+2", "0x1.db629935b7526p-22",
                                    "0x1.3432da3122fb0p-3", "0x1.9d669e0ac5487p+0"),
                 "-0x1.96aca99fc3bcap+1", 31, 1, True, "0x1.0a31a6e101d42p-21"),
    "m2-1024-1": (M2, 1024, 1, None, ("0x1.769888874bd74p+1", "0x1.35a94b72a1751p-2",
                                      "0x1.816f1a9dba496p-4", "0x1.a5b7c87632d5ep+0"),
                  "-0x1.97babeed0ccb4p+1", 10, 1, True, "0x1.1cee410891aa7p-21"),
    "m2-1024-2": (M2, 1024, 2, None, ("0x1.41428198752a2p+1", "0x1.cba7e845b99c8p-2",
                                      "0x1.65df0dfdd60a6p-4", "0x1.8500fb8b41e9ap+0"),
                  "-0x1.9e0763deb80f6p+1", 26, 1, True, "0x1.94b6be618d1afp-24"),
    "m2-4096-1": (M2, 4096, 1, None, ("0x1.6a717b3b27d8fp+1", "0x1.6a11114bdb6e3p-2",
                                      "0x1.7f010ab5157f8p-4", "0x1.8a6a09f572a90p+0"),
                  "-0x1.968a5fc6ee0cap+1", 12, 1, True, "0x1.34c8e4a605987p-23"),
    "m2-4096-2": (M2, 4096, 2, None, ("0x1.9e9ca9afdfb54p+1", "0x1.490fa86c704ccp-2",
                                      "0x1.5c0b658cf0804p-4", "0x1.8bafe8d7c69a0p+0"),
                  "-0x1.9cfdecc94feaap+1", 15, 1, True, "0x1.402fd792bfa1cp-25"),
    # a fit that ends unconverged: its projected gradient stays above tol
    "ting-256-1": (TING, 256, 1, None, ("0x1.f3e68c44cbebbp+1", "0x1.a36e2a26e10c0p-15",
                                        "0x1.a36ef79134074p-15", "0x1.f3fa7e37099a8p+1"),
                   "-0x1.03bc927dd799cp+1", 10, 2, False, "0x1.f78b1f28e7fffp-9"),
    "nm2-256-1": (NM_STAR, 256, 1, NM_START,
                  ("0x1.cac5785931599p-3", "0x1.8d4ea1e9b3a9bp-1", "0x1.728ded58ef181p-2",
                   "0x1.b175b07745da6p+1", "0x1.1fec2a4a05503p-37", "0x1.59d10b4ffd54dp-9",
                   "0x1.404eb23e657bfp-62", "0x1.7a8a19e7d0a6fp-33", "0x1.722074fbd44a0p-1",
                   "0x1.01f656deafd5dp-4"),
                  "-0x1.00bd7463522b0p+1", 63, 1, True, "0x1.0c263d8000000p-22"),
}


@pytest.mark.parametrize("truth,n,seed,start,theta,ll,n_inner,n_outer,converged,pg",
                         PINNED_FITS.values(), ids=PINNED_FITS.keys())
def test_fit_pinned(truth, n, seed, start, theta, ll, n_inner, n_outer, converged, pg):
    fit = mle_fit(simulate(truth, n, seed=seed), theta_init=start)
    assert tuple(float(v).hex() for v in fit.theta_hat.as_array()) == theta
    assert float(fit.loglik_hat).hex() == ll
    assert (fit.n_inner, fit.n_outer, fit.converged) == (n_inner, n_outer, converged)
    assert float(fit.projected_grad_norm).hex() == pg
