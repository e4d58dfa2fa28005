import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from conftest import random_nbin, random_nm, random_ting

import odgarch
from odgarch import (NbinParams, NmParams, TingParams, log_emission, sample_emission,
                     verifier, verify_model)
from odgarch.params import SLACK_LOOSE, _perron_weights
from odgarch.models import psi_step
from odgarch.verifier import (CheckRecord, Triples, _halton, check_contraction, check_drift,
                              check_lipschitz_logg, check_minorization, sample_triples)

M1 = NbinParams(3.0, 0.2, 0.2, 2.0)
M2 = NbinParams(3.0, 0.35, 0.1, 1.5)
TING = TingParams(3.0, 0.35, 0.1, 4.0)
NM2 = NmParams(gamma=[0.4, 0.6], omega_vec=[1.0, 2.0],
               A=[[0.3, 0.1], [0.05, 0.25]], b_vec=[0.2, 0.1])


@pytest.mark.parametrize("params", [M1, M2, TING, NM2],
                         ids=["m1", "m2", "ting", "nm2"])
def test_verify_model_passes(params):
    report = verify_model(params, n_triples=2000, seed=0)
    assert report.passed
    assert all(c.n_violations == 0 for c in report.checks)


def test_contraction_rate_scalar():
    rec = check_contraction(sample_triples(M1, 2000, 0))
    assert rec.passed and rec.info["rate"] == 0.2
    rec = check_contraction(sample_triples(TING, 2000, 0))
    assert rec.passed and rec.info["rate"] == 0.35


def test_contraction_nm_weighted_norm():
    rec = check_contraction(sample_triples(NM2, 2000, 0))
    assert rec.passed
    assert rec.info["rho_weighted"] < 1.0


def test_contraction_nm_periodic_a():
    # the left Perron vector of [[0, 2], [0.4, 0]] is (1, sqrt(5)); its rate is sqrt(0.8)
    a_mat = np.array([[0.0, 2.0], [0.4, 0.0]])
    w = _perron_weights(a_mat)
    assert abs(w[1] / w[0] - math.sqrt(5.0)) < 1e-9
    assert abs(np.max((a_mat.T @ w) / w) - math.sqrt(0.8)) < 1e-9
    p = NmParams(gamma=[0.5, 0.5], omega_vec=[1.0, 1.0], A=a_mat, b_vec=[0.01, 0.01])
    rec = check_contraction(sample_triples(p, 2000, 0))
    assert rec.passed and abs(rec.info["rho_weighted"] - math.sqrt(0.8)) < 1e-9


# (seed, gamma, omega, A, b) of random stable NM sets (d = 1) whose contraction check
# failed on rounding alone under a fixed slack of 1e-10, worst slack -9.7e-10
NM_ROUNDING_SETS = [
    (686, 1.0, 1.6329005592054866, 0.0717265670919534, 0.427346705895758),
    (914, 0.9999999999999999, 1.8735245014606279, 0.32812821212988713, 0.19392211938588494),
    (1010, 1.0, 2.931989643892804, 0.20340442759991062, 0.6550638336496274),
    (1866, 1.0, 1.5512177404247827, 0.2926277027525097, 0.5049092358566243),
    (1870, 0.9999999999999999, 0.702470952852408, 0.20658138784321073, 0.2723212965528678),
    (2080, 1.0, 0.7494099714993816, 0.24336567100843862, 0.17400463064207883),
    (2934, 1.0, 2.8655143310793476, 0.28884895076612627, 0.4020165166305738),
    (3476, 0.9999999999999999, 1.9259952647320415, 0.2709790747562448, 0.4306421209302305),
    (3488, 1.0, 2.749884450313738, 0.26670907317983367, 0.2812352837724417),
    (4500, 1.0, 0.5147902721666751, 0.2719221683421154, 0.5591144336337371),
    (4542, 1.0, 1.7279572054227914, 0.07377264496318597, 0.49674719835628567),
    (4686, 1.0, 1.1395150230912383, 0.1726436529346159, 0.22807453761408367),
]


def test_contraction_nm_close_pairs_pass():
    for seed, gamma, omega, a, b in NM_ROUNDING_SETS:
        p = NmParams(gamma=[gamma], omega_vec=[omega], A=[[a]], b_vec=[b])
        rec = check_contraction(sample_triples(p, 10_000, seed))
        assert rec.n_violations == 0, (seed, rec.worst_slack)


def test_contraction_nm_violation_above_allowance_fails():
    # d = 1, so w = 1 and rho_w = a. A map of rate a + e next to a close pair fails
    # once e exceeds the documented allowance, and passes while e is within it.
    a = 0.3
    p = NmParams(gamma=[1.0], omega_vec=[1.0], A=[[a]], b_vec=[0.2])
    x, xp, y = np.array([[1.0]]), np.array([[1.0 + 2.0 ** -20]]), np.array([0.5])
    total = float((psi_step(p, x, y) + psi_step(p, xp, y))[0, 0])
    allowance = 4 * 3 * np.finfo(float).eps * (total / 2.0 ** -20 + a)
    for excess, violations in ((1.5, 1), (0.5, 0)):
        q = NmParams(gamma=[1.0], omega_vec=[1.0], A=[[a + excess * allowance]], b_vec=[0.2])
        assert p.contraction(x, xp, psi_step(q, x, y), psi_step(q, xp, y))[2] == violations


def test_drift_closed_form_values():
    rv, v, lam, beta = M1.drift(np.array([5.0]))
    assert abs(rv[0] - 6.0) < 1e-12
    assert abs(lam - 0.6) < 1e-12 and beta == 3.0

    t = TingParams(1.0, 0.5, 0.25, 2.0)
    rv, v, lam, beta = t.drift(np.array([10.0]))
    assert abs(rv[0] - 6.5) < 1e-12
    assert rv[0] <= lam * 10.0 + beta + 1e-12


def test_drift_skipped_when_unstable():
    p = NbinParams(1.0, 0.6, 0.5, 1.0)
    rec = check_drift(sample_triples(p, 100, 0), seed=0)
    assert rec.skipped and rec.passed
    assert "unstable" in rec.reason


def test_minorization_alpha_hand_values():
    assert abs(M1.minorization_alpha(1.0, 3.0) - 0.25) < 1e-12
    t = TingParams(1.0, 0.5, 0.25, 1.5)
    assert abs(t.minorization_alpha(1.0, 2.0) - math.exp(-0.5)) < 1e-12
    assert M1.minorization_alpha(2.0, 2.0) == 1.0


def test_minorization_alpha_symmetry():
    rng = np.random.default_rng(5)
    for _ in range(50):
        x, xp = rng.uniform(0.1, 100.0, 2)
        assert M1.minorization_alpha(x, xp) == M1.minorization_alpha(xp, x)
        assert TING.minorization_alpha(x, xp) == TING.minorization_alpha(xp, x)


def test_minorization_equality_at_equal_states():
    # x == x': alpha = 1 and the bound holds with equality
    x = np.array([4.0])
    y = np.array([3.0])
    lhs = log_emission(M1, x, y)
    assert abs(math.exp(lhs[0]) - M1.minorization_alpha(4.0, 4.0)
               * math.exp(log_emission(M1, x, y)[0])) < 1e-15


# sets whose minorization weight underflows to 0.0 on part of the grid: NBIN's
# ((1 + lo)/(1 + hi))^r at large r, TING's exp(min(lo, tau) - min(hi, tau)) at large tau
UNDERFLOW_SETS = [NbinParams(3.0, 0.2, 0.2 / 300, 300.0), NbinParams(1.0, 0.5, 1e-5, 1e4),
                  TingParams(1.0, 0.5, 0.1, 800.0)]


@pytest.mark.parametrize("params", UNDERFLOW_SETS, ids=["nbin-r300", "nbin-r1e4", "ting-tau800"])
def test_an_alpha_that_underflowed_is_no_violation(params):
    for seed in (0, 1, 7):
        x, xp, _ = sample_triples(params, verifier.N_TRIPLES, seed)
        assert np.any(params.minorization_alpha(x, xp) == 0.0)
        report = verify_model(params, seed=seed)
        assert report.passed and all(c.n_violations == 0 for c in report.checks), seed


@pytest.mark.parametrize("params", [M1, TING, NM2], ids=["nbin", "ting", "nm2"])
def test_an_alpha_above_one_fails_minorization(params, monkeypatch):
    triples = sample_triples(params, 500, 0)
    monkeypatch.setattr(type(params), "minorization_alpha",
                        lambda self, x, xp: np.full(len(x), 1.5))
    rec = check_minorization(triples)
    assert not rec.passed and rec.n_violations >= 500  # every alpha counts


def test_lipschitz_hand_values():
    p = NbinParams(3.0, 0.2, 0.2, 2.0)
    bound = p.lipschitz_k(0.0) * 1.0
    actual = abs(log_emission(p, np.array([4.0]), np.array([0.0]))[0]
                 - log_emission(p, np.array([5.0]), np.array([0.0]))[0])
    assert abs(actual - 2.0 * math.log(6.0 / 5.0)) < 1e-12
    assert actual <= bound == 2.0

    q = NmParams(gamma=[1.0], omega_vec=[1.0], A=[[0.3]], b_vec=[0.2])
    actual = abs(log_emission(q, np.array([[2.0]]), np.array([0.0]))[0]
                 - log_emission(q, np.array([[3.0]]), np.array([0.0]))[0])
    assert abs(actual - 0.5 * math.log(1.5)) < 1e-12
    assert actual <= q.lipschitz_k(0.0) * 1.0 == 0.5


@pytest.mark.parametrize("shape", [(), (1,), (2,), (3,), (8,), (9,)])
def test_l1_distance_is_the_sum_over_the_state(shape):
    # the column sum keeps numpy's order over the short last axis, which changes at 8
    rng = np.random.default_rng(len(shape) + sum(shape))
    x, xp = rng.uniform(0.5, 1e3, (2, 5000) + shape)
    want = np.abs(x - xp).reshape(len(x), -1).sum(axis=1)
    got = verifier._l1_distance(x, xp)
    assert got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


def test_report_schema():
    report = verify_model(M1, n_triples=500, seed=0)
    d = report.to_dict()
    assert d["model"] == "nbin" and d["passed"] is True
    assert set(d["out_of_scope"]) == {"weak-Feller", "reachable point",
                                      "stationary moment conditions",
                                      "coupling kernel"}
    names = [c["name"] for c in d["checks"]]
    assert names == ["contraction", "drift", "minorization", "lipschitz_logg"]
    for c in d["checks"]:
        for key in ("n_samples", "n_violations", "worst_slack", "passed",
                    "skipped", "reason"):
            assert key in c


def test_verify_deterministic():
    r1 = verify_model(M1, n_triples=1000, seed=4)
    r2 = verify_model(M1, n_triples=1000, seed=4)
    assert [c.worst_slack for c in r1.checks] == [c.worst_slack for c in r2.checks]


def _drift_reference(params, triples, seed):
    """check_drift as it was written first: the triples' states, and the Monte Carlo
    cross-check as a loop that draws, steps and reduces one point at a time."""
    x, _, _ = triples
    rv, v, lam, beta = params.drift(x)
    slack = (lam * v + beta + SLACK_LOOSE) - rv
    violations = int(np.sum(slack < 0))
    rng = np.random.default_rng(seed)
    draws = verifier.DRIFT_MC_DRAWS
    mc_fail = 0
    for i in np.linspace(0, len(x) - 1, verifier.DRIFT_MC_POINTS).astype(int):
        xi = np.broadcast_to(x[i], (draws,) + np.shape(x[i]))
        vals = params.drift(psi_step(params, xi, sample_emission(params, xi, rng)))[1]
        if abs(vals.mean() - rv[i]) > 4.0 * vals.std(ddof=1) / math.sqrt(draws) + 1e-9:
            mc_fail += 1
    violations += mc_fail
    return CheckRecord("drift", len(x) + verifier.DRIFT_MC_POINTS, violations,
                       float(slack.min()), violations == 0,
                       info={"lambda": lam, "beta": beta, "mc_failures": mc_fail})


# (model, parameter draw) with the seeds of the draw and of the check; TING seed 9 and
# NM (d = 2) seed 56 are sets on which the Monte Carlo cross-check fails at one point
DRIFT_CASES = [("nbin", random_nbin, (0, 1, 2)), ("ting", random_ting, (9, 1, 2)),
               ("nm1", lambda rng: random_nm(rng, d=1), (0, 1, 2)),
               ("nm2", lambda rng: random_nm(rng, d=2), (56, 0, 1))]


def test_drift_batch_matches_point_loop():
    mc_failures = 0
    for name, draw, seeds in DRIFT_CASES:
        for seed in seeds:
            params = draw(np.random.default_rng(seed))
            triples = sample_triples(params, 500, seed)
            ref = _drift_reference(params, triples, seed + 1).to_dict()
            assert check_drift(triples, seed + 1).to_dict() == ref, (name, seed)
            mc_failures += ref["info"]["mc_failures"]
    assert mc_failures >= 2  # the failing branch is compared too


# verify_model(params, n_triples=2000, seed) of the named sets: each check's worst slack
# as a float hex and its violations, and the drift check's Monte Carlo failures. A change
# to the verifier's arithmetic shows up here. All four checks are taken on the same
# triples.
PINNED_REPORTS = {
    "m1-0": (M1, 0, ("0x1.b5f60fe5c71ddp-39", "0x1.b7c0000000000p-34",
                     "0x1.1979800000000p-40", "0x1.5905897ab2817p-1"), [0, 0, 0, 0], 0),
    "m1-5": (M1, 5, ("0x1.e8836b4674204p-39", "0x1.b7c0000000000p-34",
                     "0x1.1979400000000p-40", "0x1.25332c0eb7560p+1"), [0, 0, 0, 0], 0),
    "m2-0": (M2, 0, ("0x1.b5e543e5c71ddp-39", "0x1.b7c0000000000p-34",
                     "0x1.1978c00000000p-40", "0x1.53d6861333c79p-1"), [0, 0, 0, 0], 0),
    "m2-5": (M2, 5, ("0x1.e838eb4674204p-39", "0x1.b7c0000000000p-34",
                     "0x1.1979000000000p-40", "0x1.f7ae334452d88p+0"), [0, 0, 0, 0], 0),
    "ting-0": (TING, 0, ("0x1.b5e543e5c71ddp-39", "0x1.b7a0000000000p-34",
                         "0x1.1979800000000p-40", "0x1.392d8aebe4d80p-5"), [0, 0, 0, 0], 0),
    "ting-5": (TING, 5, ("0x1.e838eb4674204p-39", "0x1.b7a0000000000p-34",
                         "0x1.1979400000000p-40", "0x1.3e6e64af9af94p-3"), [0, 0, 0, 0], 0),
    "nm2-0": (NM2, 0, ("0x1.6800000000000p-49", "0x1.2492a40c39400p-4",
                       "0x1.19799812dea11p-40", "0x1.c233e8655cac0p+0"), [0, 0, 0, 0], 0),
    "nm2-5": (NM2, 5, ("0x1.6800000000000p-49", "0x1.2505dfb1b4780p-4",
                       "0x1.19799812dea11p-40", "0x1.e38365a21aae6p-1"), [0, 0, 0, 0], 0),
}


@pytest.mark.parametrize("params,seed,slacks,violations,mc_failures",
                         PINNED_REPORTS.values(), ids=PINNED_REPORTS.keys())
def test_report_pinned(params, seed, slacks, violations, mc_failures):
    checks = verify_model(params, n_triples=2000, seed=seed).checks
    assert tuple(float(c.worst_slack).hex() for c in checks) == slacks
    assert [c.n_violations for c in checks] == violations
    assert checks[1].info["mc_failures"] == mc_failures


def _scipy_halton(dims, n, seed):
    """scipy's scrambled Halton engine: the reference for the package's grid."""
    from scipy.stats import qmc
    return qmc.Halton(d=dims, scramble=True, seed=seed).random(n)


# sizes whose indices exactly fill k digits in one of the bases 2..17 (b^k), or need one more (b^k + 1)
HALTON_NS = sorted({1, 2, 3, 2 ** 13, 2 ** 13 + 1, 10_000}
                   | {b ** k + e for b in (2, 3, 5, 7, 11, 13, 17)
                      for k in (1, 2, 3) for e in (0, 1)})


@pytest.mark.parametrize("dims", range(1, 8))
def test_halton_matches_scipy(dims):
    for seed in (0, 7, 2 ** 31 + 5, 2 ** 40 + 3):
        for n in HALTON_NS:
            got = _halton(dims, n, seed)
            assert got.shape == (n, dims)
            assert np.array_equal(got, _scipy_halton(dims, n, seed)), (seed, n)
    for seed in range(1, 9):  # the verifier's own size, where the base-2 tail is one add
        got = _halton(dims, 10_000, seed)
        assert np.array_equal(got, _scipy_halton(dims, 10_000, seed)), seed


def test_halton_pinned():
    # the verifier's grid stays fixed even if scipy's Halton changes
    pinned = [["0x1.9600b82ecb948p-4", "0x1.b9a95a7ee723ap-5", "0x1.33feaf0d8d01bp-2"],
              ["0x1.32c01705d9729p-1", "0x1.70efeafd43c79p-1", "0x1.66cc2453934dap-1"],
              ["0x1.65802e0bb2e52p-2", "0x1.8c8a80a53239bp-2", "0x1.9cc7890300d35p-4"],
              ["0x1.b2c01705d9729p-1", "0x1.51f88f834801cp-3", "0x1.0065bded2ce74p-1"],
              ["0x1.cb005c1765ca4p-3", "0x1.a9d379362755bp-1", "0x1.cd328ab9f9b40p-1"]]
    assert [[float(v).hex() for v in row] for row in _halton(3, 5, 0)] == pinned


@pytest.mark.parametrize("params", [M2, TingParams(1.2, 0.5, 0.1, 3.2),
                                    random_nm(np.random.default_rng(41), d=1), NM2,
                                    random_nm(np.random.default_rng(43), d=3)],
                         ids=["nbin", "ting", "nm1", "nm2", "nm3"])
def test_report_same_on_scipy_grid(params, monkeypatch):
    ours = json.dumps(verify_model(params, n_triples=3000, seed=5).to_dict())
    monkeypatch.setattr(verifier, "_halton", _scipy_halton)
    assert json.dumps(verify_model(params, n_triples=3000, seed=5).to_dict()) == ours


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats doubles the import time and adds about 40 MB of memory
    code = ("import sys, odgarch\n"
            "odgarch.verify_model(odgarch.NbinParams(3.0, 0.2, 0.2, 2.0), n_triples=200)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(odgarch.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


@pytest.mark.parametrize("value", [2.5, True], ids=["float", "bool"])
@pytest.mark.parametrize("check", [verify_model, sample_triples])
def test_n_triples_must_be_an_integer(check, value):
    with pytest.raises(ValueError, match=f"^n_triples must be an integer, got {value!r}$"):
        check(M1, n_triples=value)


@pytest.mark.parametrize("value,message", [(True, "must be an integer, got True"),
                                           (2.5, "must be an integer, got 2.5"),
                                           (-1, "must be >= 0, got -1")],
                         ids=["bool", "float", "negative"])
@pytest.mark.parametrize("check", [verify_model, sample_triples, check_drift])
def test_seed_is_checked(check, value, message):
    # the grid's seed, or for check_drift its generator's
    first = (sample_triples(M1, 10, 0),) if check is check_drift else (M1, 10)
    with pytest.raises(ValueError, match=f"^seed {message}$"):
        check(*first, seed=value)


REPORT_SETS = [M1, TING, NM2, random_nm(np.random.default_rng(43), d=3)]
REPORT_IDS = ["nbin", "ting", "nm2", "nm3"]


@pytest.mark.parametrize("params", REPORT_SETS, ids=REPORT_IDS)
def test_report_builds_one_grid(params, monkeypatch):
    # one grid of triples for all four checks
    calls = []

    def counted(dims, n, seed):
        calls.append((dims, n, seed))
        return _halton(dims, n, seed)

    monkeypatch.setattr(verifier, "_halton", counted)
    verify_model(params, n_triples=500, seed=7)
    assert calls == [(2 * params.d + 1, 500, 7)]


@pytest.mark.parametrize("params", REPORT_SETS, ids=REPORT_IDS)
def test_report_checks_are_the_checks_on_their_grids(params):
    n, seed = 1500, 9
    report = verify_model(params, n_triples=n, seed=seed).to_dict()["checks"]
    triples = sample_triples(params, n, seed)
    assert [c.to_dict() for c in (check_contraction(triples),
                                  check_drift(triples, seed + 1),
                                  check_minorization(triples),
                                  check_lipschitz_logg(triples))] == report


# DRIFT_CASES' sets whose cross-check fails at one point of verify_model(params, 500, seed),
# so that the drift record shows which draws it took
@pytest.mark.parametrize("draw,seed", [(random_ting, 9), (lambda rng: random_nm(rng, d=2), 56)],
                         ids=["ting", "nm2"])
def test_report_draws_drift_at_seed_plus_one(draw, seed):
    params = draw(np.random.default_rng(seed))
    triples = sample_triples(params, 500, seed)
    drift = verify_model(params, n_triples=500, seed=seed).checks[1].to_dict()
    assert drift == check_drift(triples, seed + 1).to_dict()
    assert drift["info"]["mc_failures"] == 1
    assert check_drift(triples, seed).info["mc_failures"] == 0


def test_triples_are_read_only():
    for a in sample_triples(NM2, 100, 0):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0


@pytest.mark.parametrize("lo", [1e-3, 1.0, 999.0, 1e3, 5e3])
def test_grid_states_lie_above_min_w(lo):
    # the grid spans [min w, top], at least two decades, however large w is
    top = max(verifier.STATE_HI, 100.0 * lo)
    for params in (NbinParams(lo, 0.2, 0.2, 2.0),
                   NmParams(gamma=[0.5, 0.5], omega_vec=[2.0 * lo, lo], A=0.2 * np.eye(2),
                            b_vec=[0.1, 0.1])):
        x, xp, _ = sample_triples(params, 2000, 3)
        for states in (x, xp):
            assert lo <= states.min() and states.max() <= top
            assert states.max() > 0.9 * top


# NM sets whose min w lies above 1e3 or just below it: every state of the grid must lie
# above w, where the Lipschitz bound holds
LARGE_W_SETS = [NmParams(gamma=[1.0], omega_vec=[3000.0], A=[[0.3]], b_vec=[0.1]),
                NmParams(gamma=[0.5, 0.5], omega_vec=[1500.0, 2500.0], A=0.2 * np.eye(2),
                         b_vec=[0.1, 0.1]),
                NmParams(gamma=[1.0], omega_vec=[1200.0], A=[[0.3]], b_vec=[0.1])]


@pytest.mark.parametrize("params", LARGE_W_SETS, ids=["nm1-3000", "nm2-1500", "nm1-1200"])
def test_report_passes_at_large_w(params):
    for seed in range(5):
        report = verify_model(params, seed=seed)
        assert report.passed and all(c.n_violations == 0 for c in report.checks), seed


NM1 = random_nm(np.random.default_rng(41), d=1)
DENSITY_SETS = [(M1, 2), (TING, 2), (NM1, 2), (NM2, 3),
                (random_nm(np.random.default_rng(43), d=3), 3)]


@pytest.mark.parametrize("params,evaluations", DENSITY_SETS,
                         ids=["nbin", "ting", "nm1", "nm2", "nm3"])
def test_report_evaluates_each_log_density_once(params, evaluations, monkeypatch):
    # log g(x; y) and log g(x'; y) serve minorization and Lipschitz; g(min(x, x'); y) is
    # a third only where the state has several components
    cls, calls = type(params), []
    log_density = cls.log_density

    def counted(self, x, y):
        calls.append(np.shape(x))
        return log_density(self, x, y)

    monkeypatch.setattr(cls, "log_density", counted)
    verify_model(params, n_triples=500, seed=3)
    assert calls == [(500,) + params.state_shape] * evaluations


@pytest.mark.parametrize("params", REPORT_SETS, ids=REPORT_IDS)
def test_report_checks_each_triple_array_once(params, monkeypatch):
    states, obs = [], []
    check_state, check_obs = type(params).check_state, type(params).check_obs

    def counted_state(p, x):
        states.append(np.shape(x))
        return check_state(p, x)

    def counted_obs(y):
        obs.append(np.shape(y))
        return check_obs(y)

    monkeypatch.setattr(type(params), "check_state", counted_state)
    monkeypatch.setattr(type(params), "check_obs", staticmethod(counted_obs))
    verify_model(params, n_triples=500, seed=3)
    # the drift check's draws are checked one state at a time, as sample_emission takes them
    assert [s for s in states if s != params.state_shape] == [(500,) + params.state_shape] * 2
    assert obs == [(500,)]


TRIPLE_CHECKS = [check_contraction, check_drift, check_minorization, check_lipschitz_logg]
STATE_ERROR = "a {} state must be real, positive and finite, in an array whose shape ends in {}"
COUNT_ERROR = "count models require non-negative integer observations"


def _bad_triples(params):
    """(plain triples, message) of triples that the constructor refuses."""
    x, xp, y = (np.array(a) for a in sample_triples(params, 50, 0))
    state_error = STATE_ERROR.format(params.tag, params.state_shape)
    cases = [((x * 0.0, xp, y), state_error), ((x, xp * np.nan, y), state_error)]
    if params.state_shape == ():
        cases += [((x, xp, -1.0 - y), COUNT_ERROR), ((x, xp, y + 0.5), COUNT_ERROR),
                  # x, then y, then x': the order of psi_step(x, y), psi_step(x', y)
                  ((x * 0.0, xp, -1.0 - y), state_error),
                  ((x, xp * np.nan, -1.0 - y), COUNT_ERROR)]
    return cases


NOT_A_SET = "a check takes a Triples, from sample_triples or Triples(params, x, x', y), got "


@pytest.mark.parametrize("check", TRIPLE_CHECKS)
@pytest.mark.parametrize("params", [M1, TING, NM2], ids=["nbin", "ting", "nm2"])
def test_plain_triples_are_checked(params, check):
    # the constructor checks plain arrays; a check takes only the set it builds
    for (x, xp, y), message in _bad_triples(params):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Triples(params, x, xp, y)
    t = sample_triples(params, 300, 2)
    plain = tuple(np.array(a) for a in t)
    assert check(Triples(params, *plain)).to_dict() == check(t).to_dict()
    for other in (plain, params):
        with pytest.raises(TypeError, match=f"^{re.escape(NOT_A_SET)}{type(other).__name__}$"):
            check(other)


@pytest.mark.parametrize("params", [M1, TING, NM1], ids=["nbin", "ting", "nm1"])
def test_log_g_at_min_selects_for_one_component(params):
    x, xp, y = sample_triples(params, 3000, 4)
    tie = (np.arange(len(y)) % 3 == 0).reshape((-1,) + (1,) * len(params.state_shape))
    xt = np.where(tie, xp, x)  # x' itself at every third point
    for a, b in ((x, xp), (xp, x), (xt, xp), (xp, xt), (x, x)):
        got = Triples(params, a, b, y).log_g_at_min()
        want = params.log_density(np.minimum(a, b), y)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
