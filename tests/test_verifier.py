import math

import numpy as np
import pytest

from odgarch import NbinParams, NmParams, TingParams, log_emission, verify_model
from odgarch.verifier import (_drift_closed_form, _lipschitz_k, _perron_weights,
                              check_contraction, check_drift, minorization_alpha)

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
    rec = check_contraction(M1, n_triples=2000, seed=0)
    assert rec.passed and rec.info["rate"] == 0.2
    rec = check_contraction(TING, n_triples=2000, seed=0)
    assert rec.passed and rec.info["rate"] == 0.35


def test_contraction_nm_weighted_norm():
    rec = check_contraction(NM2, n_triples=2000, seed=0)
    assert rec.passed
    assert rec.info["rho_weighted"] < 1.0


def test_contraction_nm_periodic_a():
    # the left Perron vector of [[0, 2], [0.4, 0]] is (1, sqrt(5)); its rate is sqrt(0.8)
    a_mat = np.array([[0.0, 2.0], [0.4, 0.0]])
    w = _perron_weights(a_mat)
    assert abs(w[1] / w[0] - math.sqrt(5.0)) < 1e-9
    assert abs(np.max((a_mat.T @ w) / w) - math.sqrt(0.8)) < 1e-9
    p = NmParams(gamma=[0.5, 0.5], omega_vec=[1.0, 1.0], A=a_mat, b_vec=[0.01, 0.01])
    rec = check_contraction(p, n_triples=2000, seed=0)
    assert rec.passed and abs(rec.info["rho_weighted"] - math.sqrt(0.8)) < 1e-9


def test_drift_closed_form_values():
    rv, v, lam, beta = _drift_closed_form(M1, np.array([5.0]))
    assert abs(rv[0] - 6.0) < 1e-12
    assert abs(lam - 0.6) < 1e-12 and beta == 3.0

    t = TingParams(1.0, 0.5, 0.25, 2.0)
    rv, v, lam, beta = _drift_closed_form(t, np.array([10.0]))
    assert abs(rv[0] - 6.5) < 1e-12
    assert rv[0] <= lam * 10.0 + beta + 1e-12


def test_drift_skipped_when_unstable():
    rec = check_drift(NbinParams(1.0, 0.6, 0.5, 1.0), n_triples=100, seed=0)
    assert rec.skipped and rec.passed
    assert "unstable" in rec.reason


def test_minorization_alpha_hand_values():
    assert abs(minorization_alpha(M1, 1.0, 3.0) - 0.25) < 1e-12
    t = TingParams(1.0, 0.5, 0.25, 1.5)
    assert abs(minorization_alpha(t, 1.0, 2.0) - math.exp(-0.5)) < 1e-12
    assert minorization_alpha(M1, 2.0, 2.0) == 1.0


def test_minorization_alpha_symmetry():
    rng = np.random.default_rng(5)
    for _ in range(50):
        x, xp = rng.uniform(0.1, 100.0, 2)
        assert minorization_alpha(M1, x, xp) == minorization_alpha(M1, xp, x)
        assert minorization_alpha(TING, x, xp) == minorization_alpha(TING, xp, x)


def test_minorization_equality_at_equal_states():
    # x == x': alpha = 1 and the bound holds with equality
    x = np.array([4.0])
    y = np.array([3.0])
    lhs = log_emission(M1, x, y)
    assert abs(math.exp(lhs[0]) - minorization_alpha(M1, 4.0, 4.0)
               * math.exp(log_emission(M1, x, y)[0])) < 1e-15


def test_lipschitz_hand_values():
    p = NbinParams(3.0, 0.2, 0.2, 2.0)
    bound = _lipschitz_k(p, 0.0) * 1.0
    actual = abs(log_emission(p, np.array([4.0]), np.array([0.0]))[0]
                 - log_emission(p, np.array([5.0]), np.array([0.0]))[0])
    assert abs(actual - 2.0 * math.log(6.0 / 5.0)) < 1e-12
    assert actual <= bound == 2.0

    q = NmParams(gamma=[1.0], omega_vec=[1.0], A=[[0.3]], b_vec=[0.2])
    actual = abs(log_emission(q, np.array([[2.0]]), np.array([0.0]))[0]
                 - log_emission(q, np.array([[3.0]]), np.array([0.0]))[0])
    assert abs(actual - 0.5 * math.log(1.5)) < 1e-12
    assert actual <= _lipschitz_k(q, 0.0) * 1.0 == 0.5


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
