"""End-to-end acceptance gate.

Eight criteria: Monte Carlo reproduction of the reference study for the
two negative-binomial parameter sets, error-trend and likelihood-gap
shapes, gradient exactness, verifier cleanliness, special-function and
closed-form oracles, and byte-level determinism of the study outputs.
"""

import json
import math
import os
import subprocess
import sys
import time

import mpmath
import numpy as np
import pytest
from conftest import iterate_step, random_nbin, random_nm, random_ting
from scipy.special import psi

from odgarch import (ExperimentConfig, NbinParams, NmParams, TingParams, grad_loglik_nbin,
                     grad_loglik_numeric, run_experiment, simulate, verify_model)
from odgarch.reparam import FeasibleMap

M1 = NbinParams(3.0, 0.2, 0.2, 2.0)
M2 = NbinParams(3.0, 0.35, 0.1, 1.5)
SIZES = (128, 256, 512, 1024)
BASE_SEED = 20250823


@pytest.fixture(scope="module")
def m1_summary():
    cfg = ExperimentConfig(model_tag="nbin", theta_star=M1, sample_sizes=SIZES,
                           m=200, base_seed=BASE_SEED)
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def m2_summary():
    cfg = ExperimentConfig(model_tag="nbin", theta_star=M2, sample_sizes=SIZES,
                           m=200, base_seed=BASE_SEED)
    return run_experiment(cfg)


def _made_trend_ok(summary):
    """Non-increasing MADE in n, allowing one inversion of <= 10% relative."""
    p = len(summary.param_names)
    for i in range(p):
        seq = [summary.made_[n][i] for n in SIZES]
        inversions = [(seq[k + 1] - seq[k]) / seq[k]
                      for k in range(len(seq) - 1) if seq[k + 1] > seq[k]]
        if len(inversions) > 1 or any(r > 0.10 for r in inversions):
            return False
    return True


def test_criterion_1_mc_means_m1(m1_summary):
    mean = m1_summary.mc_mean[1024]
    assert abs(mean[0] - 3.062) <= 0.12
    assert abs(mean[1] - 0.193) <= 0.03
    assert abs(mean[2] - 0.200) <= 0.01
    assert abs(mean[3] - 2.011) <= 0.03
    print("criterion 1 (Monte Carlo means, first parameter set): PASS")


def test_criterion_2_mc_means_m2(m2_summary):
    mean = m2_summary.mc_mean[1024]
    assert abs(mean[3] - 1.513) <= 0.03
    assert abs(mean[2] - 0.100) <= 0.01
    print("criterion 2 (Monte Carlo means, second parameter set): PASS")


def test_criterion_3_made_trend(m1_summary, m2_summary):
    assert _made_trend_ok(m1_summary)
    assert _made_trend_ok(m2_summary)
    print("criterion 3 (MADE non-increasing in n): PASS")


def test_criterion_4_gap_shape(m1_summary, m2_summary):
    for summary in (m1_summary, m2_summary):
        med = [float(np.median(summary.gaps[n])) for n in SIZES]
        assert all(g > 0 for g in med)
        assert all(a > b for a, b in zip(med, med[1:]))
        assert med[0] / med[-1] >= 4.0
    print("criterion 4 (median loglik gap decreasing, factor >= 4): PASS")


def test_fits_end_above_the_truth(m1_summary, m2_summary):
    # The MLE's loglik is at least the truth's on its own data. Every m1 fit ends there;
    # m2 fits whose start pins a or b near EPS_MARGIN, where the log coordinate's gradient
    # a dl/da vanishes, can stop below it. 26 did before BFGS started from the scores' OPG
    # (8, 17, 1 and 0 at n = 128 ... 1024, worst -7.0e-3), 21 after.
    below = [sum(int(np.sum(s.gaps[n] < -1e-9)) for n in SIZES)
             for s in (m1_summary, m2_summary)]
    assert below[0] == 0 and below[1] <= 26, below


def test_criterion_5_gradient_suite():
    rng = np.random.default_rng(515)
    worst = 0.0
    for _ in range(500):
        p = random_nbin(rng)
        s = simulate(p, 64, seed=int(rng.integers(1 << 30)))
        x1 = p.fixed_point()
        fmap = FeasibleMap(p)
        ga = fmap.chain_rule(grad_loglik_nbin(p, x1, s), p)
        gn = grad_loglik_numeric(p, x1, s, step=1e-5)
        rel = np.max(np.abs(ga - gn)) / max(1.0, np.max(np.abs(ga)))
        worst = max(worst, rel)
    assert worst < 1e-5
    print(f"criterion 5 (analytic vs FD gradients, worst rel {worst:.2e}): PASS")


def test_criterion_6_verifier_suite():
    t0 = time.time()
    named = [M1, M2, TingParams(3.0, 0.35, 0.1, 4.0),
             NmParams(gamma=[0.4, 0.6], omega_vec=[1.0, 2.0],
                      A=[[0.3, 0.1], [0.05, 0.25]], b_vec=[0.2, 0.1])]
    for i, p in enumerate(named):
        report = verify_model(p, n_triples=10_000, seed=i)
        assert report.passed, f"named set {i} failed"
    rng = np.random.default_rng(12345)
    for draw in (random_nbin, random_ting, random_nm):
        for i in range(20):
            p = draw(rng)
            report = verify_model(p, n_triples=10_000, seed=1000 + i)
            assert report.passed, f"random {p.tag} draw {i} failed"
    elapsed = time.time() - t0
    assert elapsed <= 120.0
    print(f"criterion 6 (verifier clean on 64 parameter sets, {elapsed:.0f}s): PASS")


def test_criterion_7_exactness_oracles():
    # digamma (scipy.special.psi, as the NBIN r-gradient calls it) against a
    # high-precision oracle on (0, 50]
    mpmath.mp.dps = 30
    xs = np.linspace(50.0 / 1000.0, 50.0, 1000)
    for x in xs:
        ref = float(mpmath.digamma(mpmath.mpf(float(x))))
        assert abs(psi(float(x)) - ref) <= 1e-10 * max(1.0, abs(ref))

    # the affine state map, iterated one step at a time, against its closed form
    rng = np.random.default_rng(77)
    for _ in range(100):
        p = random_nbin(rng)
        n = int(rng.integers(1, 201))
        y = rng.integers(0, 30, n).astype(float)
        x = float(rng.uniform(p.omega, 20.0))
        an = p.a ** n
        ref = (p.omega * (1.0 - an) / (1.0 - p.a) + an * x
               + p.b * sum(p.a ** j * y[n - 1 - j] for j in range(n)))
        assert abs(iterate_step(p, x, y) - ref) <= 1e-10 * max(1.0, abs(ref))

    # exact contraction identity |f(x1) - f(x)| = a^n |x1 - x|
    for _ in range(100):
        p = random_nbin(rng) if rng.random() < 0.5 else random_ting(rng)
        n = int(rng.integers(1, 13))
        y = rng.integers(0, 20, n).astype(float)
        x1 = float(rng.uniform(p.omega, p.omega + 5.0))
        x2 = x1 + float(rng.uniform(5.0, 20.0))
        lhs = abs(iterate_step(p, x1, y) - iterate_step(p, x2, y))
        rhs = p.a ** n * abs(x1 - x2)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)
    print("criterion 7 (digamma/closed-form/contraction oracles): PASS")


def test_criterion_8_byte_determinism(tmp_path):
    cfg = {"model": "nbin",
           "theta_star": {"omega": 3.0, "a": 0.2, "b": 0.2, "r": 2.0},
           "sample_sizes": [128, 256], "m": 10, "base_seed": 20250823}
    cpath = str(tmp_path / "cfg.json")
    with open(cpath, "w") as fh:
        json.dump(cfg, fh)
    outputs = []
    for jobs, tag in (("1", "serial"), ("2", "parallel")):
        out_dir = str(tmp_path / tag)
        subprocess.run([sys.executable, "-m", "odgarch.cli", "mc",
                        "--config", cpath, "--out-dir", out_dir, "--jobs", jobs],
                       check=True, capture_output=True)
        outputs.append(tuple(open(os.path.join(out_dir, f), "rb").read()
                             for f in ("summary.csv", "replicates.csv")))
    assert outputs[0] == outputs[1]
    print("criterion 8 (byte-identical outputs across thread counts): PASS")
