import numpy as np
import pytest

from odgarch import (ExperimentConfig, FitOptions, McSummary, NbinParams, mle_fit,
                     run_experiment, simulate)
from odgarch.io import write_mc_outputs
from odgarch.montecarlo import replicate_seed

M1 = NbinParams(3.0, 0.2, 0.2, 2.0)


def _summary(truth, estimates):
    """The study summary of one sample size whose estimates are the given parameters."""
    est = np.stack([p.as_array() for p in estimates])
    m = len(est)
    return McSummary(theta_star=truth, estimates={64: est}, gaps={64: np.zeros(m)},
                     converged={64: np.ones(m, dtype=bool)},
                     seeds={64: np.zeros(m, dtype=np.uint64)})


def test_made_hand_values():
    truth = NbinParams(1.5, 1.5, 1.5, 1.5)
    ests = [NbinParams(1.0, 1.0, 1.0, 1.0), NbinParams(2.0, 2.0, 2.0, 2.0)]
    assert np.allclose(_summary(truth, ests).made_[64], 0.5)
    assert np.allclose(_summary(truth, [truth, truth]).made_[64], 0.0)
    truth1 = NbinParams(1.0, 1.0, 1.0, 1.0)
    ests = [NbinParams(1e-12, 1e-12, 1e-12, 1e-12), NbinParams(3.0, 3.0, 3.0, 3.0)]
    assert np.allclose(_summary(truth1, ests).made_[64], 1.5, atol=1e-9)


def test_replicate_seeds_distinct():
    seeds = {replicate_seed(20250823, n, j)
             for n in (128, 256, 512, 1024) for j in range(200)}
    assert len(seeds) == 800


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(model_tag="nbin", theta_star=NbinParams(1, .6, .5, 1))
    with pytest.raises(ValueError):
        ExperimentConfig(model_tag="nbin", theta_star=M1, m=0)
    with pytest.raises(ValueError):
        ExperimentConfig(model_tag="nbin", theta_star=M1, sample_sizes=(8,))
    with pytest.raises(ValueError, match="theta_star"):
        ExperimentConfig(model_tag="ting", theta_star=M1)  # TING fits of NBIN series
    # a config JSON can hold floats, booleans and repeats where integers belong, and
    # anything where one state or a boolean belongs
    for key, value in [("m", 2.5), ("m", True), ("base_seed", 1.5), ("burn_in", 2.5),
                       ("burn_in", -3), ("sample_sizes", (64.5,)),
                       ("sample_sizes", (64, np.int64(64))), ("x1", [1, 2]), ("x1", "abc"),
                       ("drop_nonconverged", "false"), ("drop_nonconverged", 1)]:
        with pytest.raises(ValueError, match=f"^{key} must be"):
            ExperimentConfig(model_tag="nbin", theta_star=M1, **{key: value})
    assert ExperimentConfig(model_tag="nbin", theta_star=M1, m=np.int64(3), burn_in=0).m == 3
    assert ExperimentConfig(model_tag="nbin", theta_star=M1,
                            drop_nonconverged=np.True_).drop_nonconverged
    with pytest.raises(ValueError, match="bad experiment config"):
        ExperimentConfig.from_dict({"model": "nbin", "theta_star": M1.to_dict(),
                                    "burnin": 100, "sample_size": [64]})
    # a wrong, missing or extra key of theta_star names the model's keys
    nm2 = {"gamma": [.4, .6], "omega_vec": [1, 2], "A": [[.3, .1], [.05, .25]], "b_vec": [.2, .1]}
    nm_keys = "nm parameters are gamma, omega_vec, A, b_vec; got gamma, omega_vec, A"
    for model, theta, message in [
            ("ting", {"omega": 3, "a": .2, "b": .2, "r": 2},
             "ting parameters are omega, a, b, tau; got omega, a, b, r$"),
            ("nbin", {"omega": 3, "a": .2, "b": .2},
             "nbin parameters are omega, a, b, r; got omega, a, b$"),
            ("nm", {k: v for k, v in nm2.items() if k != "b_vec"}, nm_keys + "$"),
            ("nm", {**nm2, "b": [.2, .1]}, nm_keys + ", b_vec, b$")]:
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_dict({"model": model, "theta_star": theta})
    # an NM anchor with a bool inside, which numpy would cast to a float
    with pytest.raises(ValueError, match="^x1 must be one positive finite nm state"):
        ExperimentConfig.from_dict({"model": "nm", "theta_star": nm2, "x1": [True, 2.0]})


def test_config_dict_roundtrip():
    cfg = ExperimentConfig(model_tag="nbin", theta_star=M1,
                           sample_sizes=(64, 128), m=5, base_seed=99,
                           options=FitOptions(fd_step=3e-6))
    d = {"model": "nbin", "theta_star": M1.to_dict(), "sample_sizes": [64, 128], "m": 5,
         "base_seed": 99, "optimizer": {"fd_step": 3e-6}}
    cfg2 = ExperimentConfig.from_dict(d)
    assert cfg2.sample_sizes == (64, 128)
    assert cfg2.m == 5 and cfg2.base_seed == 99
    assert np.allclose(cfg2.theta_star.as_array(), M1.as_array())
    assert cfg2.options == cfg.options
    assert cfg2 == cfg
    # a key left out takes the field's default
    assert ExperimentConfig.from_dict({"model": "nbin", "theta_star": M1.to_dict()}) == \
        ExperimentConfig(model_tag="nbin", theta_star=M1)


def test_single_replicate_identity():
    cfg = ExperimentConfig(model_tag="nbin", theta_star=M1,
                           sample_sizes=(256,), m=1, base_seed=7)
    summary = run_experiment(cfg)
    seed = replicate_seed(7, 256, 0)
    fit = mle_fit(simulate(M1, 256, seed=seed))
    assert np.array_equal(summary.estimates[256][0], fit.theta_hat.as_array())
    assert np.array_equal(summary.mc_mean[256], fit.theta_hat.as_array())
    assert np.allclose(summary.made_[256],
                       np.abs(fit.theta_hat.as_array() - M1.as_array()))


@pytest.mark.parametrize("jobs", [2.5, True, "2"], ids=["float", "bool", "str"])
def test_jobs_must_be_an_integer(jobs):
    cfg = ExperimentConfig(model_tag="nbin", theta_star=M1, sample_sizes=(16,), m=1)
    with pytest.raises(ValueError, match=f"^jobs must be an integer, got {jobs!r}$"):
        run_experiment(cfg, jobs=jobs)


def test_parallel_matches_serial():
    cfg = ExperimentConfig(model_tag="nbin", theta_star=M1,
                           sample_sizes=(64, 128), m=6, base_seed=3)
    s1 = run_experiment(cfg, jobs=1)
    s2 = run_experiment(cfg, jobs=2)
    for n in cfg.sample_sizes:
        assert np.array_equal(s1.estimates[n], s2.estimates[n])
        assert np.array_equal(s1.gaps[n], s2.gaps[n])
        assert np.array_equal(s1.converged[n], s2.converged[n])
        assert np.array_equal(s1.seeds[n], s2.seeds[n])


def test_summary_rows_shape(tmp_path):
    cfg = ExperimentConfig(model_tag="nbin", theta_star=M1,
                           sample_sizes=(64, 128), m=4, base_seed=5)
    summary = run_experiment(cfg)
    spath, rpath = tmp_path / "summary.csv", tmp_path / "replicates.csv"
    write_mc_outputs(str(spath), str(rpath), summary)
    rows = [line.split(",") for line in spath.read_text().splitlines()[1:]]
    assert len(rows) == 2 * 4  # sizes x parameters
    assert [r[2] for r in rows[:4]] == ["omega", "a", "b", "r"]
    rrows = [line.split(",") for line in rpath.read_text().splitlines()[1:]]
    assert len(rrows) == 2 * 4  # sizes x replicates
    assert {len(r) for r in rrows} == {6 + 4}  # fixed columns + parameters


def test_drop_nonconverged_filters():
    cfg = ExperimentConfig(model_tag="nbin", theta_star=M1,
                           sample_sizes=(64,), m=4, base_seed=5,
                           drop_nonconverged=True)
    summary = run_experiment(cfg)
    n_kept = summary.estimates[64].shape[0]
    assert n_kept == summary.n_converged[64]
    assert summary.gaps[64].shape[0] == n_kept
