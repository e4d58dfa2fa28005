import json
import os

import numpy as np
import pytest

from odgarch.cli import main

M1_FLAGS = ["--model", "nbin", "--omega", "3", "--a", ".2", "--b", ".2", "--r", "2"]


def run(argv):
    return main(argv)


def test_simulate_deterministic(tmp_path):
    out1 = str(tmp_path / "a.csv")
    out2 = str(tmp_path / "b.csv")
    args = ["simulate", *M1_FLAGS, "--n", "64", "--seed", "42"]
    assert run(args + ["--out", out1]) == 0
    assert run(args + ["--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()
    meta = json.loads(open(str(tmp_path / "a.meta.json")).read())
    assert meta["stable"] is True and meta["seed"] == 42


def test_simulate_unstable_warns(tmp_path, capsys):
    out = str(tmp_path / "u.csv")
    args = ["simulate", "--model", "nbin", "--omega", "3", "--a", ".9",
            "--b", ".9", "--r", "2", "--n", "16", "--seed", "1",
            "--burn-in", "3", "--out", out]
    assert run(args) == 0
    assert "stability" in capsys.readouterr().err
    assert json.loads(open(str(tmp_path / "u.meta.json")).read())["stable"] is False


def test_missing_flags_usage_error(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    code = run(["simulate", "--model", "nbin", "--omega", "3",
                "--n", "16", "--out", out])
    assert code == 2
    assert "requires" in capsys.readouterr().err


def test_fit_roundtrip(tmp_path, capsys):
    series = str(tmp_path / "s.csv")
    assert run(["simulate", *M1_FLAGS, "--n", "512", "--seed", "7",
                "--out", series]) == 0
    out = str(tmp_path / "fit.json")
    assert run(["fit", "--series", series, "--x1", "7.5", "--out", out]) == 0
    text = capsys.readouterr().out
    assert "theta_hat:" in text and "loglik:" in text
    d = json.loads(open(out).read())
    assert d["model"] == "nbin" and d["x1"] == 7.5
    assert d["loglik_hat"] >= d["loglik_init"] - 1e-12


def test_fit_nm_d1_scalar_x1(tmp_path, capsys):
    series = str(tmp_path / "nm.csv")
    assert run(["simulate", "--model", "nm", "--gamma", "1", "--omega", "1",
                "--A", ".4", "--bvec", ".25", "--n", "256", "--seed", "3",
                "--out", series]) == 0
    out = str(tmp_path / "fit.json")
    assert run(["fit", "--series", series, "--x1", "2.0", "--tol", "1e-5",
                "--out", out]) == 0
    d = json.loads(open(out).read())
    assert d["model"] == "nm" and d["x1"] == [2.0]


def test_fit_truncated_csv(tmp_path):
    series = str(tmp_path / "bad.csv")
    with open(series, "w") as fh:
        fh.write("k,y\n1,3\n2\n")
    out = str(tmp_path / "fit.json")
    assert run(["fit", "--series", series, "--model", "nbin", "--out", out]) == 1
    assert not os.path.exists(out)  # no partial output


def test_mc_outputs_and_determinism(tmp_path, capsys):
    cfg = {"model": "nbin",
           "theta_star": {"omega": 3.0, "a": 0.2, "b": 0.2, "r": 2.0},
           "sample_sizes": [64, 128], "m": 4, "base_seed": 11}
    cpath = str(tmp_path / "cfg.json")
    with open(cpath, "w") as fh:
        json.dump(cfg, fh)
    d1, d2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert run(["mc", "--config", cpath, "--out-dir", d1]) == 0
    table = capsys.readouterr().out
    assert "(" in table and "n=64" in table  # Table-style report
    assert run(["mc", "--config", cpath, "--out-dir", d2]) == 0
    for name in ("summary.csv", "replicates.csv"):
        b1 = open(os.path.join(d1, name), "rb").read()
        b2 = open(os.path.join(d2, name), "rb").read()
        assert b1 == b2
    lines = open(os.path.join(d1, "summary.csv")).read().splitlines()
    assert len(lines) == 1 + 2 * 4


def test_mc_bad_config(tmp_path, capsys):
    cpath = str(tmp_path / "bad.json")
    with open(cpath, "w") as fh:
        json.dump({"model": "nbin"}, fh)  # missing theta_star
    assert run(["mc", "--config", cpath, "--out-dir", str(tmp_path / "o")]) == 1


def test_verify_pass_and_report(tmp_path):
    out = str(tmp_path / "rep.json")
    code = run(["verify", *M1_FLAGS, "--triples", "2000", "--out", out])
    assert code == 0
    d = json.loads(open(out).read())
    assert d["passed"] is True
    assert len(d["checks"]) == 4


def test_verify_unstable_skips_drift(tmp_path, capsys):
    code = run(["verify", "--model", "nbin", "--omega", "3", "--a", ".9",
                "--b", ".9", "--r", "2", "--triples", "1000"])
    out = capsys.readouterr().out
    assert "drift: skip" in out
    assert code == 0  # remaining checks hold pointwise


def test_plot_outputs(tmp_path):
    cfg = {"model": "nbin",
           "theta_star": {"omega": 3.0, "a": 0.2, "b": 0.2, "r": 2.0},
           "sample_sizes": [64, 128], "m": 4, "base_seed": 11}
    cpath = str(tmp_path / "cfg.json")
    with open(cpath, "w") as fh:
        json.dump(cfg, fh)
    mcdir = str(tmp_path / "mc")
    assert run(["mc", "--config", cpath, "--out-dir", mcdir]) == 0
    pdir = str(tmp_path / "plots")
    assert run(["plot", "--replicates", os.path.join(mcdir, "replicates.csv"),
                "--config", cpath, "--out-dir", pdir]) == 0
    files = sorted(os.listdir(pdir))
    assert files == ["estimates_a.svg", "estimates_b.svg", "estimates_omega.svg",
                     "estimates_r.svg", "loglik_gap.svg"]
    svg = open(os.path.join(pdir, "estimates_omega.svg")).read()
    assert "stroke-dasharray" in svg  # true-value line from the config


def test_plot_empty_replicates(tmp_path):
    path = str(tmp_path / "r.csv")
    with open(path, "w") as fh:
        fh.write("model,n,j,seed,converged,loglik_gap,omega,a,b,r\n")
    assert run(["plot", "--replicates", path,
                "--out-dir", str(tmp_path / "p")]) == 1
