import json
import os
import re
import warnings
from dataclasses import dataclass, fields

import numpy as np
import pytest
from conftest import BAD_FIELDS, VALID_PARAMS

from odgarch import ExperimentConfig, FitOptions, cli
from odgarch.cli import main
from odgarch.io import read_replicates, read_series
from odgarch.params import MODELS as PARAM_MODELS

M1_FLAGS = ["--model", "nbin", "--omega", "3", "--a", ".2", "--b", ".2", "--r", "2"]
TING_FLAGS = ["--model", "ting", "--omega", "2", "--a", ".2", "--b", ".1", "--tau", "3.2"]
NM2_FLAGS = ["--model", "nm", "--gamma", ".4,.6", "--omega", "1,2", "--A", ".3,.1;.05,.25",
             "--bvec", ".2,.1"]


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


# Each model the README advertises: its parameter flags, a --x1 literal with
# the value fit.json records for it, extra fit flags, and an experiment config.
MODELS = {
    "nbin": (M1_FLAGS, "7.5", 7.5, [],
             {"model": "nbin", "theta_star": {"omega": 3.0, "a": 0.2, "b": 0.2, "r": 2.0},
              "sample_sizes": [64, 128], "m": 4, "base_seed": 11}),
    "ting": (TING_FLAGS, "4", 4.0, [],
             {"model": "ting", "theta_star": {"omega": 2.0, "a": 0.2, "b": 0.1, "tau": 3.2},
              "sample_sizes": [64, 128], "m": 4, "base_seed": 11}),
    "nm": (NM2_FLAGS, "2,3", [2.0, 3.0], ["--tol", "1e-4"],
           {"model": "nm", "theta_star": {"gamma": [0.4, 0.6], "omega_vec": [1.0, 2.0],
                                          "A": [[0.3, 0.1], [0.05, 0.25]], "b_vec": [0.2, 0.1]},
            "sample_sizes": [32, 48], "m": 2, "base_seed": 11,
            "optimizer": {"tol": 1e-4, "max_outer": 3, "max_inner": 60}}),
}


@pytest.mark.parametrize("model", MODELS)
def test_fit_roundtrip(tmp_path, capsys, model):
    flags, x1, x1_json, fit_flags, _ = MODELS[model]
    series = str(tmp_path / "s.csv")
    assert run(["simulate", *flags, "--n", "512", "--seed", "7", "--out", series]) == 0
    out = str(tmp_path / "fit.json")
    assert run(["fit", "--series", series, "--x1", x1, *fit_flags, "--out", out]) == 0
    text = capsys.readouterr().out
    assert "theta_hat:" in text and "loglik:" in text
    d = json.loads(open(out).read())
    assert d["model"] == model and d["x1"] == x1_json
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


def test_simulate_nm_vector_x1(tmp_path):
    out = str(tmp_path / "nm2.csv")
    assert run(["simulate", "--model", "nm", "--gamma", ".4,.6", "--omega", "1,2",
                "--A", ".3,.1;.05,.25", "--bvec", ".2,.1", "--n", "8", "--seed", "1",
                "--burn-in", "0", "--x1", "2,3", "--out", out]) == 0
    np.testing.assert_array_equal(read_series(out).x_trace[0], [2.0, 3.0])


def test_fit_rejects_non_finite_csv(tmp_path, capsys):
    series = str(tmp_path / "nan.csv")
    ys = [0.5, -1.2, 2.1, 0.3, -0.7, "nan", 1.4, -0.2, 0.9, -1.8, 0.1, 0.6]
    with open(series, "w") as fh:
        fh.write("k,y\n" + "".join(f"{k + 1},{v}\n" for k, v in enumerate(ys)))
    assert run(["fit", "--series", series, "--model", "nm"]) == 1
    assert "observation must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "plot"])
def test_bad_cell_names_its_place(tmp_path, capsys, command):
    path = str(tmp_path / "bad.csv")
    if command == "fit":
        text, args = "k,y\n1,3\n2,x\n", ["--series", path, "--model", "nbin"]
        where = "row 2, column y: not a number: 'x'"
    else:
        text = "model,n,j,seed,converged,loglik_gap,omega\nnbin,64,0,1,true,0.5,3\n"
        text += "nbin,6e1,1,2,true,0.5,3\n"
        args = ["--replicates", path, "--out-dir", str(tmp_path / "p")]
        where = "row 2, column n: not an integer: '6e1'"
    with open(path, "w") as fh:
        fh.write(text)
    assert run([command, *args]) == 1
    assert capsys.readouterr().err == f"error: {path}: {where}\n"


@pytest.mark.parametrize("text,message", [
    ("k,y\n1,3\n2,-1\n", "count models require non-negative integer observations"),
    ("k,y,x_1,x_2\n" + "".join(f"{k + 1},{k % 3},1,2\n" for k in range(20)),
     "a nbin state trace has one column, got 2"),
    ("k,y,x_1\n" + "".join(f"{k + 1},{k % 3},{'nan' if k == 7 else 2}\n" for k in range(20)),
     "row 8, column x_1: not a positive finite number: 'nan'"),
], ids=["negative-count", "two-state-columns", "nan-state"])
def test_fit_names_the_csv_of_a_bad_series(tmp_path, capsys, text, message):
    path = str(tmp_path / "bad.csv")
    with open(path, "w") as fh:
        fh.write(text)
    assert run(["fit", "--series", path, "--model", "nbin"]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_fit_nm_csv_of_other_state_columns_than_its_sidecar(tmp_path, capsys):
    path, out = str(tmp_path / "nm.csv"), str(tmp_path / "fit.json")
    assert run(["simulate", *NM2_FLAGS, "--n", "64", "--seed", "1", "--out", path]) == 0
    with open(path) as fh:
        header, *rows = fh.read().splitlines()
    with open(path, "w") as fh:  # a third state column beside the sidecar of d = 2
        fh.write("\n".join([header + ",x_3", *(row + ",1" for row in rows)]) + "\n")
    assert run(["fit", "--series", path, "--out", out]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: x_trace has 3 state columns, but the parameters have d = 2\n")
    assert not os.path.exists(out)


def test_fit_truncated_csv(tmp_path):
    series = str(tmp_path / "bad.csv")
    with open(series, "w") as fh:
        fh.write("k,y\n1,3\n2\n")
    out = str(tmp_path / "fit.json")
    assert run(["fit", "--series", series, "--model", "nbin", "--out", out]) == 1
    assert not os.path.exists(out)  # no partial output


@pytest.mark.parametrize("sidecar,message", [
    pytest.param("[1, 2]", "not a JSON object", id="list"),
    pytest.param("not json", "not JSON: Expecting value: line 1 column 1 (char 0)", id="not-json"),
    pytest.param('{"model": "nbin", "x": 1}', "unknown key 'x'", id="unknown-key"),
    pytest.param('{"model": 5}', "model must be a string or null, got 5", id="model"),
    pytest.param('{"model": "nbin", "params": [1]}',
                 "params must be an object or null, got [1]", id="params"),
    pytest.param('{"model": "nbin", "params": {"omega": "x", "a": 0.2, "b": 0.2, "r": 2}}',
                 "params: nbin parameter omega must be a positive finite real, got 'x'",
                 id="params-value"),
    pytest.param('{"model": "nbin", "seed": "abc"}',
                 "seed must be a non-negative integer, got 'abc'", id="seed-string"),
    pytest.param('{"model": "nbin", "seed": true}',
                 "seed must be a non-negative integer, got True", id="seed-bool"),
    pytest.param('{"model": "nbin", "burn_in": "x", "stable": "no"}',
                 "burn_in must be a non-negative integer, got 'x'", id="burn_in"),
    pytest.param('{"model": "nbin", "stable": "no"}',
                 "stable must be true or false, got 'no'", id="stable"),
    pytest.param('{"model": "nbin", "n": 50.0}',
                 "n must be a non-negative integer, got 50.0", id="n-float"),
    pytest.param(None, "n is 50, but {series} has 40 rows", id="rows-cut"),
])
def test_fit_checks_the_sidecar(tmp_path, capsys, sidecar, message):
    series, side = str(tmp_path / "s.csv"), str(tmp_path / "s.meta.json")
    assert run(["simulate", *M1_FLAGS, "--n", "50", "--seed", "3", "--out", series]) == 0
    if sidecar is None:
        with open(series) as fh:
            rows = fh.readlines()
        with open(series, "w") as fh:
            fh.writelines(rows[:41])
    else:
        with open(side, "w") as fh:
            fh.write(sidecar)
    out = str(tmp_path / "fit.json")
    assert run(["fit", "--series", series, "--out", out]) == 1
    assert capsys.readouterr().err == f"error: {side}: {message.format(series=series)}\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("model", MODELS)
def test_mc_outputs_and_determinism(tmp_path, capsys, model):
    cfg = MODELS[model][4]
    cpath = str(tmp_path / "cfg.json")
    with open(cpath, "w") as fh:
        json.dump(cfg, fh)
    d1, d2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert run(["mc", "--config", cpath, "--out-dir", d1]) == 0
    table = capsys.readouterr().out
    n0 = cfg["sample_sizes"][0]
    assert "(" in table and f"n={n0}" in table  # Table-style report
    assert run(["mc", "--config", cpath, "--out-dir", d2, "--jobs", "2"]) == 0
    for name in ("summary.csv", "replicates.csv"):
        b1 = open(os.path.join(d1, name), "rb").read()
        b2 = open(os.path.join(d2, name), "rb").read()
        assert b1 == b2
    lines = open(os.path.join(d1, "summary.csv")).read().splitlines()
    n_params = len(read_replicates(os.path.join(d1, "replicates.csv"))["param_names"])
    assert n_params == {"nbin": 4, "ting": 4, "nm": 10}[model]
    assert len(lines) == 1 + 2 * n_params


def test_fit_flag_defaults_are_fit_options(monkeypatch):
    args = cli.build_parser().parse_args(["fit", "--series", "s.csv"])
    assert cli._opts_from_args(args) == FitOptions()

    @dataclass
    class Looser(FitOptions):
        tol: float = 1e-3
        max_outer: int = 5

    # the flags read FitOptions' defaults, not copies of them
    monkeypatch.setattr(cli, "FitOptions", Looser)
    args = cli.build_parser().parse_args(["fit", "--series", "s.csv"])
    assert cli._opts_from_args(args) == Looser()


def test_mc_bad_config(tmp_path, capsys):
    cpath = str(tmp_path / "bad.json")
    with open(cpath, "w") as fh:
        json.dump({"model": "nbin"}, fh)  # missing theta_star
    assert run(["mc", "--config", cpath, "--out-dir", str(tmp_path / "o")]) == 1
    with open(cpath, "w") as fh:  # a key of NBIN's, not of TING's
        json.dump({"model": "ting", "theta_star": {"omega": 3, "a": .2, "b": .2, "r": 2}}, fh)
    capsys.readouterr()
    assert run(["mc", "--config", cpath, "--out-dir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "ting parameters are omega, a, b, tau; got omega, a, b, r" in err
    assert "__init__" not in err
    # malformed integers, duplicate sizes, a negative burn-in, an anchor that is not one
    # state and a string for a boolean: an error line, no traceback
    nbin = {"model": "nbin", "theta_star": {"omega": 3, "a": .2, "b": .2, "r": 2}}
    for key, value in [("m", 2.5), ("m", True), ("sample_sizes", [64.5]),
                       ("sample_sizes", [64, 64]), ("sample_sizes", []), ("burn_in", -3),
                       ("burn_in", 2.5), ("x1", [1, 2]), ("drop_nonconverged", "false")]:
        with open(cpath, "w") as fh:
            json.dump({**nbin, key: value}, fh)
        assert run(["mc", "--config", cpath, "--out-dir", str(tmp_path / "o")]) == 1, key
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err and "Traceback" not in err, err
        assert not (tmp_path / "o").exists(), key


def test_mc_config_names_a_value_that_is_not_real(tmp_path, capsys):
    cpath = str(tmp_path / "bad.json")
    with open(cpath, "w") as fh:
        json.dump({"model": "nbin", "theta_star": {"omega": "x", "a": .2, "b": .2, "r": 2}}, fh)
    assert run(["mc", "--config", cpath, "--out-dir", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (f"error: {cpath}: bad experiment config: "
                                       "nbin parameter omega must be a positive finite real, "
                                       "got 'x'\n")
    with open(cpath) as fh:  # a ValueError, with the same text, from the library too
        with pytest.raises(ValueError, match="^bad experiment config: nbin parameter omega"):
            ExperimentConfig.from_dict(json.load(fh))


@pytest.mark.parametrize("tag,name,value", BAD_FIELDS)
def test_a_bad_parameter_in_a_config_or_sidecar_is_named(tmp_path, capsys, tag, name, value):
    params = {**VALID_PARAMS[tag], name: value}
    cpath = str(tmp_path / "c.json")
    with open(cpath, "w") as fh:
        json.dump({"model": tag, "theta_star": params}, fh)  # nan and inf as NaN, Infinity
    assert run(["mc", "--config", cpath, "--out-dir", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {cpath}: bad experiment config: {tag} parameter {name} must be ")
    series, side = str(tmp_path / "s.csv"), str(tmp_path / "s.meta.json")
    with open(series, "w") as fh:
        fh.write("k,y\n1,1\n2,0\n")
    with open(side, "w") as fh:
        json.dump({"model": tag, "params": params}, fh)
    assert run(["fit", "--series", series]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {side}: params: {tag} parameter {name} must be ")


def _flag_literal(value):
    """A parameter as its flag writes it: a comma list, a matrix's rows joined by ';'."""
    if not isinstance(value, list):
        return str(value)
    if isinstance(value[0], list):
        return ";".join(map(_flag_literal, value))
    return ",".join(map(str, value))


@pytest.mark.parametrize("tag,name,value", [p for p in BAD_FIELDS if p.values[2] is not None
                                            and not isinstance(p.values[2], bool)])
def test_a_bad_parameter_flag_is_named(capsys, tag, name, value):
    flags = dict(zip(VALID_PARAMS[tag], PARAM_MODELS[tag].cli_help))
    params = {**VALID_PARAMS[tag], name: value}
    argv = [f"--{flags[k]}={_flag_literal(v)}" for k, v in params.items()]
    assert run(["verify", "--model", tag, *argv]) == 1
    assert capsys.readouterr().err.startswith(f"error: {tag} parameter {name} must be ")


@pytest.mark.parametrize("flags,message", [
    (["--model", "nbin", "--omega", "x", "--a", ".2", "--b", ".2", "--r", "2"],
     "nbin parameter omega must be a positive finite real, got 'x'"),
    (["--model", "nm", "--gamma", ".5,.5", "--omega", "1,2", "--A", ".3,x;.1,.2",
      "--bvec", ".2,.1"],
     "nm parameter A must be an array of finite reals, got [[0.3, 'x'], [0.1, 0.2]]"),
    (["--model", "nm", "--gamma", ".5,.5", "--omega", "1,2", "--A", ".3,.1;.1",
      "--bvec", ".2,.1"],
     "nm parameter A must be an array of finite reals, got [[0.3, 0.1], [0.1]]"),
], ids=["omega-x", "A-x", "A-ragged"])
def test_a_parameter_flag_that_is_not_a_number_names_its_parameter(capsys, flags, message):
    assert run(["verify", *flags]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


NBIN_CONFIG = {"model": "nbin", "theta_star": {"omega": 3, "a": .2, "b": .2, "r": 2}}


@pytest.mark.parametrize("config,message", [
    ([1, 2], "the config must be a JSON object, got [1, 2]"),
    ({**NBIN_CONFIG, "theta_star": [1]}, "theta_star must be a JSON object, got [1]"),
    ({**NBIN_CONFIG, "optimizer": [1]}, "optimizer must be a JSON object, got [1]"),
    ({**NBIN_CONFIG, "sample_sizes": 64}, "sample_sizes must be a list, got 64"),
    ({"theta_star": NBIN_CONFIG["theta_star"]}, "missing keys ['model']"),
    ({"model": "nbin"}, "missing keys ['theta_star']"),
    ({**NBIN_CONFIG, "optimizer": {"bogus": 1}}, "unknown optimizer keys ['bogus']"),
    ({**NBIN_CONFIG, "theta_star": {"omega": 3, "a": .2, "b": .2}},
     "nbin parameters are omega, a, b, r; got omega, a, b"),
    ({**NBIN_CONFIG, "model": "garch"}, "unknown model tag 'garch'"),
], ids=["config", "theta_star", "optimizer", "sample_sizes", "no-model", "no-theta_star",
        "optimizer-key", "theta_star-keys", "unknown-model"])
def test_mc_config_of_a_bad_shape(tmp_path, capsys, config, message):
    cpath = str(tmp_path / "bad.json")
    with open(cpath, "w") as fh:
        json.dump(config, fh)
    assert run(["mc", "--config", cpath, "--out-dir", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {cpath}: bad experiment config: {message}\n"
    assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize("config,message", [
    ({**NBIN_CONFIG, "x1": [1, 2]}, "x1 must be one positive finite nbin state, got [1, 2]"),
    ({"model": "nm", "theta_star": VALID_PARAMS["nm"], "x1": [True, 2.0]},
     "x1 must be one positive finite nm state, got [True, 2.0]"),
    ({"model": "nm", "theta_star": VALID_PARAMS["nm"], "x1": [1, [2]]},
     "x1 must be one positive finite nm state, got [1, [2]]"),
], ids=["nbin-vector", "nm-bool-inside", "nm-ragged"])
def test_mc_config_x1_that_is_not_a_state(tmp_path, capsys, config, message):
    cpath = str(tmp_path / "bad.json")
    with open(cpath, "w") as fh:
        json.dump(config, fh)
    assert run(["mc", "--config", cpath, "--out-dir", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {cpath}: {message}\n"
    assert not os.path.exists(tmp_path / "o")


def test_fit_without_a_sidecar_needs_a_model(tmp_path, capsys):
    series = str(tmp_path / "s.csv")
    with open(series, "w") as fh:
        fh.write("k,y\n" + "".join(f"{k},{k % 5}\n" for k in range(1, 33)))
    assert run(["fit", "--series", series]) == 1
    assert capsys.readouterr().err == ("error: model tag not given and no metadata "
                                       "sidecar found\n")
    assert run(["fit", "--series", series, "--model", "nbin"]) == 0


@pytest.mark.parametrize("meta", [{"seed": 3}, {"model": None}], ids=["no-key", "null"])
def test_fit_names_a_sidecar_without_a_model(tmp_path, capsys, meta):
    series, side = str(tmp_path / "s.csv"), str(tmp_path / "s.meta.json")
    assert run(["simulate", *M1_FLAGS, "--n", "64", "--out", series]) == 0
    with open(side, "w") as fh:
        json.dump(meta, fh)
    assert run(["fit", "--series", series]) == 1
    assert capsys.readouterr().err == f"error: model tag not given and {side} has no model\n"


def test_simulate_x1_that_is_not_a_state(tmp_path, capsys):
    nm1 = ["--model", "nm", "--gamma", "1", "--omega", "1", "--A", ".4", "--bvec", ".25"]
    out = str(tmp_path / "s.csv")
    assert run(["simulate", *nm1, "--n", "16", "--x1", "abc", "--out", out]) == 1
    assert capsys.readouterr().err == "error: x1 must be one positive finite nm state, got 'abc'\n"
    # a literal that parses to a state outside the model is named by its values
    assert run(["simulate", *nm1, "--n", "16", "--x1", "-1", "--out", out]) == 1
    assert capsys.readouterr().err == "error: x1 must be one positive finite nm state, got [-1.0]\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("command,argv", [("simulate", ["--n", "16", "--out"]),
                                          ("verify", ["--triples", "10", "--out"])])
def test_flags_of_another_model_are_refused(tmp_path, capsys, command, argv):
    out = str(tmp_path / "out")
    assert run([command, *M1_FLAGS, "--tau", "9", "--gamma", "1", *argv, out]) == 2
    assert capsys.readouterr().err == "error: --model nbin takes no --gamma --tau\n"
    assert run([command, *M1_FLAGS, "--tau", "9", *argv, out]) == 2
    assert capsys.readouterr().err == "error: --model nbin takes no --tau\n"
    assert not os.path.exists(out)


def test_fit_x1_that_is_not_a_state(tmp_path, capsys):
    series, out = str(tmp_path / "s.csv"), str(tmp_path / "fit.json")
    assert run(["simulate", *M1_FLAGS, "--n", "64", "--out", series]) == 0
    assert run(["fit", "--series", series, "--x1", "1,2", "--out", out]) == 1
    assert capsys.readouterr().err == ("error: x1 must be one positive finite nbin state, "
                                       "got '1,2'\n")
    assert not os.path.exists(out)


def test_fit_rejects_a_sidecar_of_another_model(tmp_path, capsys):
    series = str(tmp_path / "s.csv")
    assert run(["simulate", *M1_FLAGS, "--n", "64", "--out", series]) == 0
    out = str(tmp_path / "fit.json")
    capsys.readouterr()
    assert run(["fit", "--series", series, "--model", "ting", "--out", out]) == 1
    assert capsys.readouterr().err == (
        f"error: {series}: a ting series cannot carry nbin parameters\n")
    assert not os.path.exists(out)
    assert read_series(series, model_tag="nbin").params == read_series(series).params


@pytest.mark.parametrize("jobs", ["0", "-4"])
def test_mc_needs_a_job(tmp_path, capsys, jobs):
    cpath = str(tmp_path / "cfg.json")
    with open(cpath, "w") as fh:
        json.dump(MODELS["nbin"][4], fh)
    out = tmp_path / "o"
    assert run(["mc", "--config", cpath, "--out-dir", str(out), "--jobs", jobs]) == 1
    assert capsys.readouterr().err == f"error: jobs must be >= 1, got {jobs}\n"
    assert not out.exists()


def test_mc_size_without_a_converged_replicate(tmp_path, capsys):
    # one BFGS step per fit: no replicate converges, so dropping them leaves nothing
    cpath = str(tmp_path / "cfg.json")
    with open(cpath, "w") as fh:
        json.dump({**MODELS["nbin"][4], "sample_sizes": [32, 64], "m": 3,
                   "drop_nonconverged": True, "optimizer": {"max_inner": 1, "max_outer": 1}}, fh)
    out = tmp_path / "o"
    assert run(["mc", "--config", cpath, "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == ("error: drop_nonconverged: no replicate converged at "
                                       "sample sizes [32, 64]\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_negative_seed(tmp_path, capsys, command):
    out = tmp_path / "s.csv"
    argv = {"simulate": ["simulate", *M1_FLAGS, "--n", "64", "--out", str(out)],
            "verify": ["verify", *M1_FLAGS, "--triples", "100"]}[command]
    assert run(argv + ["--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not out.exists()


def test_simulate_explosive_nbin_exits_1(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert run(["simulate", "--model", "nbin", "--omega", "3", "--a", ".9", "--b", ".5",
                "--r", "2", "--n", "64", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "warning: parameters are outside the stability region"
    assert err[1].startswith("error: nbin draw failed at step 70 of 564 (burn-in included)")
    assert err[1].endswith("the parameters are outside the stability region")
    assert not out.exists()


def test_verify_pass_and_report(tmp_path):
    out = str(tmp_path / "rep.json")
    code = run(["verify", *M1_FLAGS, "--triples", "2000", "--out", out])
    assert code == 0
    d = json.loads(open(out).read())
    assert d["passed"] is True
    assert len(d["checks"]) == 4


def test_verify_passes_at_large_omega(capsys):
    # the grid's states lie above w = 3000, where the Lipschitz bound holds
    assert run(["verify", "--model", "nm", "--gamma", "1", "--omega", "3000", "--A", ".3",
                "--bvec", ".1"]) == 0


@pytest.mark.parametrize("triples", ["0", "-5"])
def test_verify_needs_a_triple(capsys, triples):
    assert run(["verify", *M1_FLAGS, "--triples", triples]) == 1
    assert capsys.readouterr().err == f"error: n_triples must be >= 1, got {triples}\n"


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


def test_plot_empty_replicates(tmp_path, capsys):
    path = str(tmp_path / "r.csv")
    with open(path, "w") as fh:
        fh.write("model,n,j,seed,converged,loglik_gap,omega,a,b,r\n")
    assert run(["plot", "--replicates", path,
                "--out-dir", str(tmp_path / "p")]) == 1
    with open(path, "a") as fh:  # a full row, then a short one
        fh.write("nbin,64,0,1,true,0.5,3,.2,.2,2\nnbin,64,1,2,true\n")
    capsys.readouterr()
    assert run(["plot", "--replicates", path, "--out-dir", str(tmp_path / "p")]) == 1
    assert capsys.readouterr().err == f"error: {path}: truncated or malformed row 2\n"


NBIN_REPLICATES = ("model,n,j,seed,converged,loglik_gap,omega,a,b,r\n"
                   "nbin,64,0,1,true,0.5,3,.2,.2,2\nnbin,64,1,2,true,0.25,2.5,.3,.1,2.5\n")


@pytest.mark.parametrize("theta_star,named", [
    ({"model": "ting", "theta_star": {"omega": 9, "a": .2, "b": .2, "tau": 4}},
     ["a ting config", "nbin replicates"]),
    ({"model": "nm", "theta_star": {"gamma": [1], "omega_vec": [1], "A": [[.4]],
                                    "b_vec": [.25]}},
     ["a nm config", "nbin replicates"])], ids=["ting", "nm"])
def test_plot_config_of_another_model(tmp_path, capsys, theta_star, named):
    # the config's true values would be drawn on the panels of another model's parameters
    rpath, cpath = str(tmp_path / "r.csv"), str(tmp_path / "cfg.json")
    with open(rpath, "w") as fh:
        fh.write(NBIN_REPLICATES)
    with open(cpath, "w") as fh:
        json.dump(theta_star, fh)
    pdir = str(tmp_path / "p")
    assert run(["plot", "--replicates", rpath, "--config", cpath, "--out-dir", pdir]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and all(s in err for s in named), err
    assert not os.path.exists(pdir)


@pytest.mark.parametrize("row,where", [
    ("nbin,64,2,3,true,nan,3,.2,.2,2", "row 3, column loglik_gap: not a finite number: 'nan'"),
    ("nbin,64,2,3,true,0.5,3,inf,.2,2", "row 3, column a: not a finite number: 'inf'"),
], ids=["nan_gap", "inf_estimate"])
def test_plot_rejects_a_non_finite_cell(tmp_path, capsys, row, where):
    path = str(tmp_path / "r.csv")
    with open(path, "w") as fh:
        fh.write(NBIN_REPLICATES + row + "\n")
    pdir = str(tmp_path / "p")
    assert run(["plot", "--replicates", path, "--out-dir", pdir]) == 1
    assert capsys.readouterr().err == f"error: {path}: {where}\n"
    assert not os.path.exists(pdir)


def test_plot_config_of_another_nm_dimension(tmp_path, capsys):
    rpath, cpath = str(tmp_path / "r.csv"), str(tmp_path / "cfg.json")
    with open(rpath, "w") as fh:
        fh.write("model,n,j,seed,converged,loglik_gap,gamma1,omega1,A11,b1\n"
                 "nm,64,0,1,true,0.5,1,1,.4,.25\n")
    with open(cpath, "w") as fh:
        json.dump({"model": "nm", "theta_star": {
            "gamma": [.4, .6], "omega_vec": [1, 2], "A": [[.3, .1], [.05, .25]],
            "b_vec": [.2, .1]}}, fh)
    assert run(["plot", "--replicates", rpath, "--config", cpath,
                "--out-dir", str(tmp_path / "p")]) == 1
    assert "has parameters gamma1, gamma2" in capsys.readouterr().err


def test_plot_replicates_of_two_models(tmp_path, capsys):
    path = str(tmp_path / "r.csv")
    with open(path, "w") as fh:
        fh.write(NBIN_REPLICATES + "ting,64,2,3,true,0.5,3,.2,.2,2\n")
    assert run(["plot", "--replicates", path, "--out-dir", str(tmp_path / "p")]) == 1
    assert capsys.readouterr().err == (f"error: {path}: row 3, column model: "
                                       "not row 1's model 'nbin': 'ting'\n")


def test_plot_refuses_gaps_a_float_cannot_span(tmp_path, capsys):
    path = str(tmp_path / "r.csv")
    with open(path, "w") as fh:
        fh.write("model,n,j,seed,converged,loglik_gap,omega,a,b,r\n"
                 "nbin,64,0,1,true,1e308,3,.2,.2,2\nnbin,64,1,2,true,-1e308,2.5,.3,.1,2.5\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["plot", "--replicates", path, "--out-dir", str(tmp_path / "p")]) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: boxplot 'loglik(MLE) - loglik(truth)': "
                                               "the padded range"), err


def test_plot_without_a_config(tmp_path):
    path = str(tmp_path / "r.csv")
    with open(path, "w") as fh:
        fh.write(NBIN_REPLICATES)
    pdir = str(tmp_path / "p")
    assert run(["plot", "--replicates", path, "--out-dir", pdir]) == 0
    assert len(os.listdir(pdir)) == 5
    with open(os.path.join(pdir, "estimates_omega.svg"), encoding="utf-8") as fh:
        assert "stroke-dasharray" not in fh.read()  # no true value to draw


def test_one_parser_serves_every_call_of_a_process(tmp_path, monkeypatch):
    rpath, series = str(tmp_path / "r.csv"), str(tmp_path / "s.csv")
    with open(rpath, "w") as fh:
        fh.write(NBIN_REPLICATES)
    assert run(["simulate", *M1_FLAGS, "--n", "128", "--seed", "5", "--out", series]) == 0
    builds, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()  # the next call builds the process's parser
    rounds = []
    for k in range(2):
        pdir, out = tmp_path / f"p{k}", tmp_path / f"fit{k}.json"
        codes = [run(["plot", "--replicates", rpath, "--out-dir", str(pdir)]),
                 run(["fit", "--series", series, "--out", str(out)]),
                 run(["simulate", "--model", "nbin", "--omega", "3", "--n", "16",
                      "--out", str(tmp_path / "x.csv")])]
        with pytest.raises(SystemExit) as exc:
            run(["fit"])  # argparse's own usage error, from inside the parser
        codes.append(exc.value.code)
        rounds.append((codes, {f.name: f.read_bytes() for f in sorted(pdir.iterdir())},
                       out.read_bytes()))
    assert rounds[0][0] == [0, 0, 2, 2] and len(rounds[0][1]) == 5
    assert rounds[1] == rounds[0]
    assert builds == [1]


def test_main_dispatches_the_command_bound_at_call_time(tmp_path, monkeypatch):
    rpath = str(tmp_path / "r.csv")
    with open(rpath, "w") as fh:
        fh.write(NBIN_REPLICATES)
    argv = ["plot", "--replicates", rpath, "--out-dir", str(tmp_path / "p")]
    assert run(argv) == 0  # the parser exists before the rebinding
    seen = []
    monkeypatch.setattr(cli, "cmd_plot", lambda args: seen.append(args.replicates) or 7)
    assert run(argv) == 7
    assert seen == [rpath]


# Each bad value of a FitOptions field, as config JSON, and as a flag where the value is
# of the flag's type (a value that is not, argparse rejects as a usage error).
BAD_OPTIONS = [("tol", "x", False), ("tol", 0, True), ("tol", -1e-6, True),
               ("tol", float("inf"), True), ("fd_step", 0, False), ("fd_step", "1e-5", False),
               ("max_outer", 0, True), ("max_outer", 2.5, False), ("max_inner", 0, True),
               ("max_inner", True, False), ("margin", -1, True), ("margin", 0, True),
               ("margin", 1, True), ("margin", 2, True), ("margin", float("nan"), True)]


@pytest.mark.parametrize("name,value,as_flag", BAD_OPTIONS)
def test_bad_fit_options(tmp_path, capsys, name, value, as_flag):
    with pytest.raises(ValueError, match=name):
        FitOptions(**{name: value})
    cpath = str(tmp_path / "cfg.json")
    with open(cpath, "w") as fh:
        json.dump({**MODELS["nbin"][4], "optimizer": {name: value}}, fh)
    assert run(["mc", "--config", cpath, "--out-dir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cpath}: {name} must be") and "Traceback" not in err, err
    if not as_flag:
        return
    series = str(tmp_path / "s.csv")
    assert run(["simulate", *M1_FLAGS, "--n", "64", "--out", series]) == 0
    flag = "--" + name.replace("_", "-")
    assert run(["fit", "--series", series, f"{flag}={value}"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {name} must be")


@pytest.mark.parametrize("flags", [
    ["--model", "nbin", "--omega", "3", "--a", "x", "--b", ".2", "--r", "2"],
    ["--model", "ting", "--omega", "2", "--a", ".2", "--b", ".1", "--tau", "x"],
    ["--model", "nm", "--gamma", "1", "--omega", "x", "--A", ".4", "--bvec", ".25"],
], ids=["a", "tau", "omega"])
def test_malformed_parameter_literal(tmp_path, capsys, flags):
    assert run(["simulate", *flags, "--n", "16", "--out", str(tmp_path / "s.csv")]) == 1
    assert run(["verify", *flags, "--triples", "10"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error: ") for line in err), err


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_help_names_the_models_of_each_flag(capsys, command):
    with pytest.raises(SystemExit) as exc:
        run([command, "--help"])
    assert exc.value.code == 0
    options = " ".join(capsys.readouterr().out.split("options:")[1].split())
    flags = {}  # flag: (metavar, help), from "--flag METAVAR help" items
    for item in options.split(" --")[1:]:
        flag, metavar, *text = item.split(" ", 2)
        flags[flag] = (metavar, " ".join(text))
    assert flags["a"][0] != flags["A"][0]
    for model in PARAM_MODELS.values():
        for flag in model.cli_help:
            assert model.tag in re.findall(r"(\w+)[,:]", flags[flag][1]), (flag, model.tag)
    for model in (PARAM_MODELS["nbin"], PARAM_MODELS["ting"]):
        assert tuple(model.cli_help) == model.param_names  # from_flags is from_array
    for flag in ("gamma", "bvec"):
        assert "comma list" in flags[flag][1]
    assert "rows comma lists joined by ';'" in flags["A"][1]


def test_readme_config_schema_is_fit_options():
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "README.md")
    with open(readme, encoding="utf-8") as fh:
        (block,) = re.findall(r"```json\n(.*?)```", fh.read(), flags=re.S)
    config = json.loads(block)
    ExperimentConfig.from_dict(config)
    assert list(config["optimizer"]) == [f.name for f in fields(FitOptions)]


def test_readme_library_block_runs():
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "README.md")
    with open(readme, encoding="utf-8") as fh:
        library = fh.read().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", library, flags=re.S)
    scope = {}
    exec(block, scope)
    assert scope["fit"].converged and scope["report"].passed
