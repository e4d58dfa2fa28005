import json
import os
import re
import warnings

import numpy as np
import pytest

from odgarch import ExperimentConfig, NbinParams, NmParams, psi_step, run_experiment, simulate
from odgarch.io import (atomic_write_text, meta_path, read_config, read_replicates,
                        read_series, write_csv, write_json, write_mc_outputs, write_series)
from odgarch.svgplot import _quantile, box_stats, boxplot_panel

M1 = NbinParams(3.0, 0.2, 0.2, 2.0)


def test_series_roundtrip(tmp_path):
    s = simulate(M1, 50, seed=9)
    path = str(tmp_path / "s.csv")
    write_series(path, s)
    back = read_series(path)
    assert np.array_equal(back.y, s.y)
    assert np.allclose(back.x_trace, s.x_trace, rtol=1e-11)
    assert back.model_tag == "nbin" and back.seed == 9 and back.stable
    meta = json.loads(open(meta_path(path)).read())
    assert meta["n"] == 50 and meta["burn_in"] == 500
    assert meta["params"]["omega"] == 3.0


def test_sidecar_key_missing_takes_its_default(tmp_path):
    # a key left out of the sidecar reads as it does with no sidecar at all
    s = simulate(M1, 30, seed=9, burn_in=7)
    path = str(tmp_path / "s.csv")
    write_series(path, s)
    meta = json.loads(open(meta_path(path)).read())
    os.unlink(meta_path(path))
    bare = read_series(path, model_tag="nbin")
    assert (bare.seed, bare.burn_in, bare.stable, bare.params) == (0, 0, True, None)
    for key in ("seed", "burn_in", "stable"):
        write_json(meta_path(path), {k: v for k, v in meta.items() if k != key})
        back = read_series(path)
        assert back.model_tag == "nbin" and back.params == M1
        assert getattr(back, key) == getattr(bare, key), key


def test_series_roundtrip_nm_d1_trace(tmp_path):
    # an NM trace keeps its (n, d) shape at d = 1, and psi_step reads it back
    p = NmParams(gamma=[1.0], omega_vec=[1.0], A=[[0.4]], b_vec=[0.25])
    s = simulate(p, 40, seed=3)
    path = str(tmp_path / "nm1.csv")
    write_series(path, s)
    for back in (read_series(path), read_series(path, model_tag="nm")):
        assert back.x_trace.shape == s.x_trace.shape == (40, 1)
        for k in range(39):
            np.testing.assert_allclose(psi_step(p, back.x_trace[k], back.y[k]),
                                       back.x_trace[k + 1], rtol=1e-10)


def test_series_roundtrip_nm(tmp_path):
    p = NmParams(gamma=[0.4, 0.6], omega_vec=[1.0, 2.0],
                 A=[[0.3, 0.1], [0.05, 0.25]], b_vec=[0.2, 0.1])
    s = simulate(p, 20, seed=1)
    path = str(tmp_path / "nm.csv")
    write_series(path, s)
    back = read_series(path)
    assert back.x_trace.shape == (20, 2)
    assert np.allclose(back.y, s.y, rtol=1e-11)


@pytest.mark.parametrize("bad", ["nan", "-2", "inf"])
def test_read_series_refuses_a_trace_that_is_not_positive_and_finite(tmp_path, bad):
    path = str(tmp_path / "trace.csv")
    with open(path, "w") as fh:
        fh.write(f"k,y,x_1\n1,3,7.5\n2,4,{bad}\n3,2,6.1\n")
    with pytest.raises(ValueError) as exc:
        read_series(path, model_tag="nbin")
    assert str(exc.value) == f"{path}: row 2, column x_1: not a positive finite number: {bad!r}"


def test_read_series_truncated(tmp_path):
    path = str(tmp_path / "bad.csv")
    with open(path, "w") as fh:
        fh.write("k,y,x_1\n1,3,7.5\n2,4\n")
    with pytest.raises(ValueError):
        read_series(path, model_tag="nbin")


def test_read_series_bad_header_and_empty(tmp_path):
    path = str(tmp_path / "h.csv")
    with open(path, "w") as fh:
        fh.write("time,value\n1,2\n")
    with pytest.raises(ValueError):
        read_series(path, model_tag="nbin")
    path2 = str(tmp_path / "e.csv")
    with open(path2, "w") as fh:
        fh.write("k,y\n")
    with pytest.raises(ValueError):
        read_series(path2, model_tag="nbin")


def test_write_csv_formatting(tmp_path):
    path = str(tmp_path / "f.csv")
    write_csv(path, ["a", "b"], [(1, 0.1), (True, 1.0 / 3.0)])
    text = open(path, "rb").read().decode()
    assert "\r" not in text
    assert text.splitlines() == ["a,b", "1,0.1", "true,0.333333333333"]


def test_atomic_write_no_tmp_left(tmp_path):
    path = str(tmp_path / "x.txt")
    atomic_write_text(path, "hello")
    assert open(path).read() == "hello"
    assert [f for f in os.listdir(tmp_path) if f.endswith(".tmp")] == []


def test_atomic_write_that_fails_removes_its_temp_file(tmp_path, monkeypatch):
    path = str(tmp_path / "x.txt")
    atomic_write_text(path, "old")

    def fail(src, dst):
        raise OSError("replace failed")
    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="replace failed"):
        atomic_write_text(path, "new")
    monkeypatch.undo()
    assert os.listdir(tmp_path) == ["x.txt"]
    assert open(path).read() == "old"


def test_read_config_names_its_file_when_it_is_not_json(tmp_path):
    path = str(tmp_path / "c.json")
    with open(path, "w") as fh:
        fh.write("{")
    with pytest.raises(ValueError, match=f"^{re.escape(path)}: bad experiment config: "
                                         "Expecting property name"):
        read_config(path)


def test_mc_outputs_roundtrip(tmp_path):
    cfg = ExperimentConfig(model_tag="nbin", theta_star=M1,
                           sample_sizes=(64, 128), m=4, base_seed=5)
    summary = run_experiment(cfg)
    spath = str(tmp_path / "summary.csv")
    rpath = str(tmp_path / "replicates.csv")
    write_mc_outputs(spath, rpath, summary)
    lines = open(spath).read().splitlines()
    assert lines[0] == "model,n,param,mc_mean,made,n_converged"
    assert len(lines) == 1 + 2 * 4
    rep = read_replicates(rpath)
    assert rep["model"] == "nbin"
    assert rep["param_names"] == ["omega", "a", "b", "r"]
    for n in (64, 128):
        sel = rep["n"] == n
        assert np.allclose(rep["estimates"][sel], summary.estimates[n], rtol=1e-11)
        assert np.allclose(rep["gap"][sel], summary.gaps[n], rtol=1e-11)


def test_read_replicates_errors(tmp_path):
    path = str(tmp_path / "r.csv")
    with open(path, "w") as fh:
        fh.write("model,n,j,seed,converged,loglik_gap,omega\n")
    with pytest.raises(ValueError):
        read_replicates(path)  # no rows
    with open(path, "w") as fh:
        fh.write("foo,bar\n1,2\n")
    with pytest.raises(ValueError):
        read_replicates(path)  # bad header


@pytest.mark.parametrize("text,message", [
    ("k,y,x_1\n1,3,7.5\n2,4,zz\n", "row 2, column x_1: not a number: 'zz'"),
    ("k,y\n1,3\n2,\n", "row 2, column y: not a number: ''"),
])
def test_read_series_bad_cell(tmp_path, text, message):
    path = str(tmp_path / "bad.csv")
    with open(path, "w") as fh:
        fh.write(text)
    with pytest.raises(ValueError) as exc:
        read_series(path, model_tag="nbin")
    assert str(exc.value) == f"{path}: {message}"


@pytest.mark.parametrize("row,message", [
    ("nbin,6.5,1,2,true,0.5,3", "row 2, column n: not an integer: '6.5'"),
    ("nbin,64,1,2,true,x,3", "row 2, column loglik_gap: not a number: 'x'"),
    ("nbin,64,1,2,true,0.5,", "row 2, column omega: not a number: ''"),
    ("nbin,64,1,2,True,0.5,3", "row 2, column converged: not true or false: 'True'"),
    ("nbin,64,1,2,1,0.5,3", "row 2, column converged: not true or false: '1'"),
])
def test_read_replicates_bad_cell(tmp_path, row, message):
    path = str(tmp_path / "r.csv")
    with open(path, "w") as fh:
        fh.write(f"model,n,j,seed,converged,loglik_gap,omega\nnbin,64,0,1,false,0.5,3\n{row}\n")
    with pytest.raises(ValueError) as exc:
        read_replicates(path)
    assert str(exc.value) == f"{path}: {message}"


def test_box_stats_hand_oracle():
    # 10-point dataset; quartiles by linear interpolation, 1.5*IQR whiskers
    data = [1, 2, 3, 4, 5, 6, 7, 8, 9, 100]
    st = box_stats(data)
    assert st["q1"] == 3.25
    assert st["median"] == 5.5
    assert st["q3"] == 7.75
    assert st["whisker_lo"] == 1.0   # lowest datum inside q1 - 1.5*IQR
    assert st["whisker_hi"] == 9.0   # highest datum inside q3 + 1.5*IQR
    assert st["fliers"] == [100.0]


def test_box_stats_degenerate():
    st = box_stats([2.0, 2.0, 2.0])
    assert st["q1"] == st["median"] == st["q3"] == 2.0
    assert st["fliers"] == []
    with pytest.raises(ValueError):
        box_stats([])


def test_quantile_rounds_as_numpy_percentile():
    rng = np.random.default_rng(23)
    for m in range(1, 65):
        for _ in range(20):
            spread = rng.normal(size=m) * 10.0 ** rng.integers(-300, 301, size=m)
            ties = rng.integers(-3, 4, size=m) * rng.choice([1e-300, 1.0, 1e300])
            one_zero = rng.normal(size=m)
            one_zero[0] = -0.0  # a t == 0 shortcut would keep its sign
            overflow = rng.uniform(-1.0, 1.0, size=m) * 1.7e308  # b - a may overflow
            zeros = rng.choice([-0.0, 0.0, 2.5], size=m)
            for v, signed_zeros in [(spread, False), (ties, False), (one_zero, False),
                                    (overflow, False), (zeros, True)]:
                v = np.sort(v)
                with np.errstate(over="ignore", invalid="ignore"):
                    want = np.percentile(v, [25, 50, 75]).tolist()
                got = [_quantile(v.tolist(), q) for q in (0.25, 0.5, 0.75)]
                if signed_zeros:  # numpy's partition may reorder tied -0.0 and 0.0
                    assert got == want
                else:
                    assert list(map(float.hex, got)) == list(map(float.hex, want)), v


def test_box_stats_refuses_a_spread_a_float_cannot_hold():
    # the quartiles' b - a overflows, and np.percentile gave nan fences and no whiskers
    values = [-1.7e308, -1.6e308, 1.6e308, 1.7e308, 1.75e308]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^box_stats: the spread \[-1\.7e\+308, "
                                             r"1\.75e\+308\] of its values is not finite$"):
            box_stats(values)


def test_boxplot_panel_deterministic_svg():
    rng = np.random.default_rng(2)
    groups = [(f"n={n}", rng.normal(0, 1, 40)) for n in (128, 256, 512, 1024)]
    svg1 = boxplot_panel(groups, title="t", ref_line=0.0)
    svg2 = boxplot_panel(groups, title="t", ref_line=0.0)
    assert svg1 == svg2
    assert svg1.startswith("<svg ") or svg1.startswith("<svg\n") or "<svg" in svg1[:10]
    assert svg1.count("n=") >= 4
    with pytest.raises(ValueError):
        boxplot_panel([("a", [])])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_boxplot_panel_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="^boxplot requires finite values$"):
        boxplot_panel([("n=64", [1.0, 2.0]), ("n=128", [1.0, bad])], ref_line=0.0)


def test_boxplot_panel_true_value_markers():
    groups = [("n=128", [1.0, 2.0, 3.0]), ("n=256", [1.5, 2.0, 2.5])]
    svg = boxplot_panel(groups, title="omega", true_value=2.0, mean_markers=True)
    assert "stroke-dasharray" in svg  # dashed true-value line


@pytest.mark.parametrize("values", [[1e308, -1e308], [1.79e308, 0.0], [1e300, 1e300]],
                         ids=["overflow", "pad-overflow", "pad-lost"])
def test_boxplot_panel_refuses_a_range_a_float_cannot_span(values):
    # the padded range must be a positive finite span for the ticks and the y map
    with pytest.raises(ValueError, match=r"^boxplot 'loglik gap': the padded range .* is not "
                                         "a positive finite span$"):
        boxplot_panel([("n=64", values)], title="loglik gap")
