import ast
import json
import math
import os
import re

import numpy as np
import pytest
from conftest import BAD_FIELDS, VALID_PARAMS

import odgarch
from odgarch import (ExperimentConfig, NbinParams, NmParams, Series, TingParams, filter_series,
                     grad_loglik_nbin, grad_loglik_numeric, init_generic, loglik, mle_fit,
                     models, simulate, spectral_radius, verifier)
from odgarch.params import model_class, params_to_dict


def test_nbin_margin_and_stability():
    p = NbinParams(3.0, 0.2, 0.2, 2.0)
    assert p.stable()
    assert abs(p.margin() - 0.4) < 1e-15


def test_nbin_boundary_is_unstable():
    p = NbinParams(1.0, 0.5, 0.5, 1.0)
    assert not p.stable()
    assert p.margin() == 0.0


def test_ting_margin():
    p = TingParams(3.0, 0.35, 0.1, 4.0)
    assert abs(p.margin() - 0.65) < 1e-15
    assert not TingParams(1.0, 1.5, 0.1, 2.0).stable()


@pytest.mark.parametrize("bad", [
    dict(omega=0.0, a=0.2, b=0.2, r=2.0),
    dict(omega=3.0, a=-0.1, b=0.2, r=2.0),
    dict(omega=3.0, a=0.2, b=0.2, r=float("nan")),
    dict(omega=3.0, a=0.2, b=float("inf"), r=2.0),
])
def test_positivity_validation(bad):
    with pytest.raises(ValueError):
        NbinParams(**bad)
    with pytest.raises(ValueError):
        TingParams(bad["omega"], bad["a"], bad["b"], bad["r"])


def test_nm_scalar_margin():
    p = NmParams(gamma=[1.0], omega_vec=[1.0], A=[[0.5]], b_vec=[0.3])
    assert abs(p.margin() - 0.2) < 1e-10


def test_nm_validation():
    with pytest.raises(ValueError):
        NmParams(gamma=[0.5, 0.4], omega_vec=[1.0, 1.0],
                 A=np.eye(2) * 0.1, b_vec=[0.1, 0.1])  # not on simplex
    with pytest.raises(ValueError):
        NmParams(gamma=[1.0], omega_vec=[1.0, 2.0], A=[[0.1]], b_vec=[0.1])
    with pytest.raises(ValueError):
        NmParams(gamma=[1.0], omega_vec=[-1.0], A=[[0.1]], b_vec=[0.1])
    with pytest.raises(ValueError):
        NmParams(gamma=[1.0], omega_vec=[1.0], A=[[-0.1]], b_vec=[0.1])


def test_spectral_radius_diagonal():
    assert abs(spectral_radius(np.diag([0.3, 0.7])) - 0.7) < 1e-9


def test_spectral_radius_matches_eig():
    rng = np.random.default_rng(3)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        m = rng.uniform(0.0, 1.0, (d, d))
        ref = float(np.max(np.abs(np.linalg.eigvals(m))))
        assert abs(spectral_radius(m) - ref) < 1e-7 * max(1.0, ref)


def _nonnegative(rng, d, kind):
    """A random non-negative d x d matrix and, where known, its spectral radius."""
    if kind == "periodic":  # weighted cycle i -> i+1: eigenvalues are rho * roots of 1
        c = rng.uniform(0.1, 2.0, d)
        return np.roll(np.diag(c), 1, axis=1), float(np.prod(c) ** (1.0 / d))
    m = rng.uniform(0.0, 1.0, (d, d)) * (rng.random((d, d)) < 0.6)
    if kind == "reducible" and d > 1:  # block upper triangular
        k = int(rng.integers(1, d))
        m[k:, :k] = 0.0
        return m, max(float(np.max(np.abs(np.linalg.eigvals(m[:k, :k])))),
                      float(np.max(np.abs(np.linalg.eigvals(m[k:, k:])))))
    return m, None


@pytest.mark.parametrize("kind", ["sparse", "periodic", "reducible"])
def test_spectral_radius_property(kind):
    rng = np.random.default_rng(["sparse", "periodic", "reducible"].index(kind))
    for _ in range(200):
        d = int(rng.integers(1, 6))
        m, known = _nonnegative(rng, d, kind)
        got = spectral_radius(m)
        ref = float(np.max(np.abs(np.linalg.eigvals(m))))
        assert abs(got - ref) <= 1e-12 * max(1.0, ref)
        if known is not None:
            assert abs(got - known) <= 1e-10 * max(1.0, known)


def test_spectral_radius_periodic_fixed_point():
    # power iteration oscillates on this matrix; its spectral radius is sqrt(0.8)
    a_mat = [[0.0, 2.0], [0.4, 0.0]]
    assert abs(spectral_radius(a_mat) - math.sqrt(0.8)) < 1e-15
    q = NmParams(gamma=[0.5, 0.5], omega_vec=[1.0, 1.0], A=a_mat, b_vec=[0.01, 0.01])
    assert np.allclose(q.fixed_point(), [15.0, 7.0], rtol=1e-14)


def test_spectral_radius_errors():
    with pytest.raises(ValueError):
        spectral_radius(np.array([[0.1, -0.2], [0.0, 0.1]]))
    with pytest.raises(ValueError):
        spectral_radius(np.ones((2, 3)))


def test_fixed_points():
    p = NbinParams(3.0, 0.2, 0.2, 2.0)
    assert abs(p.fixed_point() - 3.75) < 1e-15
    q = NmParams(gamma=[1.0], omega_vec=[1.0], A=[[0.5]], b_vec=[0.3])
    assert np.allclose(q.fixed_point(), [2.0])
    t = TingParams(1.0, 0.5, 0.25, 2.0)
    assert abs(t.fixed_point() - 2.0) < 1e-15


def test_params_dict_roundtrip():
    for p in (NbinParams(3.0, 0.2, 0.2, 2.0),
              TingParams(3.0, 0.35, 0.1, 4.0),
              NmParams(gamma=[0.4, 0.6], omega_vec=[1.0, 2.0],
                       A=[[0.3, 0.1], [0.05, 0.25]], b_vec=[0.2, 0.1])):
        q = model_class(p.tag).from_dict(params_to_dict(p))
        assert np.allclose(p.as_array(), q.as_array())
        assert p.tag == q.tag


@pytest.mark.parametrize("tag,d,name,value", [
    ("nbin", {"omega": "x", "a": 0.2, "b": 0.2, "r": 2.0}, "omega", "'x'"),
    ("nbin", {"omega": 3.0, "a": 0.2, "b": 0.2, "r": True}, "r", "True"),
    ("ting", {"omega": 3.0, "a": 0.35, "b": None, "tau": 4.0}, "b", "None"),
    ("nm", {"gamma": [1.0], "omega_vec": ["x"], "A": [[0.4]], "b_vec": [0.25]},
     "omega_vec", "['x']"),
    ("nm", {"gamma": [0.5, 0.5], "omega_vec": [1.0, 2.0], "A": [[0.3, 0.1], [0.05]],
            "b_vec": [0.2, 0.1]}, "A", "[[0.3, 0.1], [0.05]]"),
], ids=["nbin-str", "nbin-bool", "ting-none", "nm-str", "nm-ragged"])
def test_from_dict_names_a_value_that_is_not_real(tag, d, name, value):
    what = "an array of finite reals" if tag == "nm" else "a positive finite real"
    with pytest.raises(ValueError, match=re.escape(f"{tag} parameter {name} must be {what}, "
                                                   f"got {value}")):
        model_class(tag).from_dict(d)


@pytest.mark.parametrize("tag,name,value", BAD_FIELDS)
def test_the_constructor_and_from_dict_name_a_bad_field(tag, name, value):
    model = model_class(tag)
    d = {**VALID_PARAMS[tag], name: value}
    model(**VALID_PARAMS[tag])  # the set without the bad value is accepted
    message = f"^{tag} parameter {name} must be "
    with pytest.raises(ValueError, match=message):
        model(**d)
    with pytest.raises(ValueError, match=message):
        model.from_dict(d)


def test_nm_params_freeze_a_copy():
    a_mat = np.array([[0.3, 0.1], [0.05, 0.25]])
    p = NmParams(gamma=[0.4, 0.6], omega_vec=[1.0, 2.0], A=a_mat, b_vec=[0.2, 0.1])
    a_mat[0, 1] = 0.05  # the caller's array stays its own, and writeable
    assert p.A[0, 1] == 0.1 and not p.A.flags.writeable


def test_param_names_match_array_length():
    for p in (NbinParams(3.0, 0.2, 0.2, 2.0),
              TingParams(3.0, 0.35, 0.1, 4.0),
              NmParams(gamma=[0.4, 0.6], omega_vec=[1.0, 2.0],
                       A=[[0.3, 0.1], [0.05, 0.25]], b_vec=[0.2, 0.1])):
        assert len(p.param_names) == p.as_array().size


def test_series_validation():
    with pytest.raises(ValueError):
        Series(y=[1.0, 2.5], model_tag="nbin")  # counts must be integers
    with pytest.raises(ValueError):
        Series(y=[1.0, -1.0], model_tag="ting")
    Series(y=[1.3, -0.2], model_tag="nm")  # reals allowed
    with pytest.raises(ValueError):
        Series(y=[1.0, 2.0], model_tag="nbin", x_trace=np.ones(3))
    s = Series(y=[1.0, 2.0, 0.0], model_tag="nbin", x_trace=np.ones(3))
    assert s.n == 3
    with pytest.raises(ValueError):
        Series(y=[1.0], model_tag="bogus")
    for bad in ([], [[1.0, 2.0]]):
        with pytest.raises(ValueError, match="nonempty 1-d"):
            Series(y=bad, model_tag="nm")
    assert Series.of(s, "nbin") is s and Series.of(s) is s
    assert Series.of([1.0, 2.0, 2.0], "nbin").count_table[0].tolist() == [1.0, 2.0]


def test_series_reads_a_1d_nm_trace_as_one_column():
    y = np.random.default_rng(5).normal(size=50)
    s = Series(y=y, model_tag="nm", x_trace=np.ones(50))
    assert s.x_trace.shape == (50, 1)
    assert init_generic(s).d == 1  # the start takes d from the trace's columns


def test_series_refuses_a_trace_that_is_not_its_state():
    y = np.random.default_rng(6).normal(size=50)
    with pytest.raises(ValueError, match="^a nbin state trace has one column, got 2$"):
        Series(y=np.arange(50.0), model_tag="nbin", x_trace=np.ones((50, 2)))
    p = NmParams(gamma=[.4, .6], omega_vec=[1, 2], A=[[.3, .1], [.05, .25]], b_vec=[.2, .1])
    with pytest.raises(ValueError, match="^x_trace has 3 state columns, but the parameters "
                                         "have d = 2$"):
        Series(y=y, model_tag="nm", x_trace=np.ones((50, 3)), params=p)
    with pytest.raises(ValueError, match="1-d or 2-d"):
        Series(y=y, model_tag="nm", x_trace=np.ones((50, 2, 1)))
    with pytest.raises(ValueError, match="^a nm state trace has one column per state "
                                         "component, got 0$"):
        Series(y=y, model_tag="nm", x_trace=np.ones((50, 0)))
    assert Series(y=y, model_tag="nm", x_trace=np.ones((50, 2)), params=p).x_trace.shape == (50, 2)


NB = NbinParams(3.0, 0.2, 0.2, 2.0)
# Every entry point that takes observations, called for NBIN.
ENTRY_POINTS = {
    "loglik": lambda s: loglik(NB, 5.0, s),
    "grad_loglik_nbin": lambda s: grad_loglik_nbin(NB, 5.0, s),
    "grad_loglik_numeric": lambda s: grad_loglik_numeric(NB, 5.0, s),
    "filter_series": lambda s: filter_series(NB, 5.0, s),
    "mle_fit": lambda s: mle_fit(s, model_tag="nbin"),
    "init_generic": lambda s: init_generic(s, "nbin"),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_series_of_another_model_is_rejected(entry):
    # an NM series holds real, negative values: never NBIN counts
    nm = simulate(NmParams(gamma=[1.0], omega_vec=[1.0], A=[[0.4]], b_vec=[0.25]), 64, seed=1)
    with pytest.raises(ValueError, match="a nm series cannot be used with model nbin"):
        ENTRY_POINTS[entry](nm)


NM2 = NmParams(gamma=[.4, .6], omega_vec=[1.0, 2.0], A=[[.3, .1], [.05, .25]], b_vec=[.2, .1])
# Each model with anchors that are not one positive finite state of it.
BAD_ANCHORS = {"nbin": (NB, [[1.0, 2.0], -1.0]),
               "ting": (TingParams(3.0, 0.35, 0.1, 4.0), [[1.0, 2.0], "abc"]),
               "nm": (NM2, [np.ones((2, 2)), [1.0, math.nan]])}
# Every entry point that takes an anchor x1.
ANCHOR_ENTRY_POINTS = {
    "filter_series": filter_series,
    "loglik": loglik,
    "grad_loglik_nbin": grad_loglik_nbin,
    "grad_loglik_numeric": grad_loglik_numeric,
    "mle_fit": lambda p, x1, s: mle_fit(s, x1=x1),
    "simulate": lambda p, x1, s: simulate(p, 16, x0=x1),
}


@pytest.mark.parametrize("entry,tag", [(e, t) for e in sorted(ANCHOR_ENTRY_POINTS)
                                       for t in BAD_ANCHORS
                                       if e != "grad_loglik_nbin" or t == "nbin"])
def test_bad_anchor_is_rejected(entry, tag):
    params, anchors = BAD_ANCHORS[tag]
    series = simulate(params, 64, seed=1)
    for x1 in anchors:
        with pytest.raises(ValueError, match=f"^x1 must be one positive finite {tag} state"):
            ANCHOR_ENTRY_POINTS[entry](params, x1, series)


RAGGED = [1, [2]]
NM2_SERIES = simulate(NM2, 32, seed=1)
NM2_STATE = "a nm state must be real, positive and finite, in an array whose shape ends in (2,)"
NM2_ANCHOR = "x1 must be one positive finite nm state, got [1, [2]]"
# (entry, message) of every entry that reads an array from outside, given a ragged list
RAGGED_ENTRIES = {
    "series-y": (lambda: Series(y=RAGGED, model_tag="nm"), "observation must be finite and real"),
    "psi_step-y": (lambda: models.psi_step(NM2, NM2.fixed_point(), RAGGED),
                   "observation must be finite and real"),
    "log_emission-y": (lambda: models.log_emission(NM2, NM2.fixed_point(), RAGGED),
                       "observation must be finite and real"),
    "psi_step-x": (lambda: models.psi_step(NM2, RAGGED, 1.0), NM2_STATE),
    "log_emission-x": (lambda: models.log_emission(NM2, RAGGED, 1.0), NM2_STATE),
    "sample_emission-x": (lambda: models.sample_emission(NM2, RAGGED, np.random.default_rng(0)),
                          NM2_STATE),
    "triples-x": (lambda: verifier.Triples(NM2, RAGGED, [[1.0, 2.0]], [1.0]), NM2_STATE),
    "loglik-x1": (lambda: loglik(NM2, RAGGED, NM2_SERIES), NM2_ANCHOR),
    "filter_series-x1": (lambda: filter_series(NM2, RAGGED, NM2_SERIES), NM2_ANCHOR),
    # a plain series: the start reads d from x1 before the fit checks it
    "mle_fit-x1": (lambda: mle_fit(Series(y=NM2_SERIES.y, model_tag="nm"), x1=RAGGED),
                   NM2_ANCHOR),
    "simulate-x0": (lambda: simulate(NM2, 16, x0=RAGGED), NM2_ANCHOR),
    "config-x1": (lambda: ExperimentConfig.from_dict({"model": "nm", "theta_star": NM2.to_dict(),
                                                      "x1": RAGGED}), NM2_ANCHOR),
    "series-x_trace": (lambda: Series(y=[1.0, 2.0], model_tag="nm", x_trace=[[1.0], [2.0, 3.0]]),
                       "x_trace must hold positive finite real states"),
}


@pytest.mark.parametrize("entry", RAGGED_ENTRIES)
def test_a_ragged_list_gets_the_entrys_message(entry):
    call, message = RAGGED_ENTRIES[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("bad", [math.nan, -2.0, math.inf, 0.0], ids=["nan", "-2", "inf", "0"])
def test_series_refuses_a_trace_that_is_not_positive_and_finite(bad):
    for tag, trace in [("nbin", [1.5, bad, 2.0]), ("ting", [[1.5], [bad], [2.0]]),
                       ("nm", [[1.5, 2.0], [1.0, bad], [2.0, 2.0]])]:
        with pytest.raises(ValueError, match="^x_trace must hold positive finite real states$"):
            Series(y=[1.0, 2.0, 3.0], model_tag=tag, x_trace=trace)


def test_series_refuses_a_trace_that_is_not_real():
    for trace in ([True, True, True], ["1", "2", "3"], [True, 2.0, 3.0]):
        with pytest.raises(ValueError, match="^x_trace must hold positive finite real states$"):
            Series(y=[1.0, 2.0, 3.0], model_tag="nbin", x_trace=trace)


@pytest.mark.parametrize("y", [["1", "2", "3"], [True, False, True],
                               np.array([1.0, 2.0], dtype=object), [True, 2.0, 3.0]],
                         ids=repr)
def test_series_refuses_observations_that_are_not_real(y):
    # checked before the cast to floats, which would read them as counts
    for tag in ("nbin", "ting", "nm"):
        with pytest.raises(ValueError, match="^observation must be finite and real$"):
            Series(y=y, model_tag=tag)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_series_rejects_non_finite(bad):
    # every model rejects it with the one observation check that psi_step uses
    for tag in ("nm", "nbin", "ting"):
        with pytest.raises(ValueError, match="observation must be finite"):
            Series(y=[1.0, bad, 2.0], model_tag=tag)
    nm = NmParams(gamma=[1.0], omega_vec=[1.0], A=[[0.4]], b_vec=[0.25])
    with pytest.raises(ValueError, match="observation must be finite"):
        loglik(nm, np.array([1.0]), [1.0, bad, 2.0])


MODEL_CLASSES = {"NbinParams", "TingParams", "NmParams"}


def _selects_model(node):
    """Whether node compares a model tag (not with None) or tests for a model class."""
    if isinstance(node, ast.Compare) and not any(
            isinstance(e, ast.Constant) and e.value is None for e in node.comparators):
        return any((isinstance(e, ast.Attribute) and e.attr in ("tag", "model_tag", "model"))
                   or (isinstance(e, ast.Name) and e.id in ("tag", "model_tag"))
                   for e in [node.left, *node.comparators])
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
        classes = node.args[1]
        names = classes.elts if isinstance(classes, ast.Tuple) else [classes]
        return any(getattr(n, "id", None) in MODEL_CLASSES for n in names)
    return False


def _is_mismatch(node, parent):
    """Whether the selection holds only when the model is not the one named."""
    if isinstance(node, ast.Compare):
        return all(isinstance(op, (ast.NotEq, ast.NotIn)) for op in node.ops)
    up = parent.get(node)
    return isinstance(up, ast.UnaryOp) and isinstance(up.op, ast.Not)


def model_branches(source):
    """Model selections outside the model classes other than a mismatch check that raises."""
    tree = ast.parse(source)
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        if not _selects_model(node):
            continue
        up, stmt, in_class = node, None, False
        while up in parent:
            up = parent[up]
            if stmt is None and isinstance(up, ast.stmt):
                stmt = up
            in_class |= isinstance(up, ast.ClassDef) and (up.name in MODEL_CLASSES
                                                          or up.name.endswith("Model"))
        raise_only = (isinstance(stmt, ast.If) and not stmt.orelse
                      and all(isinstance(s, ast.Raise) for s in stmt.body))
        if not (in_class or (raise_only and _is_mismatch(node, parent))):
            found.append(node.lineno)
    return found


def test_no_model_branches_outside_model_classes():
    # the guard finds a tag branch, an isinstance dispatch and a tag expression
    assert model_branches("if p.tag == 'nm':\n    x = 1\n") == [1]
    assert model_branches("def f(p):\n    if isinstance(p, NmParams):\n        return 1\n") == [2]
    assert model_branches("d = 2 if model_tag in ('nm',) else 1\n") == [1]
    assert model_branches("if p.tag == 'nm' and x < 0:\n    raise ValueError('bad')\n") == [1]
    assert model_branches("if p.tag != q.tag:\n    raise ValueError('mismatch')\n") == []
    assert model_branches("if not isinstance(p, NbinParams):\n    raise TypeError('nbin')\n") == []
    src = os.path.join(os.path.dirname(os.path.abspath(odgarch.__file__)))
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                assert model_branches(fh.read()) == [], name


# The modules where a model tag enters the program: Series construction, --model, the
# series and sidecar readers and the experiment config. All else takes the class from
# the parameters or the Series it holds.
TAG_ENTRY_MODULES = {"params.py", "io.py", "cli.py", "montecarlo.py"}


def test_model_tags_are_looked_up_where_they_enter():
    src = os.path.dirname(os.path.abspath(odgarch.__file__))
    found = set()
    for name in os.listdir(src):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                text = fh.read()
            if "model_class(" in text or "MODELS[" in text:
                found.add(name)
    assert "params.py" in found and found <= TAG_ENTRY_MODULES, sorted(found)


def test_series_holds_its_model_class():
    for tag, model in odgarch.params.MODELS.items():
        assert Series(y=[1.0, 2.0], model_tag=tag).model is model
    with pytest.raises(AttributeError):
        Series(y=[1.0, 2.0], model_tag="nbin").model = NmParams


def test_stability_is_stated_once():
    # a model class states its stability quantity; margin, the constraint, its gradient
    # and pull_inside are _Model's alone, and no method takes the fit's map or step
    with open(odgarch.params.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    classes = [n for n in tree.body if isinstance(n, ast.ClassDef)]
    assert MODEL_CLASSES | {"_CountModel"} <= {c.name for c in classes}
    for cls in classes:
        methods = [f for f in cls.body if isinstance(f, ast.FunctionDef)]
        if cls.name in MODEL_CLASSES | {"_CountModel"}:
            assert not {f.name for f in methods} & {"margin", "constraint",
                                                    "constraint_grad_z", "pull_inside"}
        for f in methods:
            assert not {a.arg for a in f.args.args} & {"fmap", "fd_step"}, f.name

# json.dumps of to_dict for one set of each model, recorded before the dict forms were
# written once: the keys, their order and the JSON bytes.
DICT_PINS = [
    (NbinParams(3.0, 0.2, 0.2, 2.0), '{"omega": 3.0, "a": 0.2, "b": 0.2, "r": 2.0}'),
    (TingParams(3.0, 0.35, 0.1, 4.0), '{"omega": 3.0, "a": 0.35, "b": 0.1, "tau": 4.0}'),
    (NmParams(gamma=[0.4, 0.6], omega_vec=[1.0, 2.0], A=[[0.3, 0.1], [0.05, 0.25]],
              b_vec=[0.2, 0.1]),
     '{"gamma": [0.4, 0.6], "omega_vec": [1.0, 2.0], "A": [[0.3, 0.1], [0.05, 0.25]], '
     '"b_vec": [0.2, 0.1]}')]


@pytest.mark.parametrize("p,text", DICT_PINS, ids=["nbin", "ting", "nm-d2"])
def test_to_dict_pinned(p, text):
    assert json.dumps(p.to_dict()) == text
    assert json.dumps(params_to_dict(p)) == text


NM_SETS = {
    1: NmParams(gamma=[1.0], omega_vec=[1.0], A=[[0.4]], b_vec=[0.25]),
    2: NmParams(gamma=[0.4, 0.6], omega_vec=[1.0, 2.0], A=[[0.3, 0.1], [0.05, 0.25]],
                b_vec=[0.2, 0.1]),
    3: NmParams(gamma=[0.2, 0.5, 0.3], omega_vec=[0.5, 1.5, 3.0],
                A=[[0.2, 0.0, 0.05], [0.1, 0.3, 0.0], [0.0, 0.02, 0.15]], b_vec=[0.1, 0.0, 0.3]),
}
# NmParams.encode of each set, and decode(encode) as its as_array, as float hex, recorded
# before NM's theta order was read from as_array and from_array. d = 3 has zeros, which
# encode floors.
NM_CODE_PINS = {
    1: (['0x0.0p+0', '-0x1.d5240f0e0e077p-1', '-0x1.62e42fefa39efp+0'],
        ['0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.999999999999ap-2',
         '0x1.0000000000000p-2']),
    2: (['0x1.9f323ecbf984ap-2', '0x0.0p+0', '0x1.62e42fefa39efp-1',
         '-0x1.34378fcbda721p+0', '-0x1.26bb1bbb55515p+1', '-0x1.7f7427b73e391p+1',
         '-0x1.62e42fefa39efp+0', '-0x1.9c041f7ed8d33p+0', '-0x1.26bb1bbb55515p+1'],
        ['0x1.999999999999ap-2', '0x1.3333333333333p-1', '0x1.0000000000000p+0',
         '0x1.0000000000000p+1', '0x1.3333333333333p-2', '0x1.999999999999bp-4',
         '0x1.999999999999bp-5', '0x1.0000000000000p-2', '0x1.999999999999ap-3',
         '0x1.999999999999bp-4']),
    3: (['0x1.d5240f0e0e077p-1', '0x1.9f323ecbf9848p-2', '-0x1.62e42fefa39efp-1',
         '0x1.9f323ecbf984cp-2', '0x1.193ea7aad030bp+0', '-0x1.9c041f7ed8d33p+0',
         '-0x1.ba18a998fffa0p+4', '-0x1.7f7427b73e391p+1', '-0x1.26bb1bbb55515p+1',
         '-0x1.34378fcbda721p+0', '-0x1.ba18a998fffa0p+4', '-0x1.ba18a998fffa0p+4',
         '-0x1.f4bd2b7ac1bafp+1', '-0x1.e5a9a7c3ac418p+0', '-0x1.26bb1bbb55515p+1',
         '-0x1.ba18a998fffa0p+4', '-0x1.34378fcbda721p+0'],
        ['0x1.999999999999bp-3', '0x1.0000000000001p-1', '0x1.3333333333333p-2',
         '0x1.0000000000000p-1', '0x1.8000000000000p+0', '0x1.8000000000001p+1',
         '0x1.999999999999ap-3', '0x1.19799812dea16p-40', '0x1.999999999999bp-5',
         '0x1.999999999999bp-4', '0x1.3333333333333p-2', '0x1.19799812dea16p-40',
         '0x1.19799812dea16p-40', '0x1.47ae147ae147bp-6', '0x1.3333333333333p-3',
         '0x1.999999999999bp-4', '0x1.19799812dea16p-40', '0x1.3333333333333p-2']),
}


@pytest.mark.parametrize("d", sorted(NM_SETS))
def test_nm_encode_decode_pinned(d):
    z_hex, theta_hex = NM_CODE_PINS[d]
    z = NM_SETS[d].encode()
    assert [float(v).hex() for v in z] == z_hex
    assert [float(v).hex() for v in NmParams.decode(z, d).as_array()] == theta_hex
