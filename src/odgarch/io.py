"""The package's file formats: series CSV and sidecar, JSON records and experiment
configs, Monte Carlo CSVs.

This module alone knows their columns and keys. All files are UTF-8 with LF
line endings and locale-independent number formatting; writes go through a
temp file and an atomic rename. Every CSV is read by one checked reader.
"""

import csv
import json
import os
import tempfile

import numpy as np

from .montecarlo import ExperimentConfig
from .params import Series, model_class, params_to_dict

SUMMARY_COLUMNS = ("model", "n", "param", "mc_mean", "made", "n_converged")
REPLICATE_COLUMNS = ("model", "n", "j", "seed", "converged", "loglik_gap")  # then the parameters


def _count(v):
    return type(v) is int and v >= 0  # a JSON true or false is a bool, not an int


# Each sidecar key: what a series read without a sidecar, or with the key missing from
# it, takes; what a given value must be; and the test of it. n is only checked.
SIDECAR = {
    "model": (None, "a string or null", lambda v: v is None or isinstance(v, str)),
    "params": (None, "an object or null", lambda v: v is None or isinstance(v, dict)),
    "seed": (0, "a non-negative integer", _count),
    "n": (None, "a non-negative integer", _count),
    "burn_in": (0, "a non-negative integer", _count),
    "stable": (True, "true or false", lambda v: isinstance(v, bool)),
}


def _series_columns(d):
    """k, y, then one column per component of the state."""
    return ("k", "y", *(f"x_{l + 1}" for l in range(d)))


def _fnum(x):
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


def atomic_write_text(path, text):
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fnum(v) if not isinstance(v, str) else v for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _read_csv(path, kind, columns_of):
    """The header of a CSV and its cells, a (rows, columns) array of strings.

    Raises unless the header is columns_of(header) and there is at least one
    row, every row as long as the header.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))
        if header != columns_of(header):
            raise ValueError(f"{path}: not a {kind} CSV (bad header)")
        rows = list(reader)
    for i, row in enumerate(rows, 1):
        if len(row) != len(header):
            raise ValueError(f"{path}: truncated or malformed row {i}")
    if not rows:
        raise ValueError(f"{path}: no {kind} rows")
    return header, np.array(rows, dtype=str)


def _bad_cell(path, i, name, what, cell):
    return ValueError(f"{path}: row {i + 1}, column {name}: {what}: {str(cell)!r}")


# what _numbers can require of the numbers it reads: (test, what a cell that fails it is)
_FINITE = (np.isfinite, "not a finite number")
_POSITIVE_FINITE = (lambda v: (v > 0) & (v < np.inf), "not a positive finite number")


def _numbers(path, header, cells, cols, dtype=float, require=None):
    """The cells of the columns in slice cols as numbers of dtype, each passing the test
    of require, (test, what), if given.

    Raises naming the row and the column of the first cell that is not one.
    """
    block = cells[:, cols]
    try:
        numbers = block.astype(dtype)
    except ValueError:
        for (i, j), cell in np.ndenumerate(block):
            try:
                np.asarray(cell).astype(dtype)
            except ValueError:
                what = "not an integer" if dtype is int else "not a number"
                raise _bad_cell(path, i, header[cols][j], what, cell) from None
        raise
    if require is not None:
        test, what = require
        bad = ~test(numbers)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise _bad_cell(path, i, header[cols][j], what, block[i, j])
    return numbers


def write_json(path, obj):
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_config(path):
    """The experiment config in the JSON file at path, its keys ``ExperimentConfig``'s;
    every error it raises starts with path."""
    with open(path, encoding="utf-8") as fh:
        try:
            return ExperimentConfig.from_dict(json.load(fh))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: bad experiment config: {exc}") from None
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def meta_path(series_path):
    base, _ = os.path.splitext(series_path)
    return base + ".meta.json"


def write_series(path, series):
    # one column per state component, for a scalar or a vector state alike
    xs = np.empty((series.n, 0)) if series.x_trace is None else series.x_trace.reshape(series.n, -1)
    rows = [[k + 1, series.y[k], *xs[k]] for k in range(series.n)]
    write_csv(path, _series_columns(xs.shape[1]), rows)
    params = params_to_dict(series.params) if series.params is not None else None
    write_json(meta_path(path), dict(zip(SIDECAR, (series.model_tag, params, series.seed,
                                                   series.n, series.burn_in, series.stable))))


def _read_sidecar(path, n):
    """The sidecar of the series at path, of n rows, checked, with its params read."""
    meta = {key: default for key, (default, _, _) in SIDECAR.items()}
    side = meta_path(path)
    if not os.path.exists(side):
        return meta
    with open(side, encoding="utf-8") as fh:
        try:
            given = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{side}: not JSON: {exc}") from None
    if not isinstance(given, dict):
        raise ValueError(f"{side}: not a JSON object")
    for key, value in given.items():
        if key not in SIDECAR:
            raise ValueError(f"{side}: unknown key {key!r}")
        _, what, ok = SIDECAR[key]
        if not ok(value):
            raise ValueError(f"{side}: {key} must be {what}, got {value!r}")
    if given.get("n", n) != n:
        raise ValueError(f"{side}: n is {given['n']}, but {path} has {n} rows")
    meta.update(given)
    try:
        meta["params"] = (model_class(meta["model"]).from_dict(meta["params"])
                          if meta["params"] else None)
    except ValueError as exc:
        raise ValueError(f"{side}: params: {exc}") from None
    return meta


def read_series(path, model_tag=None):
    header, cells = _read_csv(path, "series", lambda h: _series_columns(len(h) - 2))
    y = _numbers(path, header, cells, slice(1, 2))[:, 0]
    xs = _numbers(path, header, cells, slice(2, None), require=_POSITIVE_FINITE)  # states
    meta = _read_sidecar(path, len(y))
    tag = model_tag or meta["model"]
    if tag is None:
        side = meta_path(path)
        where = f"{side} has no model" if os.path.exists(side) else "no metadata sidecar found"
        raise ValueError(f"model tag not given and {where}")
    try:
        return Series(y=y, model_tag=tag, seed=meta["seed"], x_trace=xs if xs.shape[1] else None,
                      stable=meta["stable"], burn_in=meta["burn_in"], params=meta["params"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_mc_outputs(summary_path, replicates_path, summary):
    s = summary
    write_csv(summary_path, SUMMARY_COLUMNS,
              [(s.theta_star.tag, n, name, s.mc_mean[n][i], s.made_[n][i], s.n_converged[n])
               for n in s.sample_sizes for i, name in enumerate(s.param_names)])
    write_csv(replicates_path, (*REPLICATE_COLUMNS, *s.param_names),
              [(s.theta_star.tag, n, j, s.seeds[n][j], s.converged[n][j], s.gaps[n][j],
                *s.estimates[n][j])
               for n in s.sample_sizes for j in range(len(s.gaps[n]))])


def read_replicates(path):
    """replicates.csv as {'model', 'param_names', 'n', 'converged', 'gap', 'estimates'}."""
    lead = len(REPLICATE_COLUMNS)
    header, cells = _read_csv(path, "replicates",
                              lambda h: (*REPLICATE_COLUMNS, *h[lead:]))
    model = cells[:, 0]
    bad = np.flatnonzero(model != model[0])
    if bad.size:
        raise _bad_cell(path, bad[0], "model", f"not row 1's model {str(model[0])!r}",
                        model[bad[0]])
    converged = cells[:, 4]
    bad = np.flatnonzero((converged != "true") & (converged != "false"))
    if bad.size:
        raise _bad_cell(path, bad[0], "converged", "not true or false", converged[bad[0]])
    return {
        "model": str(model[0]),
        "param_names": list(header[lead:]),
        "n": _numbers(path, header, cells, slice(1, 2), int)[:, 0],
        "converged": converged == "true",
        "gap": _numbers(path, header, cells, slice(5, 6), require=_FINITE)[:, 0],
        "estimates": _numbers(path, header, cells, slice(lead, None), require=_FINITE),
    }
