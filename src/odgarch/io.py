"""CSV/JSON persistence for series, fits, traces and Monte Carlo outputs.

All files are UTF-8 with LF line endings and locale-independent number
formatting; writes go through a temp file and an atomic rename.
"""

import csv
import json
import os
import tempfile

import numpy as np

from .params import Series, params_from_dict, params_to_dict


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


def write_json(path, obj):
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def meta_path(series_path):
    base, _ = os.path.splitext(series_path)
    return base + ".meta.json"


def write_series(path, series):
    # one column per state component, for a scalar or a vector state alike
    xs = np.empty((series.n, 0)) if series.x_trace is None else series.x_trace.reshape(series.n, -1)
    header = ["k", "y"] + [f"x_{l + 1}" for l in range(xs.shape[1])]
    rows = [[k + 1, series.y[k], *xs[k]] for k in range(series.n)]
    write_csv(path, header, rows)
    meta = {
        "model": series.model_tag,
        "params": params_to_dict(series.params) if series.params is not None else None,
        "seed": series.seed,
        "n": series.n,
        "burn_in": series.burn_in,
        "stable": series.stable,
    }
    write_json(meta_path(path), meta)


def read_series(path, model_tag=None):
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "k" or "y" not in header:
            raise ValueError(f"{path}: not a series CSV (bad header)")
        y_idx = header.index("y")
        x_cols = [i for i, h in enumerate(header) if h.startswith("x_")]
        ys = []
        xs = []
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"{path}: truncated or malformed row {len(ys) + 1}")
            ys.append(float(row[y_idx]))
            if x_cols:
                xs.append([float(row[i]) for i in x_cols])
    if not ys:
        raise ValueError(f"{path}: empty series")

    meta = None
    mp = meta_path(path)
    if os.path.exists(mp):
        with open(mp, encoding="utf-8") as fh:
            meta = json.load(fh)
    tag = model_tag or (meta["model"] if meta else None)
    if tag is None:
        raise ValueError("model tag not given and no metadata sidecar found")
    params = None
    if meta and meta.get("params"):
        params = params_from_dict(meta["model"], meta["params"])
    x_trace = None
    if xs:
        x_trace = np.asarray(xs)
        if x_trace.shape[1] == 1:
            x_trace = x_trace[:, 0]
    return Series(y=np.asarray(ys), model_tag=tag, seed=meta["seed"] if meta else 0,
                  x_trace=x_trace, stable=meta["stable"] if meta else True,
                  burn_in=meta["burn_in"] if meta else 0, params=params)


def write_fit_result(path, fit):
    write_json(path, fit.to_dict())


def write_mc_outputs(summary_path, replicates_path, summary):
    write_csv(summary_path,
              ["model", "n", "param", "mc_mean", "made", "n_converged"],
              summary.summary_rows())
    write_csv(replicates_path,
              ["model", "n", "j", "seed", "converged", "loglik_gap",
               *summary.param_names],
              summary.replicate_rows())


def read_replicates(path):
    """Read replicates.csv into {'model', 'n', 'gap', 'converged', params: {...}}."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        required = ["model", "n", "j", "seed", "converged", "loglik_gap"]
        if not header or header[:6] != required:
            raise ValueError(f"{path}: not a replicates CSV (bad header)")
        param_names = header[6:]
        rows = list(reader)
    if not rows:
        raise ValueError(f"{path}: no replicate rows")
    out = {
        "model": rows[0][0],
        "param_names": param_names,
        "n": np.array([int(r[1]) for r in rows]),
        "converged": np.array([r[4] == "true" for r in rows]),
        "gap": np.array([float(r[5]) for r in rows]),
        "estimates": np.array([[float(v) for v in r[6:]] for r in rows]),
    }
    return out
