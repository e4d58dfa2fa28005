"""Golden outputs: the sha256 of every file that the README and CI workflows write.

The workflows run through ``cli.main`` and their files are compared with
``tests/golden/manifest.json``. A change that moves an output bit fails here and
names the files that moved. A change that moves numbers on purpose rewrites the
manifest with ``PYTHONPATH=src python tests/golden/regen.py``, which prints each file
that moved, appeared or vanished with its old and new digest, and explains each of them.
"""

import hashlib
import json
import pathlib
import platform

import numpy as np
import scipy

from odgarch import cli

MANIFEST = pathlib.Path(__file__).parent / "golden" / "manifest.json"

NBIN = ["--model", "nbin", "--omega", "3", "--a", ".2", "--b", ".2", "--r", "2"]
NM1 = ["--model", "nm", "--gamma", "1", "--omega", "1", "--A", ".4", "--bvec", ".25"]
NM2 = ["--model", "nm", "--gamma", ".4,.6", "--omega", "1,2", "--A", ".3,.1;.05,.25",
       "--bvec", ".2,.1"]
# its verify grid has 7 columns, in the prime bases up to 17
NM3 = ["--model", "nm", "--gamma", ".3,.3,.4", "--omega", "1,2,3",
       "--A", ".3,.05,0;.05,.25,.05;0,.05,.2", "--bvec", ".1,.1,.1"]
TING = ["--model", "ting", "--omega", "3", "--a", ".35", "--b", ".1", "--tau", "4"]
# CI's Monte Carlo study
EXPERIMENT = {"model": "nbin", "theta_star": {"omega": 3.0, "a": 0.2, "b": 0.2, "r": 2.0},
              "sample_sizes": [64, 128], "m": 2, "base_seed": 11}

# Each an argv of cli.main, run in order in one directory, at the README's n
WORKFLOWS = [
    ["simulate", *NBIN, "--n", "1024", "--seed", "42", "--out", "nbin.csv"],
    ["simulate", *NM1, "--n", "1024", "--seed", "42", "--out", "nm1.csv"],
    ["simulate", *NM2, "--n", "1024", "--seed", "42", "--out", "nm2.csv"],
    ["simulate", *TING, "--n", "1024", "--seed", "42", "--out", "ting.csv"],
    ["fit", "--series", "nbin.csv", "--out", "nbin_fit.json"],
    ["fit", "--series", "nbin.csv", "--x1", "7.5", "--out", "nbin_fit_x1.json"],
    ["fit", "--series", "nm1.csv", "--out", "nm1_fit.json"],
    ["verify", *NBIN, "--out", "nbin_report.json"],
    ["verify", *NM2, "--out", "nm2_report.json"],
    ["verify", *NM3, "--out", "nm3_report.json"],
    ["verify", *TING, "--out", "ting_report.json"],
    ["mc", "--config", "experiment.json", "--out-dir", "results", "--jobs", "1"],
    ["plot", "--replicates", "results/replicates.csv", "--config", "experiment.json",
     "--out-dir", "figures"],
]


def environment():
    """The versions the manifest's bits were written with."""
    blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}"}


def run_workflows():
    """Run WORKFLOWS in the working directory; the sha256 of each file they write."""
    pathlib.Path("experiment.json").write_text(json.dumps(EXPERIMENT))
    for argv in WORKFLOWS:
        assert cli.main(argv) == 0, argv
    return {p.as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(pathlib.Path().rglob("*"))
            if p.is_file() and p.name != "experiment.json"}


def moved(want, got):
    """The files whose digest differs between two {file: sha256} maps, or that one lacks."""
    return sorted(p for p in want.keys() | got.keys() if want.get(p) != got.get(p))


def test_golden_outputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = run_workflows()
    manifest = json.loads(MANIFEST.read_text())
    changed = moved(manifest["files"], got)
    assert not changed, (f"outputs moved: {changed}; manifest written with "
                         f"{manifest['environment']}, this run {environment()}")
