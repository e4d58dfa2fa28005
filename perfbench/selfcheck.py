#!/usr/bin/env python3
"""Self-check of the benchmark: every workload at tiny size on two seeds.

    python3 perfbench/selfcheck.py

Run from the root of the checkout; it takes a few minutes. It checks that

- every run exits 0 with a correct result and a JSON line that carries
  every metric BENCHMARK.json names, with its unit;
- the correctness oracle ran and found no mismatch;
- traced call counts repeat exactly for a seed, kernels are never called
  on verify_sweep and numeric gradients never on mc_nbin or fit_long;
- a kernel made wrong by one part in 1e8 makes the run fail, and so does
  a verifier check that fails on a stable set;
- a directory holding only BENCHMARK.json and this directory fails fast,
  without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

SEEDS = (3, 4)
COUNT_UNITS = {"count", "bytes"}


def bench(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(os.path.basename(HERE), "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    res = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    return res


def result_of(res, what):
    if res.returncode != 0:
        raise AssertionError(f"{what}: exit {res.returncode}\n{res.stdout[-3000:]}{res.stderr[-3000:]}")
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, what
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1, what
    oracle = [line for line in res.stdout.splitlines() if line.startswith("oracle: ")]
    assert oracle and " 0 mismatches" in oracle[0] and not oracle[0].startswith("oracle: 0 "), \
        f"{what}: oracle did not run cleanly: {oracle}"
    return out


def check_metrics(out, specs, what):
    got = out["metrics"]
    assert set(got) == {m["name"] for m in specs}, f"{what}: metric names differ from BENCHMARK.json"
    for m in specs:
        assert got[m["name"]]["unit"] == m["unit"], f"{what}: unit of {m['name']}"
        value = got[m["name"]]["value"]
        assert isinstance(value, (int, float)) and value == value, f"{what}: {m['name']}={value}"


def patched_run(patch, workload, what):
    """Run a tiny workload with the package patched by `patch`; it must fail."""
    code = (f"import sys\nsys.path[:0] = [{os.path.join(ROOT, 'src')!r}, {HERE!r}]\n"
            + patch + "import run\n"
            f"sys.exit(run.main(['--workload', {workload!r}, '--seed', '3', '--seconds', '1',"
            " '--scale', 'tiny']))\n")
    res = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                         text=True, timeout=300)
    assert res.returncode == 1, f"{what} was not caught:\n{res.stdout[-2000:]}{res.stderr[-2000:]}"
    assert '"correct": false' in res.stdout.strip().splitlines()[-1], what


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOAD_NAMES)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)

    for workload in run.WORKLOAD_NAMES:
        for seed in SEEDS:
            out = result_of(bench(workload, seed, 0), f"{workload} seed {seed}")
            check_metrics(out, spec["end_to_end"], f"{workload} seed {seed}")
            assert all(out["metrics"][m["name"]]["value"] > 0 for m in spec["end_to_end"])
        traced = [result_of(bench(workload, SEEDS[0], 1), f"{workload} traced")
                  for _ in range(2)]
        for out in traced:
            check_metrics(out, spec["per_layer"], f"{workload} traced")
        counts = [{k: v["value"] for k, v in out["metrics"].items() if v["unit"] in COUNT_UNITS}
                  for out in traced]
        assert counts[0] == counts[1], f"{workload}: traced counts differ between runs"
        c = counts[0]
        if workload == "verify_sweep":
            assert c["kernels.calls"] == 0 and c["models.sample_emission.calls"] > 0
        else:
            assert c["kernels.calls"] > 0 and c["estimation.fits"] > 0
        if workload in ("mc_nbin", "fit_long"):
            assert c["likelihood.grad_numeric.calls"] == 0 and c["likelihood.grad.calls"] > 0
        if workload == "fit_fd":
            assert c["likelihood.grad_numeric.calls"] > 0
        print(f"ok {workload}: seeds {SEEDS}, traced counts repeat "
              f"(kernels.calls={c['kernels.calls']})", flush=True)

    # A kernel off by one part in 1e8 must fail the run.
    patched_run("import odgarch.kernels as k\n"
                "right = k.nbin_loglik\n"
                "k.nbin_loglik = lambda *a: right(*a) * (1.0 + 1e-8)\n",
                "mc_nbin", "a wrong kernel")
    print("ok a wrong kernel fails the run", flush=True)

    # A verifier check that fails on a stable set must fail the run.
    patched_run("import odgarch.verifier as v\n"
                "right = v.check_minorization\n"
                "def wrong(*a, **kw):\n"
                "    r = right(*a, **kw)\n"
                "    r.n_violations, r.passed = 1, False\n"
                "    return r\n"
                "v.check_minorization = wrong\n",
                "verify_sweep", "a failing verifier check")
    print("ok a failing verifier check fails the run", flush=True)

    # Without the package source the command fails fast and prints no result.
    bare = os.path.join(run.OUT, f"bare-{os.getpid()}")
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        res = bench(spec["workloads"][0]["name"], SEEDS[0], 0, cwd=bare)
        assert res.returncode != 0 and not res.stdout.strip(), "bare directory did not fail"
    finally:
        shutil.rmtree(bare)
    print("ok without the package source the command fails fast")
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
