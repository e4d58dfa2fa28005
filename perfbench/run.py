#!/usr/bin/env python3
"""Layered benchmark for odgarch.

    python3 perfbench/run.py --workload mc_nbin --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. One run builds the workload's inputs from ``--seed``, runs one
warm-up op, then runs ops in a closed loop (one process, the next op starts
when the previous one ends) for about ``--seconds`` seconds, in whole rounds
of the workload's op mix. It checks every op's output, and compares the
package's log-likelihoods and NBIN gradients with plain reference loops
(``oracle.py``). It prints a report, then one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` every public
function of the package is wrapped (``spans.py``) and the metrics are
per-layer. The exit code is 1 when any output is wrong, 2 when the package
source is missing. See README.md in this directory for the workloads and
what each metric should move.
"""

import argparse
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

WORKLOAD_NAMES = ("mc_nbin", "fit_fd", "fit_long", "verify_sweep")
SETUP_SAMPLES = 3   # the run itself plus two fresh processes
TAIL_BEYOND = 10    # samples beyond the reported tail percentile
TAIL_MIN_OPS = 2 * TAIL_BEYOND  # fewer ops: the tail would sit below the median
MAX_PRINTED = 20    # error lines printed

# The machines this runs on are shared, and their speed drifts by up to half
# within a minute. So a fixed pure-Python probe runs before and after every
# timed stretch, and every PROBE_INTERVAL_S inside it, and each timing is
# scaled to the speed at which the probe takes REF_PROBE_S: about the fast
# state of a shared 2-core Xeon machine. Raw times are printed beside.
PROBE_ITERS = 10_000
PROBE_REPEATS = 3   # the fastest of a few short loops ignores a stray interrupt
PROBE_INTERVAL_S = 0.1
REF_PROBE_S = 0.65e-3

# Metrics in the JSON line, with their units. The report above it also
# prints op_tail_ms, error_frac, nonconverged_frac and loglik_gap_mean;
# they are left out of the JSON because they are 0 or undefined on some
# workloads or vary with the seed's data more than any bound allows.
END_TO_END = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}
PER_LAYER = {
    "traced.ops_per_s": "ops/s",
    "kernels.calls": "count", "kernels.obs": "count", "kernels.obs_per_us": "obs/us",
    "kernels.pct": "%",
    "likelihood.loglik.calls": "count", "likelihood.grad.calls": "count",
    "likelihood.grad_numeric.calls": "count", "likelihood.loglik_per_fit": "count",
    "likelihood.loglik.fail_frac": "ratio", "likelihood.pct": "%",
    "warnings.runtime": "count",
    "estimation.fits": "count", "estimation.nonconverged_frac": "ratio",
    "estimation.mle_fit.self_pct": "%", "estimation.init.pct": "%",
    "estimation.n_inner_mean": "count", "estimation.n_outer_mean": "count",
    "reparam.decode.calls": "count",
    "params.spectral_radius.calls": "count", "params.spectral_radius.pct": "%",
    "models.simulate.calls": "count", "models.simulate.pct": "%",
    "models.simulate.steps": "count",
    "models.sample_emission.calls": "count", "models.psi_step.calls": "count",
    "verifier.contraction.pct": "%", "verifier.drift.pct": "%",
    "verifier.minorization.pct": "%", "verifier.lipschitz_logg.pct": "%",
    "verifier.samples": "count", "verifier.violations": "count",
    "montecarlo.loglik_gap.pct": "%", "montecarlo.self_pct": "%",
    "io.pct": "%", "io.bytes": "bytes", "svgplot.pct": "%",
}
# Printed in the traced report, as seconds, beside the shares above.
LAYER_SECONDS = ("kernels.s", "kernels.ns_per_obs", "likelihood.s",
                 "estimation.mle_fit.self_s", "estimation.init.s",
                 "params.spectral_radius.s", "models.simulate.s",
                 "verifier.contraction.s", "verifier.drift.s", "verifier.minorization.s",
                 "verifier.lipschitz_logg.s", "montecarlo.loglik_gap.s",
                 "montecarlo.self_s", "io.s", "svgplot.s", "cli.s")


def parse_args(argv):
    ap = argparse.ArgumentParser(description="Layered benchmark for odgarch.")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="input sizes; tiny is for the benchmark's self-check")
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up in this process and print it (internal)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def last_level_cache_from_sysfs():
    """Size in bytes of the highest-level cache of cpu0, or None."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = None
    try:
        for entry in os.listdir(base):
            if not entry.startswith("index"):
                continue
            with open(os.path.join(base, entry, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
            scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
            size = int(size.rstrip("KMG")) * scale
            if best is None or level > best[0]:
                best = (level, size)
    except (OSError, ValueError):
        return None
    return best[1] if best else None


def environment(odgarch):
    """Versions, cores, cache and kernel backend of this run."""
    import importlib.util
    import platform

    import numpy
    import scipy

    llc = None
    try:
        llc = os.sysconf("SC_LEVEL3_CACHE_SIZE") or os.sysconf("SC_LEVEL2_CACHE_SIZE")
    except (ValueError, OSError):
        pass
    if not llc:
        llc = last_level_cache_from_sysfs()
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, env=dict(os.environ,
                                                 GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
        commit = res.stdout.strip() if res.returncode == 0 else None
    numba = importlib.util.find_spec("numba") is not None
    use_numba = bool(odgarch.kernels.USE_NUMBA)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "llc_bytes": llc,
        "numba_importable": numba,
        "kernels.USE_NUMBA": use_numba,
        "kernel_backend": "numba" if use_numba else "plain",
        "numba_speedup": None if numba else "not measured: numba is not importable",
        "git_commit": commit,
    }


def probe():
    """Seconds taken by a fixed pure-Python loop: the machine's current speed."""
    best = math.inf
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(PROBE_ITERS):
            acc += (i % 7) * 0.5
        best = min(best, time.perf_counter() - t0)
    return best


def slowdown(probes):
    """How much slower than the reference the machine ran, from probes taken
    around and inside a timed stretch."""
    return statistics.median(probes) / REF_PROBE_S


class InsideProbe:
    """Probes the machine's speed every PROBE_INTERVAL_S inside a timed stretch.

    The probe runs in a SIGALRM handler, between the bytecodes of the code
    being timed; the time it takes is added up in ``spent`` so that it can
    be taken out of the stretch's time. Probes around a stretch alone miss
    a slow spell inside it: on six runs of one seed of verify_sweep, whose
    ops last up to 4 s, they left a spread of 0.25 in ops_per_s, and these
    probes one of 0.08.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._busy = False
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        if self._busy:  # a signal that arrives during the probe is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - t0
        self._busy = False

    def start(self):
        self.samples, self.spent = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)


def setup_in_fresh_process(args):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--scale", args.scale, "--setup-only"]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if res.returncode != 0:
        raise RuntimeError(f"set-up process failed: {res.stderr.strip()[-2000:]}")
    out = json.loads(res.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["raw_s"]


def _import_package():
    sys.path.insert(0, SRC)
    import odgarch
    import workloads
    return odgarch, workloads


def tail(latencies):
    """(value, percentile, samples beyond) at the highest percentile with
    TAIL_BEYOND samples beyond it, or None with too few ops."""
    n = len(latencies)
    if n < TAIL_MIN_OPS:
        return None
    ordered = sorted(latencies)
    return ordered[n - TAIL_BEYOND - 1], math.floor(100.0 * (n - TAIL_BEYOND) / n), TAIL_BEYOND


def show(name, value, unit, note=""):
    print(f"  {name:<32} {value:>14.6g} {unit:<9} {note}".rstrip())


def missing(name, unit, why):
    print(f"  {name:<32} {'n/a':>14} {unit:<9} {why}")


class Loop:
    """What the timed loop measured, and the totals the report needs.

    Each op's output is checked, and dropped, as soon as the op ends, so
    the run keeps no more per op than its latency and probe time.
    """

    def __init__(self):
        self.latencies = []  # raw seconds, less the time of the probes inside
        self.slowdowns = []  # of each op, from the probes around and inside it
        self.probes = []     # probe seconds; probes[k] and probes[k + 1] bracket op k
        self.inside_probes = 0
        self.inside_s = 0.0  # time of the probes inside ops
        self.failed = 0
        self.errors = []     # the first MAX_PRINTED error lines
        self.flags = []      # every flag line
        self.flagged_ops = 0
        self.fits = 0
        self.nonconverged = 0
        self.gap_sum = 0.0
        self.gap_count = 0
        self.runtime_warnings = 0          # set-up and every op
        self.counted_runtime_warnings = 0  # set-up and the counted ops

    def add(self, outcome):
        if outcome.errors:
            self.failed += 1
            self.errors += outcome.errors[:MAX_PRINTED - len(self.errors)]
        if outcome.flags:
            self.flagged_ops += 1
            self.flags += outcome.flags
        self.fits += outcome.fits
        self.nonconverged += outcome.nonconverged
        self.gap_sum += math.fsum(outcome.gaps)
        self.gap_count += len(outcome.gaps)

    def scaled(self):
        return [lat / s for lat, s in zip(self.latencies, self.slowdowns)]


def runtime_warnings(caught):
    """Count the RuntimeWarnings recorded so far and forget every record."""
    n = sum(1 for w in caught if issubclass(w.category, RuntimeWarning))
    caught.clear()
    return n


def judge(wl, orc, k, result, outcome_cls):
    """Check one op's output, and compare it with the reference loops."""
    if isinstance(result, Exception):
        return outcome_cls([f"op {k} raised {type(result).__name__}: {result}"])
    before = len(orc.mismatches)
    try:
        outcome = wl.check(k, result)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            gap = wl.oracle(k, result, orc)
    except Exception as exc:  # an output too malformed to check is a wrong output
        return outcome_cls([f"op {k}: checking its output raised {type(exc).__name__}: {exc}"])
    if gap is not None:
        outcome.gaps.append(gap)
    outcome.errors += orc.mismatches[before:]
    return outcome


def closed_loop(wl, seconds, tracer, caught, orc, outcome_cls, inside):
    """Run ops in whole rounds of the workload's op mix, for about `seconds`.

    The loop stops at the round boundary nearest to `seconds`, taking the
    next round to last as long as the last one, and not before the counted
    ops are done. `caught` holds the warnings recorded since set-up began.
    Each op's RuntimeWarnings are counted and their records dropped right
    after it.
    """
    loop = Loop()
    loop.runtime_warnings = loop.counted_runtime_warnings = runtime_warnings(caught)
    loop.probes.append(probe())
    t_start = last_round_end = time.perf_counter()
    k = 0
    while True:
        if tracer:
            tracer.op_id = k
        inside.start()
        t0 = time.perf_counter()
        try:
            result = wl.op(k)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            result = exc
        inside.stop()
        t1 = time.perf_counter()
        loop.latencies.append(t1 - t0 - inside.spent)
        if tracer:
            tracer.op_id = tracer.BETWEEN_OPS
        loop.probes.append(probe())
        loop.slowdowns.append(slowdown(loop.probes[-2:] + inside.samples))
        loop.inside_probes += len(inside.samples)
        loop.inside_s += inside.spent
        n_warn = runtime_warnings(caught)
        loop.runtime_warnings += n_warn
        if k < wl.count_ops:
            loop.counted_runtime_warnings += n_warn
        loop.add(judge(wl, orc, k, result, outcome_cls))
        caught.clear()
        del result
        k += 1
        if wl.round_done(k):
            now = time.perf_counter()
            if k >= wl.count_ops and now - t_start + (now - last_round_end) / 2 >= seconds:
                return loop
            last_round_end = now


def report_end_to_end(args, loop, setup_samples, peak_rss_mb):
    n_ops = len(loop.latencies)
    busy_s = sum(loop.latencies)
    scaled = loop.scaled()
    e2e = {
        "setup_s": statistics.median(s for s, _ in setup_samples),
        "ops_per_s": n_ops / sum(scaled),
        "op_p50_ms": 1e3 * statistics.median(scaled),
        "peak_rss_mb": peak_rss_mb,
    }
    print("end-to-end:")
    show("setup_s", e2e["setup_s"], "s",
         "median of " + ", ".join(f"{s:.3f}" for s, _ in setup_samples)
         + "; raw " + ", ".join(f"{r:.3f}" for _, r in setup_samples))
    show("ops_per_s", e2e["ops_per_s"], "ops/s",
         f"{n_ops} ops; raw {n_ops / busy_s:.4g} ops/s in {busy_s:.2f} s")
    show("op_p50_ms", e2e["op_p50_ms"], "ms", f"raw {1e3 * statistics.median(loop.latencies):.4g} ms")
    t = tail(scaled)
    if t is None:
        missing("op_tail_ms", "ms", f"{n_ops} ops, needs {TAIL_MIN_OPS}")
    else:
        show("op_tail_ms", 1e3 * t[0], "ms", f"p{t[1]}, {t[2]} samples beyond, {n_ops} ops")
    show("error_frac", loop.failed / n_ops, "ratio", f"{loop.failed} of {n_ops} ops")
    if loop.fits:
        show("nonconverged_frac", loop.nonconverged / loop.fits, "ratio",
             f"{loop.nonconverged} of {loop.fits} fits")
    else:
        missing("nonconverged_frac", "ratio", "no fits")
    if loop.gap_count:
        show("loglik_gap_mean", loop.gap_sum / loop.gap_count, "nats/obs",
             f"{loop.gap_count} fits")
    else:
        missing("loglik_gap_mean", "nats/obs", "no fits")
    if args.workload == "verify_sweep":
        show("verifier.flagged_reports", loop.flagged_ops, "count",
             f"of {n_ops}; known false alarms, not counted as failed ops")
    show("peak_rss_mb", peak_rss_mb, "MB")
    show("warnings.runtime", loop.runtime_warnings, "count", f"over set-up and {n_ops} ops")
    return {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}


def report_per_layer(args, wl, loop, tracer):
    import spans
    n_ops = len(loop.latencies)
    busy_s = sum(loop.latencies) + loop.inside_s  # span times include the probes
    arrays = tracer.arrays()
    layer = spans.layer_metrics(arrays, tracer.fits, wl.count_ops, busy_s)
    layer["warnings.runtime"] = loop.counted_runtime_warnings
    layer["traced.ops_per_s"] = n_ops / sum(loop.scaled())
    print(f"per-layer: counts over set-up and ops 0..{wl.count_ops - 1}; "
          f"times and shares over all {n_ops} timed ops ({busy_s:.2f} s)")
    for name, unit in PER_LAYER.items():
        show(name, layer[name], unit)
    for name in LAYER_SECONDS:
        show(name, layer[name], "ns" if name.endswith("ns_per_obs") else "s")
    print("spans: name, calls (counted window), inclusive s, self s (timed ops)")
    for span_name, calls, incl, self_s in spans.per_layer_table(arrays, wl.count_ops):
        print(f"  {span_name:<40} {calls:>9} {incl:>11.4f} {self_s:>11.4f}")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{args.workload}.npz")
    tracer.write(path)
    print(f"spans written to {os.path.relpath(path, ROOT)} ({len(tracer.start)} spans)")
    return {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER.items()}


def run(args, workdir):
    setup_samples = []  # (scaled, raw) seconds
    if not args.trace:
        setup_samples = [setup_in_fresh_process(args) for _ in range(SETUP_SAMPLES - 1)]

    inside = InsideProbe()
    before = probe()
    inside.start()
    t_setup = time.perf_counter()
    odgarch, workloads = _import_package()
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        wl = workloads.WORKLOADS[args.workload](args.seed, args.scale, workdir)
        wl.op(0)  # warm-up
        inside.stop()
        raw_setup = time.perf_counter() - t_setup - inside.spent
        setup_probes = [before] + inside.samples
        import oracle
        orc = oracle.Oracle(odgarch)
        loop = closed_loop(wl, args.seconds, tracer, caught, orc, workloads.Outcome, inside)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_probes.append(loop.probes[0])
    setup_samples.append((raw_setup / slowdown(setup_probes), raw_setup))
    if tracer:
        tracer.uninstall()

    correct = loop.failed == 0 and orc.checks > 0
    print(f"odgarch benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}, scale {args.scale}")
    print("env " + json.dumps(environment(odgarch), sort_keys=True))
    for e in loop.errors:
        print(f"ERROR {e}")
    for f in loop.flags:
        print(f"FLAG {f}")
    print(f"oracle: {orc.checks} comparisons against reference loops, "
          f"{len(orc.mismatches)} mismatches")
    print(f"machine speed: probe median {1e3 * statistics.median(loop.probes):.3f} ms over "
          f"{len(loop.probes)} probes between ops, {loop.inside_probes} more inside them; "
          f"times below are scaled to a {1e3 * REF_PROBE_S:g} ms probe")
    if args.trace:
        metrics = report_per_layer(args, wl, loop, tracer)
    else:
        metrics = report_end_to_end(args, loop, setup_samples, peak_rss_mb)
    print(json.dumps({"correct": correct, "attempted": len(loop.latencies),
                      "failed": loop.failed, "metrics": metrics}))
    return 0 if correct else 1


def setup_only(args, workdir):
    inside = InsideProbe()
    before = probe()
    inside.start()
    t0 = time.perf_counter()
    _, workloads = _import_package()
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        wl = workloads.WORKLOADS[args.workload](args.seed, args.scale, workdir)
        wl.op(0)
    inside.stop()
    raw = time.perf_counter() - t0 - inside.spent
    print(json.dumps({"setup_s": raw / slowdown([before, probe()] + inside.samples),
                      "raw_s": raw}))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "odgarch", "__init__.py")):
        print(f"error: package source not found at {os.path.relpath(SRC, os.getcwd())}/odgarch; "
              "run from the root of an odgarch checkout", file=sys.stderr)
        return 2
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return (setup_only if args.setup_only else run)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
