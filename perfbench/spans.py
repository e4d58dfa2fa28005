"""Per-layer call tracing for odgarch, installed from outside the package.

The tracer replaces each public function of the odgarch layer modules with
a wrapper that records one span per call: name, start, end, parent span
and op id. A name bound elsewhere through ``from .x import y`` is replaced
in the importing module's namespace too, so every call site is seen. The
kernel implementation module is left alone: its functions call each other
directly, and only the calls that enter the kernel layer from outside are
spans. Spans are kept in flat arrays and written out when the run ends.
"""

import array
import os
import sys
import time
import types

import numpy as np

LAYERS = ("kernels", "likelihood", "estimation", "reparam", "params", "models",
          "montecarlo", "verifier", "io", "svgplot", "cli")

# Class methods traced in addition to module-level functions.
METHODS = {"reparam": {"FeasibleMap": ("encode", "decode", "chain_rule")}}

# Kernels whose first argument is the observation array; the rest take one
# observation per call.
ARRAY_KERNELS = {"affine_filter", "nbin_filter", "nbin_loglik", "nbin_loglik_grad",
                 "ting_loglik", "nm_filter", "nm_loglik"}

SETUP_OP = -1     # op id of calls made during set-up
BETWEEN_OPS = -2  # op id while an op's output is checked: calls are not recorded


def _layer_of(module_name):
    parts = module_name.split(".")
    if parts[0] == "odgarch" and len(parts) > 1 and parts[1] in LAYERS:
        return parts[1]
    return None


class Tracer:
    """Span store plus the wrappers that fill it; one per traced run."""

    BETWEEN_OPS = BETWEEN_OPS

    def __init__(self):
        self.names = []
        self.layer_of_name = []
        self.name = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.top = array.array("b")      # 1: no enclosing span of the same layer
        self.failed = array.array("b")
        self.extra = array.array("d")    # obs, steps, bytes or samples, by span name
        self.extra2 = array.array("d")   # violations for verifier checks
        self.fits = []                   # (op, n_inner, n_outer, converged)
        self.op_id = SETUP_OP
        self._stack = []
        self._depth = {layer: 0 for layer in LAYERS}
        self._restore = []

    # -- installation -------------------------------------------------

    def install(self):
        """Wrap every public odgarch function in every namespace that binds it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "odgarch" or name.startswith("odgarch."))
                   and name != "odgarch.kernels._impl" and m is not None]
        wrappers = {}
        for mod in modules:
            layer = _layer_of(mod.__name__)
            if layer is None:
                continue
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and _layer_of(obj.__module__) == layer and obj not in wrappers):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{obj.__name__}", layer)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for layer, classes in METHODS.items():
            mod = sys.modules[f"odgarch.{layer}"]
            for cls_name, meths in classes.items():
                cls = getattr(mod, cls_name)
                for meth in meths:
                    fn = cls.__dict__[meth]
                    self._restore.append((cls, meth, fn))
                    setattr(cls, meth, self._wrap(fn, f"{layer}.{meth}", layer))

    def uninstall(self):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def _name_id(self, span_name, layer):
        self.names.append(span_name)
        self.layer_of_name.append(LAYERS.index(layer))
        return len(self.names) - 1

    def _wrap(self, fn, span_name, layer):
        nid = self._name_id(span_name, layer)
        payload = _payload_fn(span_name)
        tr = self
        stack = self._stack
        depth = self._depth
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if tr.op_id == BETWEEN_OPS:
                return fn(*args, **kwargs)
            idx = len(tr.start)
            tr.name.append(nid)
            tr.parent.append(stack[-1] if stack else -1)
            tr.op.append(tr.op_id)
            tr.top.append(depth[layer] == 0)
            tr.failed.append(0)
            tr.extra.append(0.0)
            tr.extra2.append(0.0)
            tr.start.append(0.0)
            tr.end.append(0.0)
            stack.append(idx)
            depth[layer] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tr.failed[idx] = 1
                raise
            finally:
                t1 = clock()
                depth[layer] -= 1
                stack.pop()
                tr.start[idx] = t0
                tr.end[idx] = t1
            if payload is not None:
                payload(tr, idx, args, kwargs, result)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    # -- output -------------------------------------------------------

    def arrays(self):
        return {
            "names": np.array(self.names),
            "layers": np.array(LAYERS),
            "layer_of_name": np.array(self.layer_of_name, dtype=np.int32),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "top": np.frombuffer(self.top, dtype=np.int8),
            "failed": np.frombuffer(self.failed, dtype=np.int8),
            "extra": np.frombuffer(self.extra, dtype=np.float64),
            "extra2": np.frombuffer(self.extra2, dtype=np.float64),
        }

    def write(self, path):
        np.savez_compressed(path, **self.arrays())


def _payload_fn(span_name):
    """Per-call quantity recorded beside the span, or None."""
    layer, func = span_name.split(".", 1)
    if layer == "kernels":
        if func in ARRAY_KERNELS:
            def obs(tr, idx, args, kwargs, result):
                tr.extra[idx] = len(args[0])
        else:
            def obs(tr, idx, args, kwargs, result):
                tr.extra[idx] = 1.0
        return obs
    if span_name == "models.simulate":
        def steps(tr, idx, args, kwargs, result):
            tr.extra[idx] = result.n + result.burn_in
        return steps
    if span_name == "io.atomic_write_text":
        def written(tr, idx, args, kwargs, result):
            text = args[1] if len(args) > 1 else kwargs["text"]
            tr.extra[idx] = len(text.encode("utf-8"))
        return written
    if layer == "io" and func.startswith("read_"):
        def read(tr, idx, args, kwargs, result):
            path = args[0] if args else kwargs["path"]
            tr.extra[idx] = os.path.getsize(path)
        return read
    if layer == "verifier" and func.startswith("check_"):
        def record(tr, idx, args, kwargs, result):
            tr.extra[idx] = result.n_samples
            tr.extra2[idx] = result.n_violations
        return record
    if span_name == "estimation.mle_fit":
        def fit(tr, idx, args, kwargs, result):
            tr.fits.append((tr.op[idx], result.n_inner, result.n_outer, result.converged))
        return fit
    return None


def _durations(a):
    """(duration, self time) of every span; self time excludes child spans."""
    dur = a["end"] - a["start"]
    parent = a["parent"]
    child = np.zeros(dur.size)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur, dur - child


def _windows(a, count_ops):
    """(timed, counted) span masks: timed ops, and set-up plus the counted ops."""
    timed = a["op"] >= 0
    return timed, (a["op"] == SETUP_OP) | (timed & (a["op"] < count_ops))


def layer_metrics(a, fits, count_ops, timed_s):
    """Per-layer metrics from the span arrays.

    Counts cover set-up and ops 0..count_ops-1, so they repeat exactly for a
    fixed seed. Times, and the kernel rates, cover every timed op; ``*.pct``
    is a share of the summed op latency ``timed_s``. A layer's time counts
    only its outermost spans, so a nested call into the same layer is not
    counted twice.
    """
    names = list(a["names"])
    nid = {n: i for i, n in enumerate(names)}
    name = a["name"]
    parent = a["parent"]
    has_parent = parent >= 0
    layer = a["layer_of_name"][name] if name.size else np.zeros(0, dtype=np.int32)
    dur, self_t = _durations(a)
    timed, counted = _windows(a, count_ops)
    top = a["top"] == 1

    def ids(*span_names):
        return np.isin(name, [nid[n] for n in span_names if n in nid])

    def calls(*span_names):
        return int(np.sum(ids(*span_names) & counted))

    def layer_s(layer_name, mask=timed):
        return float(dur[(layer == LAYERS.index(layer_name)) & top & mask].sum())

    def span_s(*span_names):
        return float(dur[ids(*span_names) & timed].sum())

    def pct(seconds):
        return 100.0 * seconds / timed_s

    in_layer = {l: layer == LAYERS.index(l) for l in LAYERS}
    kernel_calls = in_layer["kernels"] & top
    kern_s = layer_s("kernels")
    kern_obs_timed = float(a["extra"][kernel_calls & timed].sum())
    ll_calls = calls("likelihood.loglik")
    ll_failed = int(np.sum(ids("likelihood.loglik") & counted & (a["failed"] == 1)))
    fit_rows = [f for f in fits if f[0] < count_ops]
    n_fits = len(fit_rows)
    checks = ("contraction", "drift", "minorization", "lipschitz_logg")
    check_mask = ids(*(f"verifier.check_{c}" for c in checks)) & counted
    # init_generic calls cls_init_nbin; count each initialisation once.
    init_generic = ids("estimation.init_generic")
    cls_outer = ids("estimation.cls_init_nbin") & ~(has_parent & init_generic[np.maximum(parent, 0)])

    m = {
        "kernels.calls": int(np.sum(kernel_calls & counted)),
        "kernels.obs": float(a["extra"][kernel_calls & counted].sum()),
        "kernels.s": kern_s,
        "kernels.ns_per_obs": 1e9 * kern_s / kern_obs_timed if kern_obs_timed else 0.0,
        "kernels.obs_per_us": 1e-6 * kern_obs_timed / kern_s if kern_s else 0.0,
        "likelihood.loglik.calls": ll_calls,
        "likelihood.grad.calls": calls("likelihood.grad_loglik_nbin"),
        "likelihood.grad_numeric.calls": calls("likelihood.grad_loglik_numeric"),
        "likelihood.loglik_per_fit": ll_calls / n_fits if n_fits else 0.0,
        "likelihood.loglik.fail_frac": ll_failed / ll_calls if ll_calls else 0.0,
        "likelihood.s": layer_s("likelihood"),
        "estimation.fits": n_fits,
        "estimation.nonconverged_frac": (sum(not f[3] for f in fit_rows) / n_fits
                                         if n_fits else 0.0),
        "estimation.mle_fit.self_s": float(self_t[ids("estimation.mle_fit") & timed].sum()),
        "estimation.init.s": float(dur[(init_generic | cls_outer) & timed].sum()),
        "estimation.n_inner_mean": (sum(f[1] for f in fit_rows) / n_fits if n_fits else 0.0),
        "estimation.n_outer_mean": (sum(f[2] for f in fit_rows) / n_fits if n_fits else 0.0),
        "reparam.decode.calls": calls("reparam.decode"),
        "params.spectral_radius.calls": calls("params.spectral_radius"),
        "params.spectral_radius.s": span_s("params.spectral_radius"),
        "models.simulate.calls": calls("models.simulate"),
        "models.simulate.s": span_s("models.simulate"),
        "models.simulate.steps": float(a["extra"][ids("models.simulate") & counted].sum()),
        "models.sample_emission.calls": calls("models.sample_emission"),
        "models.psi_step.calls": calls("models.psi_step"),
        "verifier.samples": float(a["extra"][check_mask].sum()),
        "verifier.violations": float(a["extra2"][check_mask].sum()),
        "montecarlo.loglik_gap.s": span_s("montecarlo.loglik_gap"),
        "montecarlo.self_s": float(self_t[in_layer["montecarlo"] & timed].sum()),
        "io.s": layer_s("io"),
        "io.bytes": float(a["extra"][ids("io.atomic_write_text", "io.read_replicates",
                                         "io.read_series") & counted].sum()),
        "svgplot.s": layer_s("svgplot"),
        "cli.s": layer_s("cli"),
    }
    for c in checks:
        m[f"verifier.{c}.s"] = span_s(f"verifier.check_{c}")
    # Shares of the timed op latency: the form the JSON result carries, so
    # that a layer a workload never calls reads as a 0 % share, not a time.
    for key in [k for k in m if k.endswith((".s", "_s"))]:
        m[key[:-1] + "pct"] = pct(m[key])
    return m


def per_layer_table(a, count_ops):
    """Calls (counted window), inclusive and self seconds (timed ops) per span name."""
    name = a["name"]
    dur, self_t = _durations(a)
    timed, counted = _windows(a, count_ops)
    rows = []
    for i, span_name in enumerate(a["names"]):
        mask = name == i
        n_calls = int(np.sum(mask & counted))
        if n_calls == 0 and not np.any(mask & timed):
            continue
        rows.append((str(span_name), n_calls, float(dur[mask & timed].sum()),
                     float(self_t[mask & timed].sum())))
    return rows
