"""One pass of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py REQUEST.json RESULT.json

The request names the checkout root, the workload, the seed, the mode and
a scratch directory.  Modes:

* ``setup``: import rotorsusy and make the warm-up call, nothing else;
* ``plain``: set up, run the op list untraced, then check every output;
* ``trace``: as ``plain`` with the outside tracer installed;
* ``memory``: as ``trace`` with ``tracemalloc`` running as well;
* ``defects``: as ``plain``, over the workload's known-defect ops.

Only the op list is timed.  ``peak_rss_mib`` is read before the checks run,
so it covers set-up and ops but not the checks.
"""

import json
import os
import sys
import time

SUITES = ("harmonics", "operators", "susy", "eigenbases", "polynomials", "overlaps")


def _set_up(root):
    """Import rotorsusy from the checkout's src/ and make the warm-up call.

    Returns the package and the seconds both took.
    """
    src = os.path.realpath(os.path.join(root, "src"))
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import rotorsusy

    rotorsusy.susy_operators(rotorsusy.HarmonicSpace(2))
    setup_s = time.perf_counter() - t0
    if not os.path.realpath(rotorsusy.__file__).startswith(src + os.sep):
        raise SystemExit(f"rotorsusy was imported from {rotorsusy.__file__}, not from {src}")
    return rotorsusy, setup_s


def _library_env():
    """numpy and BLAS versions and the BLAS thread count in effect."""
    import ctypes
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_effective": threads,
    }


def _run_ops(rs, ops, out_dir, tracer):
    """Run the op list back to back; return (outcomes, wall seconds, per-op seconds)."""
    import contextlib
    import io

    cli = sys.modules["rotorsusy.cli"]
    outcomes, elapsed = [], []
    t_pass = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        err = io.StringIO()
        t0 = time.perf_counter()
        try:
            if op.argv is not None:
                path = os.path.join(out_dir, f"op{i}.json")
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = cli.main(op.argv + ["--output", path])
                outcome = (code, path, err.getvalue())
            else:
                outcome = (0, op.call(rs), "")
        except Exception as exc:  # noqa: BLE001 - a raising op is a counted failure
            outcome = (None, None, f"{type(exc).__name__}: {exc}")
        elapsed.append(time.perf_counter() - t0)
        outcomes.append(outcome)
    return outcomes, time.perf_counter() - t_pass, elapsed


def _check(ops, outcomes):
    """Per-op verdicts: ok, and for a failure its reason and whether the op signalled it."""
    verdicts, output_bytes = [], 0
    for op, (code, out, err) in zip(ops, outcomes):
        if code is None:
            verdicts.append({"op": op.label, "part": op.part, "ok": False, "signalled": True,
                             "reason": f"raised {err}"})
            continue
        if code != 0:
            first = err.strip().splitlines()[0][:200] if err.strip() else "no message"
            verdicts.append({"op": op.label, "part": op.part, "ok": False, "signalled": True,
                             "reason": f"exit {code}: {first}"})
            continue
        try:
            if op.argv is not None:
                output_bytes += os.path.getsize(out)
                with open(out, encoding="utf-8") as fh:
                    out = json.load(fh)
            reason = op.check(out)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            reason = f"output unreadable: {type(exc).__name__}: {exc}"
        verdicts.append({"op": op.label, "part": op.part, "ok": reason is None,
                         "signalled": False, "reason": reason})
    return verdicts, output_bytes


class _Counters:
    """Work counts taken from the return values of two library functions."""

    def __init__(self):
        self.values_bytes = 0
        self.suite_s = dict.fromkeys(SUITES, 0.0)
        self.min_headroom = None

    def harmonic_values(self, args, kwargs, result):
        self.values_bytes += result.nbytes

    def run_verification(self, args, kwargs, report):
        from math import isfinite, log10

        for c in report.checks:
            suite = c.name.split(".", 1)[0]
            self.suite_s[suite] = self.suite_s.get(suite, 0.0) + c.elapsed
            if c.residual > 0 and c.tolerance > 0 and isfinite(c.residual):
                # a lower-bound check passes with residual above its tolerance,
                # so headroom is the distance in digits, negative on failure
                h = abs(log10(c.tolerance / c.residual)) * (1 if c.passed else -1)
                self.min_headroom = h if self.min_headroom is None else min(self.min_headroom, h)


def _slope(points):
    """Least-squares slope of log(t) against log(size) over points with t > 0."""
    import numpy as np

    pts = [(s, t) for s, t in points if t > 0]
    if len({s for s, _ in pts}) < 2:
        return 0.0
    x = np.log([s for s, _ in pts])
    y = np.log([t for _, t in pts])
    return float(np.polyfit(x, y, 1)[0])


def _summarize(tracer, counters, ops, ladder, wall_s, output_bytes):
    """Per-layer metrics of one traced pass."""
    from collections import defaultdict

    from tracer import END, FAILED, LAYER, LAYERS, NAME, OP, PEAK, SIZE, START, self_times

    spans = tracer.spans
    selfs = self_times(spans)
    m = {}
    for layer in LAYERS:
        m.update({f"{layer}.self_s": 0.0, f"{layer}.calls": 0,
                  f"{layer}.failed_calls": 0, f"{layer}.peak_mib": 0.0})
    calls = defaultdict(int)
    sizes = defaultdict(set)
    per_size = defaultdict(float)  # (layer, ladder size) -> self seconds
    flops = 0
    for rec, s in zip(spans, selfs):
        layer, name = rec[LAYER], rec[NAME]
        m[f"{layer}.self_s"] += s
        m[f"{layer}.calls"] += 1
        m[f"{layer}.failed_calls"] += int(rec[FAILED])
        m[f"{layer}.peak_mib"] = max(m[f"{layer}.peak_mib"], rec[PEAK] / 2**20)
        calls[name] += 1
        sizes[name].add(rec[SIZE])
        if name == "operators.Operator.__matmul__":
            flops += 8 * (2 * rec[SIZE] + 1) ** 3
        if rec[OP] is not None and ops[rec[OP]].kind in ladder:
            per_size[(layer, ops[rec[OP]].size)] += s

    def per_degree(name):
        return calls[name] / len(sizes[name]) if calls[name] else 0.0

    for layer in LAYERS:
        m[f"{layer}.exponent"] = _slope(
            [(size, t) for (lay, size), t in per_size.items() if lay == layer])
    m["harmonics.values_mib"] = counters.values_bytes / 2**20
    m["harmonics.rebuilds_per_degree"] = per_degree("harmonics.harmonic_values")
    m["operators.matmuls"] = calls["operators.Operator.__matmul__"]
    m["operators.matmul_gflop"] = flops / 1e9
    m["susy.builds_per_degree"] = per_degree("susy.symmetry_generators")
    m["eigenbases.f_basis_per_degree"] = per_degree("eigenbases.f_basis")
    m["eigenbases.oracle_calls"] = calls["eigenbases.joint_diagonalize"]
    m["antikrawtchouk.eval_monic_calls"] = calls["antikrawtchouk.eval_monic"]
    m["cli.output_mib"] = output_bytes / 2**20
    for suite, secs in counters.suite_s.items():
        m[f"verification.{suite}_s"] = secs
    m["verification.min_headroom_digits"] = counters.min_headroom or 0.0
    m["trace.wall_s"] = wall_s
    m["trace.attributed_frac"] = sum(selfs) / wall_s
    return m


def main(request_path, result_path):
    with open(request_path, encoding="utf-8") as fh:
        req = json.load(fh)
    rs, setup_s = _set_up(req["root"])
    result = {"setup_s": setup_s}
    if req["mode"] == "setup":
        if req.get("env"):
            result["env"] = _library_env()
        _write(result_path, result)
        return

    import resource
    import tracemalloc

    import rotorsusy.cli  # noqa: F401 - the CLI module must exist before the tracer wraps it
    import workloads
    from tracer import Tracer

    pick = workloads.known_defects if req["mode"] == "defects" else workloads.build
    ops = pick(req["workload"], req["seed"])
    tracer = counters = None
    if req["mode"] in ("trace", "memory"):
        tracer, counters = Tracer(memory=req["mode"] == "memory"), _Counters()
        tracer.hooks["harmonics.harmonic_values"] = counters.harmonic_values
        tracer.hooks["verification.run_verification"] = counters.run_verification
        tracer.install()
        if req["mode"] == "memory":
            tracemalloc.start()
    outcomes, wall_s, elapsed = _run_ops(rs, ops, req["out_dir"], tracer)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracemalloc.stop()
        tracer.uninstall()
    verdicts, output_bytes = _check(ops, outcomes)
    for v, dt in zip(verdicts, elapsed):
        v["elapsed_s"] = dt
    result.update(wall_s=wall_s, peak_rss_mib=peak_rss_mib, ops=verdicts)
    if tracer is not None:
        result["layers"] = _summarize(tracer, counters, ops, workloads.LADDERS[req["workload"]],
                                      wall_s, output_bytes)
        if req.get("spans_path"):
            tracer.dump(req["spans_path"])
    _write(result_path, result)


def _write(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit("usage: worker.py REQUEST.json RESULT.json")
    main(sys.argv[1], sys.argv[2])
