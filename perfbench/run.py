"""rotorsusy benchmark: two workloads, each pass in a fresh interpreter.

    python3 perfbench/run.py --workload verify-large-degree --seed 1 --seconds 50 --trace 0

Run it from the root of a checkout: the library is imported from ``src/``
there, never from an installed copy.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full results (environment, every pass, each failing op
and its reason) go to ``.perfbench_out/results-<workload>-<seed>-<trace>.json``.

``--trace 0`` reports the end-to-end metrics from untraced passes:

* ``setup_s``: import rotorsusy and make the warm-up call
  ``susy_operators(HarmonicSpace(2))`` in a fresh interpreter; median over
  ``SETUP_ONLY`` set-up-only interpreters plus one per pass;
* ``wall_s``: median wall time of one pass over the op list, after set-up;
* ``peak_rss_mib``: median ``ru_maxrss`` of the pass interpreters.

``--trace 1`` alternates untraced and traced passes, then makes one pass
with ``tracemalloc`` on, and reports per-layer metrics (see tracer.py).

The timed passes hold only ops the library must get right.  The ops it
gets wrong today (``workloads.known_defects``) run once per run after the
timed passes, untimed and checked the same way; each one that still fails
is printed as a ``# known defect:`` line and kept in the results file, and
one that passes is printed as fixed.  They do not enter ``correct``,
``attempted`` or ``failed``.

Passes repeat while the next one is expected to end within ``--seconds``
of the start, and at least ``MIN_PASSES`` times.  An op fails if it raises,
if the CLI exits nonzero, or if its output fails its check; ``failed`` and
``attempted`` count ops over all passes, so ``failed / attempted`` is
``ops_failed_frac``.  ``correct`` is false if any op returned a wrong result
without signalling an error, and stays true when the library refuses an op
by raising or by a nonzero exit.

Timings come from a machine shared with other work; medians of repeated
fresh-interpreter passes are reported for that reason.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import LAYERS  # noqa: E402
from worker import SUITES  # noqa: E402
from workloads import WORKLOADS, known_defects  # noqa: E402

MIN_PASSES = 3
SETUP_ONLY = 3
BLAS_THREADS = 2  # capped at the cores this process may use
WORKER_TIMEOUT_S = 100
NOTE = ("Timings come from a machine that may be shared with other work; every value "
        "is a median over fresh-interpreter passes, and counts are exact.")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER_UNITS = {"self_s": "s", "calls": "count", "failed_calls": "count",
                   "peak_mib": "MiB", "exponent": "slope"}
EXTRA_UNITS = {
    "harmonics.values_mib": "MiB", "harmonics.rebuilds_per_degree": "ratio",
    "operators.matmuls": "count", "operators.matmul_gflop": "GFLOP",
    "susy.builds_per_degree": "ratio", "eigenbases.f_basis_per_degree": "ratio",
    "eigenbases.oracle_calls": "count", "antikrawtchouk.eval_monic_calls": "count",
    "cli.output_mib": "MiB",
    **{f"verification.{s}_s": "s" for s in SUITES},
    "verification.min_headroom_digits": "digits",
    "trace.wall_s": "s", "trace.attributed_frac": "frac", "trace.overhead_frac": "frac",
    "ops_failed_frac": "frac",
    "known_defects.failed": "count",
}


def per_layer_units():
    units = {f"{layer}.{key}": unit for layer in LAYERS for key, unit in PER_LAYER_UNITS.items()}
    units.update(EXTRA_UNITS)
    return units


def _git_commit(root):
    """HEAD of the checkout's git repository, read from .git without running git; None if absent."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


class Runner:
    """Starts worker interpreters and collects their results."""

    def __init__(self, root, workload, seed, work_dir):
        self.root, self.workload, self.seed, self.work_dir = root, workload, seed, work_dir
        self.env = dict(os.environ)
        self.env.pop("PYTHONPATH", None)
        self.nproc = len(os.sched_getaffinity(0))
        self.blas_threads = min(BLAS_THREADS, self.nproc)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(self.blas_threads)
        self.count = 0

    def run(self, mode, **extra):
        self.count += 1
        tag = f"{mode}{self.count}"
        out_dir = os.path.join(self.work_dir, tag)
        os.makedirs(out_dir)
        req = {"root": self.root, "workload": self.workload, "seed": self.seed,
               "mode": mode, "out_dir": out_dir, **extra}
        req_path = os.path.join(self.work_dir, tag + ".request.json")
        res_path = os.path.join(self.work_dir, tag + ".result.json")
        with open(req_path, "w", encoding="utf-8") as fh:
            json.dump(req, fh)
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), req_path, res_path],
                              cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
        shutil.rmtree(out_dir)
        if proc.returncode != 0:
            raise RuntimeError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        with open(res_path, encoding="utf-8") as fh:
            return json.load(fh)


def _tally(passes):
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(not v["ok"] for p in passes for v in p["ops"])
    silent = any(not v["ok"] and not v["signalled"] for p in passes for v in p["ops"])
    failures = sorted({f"{v['op']}: {v['reason']}"
                       for p in passes for v in p["ops"] if not v["ok"]})
    return attempted, failed, not silent, failures


def _parts(passes, defects):
    """Per part of the workload: median summed op time over passes, failed/attempted ops of
    the timed passes, and failed/attempted ops of the whole op list of one pass, known defects
    included."""
    out = {}
    for p in passes:
        totals = {}
        for v in p["ops"]:
            row = out.setdefault(v["part"], {"wall_s": [], "failed": 0, "attempted": 0})
            row["failed"] += not v["ok"]
            row["attempted"] += 1
            totals[v["part"]] = totals.get(v["part"], 0.0) + v["elapsed_s"]
        for part, t in totals.items():
            out[part]["wall_s"].append(t)
    for part, row in out.items():
        row["wall_s"] = statistics.median(row["wall_s"])
        mine = [v for v in defects if v["part"] == part]
        row["with_known_defects"] = {
            "failed": row["failed"] // len(passes) + sum(not v["ok"] for v in mine),
            "attempted": row["attempted"] // len(passes) + len(mine),
        }
    return out


def measure(runner, seconds, trace):
    """Run set-up samples and passes; return (result, details).

    A new round (one untraced pass, plus one traced pass with ``trace``)
    starts only while it is expected to end within ``seconds`` of the start
    of the run, counting the set-up samples; the first ``MIN_PASSES``
    rounds (one with ``trace``) always run.
    """
    start = time.perf_counter()
    first = runner.run("setup", env=True)
    setups = [first] + [runner.run("setup") for _ in range(SETUP_ONLY - 1)]
    spans = os.path.join(os.path.dirname(runner.work_dir), f"spans-{runner.workload}.jsonl")
    plain, traced, rounds = [], [], []
    while True:
        t0 = time.perf_counter()
        plain.append(runner.run("plain"))
        if trace:
            traced.append(runner.run("trace", spans_path=spans))
        rounds.append(time.perf_counter() - t0)
        done = time.perf_counter() - start + statistics.median(rounds) > seconds
        if done and len(rounds) >= (1 if trace else MIN_PASSES):
            break
    memory = [runner.run("memory")] if trace else []
    passes = plain + traced + memory
    attempted, failed, correct, failures = _tally(passes)
    defects = runner.run("defects")["ops"] if known_defects(runner.workload, runner.seed) else []
    defects_failed = sum(not v["ok"] for v in defects)

    if not trace:
        metrics = {
            "setup_s": statistics.median([r["setup_s"] for r in setups + passes]),
            "wall_s": statistics.median([p["wall_s"] for p in plain]),
            "peak_rss_mib": statistics.median([p["peak_rss_mib"] for p in plain]),
        }
        units = END_TO_END
    else:
        units = per_layer_units()
        layer_runs = [p["layers"] for p in traced]
        metrics = {name: statistics.median([r[name] for r in layer_runs]) for name in layer_runs[0]}
        for layer in LAYERS:
            metrics[f"{layer}.peak_mib"] = memory[0]["layers"][f"{layer}.peak_mib"]
        traced_wall = statistics.median([p["wall_s"] for p in traced])
        plain_wall = statistics.median([p["wall_s"] for p in plain])
        metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
        metrics["ops_failed_frac"] = failed / attempted
        metrics["known_defects.failed"] = defects_failed
    missing = set(units) ^ set(metrics)
    if missing:
        raise RuntimeError(f"metric set mismatch: {sorted(missing)}")
    details = {
        "env": {
            "nproc": runner.nproc,
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            **first["env"],
            "blas_threads_requested": runner.blas_threads,
            "git_commit": _git_commit(runner.root),
            "note": NOTE,
        },
        "passes": {"setup_only": len(setups), "plain": len(plain), "traced": len(traced),
                   "memory": len(memory)},
        "ops_failed_frac": failed / attempted,
        "failures": failures,
        "setup_s_samples": [r["setup_s"] for r in setups + passes],
        "plain_wall_s": [p["wall_s"] for p in plain],
        "parts": _parts(plain, defects),
        "known_defects": defects,
        "plain_peak_rss_mib": [p["peak_rss_mib"] for p in plain],
        "ops": plain[0]["ops"],
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(metrics)}}
    return result, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so the running worker is killed and awaited
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "rotorsusy", "__init__.py")):
        print(f"error: no src/rotorsusy under {root}; run from the root of a rotorsusy checkout",
              file=sys.stderr)
        return 2
    out_root = os.path.join(root, ".perfbench_out")
    os.makedirs(out_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=out_root)
    try:
        runner = Runner(root, args.workload, args.seed, work_dir)
        result, details = measure(runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    details.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                   trace=args.trace, result=result)
    path = os.path.join(out_root, f"results-{args.workload}-{args.seed}-{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=2)
    env = details["env"]
    print(f"# {args.workload}: {details['passes']} passes; nproc={env['nproc']} "
          f"blas={env['blas_name']} {env['blas_version']} threads={env['blas_threads_effective']}")
    print(f"# ops_failed_frac = {result['failed']}/{result['attempted']}")
    for line in details["failures"]:
        print(f"# failed: {line}")
    for v in details["known_defects"]:
        if v["ok"]:
            print(f"# known defect fixed, its op now passes: {v['op']}")
        else:
            print(f"# known defect: {v['op']}: {v['reason']}")
    print(f"# details: {os.path.relpath(path, root)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
