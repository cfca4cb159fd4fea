"""Benchmark of rk_error_lab: one seeded workload, measured for a fixed time.

Usage, from the root of a checkout:

    python3 bench/run.py --workload oracle_sweep --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout.  One caller drives it
in a closed loop, one call at a time, and every call's outputs are checked.
The workload's seeded list of calls is run in passes until the time is up.
With ``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run, in which each call runs once untraced and once traced.  The
lines before it give each metric in words, the raw wall-time figures and the
environment.  ``NOTES.md`` explains the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: set-up (import, then build the pair and problems) is timed in this many
#: fresh interpreters, spread over the run; the median is reported
SETUP_SAMPLES = 9
SETUP_CODE = """\
import time
t0 = time.perf_counter()
import rk_error_lab as lab
pair = lab.builtin_pair("rk3_rk4")
problems = [lab.builtin(name) for name in lab.problem_names()]
print(repr(time.perf_counter() - t0))
"""
NUMPY_IMPORT_CODE = """\
import time
t0 = time.perf_counter()
import numpy
print(repr(time.perf_counter() - t0))
"""

UNITS = {
    "steps_per_s": "1/s",
    "us_per_step_p50": "us",
    "us_per_step_p90": "us",
    "rhs_evals_per_step": "evals/step",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _child_seconds(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout)


def setup_seconds():
    """Set-up time in a fresh interpreter, as (wall seconds, scaled seconds).
    It is scaled by numpy's import in fresh interpreters just before and
    after (see ``reference.NUMPY_IMPORT_S``)."""
    from reference import NUMPY_IMPORT_S

    before = _child_seconds(NUMPY_IMPORT_CODE)
    wall = _child_seconds(SETUP_CODE)
    after = _child_seconds(NUMPY_IMPORT_CODE)
    return wall, wall * NUMPY_IMPORT_S / ((before + after) / 2.0)


def environment(args, lab, inputs, passes, absent):
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "rk_error_lab": getattr(lab, "__version__", None),
        "cpu": cpu, "nproc": os.cpu_count(), "passes": passes,
        "percentile_samples": inputs, "setup_samples": 0 if args.trace else SETUP_SAMPLES,
        "absent_spans": sorted(absent),
    }


def end_to_end(inputs, seconds, steps, evals, setup_times):
    """``inputs`` holds each timed input's per-step times, one per pass;
    ``seconds`` is the summed time of every timed call."""
    xs = [statistics.median(times) for times in inputs]
    return {
        "steps_per_s": steps / seconds,
        "us_per_step_p50": statistics.median(xs),
        "us_per_step_p90": statistics.quantiles(xs, n=10)[8] if len(xs) > 1 else xs[0],
        "rhs_evals_per_step": evals / steps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_times),
    }


def per_layer(tracer, steps, evals, scale, overhead_frac):
    """Span totals over every traced call, per accepted step of those calls
    (for the CLI, one accepted step is one CSV row).  Span times are scaled
    by ``scale``, the traced calls' scaled over wall time."""
    from tracing import ORACLE_SPANS, SERIALIZE_SPANS

    us = 1e6 * scale / steps
    t = tracer.total
    attempts = t(("attempt_step",), 0)
    parses = t(("parse_args",), 0)
    # name -> (spans the metric reads, value, unit)
    return {
        "rk_core.stage_us_per_step": (
            {"increment_function", "rk_step"}, t(("increment_function", "rk_step"), 2) * us, "us"),
        "rk_core.increment_calls_per_step": (
            {"increment_function"}, t(("increment_function",), 0) / steps, "calls/step"),
        "rk_core.rhs_evals_per_step": (set(), evals / steps, "evals/step"),
        "controller.attempt_us_per_step": (
            {"attempt_step"}, t(("attempt_step",), 1) * us, "us"),
        "controller.self_us_per_step": (
            {"integrate", "attempt_step"}, t(("integrate", "attempt_step"), 2) * us, "us"),
        "controller.attempts_per_step": ({"attempt_step"}, attempts / steps, "calls/step"),
        "controller.accept_ratio": (
            {"attempt_step"}, steps / attempts if attempts else 0.0, "ratio"),
        "error_analysis.oracle_us_per_step": (
            set(ORACLE_SPANS), t(ORACLE_SPANS, 1, parent="integrate") * us, "us"),
        "error_analysis.oracle_rhs_evals_per_step": (
            set(ORACLE_SPANS), t(ORACLE_SPANS, 3, parent="integrate") / steps, "evals/step"),
        "problems.reference_calls_per_step": (
            {"reference_solution"}, t(("reference_solution",), 0) / steps, "calls/step"),
        "problems.reference_us_per_step": (
            {"reference_solution"}, t(("reference_solution",), 1) * us, "us"),
        "cli.serialize_us_per_row": (set(SERIALIZE_SPANS), t(SERIALIZE_SPANS, 1) * us, "us"),
        "cli.parse_us_per_call": (
            {"parse_args"}, t(("parse_args",), 1) * 1e6 * scale / parses if parses else 0.0,
            "us"),
        "trace.overhead_frac": (set(), overhead_frac, "ratio"),
    }


def measure(args, lab):
    """Run the workload's calls in passes until ``args.seconds`` have gone by;
    the first pass always completes.  Returns the result fields and, for the
    lines before the result, the raw wall-time figures."""
    from reference import Scale
    from tracing import Counter, Tracer, installed
    from workloads import WORKLOADS

    rhs = Counter()
    tracer = Tracer(rhs) if args.trace else None
    counts = {}         # timed input -> (steps, RHS evaluations) of its first pass
    per_step = {}       # timed input -> scaled us per step, one per pass
    totals = dict.fromkeys(["wall", "scaled", "steps", "evals", "traced_wall",
                            "traced_scaled", "traced_steps", "traced_evals"], 0)
    setup_times = []
    attempted = failed = 0
    clock = time.perf_counter

    def execute(call, context):
        n0 = rhs.n
        with Scale() as scale, context:
            t0 = clock()
            out = call.run()
            wall = clock() - t0
        steps, bad = call.check(out)
        return wall, wall * scale.factor, steps, rhs.n - n0, bad

    with tempfile.TemporaryDirectory(prefix=".bench-out-", dir=ROOT) as out_dir:
        calls = WORKLOADS[args.workload](lab, random.Random(args.seed), rhs, out_dir)
        if not args.trace:
            setup_seconds()  # warm the file cache; not reported
        start = clock()
        deadline = start + args.seconds
        for pass_no in itertools.count():
            for k, call in enumerate(calls):
                if pass_no and (not call.timed or clock() >= deadline):
                    continue
                if not args.trace and len(setup_times) < SETUP_SAMPLES and (
                        clock() >= start + len(setup_times) * args.seconds / SETUP_SAMPLES):
                    setup_times.append(setup_seconds())
                attempted += 1
                try:
                    wall, scaled, steps, evals, bad = execute(call, contextlib.nullcontext())
                    if call.timed and counts.setdefault(k, (steps, evals)) != (steps, evals):
                        bad.append(f"counts {(steps, evals)} differ from the first pass's")
                    if tracer is not None and call.timed:
                        t_wall, t_scaled, t_steps, t_evals, t_bad = execute(
                            call, installed(tracer))
                        bad += t_bad
                        if (t_steps, t_evals) != (steps, evals):
                            bad.append(f"traced counts {(t_steps, t_evals)} differ "
                                       f"from {(steps, evals)}")
                except Exception as exc:  # a failing call is counted, not fatal
                    bad = [f"{type(exc).__name__}: {exc}"]
                if bad:
                    failed += 1
                    print(f"FAILED {call.label}: {'; '.join(bad[:3])}", file=sys.stderr)
                    continue
                if not call.timed:
                    continue
                per_step.setdefault(k, []).append(scaled / steps * 1e6)
                for key, v in (("wall", wall), ("scaled", scaled), ("steps", steps),
                               ("evals", evals)):
                    totals[key] += v
                if tracer is not None:
                    totals["traced_wall"] += t_wall
                    totals["traced_scaled"] += t_scaled
                    totals["traced_steps"] += t_steps
                    totals["traced_evals"] += t_evals
            if clock() >= deadline:
                break
        while not args.trace and len(setup_times) < SETUP_SAMPLES:
            setup_times.append(setup_seconds())

    metrics = {}
    if per_step and args.trace:
        overhead = totals["traced_scaled"] / totals["scaled"] - 1.0
        scale = totals["traced_scaled"] / totals["traced_wall"]
        layers = per_layer(tracer, totals["traced_steps"], totals["traced_evals"], scale,
                           overhead)
        for name, (reads, value, unit) in layers.items():
            if reads and reads <= tracer.absent:
                continue  # every span the metric reads is gone from the package
            metrics[name] = {"value": value, "unit": unit}
    elif per_step:
        values = end_to_end(list(per_step.values()), totals["scaled"], totals["steps"],
                            totals["evals"], [s for _, s in setup_times])
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
    raw = {}
    if totals["wall"]:
        raw["wall steps_per_s"] = totals["steps"] / totals["wall"]
        raw["wall/scaled time"] = totals["wall"] / totals["scaled"]
    if setup_times:
        raw["wall setup_s"] = statistics.median(w for w, _ in setup_times)
    absent = tracer.absent if tracer else set()
    return attempted, failed, metrics, raw, (len(per_step), pass_no + 1, absent)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["oracle_sweep", "controller_only", "cli_outputs"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "rk_error_lab" / "__init__.py").is_file():
        print(f"bench: no rk_error_lab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rk_error_lab as lab
    import rk_error_lab.cli  # noqa: F401  (the cli workload calls lab.cli)

    attempted, failed, metrics, raw, env = measure(args, lab)
    print(json.dumps({"env": environment(args, lab, *env)}))
    print(f"failed_frac = {failed / attempted!r} ({failed} of {attempted} calls)")
    for name, value in raw.items():
        print(f"{name} = {value!r}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
