"""Command-line front end: run one controlled integration and emit its trace.

The per-step trace is written as CSV with one row per accepted step, the run
totals as a JSON summary, and optionally a two-series file (local error and
propagated-error term against the abscissa) ready for plotting.  Floats are
serialized as shortest round-trip decimals so a parsed trace reproduces the
in-memory records bit for bit.

Exit codes: 0 completed run, 2 usage error, 3 unknown problem or pair name,
4 integrator failure, 5 output I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .controller import (
    POLICIES,
    ControllerConfig,
    MaxRejectsExceeded,
    MaxStepsExceeded,
    NonFiniteState,
    StepsizeOutOfRange,
    StepsizeUnderflow,
    Trace,
    integrate,
)
from .error_analysis import StepRecord, inf_norm, sigma_bound
from .problems import UnknownProblem, builtin, problem_names
from .rk_core import MethodPair, NonFiniteStage, UnknownPair, builtin_pair, pair_names

__all__ = [
    "RunSpec",
    "MissingDiagnostics",
    "parse_args",
    "run",
    "main",
    "console_main",
    "write_trace_csv",
    "read_trace_csv",
    "write_summary_json",
    "figure1_export",
    "CSV_COLUMNS",
]

CSV_COLUMNS = [
    "i", "x", "h", "rejects", "w_lower", "w_higher", "eps_lower", "beta_lower",
    "delta_lower", "delta_higher", "alpha_term", "cond_lhs", "cond_rhs",
    "cond_holds", "bound", "clamped",
]


class MissingDiagnostics(RuntimeError):
    """The trace lacks oracle diagnostics required by the requested output."""


@dataclass(frozen=True)
class RunSpec:
    problem: str = "paper_exponential"
    pair: str = "rk3_rk4"
    delta: float = 1e-8
    sigma: float = 0.8
    policy: str = "proportional"
    h_init: Optional[float] = None
    x_end: Optional[float] = None
    max_steps: int = 1_000_000
    csv_path: Optional[str] = None
    json_path: Optional[str] = None
    figure_path: Optional[str] = None
    quiet: bool = False


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rk-error-lab",
        description="Integrate an initial-value problem with local error control "
        "via a lower/higher-order method pair and record per-step error diagnostics.",
        argument_default=argparse.SUPPRESS,
    )
    ap.add_argument("--problem", help=f"problem name, one of {problem_names()} "
                    f"(default {RunSpec.problem})")
    ap.add_argument("--pair", help=f"method pair name, one of {pair_names()} "
                    f"(default {RunSpec.pair})")
    ap.add_argument("--delta", type=float,
                    help=f"absolute local error tolerance (default {RunSpec.delta:g})")
    ap.add_argument("--sigma", type=float,
                    help=f"stepsize safety factor in (0, 1] (default {RunSpec.sigma:g})")
    ap.add_argument("--policy", choices=POLICIES,
                    help=f"stepsize policy after acceptance (default {RunSpec.policy})")
    ap.add_argument("--h-init", type=float,
                    help="initial stepsize (default: probe-based proposal)")
    ap.add_argument("--x-end", type=float, help="override the problem's right endpoint")
    ap.add_argument("--max-steps", type=int, help="cap on accepted steps")
    ap.add_argument("--csv", dest="csv_path",
                    help="write the per-step trace to this CSV file")
    ap.add_argument("--json", dest="json_path",
                    help="write the run summary to this JSON file")
    ap.add_argument("--figure", dest="figure_path",
                    help="write x/|local error|/|propagated term| series to this CSV file")
    ap.add_argument("--quiet", action="store_true", help="suppress the verdict line")
    return ap


def parse_args(argv: Optional[Sequence[str]] = None) -> RunSpec:
    """Parse CLI flags into a RunSpec; flags not given keep the RunSpec defaults.

    Raises ``SystemExit(2)`` on malformed flags.  Values are not checked
    here: ``run`` checks them when it builds the problem, pair and config.
    """
    return RunSpec(**vars(_build_parser().parse_args(argv)))


def _fmt_float(v: float) -> str:
    # repr of a Python float is the shortest decimal that round-trips
    return repr(float(v))


def _fmt_state(v: Optional[np.ndarray]) -> str:
    if v is None:
        return ""
    return ";".join(map(_fmt_float, np.asarray(v, dtype=float).ravel().tolist()))


def _fmt_bool(v: Optional[bool]) -> str:
    if v is None:
        return ""
    return "true" if v else "false"


def write_trace_csv(trace: Trace, path: str) -> None:
    """One header row plus one row per accepted step, in canonical column order."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for r in trace.records:
            w.writerow([
                r.i,
                _fmt_float(r.x),
                _fmt_float(r.h),
                r.rejects,
                _fmt_state(r.w_lower),
                _fmt_state(r.w_higher),
                _fmt_state(r.eps_lower),
                _fmt_state(r.beta_lower),
                _fmt_state(r.delta_lower),
                _fmt_state(r.delta_higher),
                _fmt_state(r.alpha_term),
                _fmt_float(r.cond_lhs),
                "" if r.cond_rhs is None else _fmt_float(r.cond_rhs),
                _fmt_bool(r.cond_holds),
                _fmt_float(r.bound),
                _fmt_bool(r.clamped),
            ])


def _parse_state(cell: str) -> Optional[np.ndarray]:
    if cell == "":
        return None
    return np.array([float(c) for c in cell.split(";")], dtype=float)


def read_trace_csv(path: str) -> list[StepRecord]:
    """Parse a trace CSV back into StepRecords (floats round-trip bit-exactly)."""
    records = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header {header}")
        for row in reader:
            cells = dict(zip(CSV_COLUMNS, row))
            records.append(StepRecord(
                i=int(cells["i"]),
                x=float(cells["x"]),
                h=float(cells["h"]),
                rejects=int(cells["rejects"]),
                w_lower=_parse_state(cells["w_lower"]),
                w_higher=_parse_state(cells["w_higher"]),
                eps_lower=_parse_state(cells["eps_lower"]),
                beta_lower=_parse_state(cells["beta_lower"]),
                delta_lower=_parse_state(cells["delta_lower"]),
                delta_higher=_parse_state(cells["delta_higher"]),
                alpha_term=_parse_state(cells["alpha_term"]),
                cond_lhs=float(cells["cond_lhs"]),
                cond_rhs=None if cells["cond_rhs"] == "" else float(cells["cond_rhs"]),
                cond_holds=None if cells["cond_holds"] == "" else cells["cond_holds"] == "true",
                bound=float(cells["bound"]),
                clamped=cells["clamped"] == "true",
            ))
    return records


def write_summary_json(trace: Trace, pair: MethodPair, sigma: float, path: str) -> None:
    s = trace.summary
    payload = {
        "accepted": s.accepted,
        "rejected": s.rejected,
        "final_x": s.final_x,
        "final_delta_lower": s.final_delta_lower,
        "crossing_index": s.crossing_index,
        "crossing_x": s.crossing_x,
        "condition_violation_index": s.condition_violation_index,
        "bound_coefficient": sigma_bound(sigma, pair.lower.z, pair.r, 1.0),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def figure1_export(trace: Trace, path: str) -> None:
    """Plot-ready series: abscissa, |local error| and |propagated term| per step.

    Raises ``MissingDiagnostics`` when the trace was produced without an
    oracle (no measured errors to export).
    """
    if not trace.records or any(r.eps_lower is None or r.alpha_term is None
                                for r in trace.records):
        raise MissingDiagnostics("trace has no oracle diagnostics to export")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "abs_eps_lower", "abs_alpha_term"])
        for r in trace.records:
            w.writerow([
                _fmt_float(r.x),
                _fmt_float(inf_norm(r.eps_lower)),
                _fmt_float(inf_norm(r.alpha_term)),
            ])


def run(spec: RunSpec) -> int:
    """Execute the integration described by ``spec``, write its outputs, return the exit code."""
    try:
        cfg = ControllerConfig(
            delta=spec.delta,
            sigma=spec.sigma,
            h_init=spec.h_init,
            policy=spec.policy,
            max_steps=spec.max_steps,
        )
        problem = builtin(spec.problem)
        if spec.x_end is not None:
            problem = problem.with_x_end(spec.x_end)
        pair = builtin_pair(spec.pair)
    except ValueError as exc:
        print(f"rk-error-lab: error: {exc}", file=sys.stderr)
        return 2
    except (UnknownProblem, UnknownPair) as exc:
        # KeyError str() wraps the message in quotes; print it bare
        print(f"rk-error-lab: {exc.args[0]}", file=sys.stderr)
        return 3

    try:
        trace = integrate(pair, problem, cfg)
    except StepsizeOutOfRange as exc:
        # the default h_min/h_max are only known once the problem is resolved
        print(f"rk-error-lab: error: {exc}", file=sys.stderr)
        return 2
    except (StepsizeUnderflow, MaxStepsExceeded, MaxRejectsExceeded, NonFiniteState,
            NonFiniteStage) as exc:
        print(f"rk-error-lab: integration failed: {exc}", file=sys.stderr)
        return 4

    try:
        if spec.csv_path:
            write_trace_csv(trace, spec.csv_path)
        if spec.json_path:
            write_summary_json(trace, pair, spec.sigma, spec.json_path)
        if spec.figure_path:
            figure1_export(trace, spec.figure_path)
    except MissingDiagnostics as exc:
        print(f"rk-error-lab: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"rk-error-lab: output failed: {exc}", file=sys.stderr)
        return 5

    if not spec.quiet:
        s = trace.summary
        if s.crossing_index is not None:
            print(
                f"global error exceeded delta={spec.delta:g} at x={s.crossing_x:.6g} "
                f"(step {s.crossing_index} of {s.accepted}); "
                f"final |delta|/delta = {abs(s.final_delta_lower) / spec.delta:.3g}"
            )
        elif s.final_delta_lower is not None:
            print(
                f"global error stayed within delta={spec.delta:g} over "
                f"[{problem.x0:g}, {s.final_x:g}] "
                f"(final |delta|/delta = {abs(s.final_delta_lower) / spec.delta:.3g})"
            )
        else:
            print(
                f"run completed over [{problem.x0:g}, {s.final_x:g}] "
                f"({s.accepted} steps); no exact solution, global error not measured"
            )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        spec = parse_args(argv)
    except SystemExit as exc:  # argparse --help (0) or syntax error (2)
        return int(exc.code or 0)
    return run(spec)


def console_main() -> None:
    sys.exit(main())
