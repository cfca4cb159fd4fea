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
from dataclasses import asdict, dataclass
from operator import attrgetter
from typing import Optional, Sequence, get_type_hints

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
from .error_analysis import StepRecord, StepUnderflow, inf_norm, sigma_bound
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


class MissingDiagnostics(RuntimeError):
    """The trace lacks oracle diagnostics required by the requested output."""


@dataclass(frozen=True)
class RunSpec:
    problem: str = "paper_exponential"
    pair: str = "rk3_rk4"
    delta: float = ControllerConfig.delta
    sigma: float = ControllerConfig.sigma
    policy: str = ControllerConfig.policy
    h_init: Optional[float] = None
    x_end: Optional[float] = None
    max_steps: int = ControllerConfig.max_steps
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


def _fmt_state(v: np.ndarray) -> str:
    return ";".join(map(_fmt_float, np.asarray(v, dtype=float).ravel().tolist()))


def _parse_state(cell: str) -> np.ndarray:
    return np.array([float(c) for c in cell.split(";")], dtype=float)


def _fmt_bool(v: bool) -> str:
    return "true" if v else "false"


def _strict(fmt, parse):
    """The codec ``(fmt, parse)``, with ``parse`` accepting a cell only in the form
    ``fmt`` writes for the parsed value (no ``1_0``, spaces or non-ASCII digits)."""
    def parse_strict(cell: str):
        value = parse(cell)
        if fmt(value) != cell:
            raise ValueError(f"malformed cell {cell!r}")
        return value
    return fmt, parse_strict


def _optional(fmt, parse):
    """The codec of ``Optional[T]`` from that of ``T``: ``None`` is an empty cell."""
    return (lambda v: "" if v is None else fmt(v),
            lambda cell: None if cell == "" else parse(cell))


# (format, parse) per StepRecord annotation
_CODECS = {int: _strict(str, int), float: _strict(_fmt_float, float),
           bool: _strict(_fmt_bool, "true".__eq__),
           np.ndarray: _strict(_fmt_state, _parse_state)}
_CODECS.update({Optional[t]: _optional(*codec) for t, codec in _CODECS.items()})

_FIELD_TYPES = get_type_hints(StepRecord)
CSV_COLUMNS = list(_FIELD_TYPES)
_FORMATS = [_CODECS[t][0] for t in _FIELD_TYPES.values()]
_PARSERS = [_CODECS[t][1] for t in _FIELD_TYPES.values()]
_row_values = attrgetter(*CSV_COLUMNS)


def write_trace_csv(trace: Trace, path: str) -> None:
    """One header row plus one row per accepted step, in ``CSV_COLUMNS`` order."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        w.writerows([fmt(v) for fmt, v in zip(_FORMATS, _row_values(r))]
                    for r in trace.records)


def read_trace_csv(path: str) -> list[StepRecord]:
    """Parse a trace CSV back into StepRecords (floats round-trip bit-exactly).

    Raises ``ValueError`` naming the line for a wrong header, a row with too
    few or too many cells, or a cell its column cannot parse.
    """
    records = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_COLUMNS:
            raise ValueError(f"{path}: line 1: unexpected CSV header {header}")
        for row in reader:
            where = f"{path}: line {reader.line_num}"
            if len(row) != len(CSV_COLUMNS):
                raise ValueError(f"{where}: {len(row)} cells, expected {len(CSV_COLUMNS)}")
            try:
                records.append(StepRecord(*[parse(c) for parse, c in zip(_PARSERS, row)]))
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
    return records


def write_summary_json(trace: Trace, pair: MethodPair, sigma: float, path: str) -> None:
    """The ``TraceSummary`` fields in order, then the bound coefficient."""
    payload = {**asdict(trace.summary),
               "bound_coefficient": sigma_bound(sigma, pair.lower.z, pair.r, 1.0)}
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
    except (StepsizeUnderflow, StepUnderflow, MaxStepsExceeded, MaxRejectsExceeded,
            NonFiniteState, NonFiniteStage) as exc:
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
