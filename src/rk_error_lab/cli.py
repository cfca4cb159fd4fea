"""Command-line front end: run one controlled integration and emit its trace.

The per-step trace is written as CSV with one row per accepted step, the run
totals as a JSON summary, and optionally a two-series file (local error and
propagated-error term against the abscissa) ready for plotting.  Floats are
serialized as shortest round-trip decimals so a parsed trace reproduces the
in-memory records bit for bit.  The trace and the figure are written in one
pass, by ``_write_tables``.  A run refuses two output flags that name one
file.  What a failed output leaves is the rule of README's Failures
paragraph, which ``_rewritten`` applies to every output.

The exit codes are those of the README's failure table: 0 completed run, 2
usage error, 3 unknown problem or pair name, 4 integrator failure, 5 output
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import json
import os
import stat
import sys
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .controller import POLICIES, ControllerConfig, Trace, integrate
from .error_analysis import _HINTS, StepRecord, _column, _Records, sigma_bound
from .problems import UnknownProblem, builtin, problem_names
from .rk_core import MethodPair, UnknownPair, builtin_pair, pair_names

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


@functools.cache  # built on first use, not at import
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


def _parse_state(cell: str) -> list[float]:
    return [float(c) for c in cell.split(";")]


def _optional(parse):
    """The parser of ``Optional[T]`` from that of ``T``: an empty cell is ``None``."""
    return lambda cell: None if cell == "" else parse(cell)


# (value formatter, cell parser) per StepRecord annotation.  A formatter takes a
# value as ``.tolist()`` gives it: repr of a Python float is the shortest decimal
# that round-trips, and a state is its components' reprs joined by ";".  A
# parsed cell has the same form; ``None`` is an empty cell.  The writers format
# a column at a time, so a row costs its float reprs and little more.
_CODECS = {int: (str, int), float: (repr, float),
           bool: (("false", "true").__getitem__, "true".__eq__),
           np.ndarray: (lambda v: ";".join(map(repr, v)), _parse_state)}
_CODECS.update({Optional[t]: (fmt, _optional(parse)) for t, (fmt, parse) in _CODECS.items()})

CSV_COLUMNS = list(_HINTS)
_FORMATS, _PARSERS = zip(*(_CODECS[t] for t in _HINTS.values()))
# a run never counts rejections below 0, so a parsed rejects is checked for that too
_CHECKS = [(lambda v: v >= 0) if name == "rejects" else None for name in CSV_COLUMNS]
_BLOCK = 1024  # rows formatted at a time, which bounds the writers' transient memory


def _state_cells(block: np.ndarray):
    """The cells of a block of states: each row's component reprs, joined by ";"."""
    components = [map(repr, c) for c in block.T.tolist()]
    return components[0] if len(components) == 1 else map(";".join, zip(*components))


def _norm_cells(block: np.ndarray, cells):
    """``repr`` of each row's max norm (``_row_norms``), taken from the block's
    state cells and formatting no float: the cell's part of the component of
    largest magnitude (the first on a tie, a NaN over any number) without its
    sign.  Dropping the sign of a float's ``repr`` gives the ``repr`` of its
    absolute value, ``-0.0``, ``-inf`` and NaN included."""
    if block.shape[1] > 1:
        cells = map(lambda cell, k: cell.split(";")[k], cells,
                    np.abs(block).argmax(axis=1).tolist())
    return map(str.lstrip, cells, itertools.repeat("-"))


def _cells(fmt, col: Optional[np.ndarray], lo: int, hi: int):
    """The cells of rows ``lo:hi`` of ``col``, formatted by ``fmt`` as one column:
    empty for an absent column, a state column by ``_state_cells``, and a
    broadcast column (stride 0, as a run's ``bound``) formatted once."""
    if col is None:
        return itertools.repeat("")
    if col.ndim == 2:
        return _state_cells(col[lo:hi])
    if col.strides == (0,):
        return itertools.repeat(fmt(col[lo].item()), hi - lo)
    return map(fmt, col[lo:hi].tolist())


@contextlib.contextmanager
def _rewritten(path: str, newline: Optional[str] = None):
    """``path`` opened for writing UTF-8 text without truncating it first.

    The file is written in place and, if it is a regular file, cut at the end
    of what was written when the block returns, so it holds what a truncating
    ``open(path, "w")`` would leave.  A symlink is written through and an
    existing file keeps its mode.  What a block that raises leaves is the rule
    of README's Failures paragraph.  On ext4 mounted with ``discard``,
    rewriting a 20 KB file cost about 70 ms after a truncation to zero and
    about 7 us in place.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    regular = stat.S_ISREG(os.fstat(fd).st_mode)  # ftruncate fails on /dev/null
    try:
        # the fd outlives the text file, so nothing buffered is written after a cut
        with open(fd, "w", encoding="utf-8", newline=newline, closefd=False) as fh:
            yield fh
        if regular:
            os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
    except BaseException:
        if regular:
            with contextlib.suppress(OSError):
                os.ftruncate(fd, 0)
                if os.path.samestat(os.lstat(path), os.fstat(fd)):  # not a symlink to it
                    os.remove(path)
        raise
    finally:
        os.close(fd)


_FIGURE_HEADER = ["x", "abs_eps_lower", "abs_alpha_term"]
_NORMED = ("eps_lower", "alpha_term")  # the state columns whose max norms the figure plots


def _write_tables(trace: Trace, csv_path: Optional[str], figure_path: Optional[str],
                  stack: Optional[contextlib.ExitStack] = None) -> None:
    """Write the trace to ``csv_path`` and its figure series to ``figure_path``
    (either may be ``None``) in one pass over blocks of ``_BLOCK`` rows.

    Each column that an output needs is formatted once per block, column by
    column, and each block of an output is joined into one string.  With the
    figure, the cells of ``x`` and of the two columns in ``_NORMED`` are made
    once per block for both outputs, and a figure row takes the ``x`` cell and
    ``_norm_cells`` of the other two.  No cell or header name holds a comma, a
    quote or a line break, so a row is written as ``csv.writer`` writes it:
    its cells joined by commas, ended by CRLF.  The outputs are opened on
    ``stack``, which ``run`` holds until its summary is written too, or on a
    stack of their own.  Raises ``ValueError`` (see ``write_trace_csv``) and
    ``MissingDiagnostics`` (see ``figure1_export``) before a file is opened.
    """
    records = _Records.of(trace.records)
    cols = records.columns
    if figure_path is not None and any(cols[name] is None for name in _NORMED):
        raise MissingDiagnostics("trace has no oracle diagnostics to export")
    with contextlib.ExitStack() if stack is None else contextlib.nullcontext(stack) as stack:
        trace_fh, figure_fh = [None if path is None else stack.enter_context(
            _rewritten(path, newline="")) for path in (csv_path, figure_path)]
        for fh, header in ((trace_fh, CSV_COLUMNS), (figure_fh, _FIGURE_HEADER)):
            if fh is not None:
                fh.write(",".join(header) + "\r\n")
        for lo in range(0, len(records), _BLOCK):
            hi = min(lo + _BLOCK, len(records))
            # x is a float column, whose format is repr
            shared = {} if figure_fh is None else {
                name: list(_cells(repr, cols[name], lo, hi)) for name in ("x", *_NORMED)}
            if trace_fh is not None:
                _write_rows(trace_fh, [
                    shared[name] if name in shared else _cells(fmt, col, lo, hi)
                    for name, fmt, col in zip(CSV_COLUMNS, _FORMATS, cols.values())])
            if figure_fh is not None:
                _write_rows(figure_fh, [shared["x"], *(
                    _norm_cells(cols[name][lo:hi], shared[name]) for name in _NORMED)])


def _write_rows(fh, cells) -> None:
    """The rows whose cells ``cells`` gives column by column, as one string."""
    fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def write_trace_csv(trace: Trace, path: str) -> None:
    """One header row plus one row per accepted step, in ``CSV_COLUMNS`` order.

    Raises ``ValueError``, before the file is opened, if the records carry an
    oracle field on some steps and not on others, a field that is not
    ``Optional`` on no step, or a value not of its column's type.
    """
    _write_tables(trace, path, None)


def read_trace_csv(path: str) -> Sequence[StepRecord]:
    """Parse a trace CSV back into a read-only sequence of StepRecords, stored as
    columns like ``Trace.records`` (floats round-trip bit-exactly).

    A cell is accepted only in the form ``write_trace_csv`` gives its parsed
    value, so each parsed value is formatted again.  Raises ``ValueError``
    naming the line, and the cell where one is refused (the README's failure
    table).
    """
    cols = [[] for _ in CSV_COLUMNS]
    # a byte that is not UTF-8 lands in its cell as a surrogate, which the cell's check refuses
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        # the writer never quotes: a quote stays in its cell, which is then refused
        reader = csv.reader(fh, quoting=csv.QUOTE_NONE)
        header = next(reader, None)
        if header != CSV_COLUMNS:
            raise ValueError(f"{path}: line 1: unexpected CSV header {header}")
        for row in reader:
            where = f"{path}: line {reader.line_num}"
            if len(row) != len(CSV_COLUMNS):
                raise ValueError(f"{where}: {len(row)} cells, expected {len(CSV_COLUMNS)}")
            for col, parse, fmt, check, cell in zip(cols, _PARSERS, _FORMATS, _CHECKS, row):
                try:
                    v = parse(cell)
                    if (v is not None and cell != fmt(v)
                            or check is not None and not check(v)):
                        raise ValueError
                except ValueError:
                    raise ValueError(f"{where}: malformed cell {cell!r}") from None
                col.append(v)
    return _Records({name: _column(name, vs) for name, vs in zip(CSV_COLUMNS, cols)},
                    len(cols[0]))


def write_summary_json(trace: Trace, pair: MethodPair, sigma: float, path: str) -> None:
    """The ``TraceSummary`` fields in order, then the bound coefficient."""
    with _rewritten(path) as fh:
        fh.write(_summary(trace, pair, sigma))


def _summary(trace: Trace, pair: MethodPair, sigma: float) -> str:
    """The text of ``write_summary_json``, which ``run`` writes on its stack.  Raises
    ``ValueError`` where ``sigma_bound`` does, for a ``sigma`` outside ``(0, 1]``."""
    return json.dumps({**vars(trace.summary), "bound_coefficient": sigma_bound(
        sigma, pair.lower.z, pair.r, 1.0)}, indent=2) + "\n"


def figure1_export(trace: Trace, path: str) -> None:
    """Plot-ready series: abscissa, |local error| and |propagated term| per step,
    the last two the max norms of ``eps_lower`` and ``alpha_term``.

    Raises ``MissingDiagnostics`` when the trace was produced without an
    oracle (no measured errors to export), before the file is opened.
    """
    _write_tables(trace, None, path)


def _distinct_outputs(spec: RunSpec) -> None:
    """Refuse two output flags that name one file: an existing regular file by
    its device and inode (through a symlink or a hard link), a path not yet
    there by its ``realpath``.  An existing path that is not a regular file,
    such as ``/dev/null``, may be named more than once, and an empty path,
    which no output can open, is left to the output phase.  An existing output
    costs one ``stat``, where ``realpath`` makes one ``lstat`` per component."""
    seen = {}
    for flag, path in (("--csv", spec.csv_path), ("--json", spec.json_path),
                       ("--figure", spec.figure_path)):
        if not path or "\0" in path:  # open refuses a NUL, in the output phase
            continue
        try:
            st = os.stat(path)
        except OSError:
            key = os.path.realpath(path)
        else:
            if not stat.S_ISREG(st.st_mode):
                continue
            key = (st.st_dev, st.st_ino)
        if key in seen:
            raise ValueError(f"{seen[key]} and {flag} name the same file {path}")
        seen[key] = flag


def run(spec: RunSpec) -> int:
    """Execute the integration described by ``spec``, write its outputs, return the exit code."""
    try:
        cfg = ControllerConfig(**{f.name: getattr(spec, f.name) for f in fields(ControllerConfig)})
        problem = builtin(spec.problem)
        if spec.x_end is not None:
            problem = problem.with_x_end(spec.x_end)
        pair = builtin_pair(spec.pair)
        _distinct_outputs(spec)
        trace = integrate(pair, problem, cfg)
    except ValueError as exc:
        print(f"rk-error-lab: error: {exc}", file=sys.stderr)
        return 2
    except (UnknownProblem, UnknownPair) as exc:
        # KeyError str() wraps the message in quotes; print it bare
        print(f"rk-error-lab: {exc.args[0]}", file=sys.stderr)
        return 3
    # every integrator failure is an ArithmeticError (a non-finite stage or state, a
    # power of h underflowing, the exact solution overflowing) or a RuntimeError (a
    # step cap, a rejection cap, a stepsize forced down to h_min)
    except (ArithmeticError, RuntimeError) as exc:
        print(f"rk-error-lab: integration failed: {exc}", file=sys.stderr)
        return 4

    try:
        # every output stays open until all are written, so a failure unwinds them all
        with contextlib.ExitStack() as stack:
            if spec.csv_path is not None or spec.figure_path is not None:
                _write_tables(trace, spec.csv_path, spec.figure_path, stack)
            if spec.json_path is not None:
                summary = stack.enter_context(_rewritten(spec.json_path))
                summary.write(_summary(trace, pair, spec.sigma))
    # ValueError: open() refuses a NUL in the path; MissingDiagnostics: --figure without an oracle
    except (OSError, ValueError, MissingDiagnostics) as exc:
        print(f"rk-error-lab: output failed: {exc}", file=sys.stderr)
        return 5

    if not spec.quiet:
        s = trace.summary
        span = f"[{problem.x0:g}, {s.final_x:g}]"
        if s.final_delta_lower is None:
            print(f"global error not measured over {span}: {problem.name} has no exact solution")
        else:
            ratio = f"final |delta|/delta = {abs(s.final_delta_lower) / spec.delta:.3g}"
            if s.crossing_index is not None:
                print(f"global error exceeded delta={spec.delta:g} at x={s.crossing_x:.6g} "
                      f"(step {s.crossing_index} of {s.accepted}); {ratio}")
            else:
                print(f"global error stayed within delta={spec.delta:g} over {span} ({ratio})")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        spec = parse_args(argv)
    except SystemExit as exc:  # argparse --help (0) or syntax error (2)
        return int(exc.code or 0)
    return run(spec)


def console_main() -> None:
    sys.exit(main())
