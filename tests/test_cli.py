import builtins
import codecs
import contextlib
import csv
import dataclasses
import errno
import hashlib
import io
import itertools
import json
import math
import os
import re
import runpy
import shlex
import stat
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from pins import (FIGURE_SHA256, FLAGSHIP, LONG_RUN_SHA256, LONG_RUN_STEPS, OUTPUT_SHA256,
                  same_bits)
import rk_error_lab
from rk_error_lab import ControllerConfig, IVProblem, builtin, builtin_pair, cli, integrate
from rk_error_lab.controller import POLICIES, Trace
from rk_error_lab.error_analysis import StepRecord, _Records, _row_norms
from rk_error_lab.problems import problem_names
from rk_error_lab.rk_core import inf_norm, pair_names
from rk_error_lab.cli import (
    _FORMATS,
    _rewritten,
    CSV_COLUMNS,
    MissingDiagnostics,
    RunSpec,
    figure1_export,
    main,
    parse_args,
    read_trace_csv,
    run,
    write_summary_json,
    write_trace_csv,
)

PAIR = builtin_pair("rk3_rk4")


def test_defaults_match_flagship_setup():
    spec = parse_args([])
    assert spec.problem == "paper_exponential"
    assert spec.pair == "rk3_rk4"
    assert spec.delta == 1e-8
    assert spec.sigma == 0.8
    assert spec.policy == "proportional"
    assert spec.max_steps == 1_000_000
    assert spec.h_init is None and spec.x_end is None
    assert not spec.quiet
    # run builds its ControllerConfig from the RunSpec fields of the same names
    spec_fields = {f.name for f in dataclasses.fields(spec)}
    for f in dataclasses.fields(ControllerConfig):
        assert f.name in spec_fields
        assert getattr(spec, f.name) == f.default


def test_flag_parsing():
    spec = parse_args(["--problem", "decay", "--delta", "1e-6", "--sigma", "0.9",
                       "--policy", "reject-only", "--h-init", "0.05",
                       "--x-end", "4.0", "--csv", "t.csv", "--json", "t.json",
                       "--quiet"])
    assert spec.problem == "decay" and spec.delta == 1e-6 and spec.sigma == 0.9
    assert spec.policy == "reject-only" and spec.h_init == 0.05 and spec.x_end == 4.0
    assert spec.csv_path == "t.csv" and spec.json_path == "t.json" and spec.quiet


def test_parse_args_gives_a_fresh_spec_per_call(capsys):
    # the parser is built once and reused; no call sees another call's flags
    first = parse_args(["--problem", "decay", "--quiet"])
    second = parse_args([])
    assert first.problem == "decay" and first.quiet
    assert second == RunSpec() and first != second
    assert main(["--help"]) == 0
    assert "--figure" in capsys.readouterr().out


README = Path(__file__).parents[1] / "README.md"
# what run prints before a failure's message, by exit code
_PREFIX = {2: "error: ", 3: "", 4: "integration failed: ", 5: "output failed: "}


class FailureRow(NamedTuple):
    trigger: str
    argvs: list[list[str]]
    fragments: list[str]  # the message fragment of each argv
    phase: str  # parse, run, output or library
    error: Optional[type]  # None for a known gap that raises nothing
    code: Optional[int]  # None for a gap that no run reaches


def _spans(cell: str) -> list[str]:
    return re.findall(r"`([^`]*)`", cell)


def _failure_table() -> list[FailureRow]:
    """The rows of README's ``### Failures`` table.  An argv's backslash escapes
    are decoded (``'a\\0b'`` is a path with a NUL byte); a row gives one message
    fragment for all its argvs, or one per argv."""
    lines = README.read_text(encoding="utf-8").split("\n### Failures\n", 1)[1].split("\n")
    lines = lines[next(k for k, line in enumerate(lines) if line.startswith("|")):]
    header, _, *table = itertools.takewhile(lambda line: line.startswith("|"), lines)
    assert header == "| Trigger | CLI argv | Message | Phase | Exception | Exit |"
    names = {**vars(builtins), **vars(cli), **vars(rk_error_lab)}
    rows = []
    for line in table:
        trigger, argv, message, phase, error, code = (
            c.strip() for c in line.strip("|").split("|"))
        argvs = [[codecs.decode(a, "unicode_escape") for a in shlex.split(span)]
                 for span in _spans(argv)]
        fragments = _spans(message) or [""]
        rows.append(FailureRow(trigger, argvs,
                               fragments * len(argvs) if len(fragments) == 1 else fragments,
                               phase, None if error == "none" else names[_spans(error)[0]],
                               None if code == "—" else int(code)))
    return rows


FAILURES = _failure_table()


@pytest.mark.parametrize("row", FAILURES,
                         ids=[re.sub(r"\W+", "_", r.trigger)[:48].strip("_") for r in FAILURES])
def test_the_failure_table(row, monkeypatch, capsys, tmp_path):
    # each argv through main: the row's exit code, run's words for it, the
    # message and the exception that run caught, which it prints while handling
    # it (a subclass counts: a missing directory raises FileNotFoundError).  The
    # suite turns a warning into an exception that run does not catch
    caught = []

    def printed(*args, **kwargs):
        caught.append(sys.exc_info()[0])
        print(*args, **kwargs)
    monkeypatch.setattr(cli, "print", printed, raising=False)
    # a relative output path lands in tmp_path, which a failed run leaves empty:
    # every output it opened is removed
    monkeypatch.chdir(tmp_path)
    assert len(row.fragments) == len(row.argvs)
    for argv, fragment in zip(row.argvs, row.fragments):
        assert main(argv) == row.code, argv
        out, err = capsys.readouterr()
        assert out == "" and f"rk-error-lab: {_PREFIX[row.code]}" in err and fragment in err, err
        assert row.phase == "parse" or row.error is None or issubclass(caught[-1], row.error)
        assert list(tmp_path.iterdir()) == [], argv
    if row.error is None or row.phase == "parse":  # a gap that raises nothing; argparse's exit
        return

    # the row's exception raised inside run in its phase: by the writers' pass in the
    # output phase, and by integrate in the run phase, where a library row's family is judged
    def fail(*args):
        raise row.error("the run failed")
    spec = RunSpec(quiet=True)
    if row.phase == "output":
        monkeypatch.setattr("rk_error_lab.cli._write_tables", fail)
        spec = dataclasses.replace(spec, csv_path=str(tmp_path / "t.csv"))
    else:
        monkeypatch.setattr("rk_error_lab.cli.integrate", fail)
    assert run(spec) == row.code
    assert capsys.readouterr() == ("", f"rk-error-lab: {_PREFIX[row.code]}the run failed\n")


def test_the_failure_table_covers_every_exception():
    # a new exception class cannot skip the contract; every phase and exit is a
    # documented one, and only a gap that no run reaches has no exit
    exported = {v for v in map(vars(rk_error_lab).get, rk_error_lab.__all__)
                if isinstance(v, type) and issubclass(v, BaseException)}
    missing = (exported | {MissingDiagnostics}) - {row.error for row in FAILURES}
    assert sorted(c.__name__ for c in missing) == []
    for row in FAILURES:
        assert row.phase in {"parse", "run", "output", "library"}
        assert row.code in {0, 2, 3, 4, 5} or (row.code, row.error, row.argvs) == (None, None, [])
        assert row.phase != "library" or row.argvs == []


def test_a_rowwise_f_with_wrong_rows_of_the_right_shape_goes_undetected(monkeypatch):
    # a known gap in the failure table: y[::-1] swaps a state's two components but
    # reverses the order of rows, so the oracle's rows are wrong and the run exits 0
    swap = IVProblem("swap", lambda x, y: y[::-1], 0.0, [1.0, 2.0], 1.0, rowwise=True,
                     exact=lambda x: np.array([1.5 * math.exp(x) - 0.5 * math.exp(-x),
                                               1.5 * math.exp(x) + 0.5 * math.exp(-x)]))
    monkeypatch.setattr("rk_error_lab.cli.builtin", lambda name: swap)
    assert run(RunSpec(quiet=True)) == 0
    eps = [integrate(PAIR, p, ControllerConfig()).records.columns["eps_lower"]
           for p in (swap, dataclasses.replace(swap, rowwise=False))]
    assert not np.array_equal(*eps)


def test_read_trace_csv_does_not_check_the_i_sequence(tmp_path):
    # a known gap in the failure table: an i cell of 7 on the second row parses
    path = tmp_path / "trace.csv"
    write_trace_csv(integrate(PAIR, builtin("decay"), ControllerConfig(delta=1e-8)), str(path))
    lines = path.read_text().splitlines()
    lines[2] = "7" + lines[2][lines[2].index(","):]
    path.write_text("\n".join(lines) + "\n")
    assert read_trace_csv(str(path))[1].i == 7


@pytest.mark.parametrize("f, code, message", [
    (lambda x, y: np.array([y[1], -y[0]]) if x == 0.0 else y[1], 2,
     "error: rk3: stage 2 is of shape (), not (2,), at x=0.0, h=0.01"),
    (lambda x, y: 1j * y, 4, "integration failed: rk3: stage 1 is complex at x=0.0, h=0.01"),
    (lambda x, y: -y if x == 0.0 else -y + 1j * y, 4,
     "integration failed: rk3: stage 2 is complex at x=0.0, h=0.01"),
], ids=["one-value", "complex-at-x0", "complex-off-x0"])
def test_a_rhs_refused_where_its_stage_is_stored_exits_by_family(f, code, message, monkeypatch,
                                                                  capsys):
    # a value of another size is a ValueError (exit 2) and a complex one
    # ComplexStage (exit 4), at (x0, y0), which the build does not check, and
    # mid-run, where the probe's second stage is the first complex one
    monkeypatch.setattr("rk_error_lab.cli.builtin",
                        lambda name: IVProblem("c", f, 0.0, [1.0, 0.0], 1.0))
    assert main(["--quiet"]) == code
    assert capsys.readouterr() == ("", f"rk-error-lab: {message}\n")


def test_reject_only_run_that_cannot_finish_is_refused_at_once(capsys):
    # reject-only never grows the probed h_init = h_min = 1e-7, so the run would
    # need about 1e12 steps; it is refused before the first, at the default cap
    start = time.perf_counter()
    assert main(["--problem", "riccati_simple", "--policy", "reject-only",
                 "--x-end", "1e5", "--quiet"]) == 4
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert all(part in err for part in ("h_init=1e-07", "max_steps=1000000",
                                        "x_end=100000.0"))


_VALUE_TEXT = st.floats().map(repr) | st.sampled_from(
    ["1e-8", "0.5", "5e-324", "1e-310", "1e308", "1e400", "-1", "0", "", "1e", "abc", "0x10"])


@st.composite
def argvs(draw):
    """Flags of every value kind: registry names and junk, finite, subnormal,
    huge, NaN, inf and malformed numbers; ``--max-steps`` is always bounded."""
    argv = ["--quiet", f"--max-steps={draw(st.integers(-1, 50))}"]
    for flag, values in (("--problem", st.sampled_from(problem_names() + ["vanderpol"])),
                         ("--pair", st.sampled_from(pair_names() + ["rk5_rk6"])),
                         ("--policy", st.sampled_from(POLICIES)),
                         ("--delta", _VALUE_TEXT), ("--sigma", _VALUE_TEXT),
                         ("--h-init", _VALUE_TEXT), ("--x-end", _VALUE_TEXT)):
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(values)}")
    return argv


@settings(max_examples=100, deadline=None, database=None)
@given(argvs())
# spans whose h_min = 1e-12 * span underflows to zero
@example(["--x-end", "5e-324"])
@example(["--x-end", "1e-323"])
def test_no_argv_ends_in_a_traceback(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in {0, 2, 3, 4, 5}


def test_full_run_writes_all_outputs(tmp_path, capsys):
    csv_path = tmp_path / "trace.csv"
    json_path = tmp_path / "summary.json"
    fig_path = tmp_path / "series.csv"
    code = main(["--problem", "paper_exponential", "--delta", "1e-8",
                 "--csv", str(csv_path), "--json", str(json_path),
                 "--figure", str(fig_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "exceeded" in out  # verdict line reports the tolerance crossing

    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_COLUMNS

    summary = json.loads(json_path.read_text())
    assert set(summary) == {"accepted", "rejected", "final_x", "final_delta_lower",
                            "crossing_index", "crossing_x",
                            "condition_violation_index", "bound_coefficient"}
    assert len(rows) - 1 == summary["accepted"]
    assert isinstance(summary["accepted"], int)
    assert isinstance(summary["final_x"], float)
    assert summary["bound_coefficient"] == pytest.approx(0.8 ** 4 + 0.8 ** 5, rel=1e-15)

    with open(fig_path, newline="") as fh:
        fig_rows = list(csv.reader(fh))
    assert fig_rows[0] == ["x", "abs_eps_lower", "abs_alpha_term"]
    assert len(fig_rows) - 1 == summary["accepted"]


def test_policy_sensitivity_regression_anchors(tmp_path):
    # both policies cross the tolerance, at different points; values frozen
    # from this implementation's deterministic runs
    out = {}
    for policy in ("proportional", "reject-only"):
        json_path = tmp_path / f"{policy}.json"
        assert main(["--policy", policy, "--json", str(json_path), "--quiet"]) == 0
        out[policy] = json.loads(json_path.read_text())
    for policy, summary in out.items():
        for name in ("crossing_index", "crossing_x"):
            assert same_bits(summary[name], FLAGSHIP[policy][name]), (policy, name)
    assert out["reject-only"]["crossing_x"] != out["proportional"]["crossing_x"]


def test_trace_bytes_are_pinned(tmp_path):
    trace_path, summary_path = tmp_path / "trace.csv", tmp_path / "summary.json"
    moved = []
    for (name, policy, with_exact), digests in OUTPUT_SHA256.items():
        p = builtin(name)
        if not with_exact:
            p = dataclasses.replace(p, exact=None)
        trace = integrate(PAIR, p, ControllerConfig(delta=1e-8, policy=policy))
        write_trace_csv(trace, str(trace_path))
        write_summary_json(trace, PAIR, 0.8, str(summary_path))
        for kind, path, digest in zip(("trace", "summary"), (trace_path, summary_path),
                                      digests):
            if hashlib.sha256(path.read_bytes()).hexdigest() != digest:
                moved.append((name, policy, with_exact, kind))
    assert moved == []


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_figure_bytes_are_pinned(tmp_path):
    path = tmp_path / "figure.csv"
    moved = []
    for (name, policy), digest in FIGURE_SHA256.items():
        figure1_export(integrate(PAIR, builtin(name), ControllerConfig(delta=1e-8, policy=policy)),
                       str(path))
        if _sha256(path) != digest:
            moved.append((name, policy))
    assert moved == []


@pytest.fixture(scope="module")
def long_trace():
    return integrate(PAIR, builtin("paper_exponential"), ControllerConfig(delta=1e-12))


def test_long_run_bytes_are_pinned(tmp_path, long_trace):
    assert long_trace.summary.accepted == LONG_RUN_STEPS
    trace_path, figure_path = tmp_path / "trace.csv", tmp_path / "figure.csv"
    write_trace_csv(long_trace, str(trace_path))
    figure1_export(long_trace, str(figure_path))
    assert (_sha256(trace_path), _sha256(figure_path)) == LONG_RUN_SHA256


@pytest.mark.parametrize("outputs", [(True, False), (False, True), (True, True)],
                         ids=["trace", "figure", "trace_and_figure"])
def test_the_writers_memory_is_bounded(tmp_path, long_trace, outputs):
    # rows are formatted a block at a time: formatting all 10 438 rows at once
    # took about 11 MB, about 1 KB per row.  A block is joined into one string
    # before it is written, and the trace and the figure written in one pass
    # hold one block of each
    paths = [str(tmp_path / name) if wanted else None
             for name, wanted in zip(("trace.csv", "figure.csv"), outputs)]
    with contextlib.ExitStack() as stack:  # caches filled on first use are not the writers'
        cli._write_tables(long_trace, *paths, stack)
    tracemalloc.start()
    try:
        with contextlib.ExitStack() as stack:
            cli._write_tables(long_trace, *paths, stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000


# floats whose reprs and magnitudes a figure cell could get wrong: signed zeros
# and infinities, NaN, subnormals, and values of one magnitude and either sign
_NORM_FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324, 1e-310, -1e-310,
     1.5, -1.5, 2.2250738585072009e-308, -1.7976931348623157e308])


@settings(max_examples=300, deadline=None, database=None)
@given(st.integers(1, 4).flatmap(lambda d: hnp.arrays(
    np.float64, st.tuples(st.integers(1, 40), st.just(d)), elements=_NORM_FLOATS)))
def test_a_figure_cell_is_the_repr_of_its_row_norm(block):
    # the figure takes each norm's cell from the state's cell: the part of the
    # component of largest magnitude, the first on a tie and a NaN over any
    # number, without its sign
    cells = cli._norm_cells(block, list(cli._state_cells(block)))
    assert list(cells) == list(map(repr, _row_norms(block).tolist()))


def test_a_parsed_trace_retains_at_most_a_quarter_kilobyte_per_row(tmp_path, long_trace):
    # the parsed rows are stored as columns, as a run's are; one StepRecord of
    # seven arrays per row kept 1.21 KB per row
    path = str(tmp_path / "trace.csv")
    write_trace_csv(long_trace, path)
    read_trace_csv(path)  # caches filled on first use are not the reader's
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        parsed = read_trace_csv(path)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(parsed) == long_trace.summary.accepted > 10000
    assert retained / len(parsed) <= 256


_UNWRITABLE_RECORDS = {
    "complex_state": ("w_lower", np.array([1j]), False,
                      "records carry w_lower values that do not fit one column: complex"),
    "string_float": ("x", "0.5", False,
                     "records carry x values that are not all of type float64"),
    "bool_in_float": ("h", True, False,
                      "records carry h values that are not all of type float64"),
    "fractional_int": ("rejects", 1.5, False,
                       "records carry rejects values that are not all of type int64"),
    "string_bool": ("clamped", "no", False,
                    "records carry clamped values that are not all of type bool"),
    "array_in_scalar": ("h", np.array([0.01]), True,
                        "records carry h values that are not all of type float64"),
    "diagnostics_on_some_steps": ("eps_lower", None, False,
                                  "records carry eps_lower on some steps and not on others"),
    **{f"no_{field}": (field, None, True, f"records carry no {field}, which every step has")
       for field in ("x", "rejects", "w_lower", "bound", "clamped")},
}


@pytest.mark.parametrize("case", _UNWRITABLE_RECORDS)
def test_records_whose_values_are_not_of_their_column_type_are_refused(tmp_path, case):
    # a collected record sequence goes through the one conversion of every value,
    # so no value is written as something else: the complex state as its real part,
    # the string as a float, a bool as 1.0, the fraction truncated, a non-empty
    # string as true, an array flattened into a scalar column or a field that every
    # step has as an empty column, which the reader then refused.  The value is put
    # on the second record, or on every record
    field, value, every, message = _UNWRITABLE_RECORDS[case]
    trace = integrate(PAIR, builtin("decay"), ControllerConfig(delta=1e-8))
    records = list(trace.records)
    for k in range(len(records)) if every else [1]:
        records[k] = dataclasses.replace(records[k], **{field: value})
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=f"^{message}$"):
        write_trace_csv(dataclasses.replace(trace, records=records), str(path))
    assert not path.exists()


def test_a_file_whose_columns_cannot_be_stored_is_refused(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv(integrate(PAIR, builtin("decay"), ControllerConfig(delta=1e-8)), str(path))
    lines = path.read_text().splitlines()
    row = lines[2].split(",")
    row[CSV_COLUMNS.index("eps_lower")] = ""
    path.write_text("\n".join(lines[:2] + [",".join(row)] + lines[3:]) + "\n")
    with pytest.raises(ValueError, match="eps_lower on some steps and not on others"):
        read_trace_csv(str(path))
    # cells in their exact form whose values do not fit one column
    for name, cell in (("rejects", str(10 ** 30)), ("w_lower", "1.0;2.0")):
        bad = lines[2].split(",")
        bad[CSV_COLUMNS.index(name)] = cell
        path.write_text("\n".join(lines[:2] + [",".join(bad)] + lines[3:]) + "\n")
        with pytest.raises(ValueError, match=f"{name} values that do not fit one column"):
            read_trace_csv(str(path))


def test_no_crossing_reported_as_null(tmp_path, capsys):
    json_path = tmp_path / "decay.json"
    assert main(["--problem", "decay", "--json", str(json_path)]) == 0
    assert "stayed within" in capsys.readouterr().out
    summary = json.loads(json_path.read_text())
    assert summary["crossing_index"] is None
    assert summary["crossing_x"] is None


def test_oracle_verdict_lines_are_pinned(capsys):
    assert main([]) == 0
    assert capsys.readouterr().out == (
        "global error exceeded delta=1e-08 at x=30.372 (step 155 of 1042); "
        "final |delta|/delta = 82.8\n")
    assert main(["--problem", "decay"]) == 0
    assert capsys.readouterr().out == (
        "global error stayed within delta=1e-08 over [0, 10] (final |delta|/delta = 0.0738)\n")


def test_a_run_without_an_oracle_says_its_global_error_was_not_measured(capsys, monkeypatch):
    # every built-in problem has an exact solution, so one is removed here
    monkeypatch.setattr("rk_error_lab.cli.builtin",
                        lambda name: dataclasses.replace(builtin(name), exact=None))
    assert main(["--problem", "decay", "--x-end", "3"]) == 0
    out = capsys.readouterr()
    assert out.out == "global error not measured over [0, 3]: decay has no exact solution\n"
    assert out.err == ""


def test_a_non_finite_exact_solution_exits_2(tmp_path, capsys, monkeypatch):
    # NaN at x_end only, which final_delta_lower would carry into the JSON summary
    decay = builtin("decay")
    monkeypatch.setattr("rk_error_lab.cli.builtin", lambda name: dataclasses.replace(
        decay, exact=lambda x: np.array([np.nan]) if x == decay.x_end else decay.exact(x)))
    path = tmp_path / "summary.json"
    assert main(["--problem", "decay", "--json", str(path)]) == 2
    assert capsys.readouterr() == (
        "", "rk-error-lab: error: decay: exact solution at x=10.0 is not finite\n")
    assert not path.exists()


def test_a_figure_without_an_oracle_is_an_output_failure(tmp_path, capsys, monkeypatch):
    # the figure series are the oracle's measured errors: a run without them
    # exits 5, as any failure while the outputs are written, without a traceback
    monkeypatch.setattr("rk_error_lab.cli.builtin",
                        lambda name: dataclasses.replace(builtin(name), exact=None))
    path = tmp_path / "figure.csv"
    assert main(["--problem", "decay", "--figure", str(path)]) == 5
    out = capsys.readouterr()
    assert out.err == "rk-error-lab: output failed: trace has no oracle diagnostics to export\n"
    assert out.out == "" and not path.exists()


def test_an_output_failure_removes_the_outputs_the_run_wrote(tmp_path, capsys, monkeypatch):
    # the trace used to stay behind when the summary's directory was missing
    csv_path, json_path = tmp_path / "t.csv", tmp_path / "missing" / "s.json"
    assert main(["--problem", "decay", "--csv", str(csv_path), "--json", str(json_path)]) == 5
    assert "output failed" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    # a figure without an oracle fails before it opens its path: the trace and
    # summary written before it go, and a file already at the figure's path stays
    monkeypatch.setattr("rk_error_lab.cli.builtin",
                        lambda name: dataclasses.replace(builtin(name), exact=None))
    figure = tmp_path / "figure.csv"
    figure.write_text("kept\n")
    assert main(["--problem", "decay", "--csv", str(csv_path), "--json", str(tmp_path / "s.json"),
                 "--figure", str(figure)]) == 5
    assert list(tmp_path.iterdir()) == [figure] and figure.read_text() == "kept\n"


def test_outputs_are_rewritten_in_place_to_exactly_the_new_bytes(tmp_path):
    # each output is written over the file at its path, which is then cut at
    # the end of what was written: a longer file left there keeps none of its
    # tail, a symlink is written through and the file keeps its mode
    argv = ["--problem", "decay", "--quiet"]
    fresh = [tmp_path / name for name in ("t.csv", "s.json", "f.csv")]
    assert main(argv + [arg for flag, path in zip(("--csv", "--json", "--figure"), fresh)
                        for arg in (flag, str(path))]) == 0
    old = [tmp_path / name for name in ("old_t.csv", "old_s.json", "old_f.csv")]
    for path in old:
        path.write_text("z" * 200_000)
        path.chmod(0o640)
    link = tmp_path / "link.json"
    link.symlink_to(old[1])
    assert main(argv + ["--csv", str(old[0]), "--json", str(link),
                        "--figure", str(old[2])]) == 0
    assert [p.read_bytes() for p in old] == [p.read_bytes() for p in fresh]
    assert link.is_symlink() and all(p.stat().st_mode & 0o777 == 0o640 for p in old)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name", problem_names())
def test_one_run_writes_the_bytes_of_the_writers_called_alone(tmp_path, name, policy):
    # run writes the trace and the figure in one pass; each public writer is
    # that pass with one output, and the summary is written on its own
    outs = [tmp_path / f"run_{kind}" for kind in ("t.csv", "s.json", "f.csv")]
    alone = [tmp_path / f"alone_{kind}" for kind in ("t.csv", "s.json", "f.csv")]
    assert main(["--problem", name, "--policy", policy, "--quiet", "--csv", str(outs[0]),
                 "--json", str(outs[1]), "--figure", str(outs[2])]) == 0
    trace = integrate(PAIR, builtin(name), ControllerConfig(policy=policy))
    write_trace_csv(trace, str(alone[0]))
    write_summary_json(trace, PAIR, RunSpec.sigma, str(alone[1]))
    figure1_export(trace, str(alone[2]))
    assert [p.read_bytes() for p in outs] == [p.read_bytes() for p in alone]


def test_an_output_that_cannot_be_opened_removes_the_outputs_opened_before_it(tmp_path,
                                                                             capsys):
    # the trace is opened before the figure: a trace file already at its path
    # was rewritten by the run, so it goes too
    trace = tmp_path / "t.csv"
    trace.write_text("old\n")
    assert main(["--problem", "decay", "--csv", str(trace),
                 "--figure", str(tmp_path / "missing" / "f.csv")]) == 5
    assert "No such file or directory" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_two_outputs_that_name_one_file_are_refused_before_the_run(tmp_path, capsys,
                                                                    monkeypatch):
    def no_run(*args):
        raise AssertionError("integrate ran")
    monkeypatch.setattr("rk_error_lab.cli.integrate", no_run)
    kept, link, hard = (tmp_path / name for name in ("out.csv", "link.csv", "hard.csv"))
    kept.write_text("kept\n")
    link.symlink_to(kept)
    os.link(kept, hard)
    new, new_link = tmp_path / "new.csv", tmp_path / "new_link.csv"
    new_link.symlink_to(new)  # dangling until the run would create new.csv
    for csv_path, flag, other in ((kept, "--figure", kept), (kept, "--json", link),
                                  (link, "--figure", tmp_path / "." / "out.csv"),
                                  (hard, "--figure", kept), (new, "--json", new_link),
                                  (new, "--figure", tmp_path / "." / "new.csv")):
        assert main(["--problem", "decay", "--csv", str(csv_path), flag, str(other)]) == 2
        assert capsys.readouterr().err == (
            f"rk-error-lab: error: --csv and {flag} name the same file {other}\n")
    assert kept.read_text() == "kept\n" and not new.exists()


def test_outputs_to_a_device_are_written_without_a_cut():
    # only a regular file is cut: ftruncate on /dev/null fails with EINVAL.  A
    # device is not a file that two outputs could overwrite, so all may name it
    for flags in (["--csv"], ["--json"], ["--figure"], ["--csv", "--json", "--figure"]):
        assert main(["--problem", "decay", "--quiet",
                     *(arg for flag in flags for arg in (flag, os.devnull))]) == 0


@pytest.fixture
def removed(monkeypatch):
    """The paths given to ``os.remove``, which still removes them."""
    paths, remove = [], os.remove
    monkeypatch.setattr(os, "remove", lambda path: (paths.append(path), remove(path)))
    return paths


def test_a_failed_write_removes_its_file_empties_a_linked_one_and_leaves_a_device(
        tmp_path, removed):
    # what was written before the failure may parse as a shorter trace, so no
    # part of it stays: a regular file named by the path is removed, one reached
    # through a symlink is cut to 0 bytes and the link kept, and a device is
    # neither cut nor removed
    path, target, link = (tmp_path / name for name in ("out.csv", "target.csv", "link.csv"))
    for p in (path, target):
        p.write_text("old," * 10_000)
    link.symlink_to(target)
    for out in (path, link, os.devnull):
        with pytest.raises(RuntimeError, match="stop"):
            with _rewritten(str(out)) as fh:
                fh.write("new\n")
                raise RuntimeError("stop")
    assert removed == [str(path)] and sorted(tmp_path.iterdir()) == [link, target]
    assert link.is_symlink() and target.read_bytes() == b""
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def _full(*args, **kwargs):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def _failing_block(n):
    """A ``_write_rows`` that writes ``n`` blocks and then finds the disk full."""
    write_rows, calls = cli._write_rows, itertools.count()

    def write(fh, cells):
        if next(calls) == n:
            _full()
        write_rows(fh, cells)
    return write


@pytest.mark.parametrize("argv", [["--csv", os.devnull, "--figure", "/no/such/dir/f.csv"],
                                  ["--figure", os.devnull, "--json", "/no/such/dir/s.json"]])
def test_a_failed_run_leaves_a_device_alone(argv, monkeypatch, capsys):
    # a run used to remove every output it had opened, /dev/null included, which
    # as root deletes the device node: os.remove is a recorder here
    removed = []
    monkeypatch.setattr(os, "remove", removed.append)
    assert main(["--problem", "decay", *argv]) == 5
    assert "No such file or directory" in capsys.readouterr().err
    assert removed == [] and stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_a_failed_run_keeps_a_symlinked_output_and_empties_its_target(tmp_path, capsys):
    # a run used to remove the link and leave the target holding the trace's header
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("old\n" * 100)
    link.symlink_to(target)
    assert main(["--problem", "decay", "--csv", str(link),
                 "--figure", str(tmp_path / "missing" / "f.csv")]) == 5
    assert "No such file or directory" in capsys.readouterr().err
    assert link.is_symlink() and target.read_bytes() == b""


def test_a_summary_that_fails_to_write_leaves_no_output(tmp_path, monkeypatch, capsys):
    # an empty summary used to stay behind once the trace was removed
    monkeypatch.setattr(json, "dumps", _full)
    assert main(["--problem", "decay", "--csv", str(tmp_path / "t.csv"),
                 "--json", str(tmp_path / "s.json")]) == 5
    assert "No space left on device" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_a_trace_cut_short_by_a_full_disk_leaves_no_file(tmp_path, long_trace, monkeypatch):
    # the first block of the delta=1e-12 run parses and holds no crossing, which
    # comes later: such a file would say the global error stayed within delta
    assert long_trace.summary.crossing_index > cli._BLOCK
    monkeypatch.setattr(cli, "_write_rows", _failing_block(1))
    with pytest.raises(OSError, match="No space left on device"):
        write_trace_csv(long_trace, str(tmp_path / "trace.csv"))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind", ["file", "symlink", "device"])
@pytest.mark.parametrize("writer", ["write_trace_csv", "figure1_export", "write_summary_json"])
def test_a_writer_called_alone_follows_the_failure_rule(tmp_path, monkeypatch, removed, writer,
                                                        kind):
    # a failure in the middle of the writing: the file is removed, a symlink
    # kept and its target emptied, and a device left alone
    trace = integrate(PAIR, builtin("decay"), ControllerConfig())
    target, link = tmp_path / "target", tmp_path / "link"
    target.write_text("old\n")
    link.symlink_to(target)
    monkeypatch.setattr(cli, "_write_rows", _failing_block(0))
    monkeypatch.setattr(json, "dumps", _full)
    out = {"file": target, "symlink": link, "device": Path(os.devnull)}[kind]
    args = (PAIR, RunSpec.sigma) if writer == "write_summary_json" else ()
    with pytest.raises(OSError, match="No space left on device"):
        getattr(cli, writer)(trace, *args, str(out))
    assert removed == ([str(target)] if kind == "file" else [])
    assert target.exists() == (kind != "file") and link.is_symlink()
    assert kind == "file" or target.read_bytes() == (b"" if kind == "symlink" else b"old\n")
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


@pytest.mark.parametrize("where", ["_write_rows", "dumps"])
def test_an_interrupted_run_leaves_no_output(tmp_path, monkeypatch, where):
    # Ctrl-C unwinds every output the run opened and goes on: the trace used to
    # keep its header
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt
    monkeypatch.setattr(cli if where == "_write_rows" else json, where, interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(["--problem", "decay", "--csv", str(tmp_path / "t.csv"),
              "--json", str(tmp_path / "s.json"), "--figure", str(tmp_path / "f.csv")])
    assert list(tmp_path.iterdir()) == []


def test_x_end_override(tmp_path):
    json_path = tmp_path / "short.json"
    assert main(["--x-end", "50", "--json", str(json_path), "--quiet"]) == 0
    assert json.loads(json_path.read_text())["final_x"] == 50.0


def test_quiet_suppresses_verdict(capsys, monkeypatch):
    assert main(["--problem", "decay", "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    # python -m rk_error_lab, run in-process
    monkeypatch.setattr(sys, "argv", ["rk_error_lab", "--problem", "decay", "--quiet"])
    with pytest.raises(SystemExit) as done:
        runpy.run_module("rk_error_lab", run_name="__main__")
    assert done.value.code == 0 and capsys.readouterr().out == ""


@pytest.mark.parametrize("oracle", [True, False], ids=["oracle", "no_oracle"])
def test_csv_round_trip_bit_exact(tmp_path, oracle):
    p = builtin("decay")
    if not oracle:
        p = dataclasses.replace(p, exact=None)
    trace = integrate(PAIR, p, ControllerConfig(delta=1e-8, sigma=0.8))
    assert (trace.records[0].eps_lower is None) is not oracle
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, str(path))
    parsed = read_trace_csv(str(path))
    assert len(parsed) == len(trace.records)
    names = [f.name for f in dataclasses.fields(StepRecord)]
    assert CSV_COLUMNS == names
    for orig, back in zip(trace.records, parsed):
        moved = [n for n in names if not same_bits(getattr(orig, n), getattr(back, n))]
        assert moved == [], f"step {orig.i}"


# finite floats with the edge cases a formatter could get wrong: signed zeros,
# subnormals, the normal boundary and the largest finite values
_EDGE_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308,
     1.7976931348623157e308, -1.7976931348623157e308, 1e308])
_STATE_FIELDS = ("w_lower", "w_higher", "beta_lower")
_ORACLE_STATE_FIELDS = ("eps_lower", "delta_lower", "delta_higher", "alpha_term")


@st.composite
def run_records(draw):
    """The records of a run as ``integrate`` stores them: columns of ``n`` steps
    with ``d``-component states, the oracle's all present or all absent, and
    ``bound`` one value broadcast over the steps."""
    n = draw(st.integers(1, 8) | st.sampled_from([1023, 1024, 1025, 2048, 2049]))
    d = draw(st.integers(1, 3))
    floats = lambda shape: draw(hnp.arrays(np.float64, shape, elements=_EDGE_FLOATS))
    cols = {"i": np.arange(1, n + 1),
            "rejects": draw(hnp.arrays(np.int64, n, elements=st.integers(0, 2 ** 63 - 1))),
            "clamped": draw(hnp.arrays(bool, n)),
            "bound": np.broadcast_to(draw(_EDGE_FLOATS), n)}
    cols.update({name: floats(n) for name in ("x", "h", "cond_lhs")})
    cols.update({name: floats((n, d)) for name in _STATE_FIELDS})
    if draw(st.booleans()):
        cols.update({name: floats((n, d)) for name in _ORACLE_STATE_FIELDS},
                    cond_rhs=floats(n), cond_holds=draw(hnp.arrays(bool, n)))
    return _Records(cols, n)


def _reference_bytes(header, rows) -> bytes:
    """What ``csv.writer`` writes for ``header`` and ``rows``, one cell at a time."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue().encode("utf-8")


@settings(max_examples=20, deadline=None, database=None)
@given(records=run_records())
def test_the_writers_give_the_bytes_of_a_cell_by_cell_writer(records):
    # the writers format whole columns at a time; the reference formats one cell
    # at a time, a state by the formatter the reader rebuilds each cell with
    gathered = tuple(records)
    trace_rows = [["" if v is None else fmt(v.tolist() if isinstance(v, np.ndarray) else v)
                   for fmt, v in zip(_FORMATS, map(r.__getattribute__, CSV_COLUMNS))]
                  for r in gathered]
    figure_rows = [[repr(r.x), repr(inf_norm(r.eps_lower)), repr(inf_norm(r.alpha_term))]
                   for r in gathered if r.eps_lower is not None]
    with tempfile.TemporaryDirectory() as tmp:
        paths = {kind: Path(tmp) / f"{kind}.csv" for kind in ("run", "gathered", "figure")}
        write_trace_csv(Trace(records, None), str(paths["run"]))
        write_trace_csv(Trace(gathered, None), str(paths["gathered"]))
        assert paths["run"].read_bytes() == _reference_bytes(CSV_COLUMNS, trace_rows)
        # the run's bound is broadcast, the gathered one a column of copies
        assert paths["gathered"].read_bytes() == paths["run"].read_bytes()
        parsed = read_trace_csv(str(paths["run"]))
        if figure_rows:
            figure1_export(Trace(records, None), str(paths["figure"]))
            assert paths["figure"].read_bytes() == _reference_bytes(
                ["x", "abs_eps_lower", "abs_alpha_term"], figure_rows)
    assert len(parsed) == len(records)
    for name, col in records.columns.items():
        back = parsed.columns[name]
        assert (back is None if col is None else
                back.dtype == col.dtype and back.shape == col.shape
                and back.tobytes() == col.tobytes()), name


def test_malformed_rows_are_refused_with_their_line(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv(integrate(PAIR, builtin("decay"), ControllerConfig(delta=1e-8)), str(path))
    lines = path.read_text().splitlines()
    row = lines[2].split(",")
    i, x, h, state, holds, clamped = map(
        CSV_COLUMNS.index, ("i", "x", "h", "w_lower", "cond_holds", "clamped"))
    bad_cells = [
        (clamped, "False"),           # clamped neither true nor false
        (clamped, "True"),
        (clamped, "1"),
        (holds, "yes"),               # cond_holds neither true, false nor empty
        (i, "1_0"),                   # digit separators in i
        (i, "١٢"),                    # non-ASCII digits in i
        (i, "-0"),                    # a sign str never writes
        (x, " 1_0.5 "),               # spaces and separators in x
        (x, "1e-1"),                  # x not in its shortest repr
        (x, "1.50"),
        (x, "+1.0"),
        (x, "0x1p0"),                 # float syntax Python does not read
        (x, f'"{row[x]}"'),           # a quoted cell, which csv.reader used to unquote
        (state, row[state] + " "),    # trailing space in a state
        (state, "1.0;"),              # an empty component in a state
        (h, ""),                      # an empty cell in a column that is never empty
    ]
    bad_rows = [(row[:-1], "15 cells, expected 16"), (row + ["0"], "17 cells, expected 16")]
    bad_rows += [(row[:col] + [cell] + row[col + 1:], f"malformed cell {cell!r}")
                 for col, cell in bad_cells]
    for bad, message in bad_rows:
        path.write_text("\n".join(lines[:2] + [",".join(bad)] + lines[3:]) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"line 3: {message}")):
            read_trace_csv(str(path))
    path.write_text("\n".join(["x"] + lines[1:]) + "\n")
    with pytest.raises(ValueError, match="line 1: unexpected CSV header"):
        read_trace_csv(str(path))
    # a byte that is not UTF-8 is refused as its cell, or as the header
    undecodable = lines[3].split(",")
    undecodable[x] = "\udcff" + undecodable[x][1:]
    for bad, message in (([lines[0], lines[1], lines[2], ",".join(undecodable)],
                          f"line 4: malformed cell {undecodable[x]!r}"),
                         (["\udcff" + lines[0][1:]], "line 1: unexpected CSV header")):
        path.write_bytes(("\n".join(bad + lines[len(bad):]) + "\n").encode(
            "utf-8", "surrogateescape"))
        with pytest.raises(ValueError, match=re.escape(message)):
            read_trace_csv(str(path))
    path.write_text("\n".join(lines) + "\n")
    assert len(read_trace_csv(str(path))) == len(lines) - 1


def test_a_negative_rejects_is_refused_with_its_line(tmp_path):
    # the cell is in its exact form, but a run never counts fewer than 0
    # rejections: a rejects of -1 used to read back as a success
    path = tmp_path / "trace.csv"
    write_trace_csv(integrate(PAIR, builtin("decay"), ControllerConfig(delta=1e-8)), str(path))
    lines = path.read_text().splitlines()
    row = lines[2].split(",")
    row[CSV_COLUMNS.index("rejects")] = "-1"
    path.write_text("\n".join(lines[:2] + [",".join(row)] + lines[3:]) + "\n")
    with pytest.raises(ValueError, match=re.escape("line 3: malformed cell '-1'") + "$"):
        read_trace_csv(str(path))


def test_readme_lists_the_csv_columns():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("CSV trace columns", 1)[1].split("```")[1]
    assert "".join(block.split()).split(",") == CSV_COLUMNS


def test_figure_export_zero_field(tmp_path):
    p = IVProblem(name="zero", f=lambda x, y: np.zeros_like(y), x0=0.0, y0=[1.0],
                  x_end=1.0, exact=lambda x: np.array([1.0]))
    trace = integrate(PAIR, p, ControllerConfig(delta=1e-8))
    path = tmp_path / "fig.csv"
    figure1_export(trace, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == trace.summary.accepted
    assert all(float(r[1]) == 0.0 and float(r[2]) == 0.0 for r in rows)


def test_figure_export_requires_diagnostics(tmp_path):
    # both columns it writes, before the file is opened: records without
    # alpha_term used to end in a bare TypeError after the header was written
    p = IVProblem(name="plain", f=lambda x, y: -y, x0=0.0, y0=[1.0], x_end=2.0)
    trace = integrate(PAIR, p, ControllerConfig(delta=1e-8))
    with_eps = integrate(PAIR, builtin("decay"), ControllerConfig(delta=1e-8))
    records = [dataclasses.replace(r, alpha_term=None) for r in with_eps.records]
    path = tmp_path / "fig.csv"
    for t in (trace, dataclasses.replace(with_eps, records=records)):
        with pytest.raises(MissingDiagnostics, match="^trace has no oracle diagnostics to export$"):
            figure1_export(t, str(path))
        assert not path.exists()


def test_run_spec_round_trip_through_run(tmp_path):
    spec = parse_args(["--problem", "riccati_simple", "--delta", "1e-7",
                       "--json", str(tmp_path / "r.json"), "--quiet"])
    assert run(spec) == 0
    summary = json.loads((tmp_path / "r.json").read_text())
    assert summary["final_x"] == 5.0
