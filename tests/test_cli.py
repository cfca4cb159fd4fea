import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import re
import runpy
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from pins import LONG_RUN_STEPS
from rk_error_lab import ControllerConfig, IVProblem, builtin, builtin_pair, integrate
from rk_error_lab.controller import (POLICIES, MaxRejectsExceeded, MaxStepsExceeded,
                                    NonFiniteState, StepsizeUnderflow, Trace)
from rk_error_lab.error_analysis import StepRecord, StepUnderflow, _Records
from rk_error_lab.problems import problem_names
from rk_error_lab.rk_core import NonFiniteStage, inf_norm, pair_names
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


def test_invalid_values_exit_2(capsys):
    assert main(["--delta", "-1"]) == 2
    assert main(["--sigma", "0"]) == 2
    assert main(["--max-steps", "0"]) == 2
    assert main(["--not-a-flag"]) == 2
    # non-finite and out-of-range values are refused where they enter
    assert main(["--x-end", "-1"]) == 2
    assert main(["--delta", "inf"]) == 2
    assert main(["--delta", "nan"]) == 2
    assert main(["--x-end", "inf"]) == 2
    assert main(["--h-init", "nan"]) == 2
    # outside the limits resolved from the problem, [1e-10, 10] by default
    assert main(["--h-init", "1000"]) == 2
    assert main(["--h-init", "1e-300"]) == 2
    assert main(["--problem", "decay", "--x-end", "1e100"]) == 2
    capsys.readouterr()
    # a span so long that h_max**5 overflows a float, or so short that
    # h_min = 1e-12 * span underflows to zero; the message names x_end
    for x_end in ("1e100", "1e105", "5e-324", "1e-323", "1e-315"):
        assert main(["--x-end", x_end]) == 2
        assert f"x_end={float(x_end)!r}" in capsys.readouterr().err


def test_unknown_registry_names_exit_3(capsys):
    assert main(["--problem", "vanderpol"]) == 3
    assert main(["--pair", "rk5_rk6"]) == 3
    err = capsys.readouterr().err
    assert "unknown" in err


def test_integrator_failure_exits_4(capsys):
    # tolerance so tight that the required stepsize underflows h_min
    assert main(["--problem", "decay", "--delta", "1e-60", "--quiet"]) == 4
    assert "failed" in capsys.readouterr().err
    # accepted-step cap hit before x_end
    assert main(["--max-steps", "5", "--quiet"]) == 4
    # a huge span whose h_max**5 still fits: the probed stepsize is below h_min
    assert main(["--x-end", "1e60", "--quiet"]) == 4
    # a span so small that h**5 underflows to zero
    assert main(["--x-end", "1e-70", "--quiet"]) == 4
    # a tolerance so loose that the steps pass x = 10275, where exp(x ln(1000)/100) overflows
    assert main(["--x-end", "2e4", "--delta", "1e100", "--quiet"]) == 4
    # a span whose probe step overflows the Riccati right-hand side -y*y
    assert main(["--problem", "riccati_simple", "--x-end", "1e40", "--quiet"]) == 4
    capsys.readouterr()


@pytest.mark.parametrize("error", [StepsizeUnderflow, MaxStepsExceeded, MaxRejectsExceeded,
                                   NonFiniteState, StepUnderflow, NonFiniteStage, OverflowError])
def test_each_integrator_failure_exits_4(error, monkeypatch, capsys):
    # exit 4 is chosen by family: each failure is an ArithmeticError or a RuntimeError
    def integrate(pair, problem, cfg):
        raise error("the run failed")
    monkeypatch.setattr("rk_error_lab.cli.integrate", integrate)
    assert main(["--quiet"]) == 4
    assert capsys.readouterr() == ("", "rk-error-lab: integration failed: the run failed\n")


def test_a_rhs_turning_complex_mid_run_exits_4(monkeypatch, capsys):
    # real at (x0, y0), complex at every other x: the probe's second stage is refused
    monkeypatch.setattr("rk_error_lab.cli.builtin", lambda name: IVProblem(
        "c", lambda x, y: -y if x == 0.0 else -y + 1j * y, 0.0, [1.0], 1.0))
    assert main(["--quiet"]) == 4
    assert capsys.readouterr() == (
        "", "rk-error-lab: integration failed: rk3: stage 2 is complex at x=0.0, h=0.01\n")


@pytest.mark.parametrize("f, code, message", [
    (lambda x, y: np.array([y[1], -y[0]]) if x == 0.0 else y[1], 2,
     "error: rk3: stage 2 is of shape (), not (2,), at x=0.0, h=0.01"),
    (lambda x, y: 1j * y, 4, "integration failed: rk3: stage 1 is complex at x=0.0, h=0.01"),
], ids=["one-value", "complex-at-x0"])
def test_a_rhs_refused_where_its_stage_is_stored_exits_by_family(f, code, message, monkeypatch,
                                                                  capsys):
    # a value of another size is a ValueError (exit 2) and a complex one
    # ComplexStage (exit 4), also at (x0, y0), which the build does not check
    monkeypatch.setattr("rk_error_lab.cli.builtin",
                        lambda name: IVProblem("c", f, 0.0, [1.0, 0.0], 1.0))
    assert main(["--quiet"]) == code
    assert capsys.readouterr() == ("", f"rk-error-lab: {message}\n")


def test_long_span_on_a_smooth_problem_completes():
    # the probe lands on h_min = 1e-7, where the estimate is 0; the growth cap
    # keeps the next step from jumping to h_max = 1e4
    assert main(["--problem", "riccati_simple", "--x-end", "1e5", "--quiet"]) == 0


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


def test_io_failure_exits_5(capsys, tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "t.csv"
    assert main(["--problem", "decay", "--csv", str(missing), "--quiet"]) == 5
    # an empty path is a path open() refuses, not an output left out
    for flag in ("--csv", "--json", "--figure"):
        assert main(["--problem", "decay", flag, "", "--quiet"]) == 5
    assert main(["--problem", "decay", "--csv", "a\0b", "--quiet"]) == 5
    assert "output failed" in capsys.readouterr().err


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
    assert out["proportional"]["crossing_index"] == 155
    assert out["proportional"]["crossing_x"] == 30.371983519643603
    assert out["reject-only"]["crossing_index"] == 44
    assert out["reject-only"]["crossing_x"] == 11.278686635103092
    assert out["reject-only"]["crossing_x"] != out["proportional"]["crossing_x"]


# SHA-256 of the write_trace_csv and write_summary_json bytes at delta=1e-8, by
# (problem, policy, with exact solution); a change that moves any bit of a
# trace or a summary moves its digest
OUTPUT_SHA256 = {
    ("paper_exponential", "proportional", True): (
        "cc7107a2a7c447fbe4e6c91c01f3edabe6281e540bcce9bc7fb9f2cf90578283",
        "aeca180154f531b2fe596f5a9109f1df9f40153bca7907bb6402a21e13a45c4e"),
    ("paper_exponential", "proportional", False): (
        "9ecd8cc7efbd07a030954f1dea42c48b85aba72a72a31650e07b1c4ed83c5f68",
        "aa8fbd768b973bdcce434a63cc833eea3a806cefe01523913879382ba0842572"),
    ("paper_exponential", "reject-only", True): (
        "ff915aa8352aa1be64d1644f1bac07409ad677529fd37ac65df790aac11ed45f",
        "ad2d76dc27522a253971cb0ad3162f19502397f0564429de198fae4065c1ae45"),
    ("paper_exponential", "reject-only", False): (
        "b1718e6c6be4877d28b00db4492b7fad79e0dd541a2db8de0d4906203149856e",
        "beecba612bcd9e78b7d4a80e5f2d1eb081d002ce89e5ba815f8336c73439fe40"),
    ("decay", "proportional", True): (
        "88282a9b39568cc67e17aa695912960f002bf3dae4ca76405a0530309b40615c",
        "b77d97dc5bece019db85fc3da326d7a3a1edc88c9c1bb8263ae6cec1578f87f4"),
    ("decay", "proportional", False): (
        "3ea9aa3a97237c2533ba2a4ed5505b3714ef34c189574a877090bf8880c019cf",
        "aaf270497dae0040510de906b770bf96e0ddabac020d7b63556d46dfc9524ee4"),
    ("decay", "reject-only", True): (
        "086625b3162f1031d569c3edff4d8d51031045ce3da5f001cf5f37a20f418b4a",
        "183742f130c1d50d577e0f50fd2ff742bd0ebac750f981ad754aeb76e9643828"),
    ("decay", "reject-only", False): (
        "2557babb64423e68fab7b2fe892c25a766526d63f0a9035eaad80336ac68bdbd",
        "ff182c41f3824dd14212965fd068d55b142edee0d717d189a3e2302c98923ddc"),
    ("riccati_simple", "proportional", True): (
        "dc35f7f56a14ee204fdc141c3977de37b56ad93c38d61a0ad75c1a854d2ad934",
        "69a6749b3455e5cc128b9763dc50ca669a2c59920523b242b588a52439152306"),
    ("riccati_simple", "proportional", False): (
        "d1fcb63dd119606a5e31960eeb08fbf7b8f3f28fea0b81ce682bb9492b7420d4",
        "60b362f5af9e5153197eaa3428b54dac161bbb6d3544b52809e1a76ffdb9f225"),
    ("riccati_simple", "reject-only", True): (
        "bc1e207e88b3b6d7ba9563240313c8f8b430788855d454e8db76460a5570817a",
        "9e52f11485b91be84071b90f8b4d296658d887c508463620bbd0f52f5bfde18f"),
    ("riccati_simple", "reject-only", False): (
        "c24a4eb7cd61344f5e2f20a6033f643c23ffab65ad514e20e96b85be8ca32829",
        "9f2f8a489c78906b07a4fe8041013a2ed078b8e3e89f2d547bd2a7a07e301ad3"),
}


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


# SHA-256 of the figure1_export bytes at delta=1e-8, by (problem, policy)
FIGURE_SHA256 = {
    ("paper_exponential", "proportional"):
        "96c9c09931470a2b925c852a648b5f8791cd011b93b71f4af9f4f12b800ab2bf",
    ("paper_exponential", "reject-only"):
        "0f0283a3dc9259d44c4b160940ffe16a2d80ef00eb1e54a6f19c5c453820c676",
    ("decay", "proportional"):
        "4daafe5eafd8671dbd5587fc7489378d005835db791bae891d8257a607d0b3c3",
    ("decay", "reject-only"):
        "2951684d23570ae73d2044eda0d5882bf3fa99d1a881f5f9053e466f42249208",
    ("riccati_simple", "proportional"):
        "125b90e35b8d8b6f00f59bdee868b8dbaf6c303d30c1f4029b0c77528e22c9fb",
    ("riccati_simple", "reject-only"):
        "ec175ddd33e38c41f723f29f72940fcc4c9025bf7c04deb4be7fcb1c41c0eee6",
}

# SHA-256 of the trace and figure bytes of paper_exponential at delta=1e-12 on
# the full interval: 10 438 rows, so the writers cross many block boundaries
LONG_RUN_SHA256 = (
    "c27e33b10a82a36398b7e9a06dd5f63713fd717f2020aa4d5173af076a39bf96",
    "ffe7855b72db24ef75342a08302f5af83e4b61da084ca39869177209c0e71dfa",
)


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
    trace = integrate(PAIR, builtin("paper_exponential"), ControllerConfig(delta=1e-12))
    assert trace.summary.accepted == LONG_RUN_STEPS
    return trace


def test_long_run_bytes_are_pinned(tmp_path, long_trace):
    trace_path, figure_path = tmp_path / "trace.csv", tmp_path / "figure.csv"
    write_trace_csv(long_trace, str(trace_path))
    figure1_export(long_trace, str(figure_path))
    assert (_sha256(trace_path), _sha256(figure_path)) == LONG_RUN_SHA256


def test_trace_writer_memory_is_bounded(tmp_path, long_trace):
    # rows are formatted a block at a time: formatting all 10 438 rows at once
    # took about 11 MB, about 1 KB per row
    path = str(tmp_path / "trace.csv")
    write_trace_csv(long_trace, path)  # caches filled on first use are not the writer's
    tracemalloc.start()
    try:
        write_trace_csv(long_trace, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000


def test_figure_writer_memory_is_bounded(tmp_path, long_trace):
    # a block of figure rows is joined into one string before it is written,
    # which must stay as small as the trace writer's blocks
    path = str(tmp_path / "figure.csv")
    figure1_export(long_trace, path)  # caches filled on first use are not the writer's
    tracemalloc.start()
    try:
        figure1_export(long_trace, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000


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
    assert len(parsed) == LONG_RUN_STEPS
    assert retained / len(parsed) <= 256


def test_records_with_diagnostics_on_some_steps_only_are_refused(tmp_path):
    trace = integrate(PAIR, builtin("decay"), ControllerConfig(delta=1e-8))
    records = list(trace.records)
    records[1] = dataclasses.replace(records[1], eps_lower=None)
    with pytest.raises(ValueError, match="eps_lower on some steps and not on others"):
        write_trace_csv(dataclasses.replace(trace, records=records), str(tmp_path / "t.csv"))


@pytest.mark.parametrize("field, value, message", [
    ("w_lower", np.array([1j]), "records carry w_lower values that do not fit one column: "
                                "complex"),
    ("x", "0.5", "records carry x values that do not fit one column: .* not real numbers"),
    ("rejects", 1.5, "records carry rejects values that are not all of type int64"),
    ("clamped", "no", "records carry clamped values that are not all of type bool"),
], ids=["complex_state", "string_float", "fractional_int", "string_bool"])
def test_records_whose_values_are_not_of_their_column_type_are_refused(
        tmp_path, field, value, message):
    # a gathered record sequence goes through the one conversion of every value,
    # so no value is written as something else: the complex state as its real part,
    # the string as a float, the fraction truncated or a non-empty string as true
    trace = integrate(PAIR, builtin("decay"), ControllerConfig(delta=1e-8))
    records = list(trace.records)
    records[1] = dataclasses.replace(records[1], **{field: value})
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=message):
        write_trace_csv(dataclasses.replace(trace, records=records), str(path))
    assert not path.exists()


def test_records_with_an_array_in_a_scalar_field_are_refused(tmp_path):
    # a (1,) array in h on every record is not flattened into the h column
    trace = integrate(PAIR, builtin("decay"), ControllerConfig(delta=1e-8))
    records = [dataclasses.replace(r, h=np.array([r.h])) for r in trace.records]
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="records carry h values that are not all of type float64"):
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
    # NaN at x_end only: the run used to exit 0 and write a bare NaN, which is
    # not JSON, as final_delta_lower
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


def test_outputs_to_a_device_are_written_without_a_cut():
    # only a regular file is cut: ftruncate on /dev/null fails with EINVAL
    for flag in ("--csv", "--json", "--figure"):
        assert main(["--problem", "decay", "--quiet", flag, os.devnull]) == 0


def test_a_failed_write_leaves_what_was_written_before_it(tmp_path):
    # the file is cut where the writer stopped, as a truncating open would leave it
    path = tmp_path / "out.csv"
    path.write_text("old," * 10_000)
    with pytest.raises(RuntimeError, match="stop"):
        with _rewritten(str(path)) as fh:
            fh.write("new\n")
            raise RuntimeError("stop")
    assert path.read_bytes() == b"new\n"


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


def _same_bits(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, float):
        return isinstance(b, float) and a.hex() == b.hex()
    if a is None or isinstance(a, bool):
        return a is b
    return type(a) is type(b) and a == b


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
        moved = [n for n in names if not _same_bits(getattr(orig, n), getattr(back, n))]
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
    p = IVProblem(name="plain", f=lambda x, y: -y, x0=0.0, y0=[1.0], x_end=2.0)
    trace = integrate(PAIR, p, ControllerConfig(delta=1e-8))
    with pytest.raises(MissingDiagnostics):
        figure1_export(trace, str(tmp_path / "fig.csv"))


def test_run_spec_round_trip_through_run(tmp_path):
    spec = parse_args(["--problem", "riccati_simple", "--delta", "1e-7",
                       "--json", str(tmp_path / "r.json"), "--quiet"])
    assert run(spec) == 0
    summary = json.loads((tmp_path / "r.json").read_text())
    assert summary["final_x"] == 5.0
