import csv
import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from rk_error_lab import ControllerConfig, IVProblem, builtin, builtin_pair, integrate
from rk_error_lab.error_analysis import StepRecord
from rk_error_lab.cli import (
    CSV_COLUMNS,
    MissingDiagnostics,
    figure1_export,
    main,
    parse_args,
    read_trace_csv,
    run,
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


def test_flag_parsing():
    spec = parse_args(["--problem", "decay", "--delta", "1e-6", "--sigma", "0.9",
                       "--policy", "reject-only", "--h-init", "0.05",
                       "--x-end", "4.0", "--csv", "t.csv", "--json", "t.json",
                       "--quiet"])
    assert spec.problem == "decay" and spec.delta == 1e-6 and spec.sigma == 0.9
    assert spec.policy == "reject-only" and spec.h_init == 0.05 and spec.x_end == 4.0
    assert spec.csv_path == "t.csv" and spec.json_path == "t.json" and spec.quiet


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
    # a span so large that h_max**5 overflows a float
    assert main(["--x-end", "1e100"]) == 2
    assert main(["--x-end", "1e105"]) == 2
    assert main(["--problem", "decay", "--x-end", "1e100"]) == 2
    capsys.readouterr()


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
    capsys.readouterr()


def test_io_failure_exits_5(capsys, tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "t.csv"
    assert main(["--problem", "decay", "--csv", str(missing), "--quiet"]) == 5
    capsys.readouterr()


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


# SHA-256 of the write_trace_csv bytes at delta=1e-8, by (problem, policy, with
# exact solution); a change that moves any bit of a trace moves its digest
TRACE_SHA256 = {
    ("paper_exponential", "proportional", True):
        "cc7107a2a7c447fbe4e6c91c01f3edabe6281e540bcce9bc7fb9f2cf90578283",
    ("paper_exponential", "proportional", False):
        "9ecd8cc7efbd07a030954f1dea42c48b85aba72a72a31650e07b1c4ed83c5f68",
    ("paper_exponential", "reject-only", True):
        "ff915aa8352aa1be64d1644f1bac07409ad677529fd37ac65df790aac11ed45f",
    ("paper_exponential", "reject-only", False):
        "b1718e6c6be4877d28b00db4492b7fad79e0dd541a2db8de0d4906203149856e",
    ("decay", "proportional", True):
        "88282a9b39568cc67e17aa695912960f002bf3dae4ca76405a0530309b40615c",
    ("decay", "proportional", False):
        "3ea9aa3a97237c2533ba2a4ed5505b3714ef34c189574a877090bf8880c019cf",
    ("decay", "reject-only", True):
        "086625b3162f1031d569c3edff4d8d51031045ce3da5f001cf5f37a20f418b4a",
    ("decay", "reject-only", False):
        "2557babb64423e68fab7b2fe892c25a766526d63f0a9035eaad80336ac68bdbd",
    ("riccati_simple", "proportional", True):
        "dc35f7f56a14ee204fdc141c3977de37b56ad93c38d61a0ad75c1a854d2ad934",
    ("riccati_simple", "proportional", False):
        "d1fcb63dd119606a5e31960eeb08fbf7b8f3f28fea0b81ce682bb9492b7420d4",
    ("riccati_simple", "reject-only", True):
        "bc1e207e88b3b6d7ba9563240313c8f8b430788855d454e8db76460a5570817a",
    ("riccati_simple", "reject-only", False):
        "c24a4eb7cd61344f5e2f20a6033f643c23ffab65ad514e20e96b85be8ca32829",
}


def test_trace_bytes_are_pinned(tmp_path):
    path = tmp_path / "trace.csv"
    moved = []
    for (name, policy, with_exact), digest in TRACE_SHA256.items():
        p = builtin(name)
        if not with_exact:
            p = dataclasses.replace(p, exact=None)
        write_trace_csv(integrate(PAIR, p, ControllerConfig(delta=1e-8, policy=policy)),
                        str(path))
        if hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            moved.append((name, policy, with_exact))
    assert moved == []


def test_no_crossing_reported_as_null(tmp_path, capsys):
    json_path = tmp_path / "decay.json"
    assert main(["--problem", "decay", "--json", str(json_path)]) == 0
    assert "stayed within" in capsys.readouterr().out
    summary = json.loads(json_path.read_text())
    assert summary["crossing_index"] is None
    assert summary["crossing_x"] is None


def test_x_end_override(tmp_path):
    json_path = tmp_path / "short.json"
    assert main(["--x-end", "50", "--json", str(json_path), "--quiet"]) == 0
    assert json.loads(json_path.read_text())["final_x"] == 50.0


def test_quiet_suppresses_verdict(capsys, tmp_path):
    assert main(["--problem", "decay", "--quiet"]) == 0
    assert capsys.readouterr().out == ""


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


def test_malformed_rows_are_refused_with_their_line(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv(integrate(PAIR, builtin("decay"), ControllerConfig(delta=1e-8)), str(path))
    lines = path.read_text().splitlines()
    row = lines[2].split(",")
    holds = CSV_COLUMNS.index("cond_holds")
    bad_rows = [
        row[:-1],                                 # a cell missing
        row + ["0"],                              # an extra cell
        row[:-1] + ["False"],                     # clamped neither true nor false
        row[:holds] + ["yes"] + row[holds + 1:],  # cond_holds neither true, false nor empty
        ["1_0"] + row[1:],                        # digit separators in i
        ["١٢"] + row[1:],                         # non-ASCII digits in i
        row[:1] + [" 1_0.5 "] + row[2:],          # spaces and separators in x
        row[:1] + ["1e-1"] + row[2:],             # x not in its shortest repr
        row[:4] + [row[4] + " "] + row[5:],       # trailing space in a state
    ]
    for bad in bad_rows:
        path.write_text("\n".join(lines[:2] + [",".join(bad)] + lines[3:]) + "\n")
        with pytest.raises(ValueError, match="line 3"):
            read_trace_csv(str(path))
    path.write_text("\n".join(lines) + "\n")
    assert len(read_trace_csv(str(path))) == len(lines) - 1


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
