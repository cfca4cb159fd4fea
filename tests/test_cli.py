import csv
import json

import numpy as np
import pytest

from rk_error_lab import ControllerConfig, IVProblem, builtin, builtin_pair, integrate
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


def test_csv_round_trip_bit_exact(tmp_path):
    trace = integrate(PAIR, builtin("decay"), ControllerConfig(delta=1e-8, sigma=0.8))
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, str(path))
    parsed = read_trace_csv(str(path))
    assert len(parsed) == len(trace.records)
    for orig, back in zip(trace.records, parsed):
        assert back.i == orig.i and back.rejects == orig.rejects
        assert back.x == orig.x and back.h == orig.h
        assert np.array_equal(back.w_lower, orig.w_lower)
        assert np.array_equal(back.w_higher, orig.w_higher)
        assert np.array_equal(back.eps_lower, orig.eps_lower)
        assert np.array_equal(back.beta_lower, orig.beta_lower)
        assert np.array_equal(back.delta_lower, orig.delta_lower)
        assert np.array_equal(back.delta_higher, orig.delta_higher)
        assert np.array_equal(back.alpha_term, orig.alpha_term)
        assert back.cond_lhs == orig.cond_lhs
        assert back.cond_rhs == orig.cond_rhs
        assert back.cond_holds == orig.cond_holds
        assert back.bound == orig.bound
        assert back.clamped == orig.clamped


def test_csv_round_trip_without_oracle(tmp_path):
    p = IVProblem(name="plain", f=lambda x, y: -y, x0=0.0, y0=[1.0], x_end=2.0)
    trace = integrate(PAIR, p, ControllerConfig(delta=1e-8, sigma=0.8))
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, str(path))
    parsed = read_trace_csv(str(path))
    for orig, back in zip(trace.records, parsed):
        assert back.eps_lower is None and back.delta_lower is None
        assert back.cond_rhs is None and back.cond_holds is None
        assert np.array_equal(back.beta_lower, orig.beta_lower)


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
