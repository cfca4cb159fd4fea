"""Tests of the benchmark itself: its output checks catch damaged outputs, and
tracing changes no count.  Run from the root of the repository with

    python -m pytest bench -q
"""

import dataclasses
import json
import os
import random
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import rk_error_lab as lab  # noqa: E402
import rk_error_lab.cli  # noqa: E402,F401
from checks import check_anchor, check_cli_outputs, check_trace  # noqa: E402
from tracing import Counter, Tracer, installed  # noqa: E402
from workloads import LOWER_ORDER, WORKLOADS  # noqa: E402

PAIR = lab.builtin_pair("rk3_rk4")


def _flip_low_bit(a):
    a = np.array(a, dtype=float)
    a.view(np.int64)[0] ^= 1
    return a


@pytest.fixture(scope="module")
def decay_run():
    p = lab.builtin("decay")
    cfg = lab.ControllerConfig(delta=1e-6, policy="reject-only")
    return p, cfg, lab.integrate(PAIR, p, cfg)


def _check(p, cfg, trace):
    return check_trace(trace, p.x0, p.x_end, cfg.delta, LOWER_ORDER, True)


def test_clean_trace_passes(decay_run):
    assert _check(*decay_run) == []


def test_flipped_bit_in_w_higher_fails(decay_run):
    p, cfg, trace = decay_run
    recs = list(trace.records)
    recs[7] = dataclasses.replace(recs[7], w_higher=_flip_low_bit(recs[7].w_higher))
    assert _check(p, cfg, dataclasses.replace(trace, records=tuple(recs)))


def test_dropped_row_fails(decay_run):
    p, cfg, trace = decay_run
    recs = trace.records[:7] + trace.records[8:]
    assert _check(p, cfg, dataclasses.replace(trace, records=recs))


def test_flagship_anchors():
    p = lab.builtin("paper_exponential")
    for policy in ("proportional", "reject-only"):
        trace = lab.integrate(PAIR, p, lab.ControllerConfig(delta=1e-8, policy=policy))
        assert check_anchor(trace, policy) == []
    assert check_anchor(trace, "proportional")  # the other policy's anchor differs


@pytest.fixture
def cli_run(tmp_path, decay_run):
    p, cfg, trace = decay_run
    paths = [str(tmp_path / n) for n in ("t.csv", "s.json", "f.csv")]
    code = lab.cli.main(["--problem", "decay", "--delta", "1e-6", "--policy", "reject-only",
                         "--csv", paths[0], "--json", paths[1], "--figure", paths[2],
                         "--quiet"])
    return code, paths, trace


def _cli_check(code, paths, trace):
    return check_cli_outputs(code, *paths, trace, lab.cli.read_trace_csv)


def _edit_csv(path, edit):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(edit(lines))


def test_clean_cli_outputs_pass(cli_run):
    assert _cli_check(*cli_run) == []


def test_cli_flipped_bit_in_w_higher_fails(cli_run):
    code, paths, trace = cli_run
    column = lab.cli.CSV_COLUMNS.index("w_higher")

    def flip(lines):
        cells = lines[5].rstrip("\n").split(",")
        cells[column] = repr(float(_flip_low_bit([float(cells[column])])[0]))
        return lines[:5] + [",".join(cells) + "\n"] + lines[6:]

    _edit_csv(paths[0], flip)
    assert _cli_check(code, paths, trace)


def test_cli_dropped_row_fails(cli_run):
    code, paths, trace = cli_run
    _edit_csv(paths[0], lambda lines: lines[:5] + lines[6:])
    assert _cli_check(code, paths, trace)


def test_cli_nonzero_exit_fails(cli_run):
    _, paths, trace = cli_run
    assert _cli_check(4, paths, trace)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_equal_untraced(workload, tmp_path):
    rhs = Counter()
    tracer = Tracer(rhs)
    calls = WORKLOADS[workload](lab, random.Random(7), rhs, str(tmp_path), inputs=4)
    calls = [c for c in calls if c.timed]
    originals = {m: dict(vars(m)) for m in (lab, lab.controller, lab.error_analysis,
                                            lab.rk_core, lab.problems, lab.cli)}
    steps = 0
    for call in calls:
        counts = []
        for context in (None, tracer):
            n0 = rhs.n
            if context is None:
                out = call.run()
            else:
                with installed(tracer):
                    out = call.run()
            accepted, bad = call.check(out)
            assert bad == []
            counts.append((accepted, rhs.n - n0))
        assert counts[0] == counts[1]
        steps += counts[0][0]
    for m, names in originals.items():
        assert all(getattr(m, n) is v for n, v in names.items())
    assert tracer.absent == set()
    reference_calls = tracer.total(("reference_solution",), 0)
    assert reference_calls == (0 if workload == "controller_only" else 6 * steps)


def test_missing_name_is_absent_not_an_error():
    fake = types.ModuleType("fakepkg")
    fake.integrate = lambda: "ran"
    sys.modules["fakepkg"] = fake
    try:
        tracer = Tracer(Counter())
        with installed(tracer, package="fakepkg"):
            assert fake.integrate() == "ran"
        assert fake.integrate() == "ran" and tracer.total(("integrate",), 0) == 1
        assert "attempt_step" in tracer.absent and "integrate" not in tracer.absent
    finally:
        del sys.modules["fakepkg"]


def _run_bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_result_line_holds_every_end_to_end_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    done = _run_bench(BENCH.parent, "--workload", "controller_only", "--seed", "3",
                      "--seconds", "0", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = _run_bench(tmp_path, "--workload", "oracle_sweep", "--seed", "1",
                      "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "correct" not in done.stdout
    assert sorted(os.listdir(tmp_path)) == ["BENCHMARK.json", "bench"]
