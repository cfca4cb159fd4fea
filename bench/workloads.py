"""Seeded workloads.  Each is a fixed list of calls into the package.

A call pairs the timed call into the package with an untimed check of its
outputs.  Inputs come only from the seeded ``random.Random`` and the public
constructors, so the same seed gives the same calls.  Why each workload
exists is written up in ``NOTES.md``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import os
from typing import Callable

from checks import check_anchor, check_cli_outputs, check_trace

PAIR = "rk3_rk4"
#: classical order of the pair's lower method (Kutta's third-order method)
LOWER_ORDER = 3
POLICIES = ("proportional", "reject-only")
PROBLEMS = ("paper_exponential", "decay", "riccati_simple")
#: the ROADMAP's tolerance sweep, as log10(delta)
LOG10_DELTA = (-12.0, -6.0)
FLAGSHIP_DELTA = 1e-8


@dataclasses.dataclass(frozen=True)
class Call:
    label: str
    run: Callable[[], object]
    #: maps the result of ``run`` to (accepted steps, failure messages)
    check: Callable[[object], tuple]
    #: untimed calls run once per run, for their checks and their memory
    timed: bool = True


def draw_delta(rng) -> float:
    return 10.0 ** rng.uniform(*LOG10_DELTA)


def sized(p, delta, work=1.0):
    """End the interval so a call does about ``work`` times the work of
    delta=1e-6 on the full interval: the step count grows like
    delta**(-1/4), so the span shrinks by the same factor.  Calls of equal
    size keep a run's step count, and so its time, independent of the
    deltas the seed draws."""
    scale = min(1.0, (delta / 1e-6) ** 0.25) * work
    return p.x0 + (p.x_end - p.x0) * scale


def _integrate_call(lab, pair, rhs, label, p, cfg, oracle, anchor=False, timed=True):
    p = dataclasses.replace(p, f=rhs.counted(p.f))

    def check(trace):
        bad = check_trace(trace, p.x0, p.x_end, cfg.delta, LOWER_ORDER, oracle)
        if anchor:
            bad += check_anchor(trace, cfg.policy)
        return trace.summary.accepted, bad

    return Call(label, lambda: lab.integrate(pair, p, cfg), check, timed)


def oracle_sweep(lab, rng, rhs, out_dir, inputs=150):
    """The paper's experiment: the growth problem with the oracle on."""
    pair = lab.builtin_pair(PAIR)
    base = lab.builtin("paper_exponential")
    calls = [
        _integrate_call(lab, pair, rhs, f"flagship/{policy}", base,
                        lab.ControllerConfig(delta=FLAGSHIP_DELTA, policy=policy),
                        True, anchor=True)
        for policy in POLICIES
    ]
    # the sweep's tight end on the full interval holds 10 438 records at once
    calls.append(_integrate_call(lab, pair, rhs, "full/1e-12", base,
                                 lab.ControllerConfig(delta=1e-12), True, timed=False))
    for policy in itertools.islice(itertools.cycle(POLICIES), inputs):
        delta = draw_delta(rng)
        p = dataclasses.replace(base, x_end=sized(base, delta, work=0.5))
        cfg = lab.ControllerConfig(delta=delta, policy=policy)
        calls.append(_integrate_call(lab, pair, rhs, f"sweep/{policy}/{delta:.3g}", p, cfg,
                                     True))
    return calls


def _problems_by_policy(count):
    return itertools.islice(itertools.cycle(itertools.product(PROBLEMS, POLICIES)), count)


def controller_only(lab, rng, rhs, out_dir, inputs=400):
    """The same calls over all three right-hand sides, without an oracle."""
    pair = lab.builtin_pair(PAIR)
    calls = []
    for name, policy in _problems_by_policy(inputs):
        base = lab.builtin(name)
        delta = draw_delta(rng)
        p = lab.IVProblem(name=name, f=base.f, x0=base.x0, y0=base.y0,
                          x_end=sized(base, delta))
        cfg = lab.ControllerConfig(delta=delta, policy=policy)
        calls.append(_integrate_call(lab, pair, rhs, f"{name}/{policy}/{delta:.3g}", p, cfg,
                                     False))
    return calls


def _digest(paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def cli_outputs(lab, rng, rhs, out_dir, inputs=120):
    """In-process CLI runs writing the CSV trace, JSON summary and figure series."""
    paths = [os.path.join(out_dir, n) for n in ("trace.csv", "summary.json", "figure.csv")]
    pair = lab.builtin_pair(PAIR)
    calls = []
    for name, policy in _problems_by_policy(inputs):
        base = lab.builtin(name)
        delta = draw_delta(rng)
        x_end = sized(base, delta, work=0.5)
        argv = ["--problem", name, "--pair", PAIR, "--policy", policy,
                "--delta", repr(delta), "--x-end", repr(x_end),
                "--csv", paths[0], "--json", paths[1], "--figure", paths[2], "--quiet"]
        # the same configuration in memory, with counted RHS evaluations
        p = dataclasses.replace(base, f=rhs.counted(base.f), x_end=x_end)
        cfg = lab.ControllerConfig(delta=delta, policy=policy)
        first = {}

        def check(code, p=p, cfg=cfg, first=first):
            """Check the first run in full against an in-memory run, which
            also counts the evaluations.  Later runs must write the same
            bytes, and are credited with the same count."""
            if "digest" in first:
                if code != 0 or _digest(paths) != first["digest"]:
                    return first["steps"], ["outputs differ from the first run's"]
                rhs.n += first["evals"]
                return first["steps"], []
            n0 = rhs.n
            ref = lab.integrate(pair, p, cfg)
            bad = check_cli_outputs(code, *paths, ref, lab.cli.read_trace_csv)
            bad += check_trace(ref, p.x0, p.x_end, cfg.delta, LOWER_ORDER, True)
            if not bad:
                first.update(digest=_digest(paths), steps=ref.summary.accepted,
                             evals=rhs.n - n0)
            return ref.summary.accepted, bad

        calls.append(Call(f"cli/{name}/{policy}/{delta:.3g}",
                          lambda argv=argv: lab.cli.main(argv), check))
    return calls


WORKLOADS = {
    "oracle_sweep": oracle_sweep,
    "controller_only": controller_only,
    "cli_outputs": cli_outputs,
}
