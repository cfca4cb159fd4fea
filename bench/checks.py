"""Output checks applied to every call the benchmark makes.

Each check returns a list of failure messages; an empty list means the call's
outputs are correct.  The checks hold for any seed: they test invariants of
the integrator and the output contract, plus the two frozen flagship anchors.
"""

from __future__ import annotations

import csv
import dataclasses
import json

import numpy as np

#: frozen regression anchors of the flagship run (delta=1e-8, sigma=0.8),
#: by policy: (crossing_index, crossing_x)
FLAGSHIP_ANCHORS = {
    "proportional": (155, 30.371983519643603),
    "reject-only": (44, 11.278686635103092),
}

#: pinned key set of the CLI's summary JSON
SUMMARY_KEYS = {
    "accepted", "rejected", "final_x", "final_delta_lower", "crossing_index",
    "crossing_x", "condition_violation_index", "bound_coefficient",
}

#: allowed gap in the recursion identity, in ulps of the state scale
#: (0.91 ulp measured over three problems and both policies)
IDENTITY_ULPS = 4.0

ORACLE_FIELDS = ("eps_lower", "delta_lower", "delta_higher", "alpha_term")


def _bits(v):
    """A value's exact bit pattern, so that equality means bit-for-bit equality."""
    if v is None or isinstance(v, (bool, int)):
        return v
    if isinstance(v, float):
        return v.hex()
    a = np.asarray(v, dtype=float)
    return a.shape, a.tobytes()


def check_trace(trace, x0, x_end, delta, z, oracle):
    """Invariants of one ``integrate`` result.

    ``z`` is the order of the pair's lower method.  With ``oracle`` the
    exact recursion identity ``delta_lower == eps_lower + alpha_term`` must
    hold to a few ulps; without it the oracle fields must be empty.
    """
    bad = []
    recs = trace.records
    s = trace.summary
    if s.accepted != len(recs):
        bad.append(f"summary.accepted={s.accepted} but {len(recs)} records")
    if not recs:
        return bad + ["no records"]
    prev = x0
    for k, r in enumerate(recs):
        if r.i != k + 1:
            bad.append(f"record {k} has index {r.i}")
        if not r.x > prev:
            bad.append(f"step {r.i}: x={r.x!r} does not increase")
        prev = r.x
        if not r.cond_lhs < delta:
            bad.append(f"step {r.i}: cond_lhs={r.cond_lhs!r} not below delta")
        beta = (r.w_lower - r.w_higher) / r.h ** (z + 1)
        if _bits(beta) != _bits(r.beta_lower):
            bad.append(f"step {r.i}: beta_lower does not match w_lower - w_higher")
        if oracle:
            if any(getattr(r, name) is None for name in ORACLE_FIELDS):
                bad.append(f"step {r.i}: oracle diagnostics missing")
                continue
            gap = np.max(np.abs(r.delta_lower - (r.eps_lower + r.alpha_term)))
            ulp = np.spacing(max(1.0, float(np.max(np.abs(r.w_higher)))))
            if not gap <= IDENTITY_ULPS * ulp:
                bad.append(f"step {r.i}: recursion identity off by {gap / ulp:.2f} ulp")
        elif any(getattr(r, name) is not None for name in ORACLE_FIELDS):
            bad.append(f"step {r.i}: oracle diagnostics present without an oracle")
        if len(bad) > 10:
            break
    if recs[-1].x != x_end or s.final_x != x_end:
        bad.append(f"run ends at x={recs[-1].x!r}, not x_end={x_end!r}")
    return bad


def check_anchor(trace, policy):
    """The flagship run must reproduce its frozen crossing bit for bit."""
    want = FLAGSHIP_ANCHORS[policy]
    got = (trace.summary.crossing_index, trace.summary.crossing_x)
    if _bits(got[0]) != _bits(want[0]) or _bits(got[1]) != _bits(want[1]):
        return [f"flagship {policy} crossing {got} differs from anchor {want}"]
    return []


def same_records(parsed, recs):
    """Bit-exact field-by-field comparison of two record sequences."""
    if len(parsed) != len(recs):
        return [f"{len(parsed)} parsed rows for {len(recs)} records"]
    for a, b in zip(parsed, recs):
        for field in dataclasses.fields(b):
            if _bits(getattr(a, field.name)) != _bits(getattr(b, field.name)):
                return [f"step {b.i}: field {field.name} does not round-trip"]
    return []


def check_cli_outputs(code, csv_path, json_path, figure_path, reference, read_trace_csv):
    """Outputs of one ``cli.main`` run against an in-memory ``reference`` trace
    of the same configuration.

    ``read_trace_csv`` is the package's own parser; the CSV must parse back
    into the reference records bit for bit.
    """
    if code != 0:
        return [f"exit code {code}"]
    with open(json_path, encoding="utf-8") as fh:
        summary = json.load(fh)
    bad = []
    if set(summary) != SUMMARY_KEYS:
        bad.append(f"summary keys {sorted(summary)} differ from the pinned set")
    s = reference.summary
    for key in ("accepted", "rejected", "final_x", "final_delta_lower",
                "crossing_index", "crossing_x", "condition_violation_index"):
        if _bits(summary.get(key)) != _bits(getattr(s, key)):
            bad.append(f"summary {key}={summary.get(key)!r}, expected {getattr(s, key)!r}")
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = sum(1 for _ in csv.reader(fh)) - 1
    if rows != summary.get("accepted"):
        bad.append(f"CSV has {rows} rows for {summary.get('accepted')} accepted steps")
    with open(figure_path, newline="", encoding="utf-8") as fh:
        fig_rows = sum(1 for _ in csv.reader(fh)) - 1
    if fig_rows != s.accepted:
        bad.append(f"figure has {fig_rows} rows for {s.accepted} accepted steps")
    return bad + same_records(read_trace_csv(csv_path), reference.records)
