"""ocareach benchmark: decide and verify time, failures and evidence size.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A round decides and verifies every query of the workload once, in fresh
worker processes (``worker.py``) run one at a time, single-threaded:
each structured query gets a process of its own, the fuzz corpus shares
one. Rounds repeat until about ``--seconds`` have gone by, with at least
two. Every round must give exactly the same verdicts, legs and evidence
as the first, which is also checked against independent ground truth.
Each timed call is scaled to a nominal machine speed by the speed probe
timed around it (``worker.SpeedProbe``); times are per-query medians of
the scaled calls over rounds. With ``--trace 1`` untraced and traced
rounds alternate, and the per-layer metrics come from the traced ones.

Metric names and units are read from ``BENCHMARK.json``. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_ROUNDS = 2
LATENCY_MIN_QUERIES = 200
DEADLINE_S = 170  # every worker ends before this, so the run ends within 180 s
# Every timed call is scaled to a nominal machine speed: its time times
# PROBE_NOMINAL_S over the speed-probe time around it (worker.SpeedProbe).
# The nominal value is the probe's time on the machine in
# perfbench/README.md when it runs at full speed.
PROBE_NOMINAL_S = 0.035

# Timed layers reported for both phases; see tracer.TIMED.
LAYERS = (
    "exploration.bounded",
    "exploration.post_star",
    "exploration.candidate",
    "exploration.oracle",
    "flows.realize",
    "pessimistic.closure",
    "invariants.cores",
    "invariants.verify",
    "invariants.domain",
    "invariants.inductive",
    "invariants.separator",
    "solver.lift",
    "solver.normalize",
    "automaton.replay",
    "automaton.parse",
    "analysis.cycles",
    "analysis.chains",
    "evidence.format",
    "evidence.parse",
)
CALLS = (
    "exploration.bounded",
    "exploration.post_star",
    "exploration.candidate",
    "exploration.oracle",
    "solver.lift",
    "analysis.cycles",
)
COUNTS = (
    "exploration.post_star_configs",
    "pessimistic.closure_configs",
    "solver.lift_run_steps",
    "automaton.replay_steps",
)
LEGS = ("lift", "witness", "oracle", "eqgraph", "no_evidence", "trivial")


class BenchError(Exception):
    """The benchmark cannot produce a result; exit without one."""


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _declared(trace: int) -> list[dict]:
    try:
        with open("BENCHMARK.json") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from None
    return spec["per_layer" if trace else "end_to_end"]


def _machine() -> str:
    return f"nproc {os.cpu_count()}, {platform.machine()}, Python {platform.python_version()}"


def _worker(name, seed, traced, checked, indices, started) -> dict:
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining <= 1:
        raise BenchError("no time left for another worker")
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        name,
        str(seed),
        "1" if traced else "0",
        "1" if checked else "0",
        ",".join(map(str, indices)),
    ]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=remaining, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"a worker for {name} did not finish within the run's deadline") from None
    if done.returncode != 0:
        raise BenchError(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _round(name, seed, traced, checked, groups, started) -> dict:
    """Every query once, one worker per group, merged into one record."""
    merged: dict = {"traced": traced, "rows": [], "setup_s": [], "raw_setup_s": [], "rss": []}
    merged["probe_s"], merged["absent"] = [], []
    trace = {"self_time": {}, "calls": {}, "counts": {}, "tree": [], "identity_gap": 0.0}
    trace["cache"] = {"decide": [0, 0], "verify": [0, 0]}
    for indices in groups:
        res = _worker(name, seed, traced, checked, indices, started)
        merged["rows"] += res["rows"]
        merged["setup_s"].append(res["setup_s"] * PROBE_NOMINAL_S / res["setup_probe_s"])
        merged["raw_setup_s"].append(res["setup_s"])
        merged["probe_s"] += res["probe_s"]
        merged["rss"].append(res["peak_rss_mb"])
        merged["absent"] = res["absent"]
        got = res.get("trace") or {"counts": res["counts"]}
        for key in ("self_time", "calls", "counts"):
            for k, v in got.get(key, {}).items():
                trace[key][k] = trace[key].get(k, 0) + v
        for phase, (hits, lookups) in got.get("cache", {}).items():
            trace["cache"][phase][0] += hits
            trace["cache"][phase][1] += lookups
        trace["tree"] += got.get("tree", [])
        trace["identity_gap"] = max(trace["identity_gap"], got.get("identity_gap", 0.0))
    merged["trace"] = trace
    return merged


def _signature(rnd: dict) -> list:
    keys = ("family", "label", "outcome", "kind", "leg", "evidence_bytes", "evidence_sha1")
    keys += ("verified",)
    return [[row.get(k) for k in keys] for row in rnd["rows"]]


def _failed(row: dict) -> bool:
    return row["outcome"] != "ok" or "wrong" in row or "refuted" in row


def _quantile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _scaled(row: dict, key: str) -> float:
    """A timed call's time at the nominal probe speed."""
    return row[key] * PROBE_NOMINAL_S / row[key.replace("_s", "_probe_s")] if row[key] else 0.0


def _per_query(rounds: list[dict], key: str, scaled: bool = True) -> list[float]:
    """Each query's median over rounds of one timing, scaled by default."""
    value = _scaled if scaled else (lambda row, k: row[k])
    return [
        statistics.median(value(r["rows"][i], key) for r in rounds) for i in range(len(rounds[0]["rows"]))
    ]


def _family_lines(untraced: list[dict]) -> list[str]:
    """Per-family subtotals, each query of a small family, and decide
    latency percentiles for families with enough queries for p95 to have
    ten samples beyond it. Printed, not gated: the gate needs every
    metric on every workload."""
    rows = untraced[0]["rows"]
    decide, verify = _per_query(untraced, "decide_s"), _per_query(untraced, "verify_s")
    lines = []
    for family in dict.fromkeys(r["family"] for r in rows):
        idx = [i for i, r in enumerate(rows) if r["family"] == family]
        lines.append(
            f"{family}: {len(idx)} queries, decide {sum(decide[i] for i in idx):.4f} s, "
            f"verify {sum(verify[i] for i in idx):.4f} s"
        )
        if len(idx) <= 20:
            for i in idx:
                r = rows[i]
                note = r["outcome"] if r["outcome"] != "ok" else f"{r['kind']} via {r['leg']}"
                lines.append(
                    f"  {r['label']:>12s}  decide {decide[i]:8.3f} s  verify {verify[i]:8.3f} s  "
                    f"evidence {r.get('evidence_bytes', 0):9d} B  {note}"
                )
        if len(idx) >= LATENCY_MIN_QUERIES:
            latencies = [decide[i] * 1e3 for i in idx]
            note = f"{len(idx)} per-query medians over {len(untraced)} rounds"
            for q in (0.50, 0.95):
                name = f"{family}.decide_p{round(q * 100)}_ms"
                lines.append(f"  {name:40s} {_quantile(latencies, q):>14.6g} ms  ({note})")
    return lines


def _probe_median(rounds: list[dict]) -> float:
    return statistics.median(s for r in rounds for s in r["probe_s"])


def _end_to_end(untraced: list[dict]) -> tuple[dict, dict]:
    first = untraced[0]["rows"]
    decisive = [row for row in first if row["outcome"] == "ok"]
    rss = [statistics.median(r["rss"][g] for r in untraced) for g in range(len(untraced[0]["rss"]))]
    rounds = f"{len(untraced)} rounds"
    setups = [s for r in untraced for s in r["setup_s"]]
    values = {
        "setup_s": statistics.median(setups),
        "decide_s": sum(_per_query(untraced, "decide_s")),
        "verify_s": sum(_per_query(untraced, "verify_s")),
        "solved_frac": 1 - sum(map(_failed, first)) / len(first),
        "evidence_frac": (
            sum(1 for r in decisive if r.get("verified")) / len(decisive) if decisive else 0.0
        ),
        "evidence_bytes": sum(r.get("evidence_bytes", 0) for r in first),
        "peak_rss_mb": max(rss),
    }
    raw = {
        "setup_s": statistics.median(s for r in untraced for s in r["raw_setup_s"]),
        "decide_s": sum(_per_query(untraced, "decide_s", scaled=False)),
        "verify_s": sum(_per_query(untraced, "verify_s", scaled=False)),
    }
    per_query = f"sum over {len(first)} queries of each one's median over {rounds}"
    samples = {
        "setup_s": f"median of {len(setups)} set-ups",
        "decide_s": per_query,
        "verify_s": per_query,
        "solved_frac": f"{len(first)} queries",
        "evidence_frac": f"{len(decisive)} decisive verdicts",
        "evidence_bytes": f"{len(first)} queries",
        "peak_rss_mb": f"largest of {len(rss)} processes, each a median over {rounds}",
    }
    for key, value in raw.items():
        samples[key] += f"; unscaled {value:.5g} s"
    return values, samples


def _per_layer(traced: list[dict], untraced: list[dict], scale: float) -> dict:
    def med(key):
        return statistics.median(r["trace"]["self_time"].get(key, 0.0) for r in traced)

    first = traced[0]["trace"]
    values: dict[str, float] = {}
    for phase in ("decide", "verify"):
        for layer in LAYERS:
            values[f"{phase}.{layer}_s"] = med(f"{phase}|{layer}")
        for layer in CALLS:
            values[f"{phase}.{layer}_calls"] = first["calls"].get(f"{phase}|{layer}", 0)
        for name in COUNTS:
            values[f"{phase}.{name}"] = first["counts"].get(f"{phase}.{name}", 0)
        hits, lookups = first["cache"][phase]
        values[f"{phase}.exploration.bounded_hit_ratio"] = hits / lookups if lookups else 0.0
        values[f"{phase}.untraced_s"] = med(f"{phase}|root")
    counts = first["counts"]
    synth = counts.get("decide.invariants.synth_calls", 0)
    values["decide.invariants.synth_calls"] = synth
    values["decide.invariants.synth_yield"] = (
        counts.get("decide.invariants.synth_witnesses", 0) / synth if synth else 0.0
    )
    values["decide.solver.segment_queries"] = counts.get("decide.solver.segment_queries", 0)
    rows = traced[0]["rows"]
    for leg in LEGS:
        values[f"decide.solver.leg_{leg}"] = sum(1 for r in rows if r.get("leg") == leg)
    for kind, tag in (("RUN", "run"), ("WITNESS", "witness")):
        values[f"decide.evidence.{tag}_bytes"] = sum(
            r["evidence_bytes"] for r in rows if r.get("evidence") == kind
        )
    values = {k: v * scale if k.endswith("_s") else v for k, v in values.items()}
    for phase in ("decide", "verify"):
        values[f"{phase}.trace.overhead_s"] = sum(_per_query(traced, f"{phase}_s")) - sum(
            _per_query(untraced, f"{phase}_s")
        )
    return values


def _problems(rounds: list[dict]) -> list[str]:
    """Wrong verdicts, refuted evidence, crashes and non-repeating rounds."""
    out = []
    for row in rounds[0]["rows"]:
        for key in ("wrong", "refuted"):
            if key in row:
                out.append(f"{row['family']} {row['label']}: {key}: {row[key]}")
        if row["outcome"].startswith("crash"):
            out.append(f"{row['family']} {row['label']}: {row['outcome']}")
        if row.get("leg") == "other":
            out.append(f"{row['family']} {row['label']}: reachable verdict from no observed leg")
    base = _signature(rounds[0])
    for i, rnd in enumerate(rounds[1:], start=1):
        if _signature(rnd) != base:
            out.append(f"round {i} gave other verdicts, legs or evidence than round 0")
    for traced in (False, True):
        counts = [r["trace"]["counts"] for r in rounds if r["traced"] == traced]
        if any(c != counts[0] for c in counts[1:]):
            out.append("work counters differ between rounds")
    for i, rnd in enumerate(rounds):
        if rnd["trace"]["identity_gap"] > 1e-6:
            out.append(f"round {i}: self times miss the root time by {rnd['trace']['identity_gap']:.3g} s")
    return out


def main(argv=None) -> int:
    args = _args(argv)
    try:
        return _run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run(args) -> int:
    started = time.monotonic()
    declared = _declared(args.trace)
    if not os.path.isfile(os.path.join("src", "ocareach", "__init__.py")):
        raise BenchError("run from the root of an ocareach checkout (src/ocareach missing)")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}; {_machine()}")
    groups = workloads.groups(args.workload)
    rounds: list[dict] = []
    durations: list[float] = []
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        t0 = time.monotonic()
        rounds.append(_round(args.workload, args.seed, traced, not rounds, groups, started))
        durations.append(time.monotonic() - t0)
        elapsed = time.monotonic() - started
        if len(rounds) >= MIN_ROUNDS and elapsed + statistics.median(durations) > args.seconds:
            break
    untraced = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    problems = _problems(rounds)
    rows = [row for r in rounds for row in r["rows"]]
    attempted = len(rows)
    failed = sum(map(_failed, rows))

    first = rounds[0]["rows"]
    truths = [r.get("truth") for r in first if r["outcome"] == "ok"]
    print(
        f"{len(rounds)} rounds of {len(first)} queries in {len(groups)} processes each, "
        f"{time.monotonic() - started:.1f} s; fail_frac {failed / attempted:.4f} "
        f"({failed} of {attempted}); ground truth inconclusive on "
        f"{sum(t is None for t in truths)} of {len(truths)} decided queries"
    )
    for line in _family_lines(untraced):
        print(line)
    if rounds[0]["absent"]:
        print("absent from ocareach: " + ", ".join(rounds[0]["absent"]))
    print(
        f"speed probe: median {_probe_median(rounds):.5f} s over "
        f"{sum(len(r['probe_s']) for r in rounds)} probes, nominal {PROBE_NOMINAL_S} s"
    )

    if args.trace:
        values = _per_layer(traced, untraced, PROBE_NOMINAL_S / _probe_median(rounds))
        samples = {}
        print("spans of the first traced round (phase, parent > layer, calls, time):")
        for line in traced[0]["trace"]["tree"]:
            print("  " + line)
    else:
        values, samples = _end_to_end(untraced)
    metrics = {}
    for spec in declared:
        name = spec["name"]
        if name not in values:
            raise BenchError(f"BENCHMARK.json names {name}, which this benchmark does not measure")
        metrics[name] = {"value": values[name], "unit": spec["unit"]}
        extra = f"  ({samples[name]})" if name in samples else ""
        print(f"{name:42s} {values[name]:>14.6g} {spec['unit']}{extra}")
    for problem in problems:
        print(f"PROBLEM {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
