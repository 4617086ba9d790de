"""One worker process of a round: some queries of one workload.

Usage: python3 perfbench/worker.py WORKLOAD SEED TRACED CHECK INDICES

Run from the root of a checkout. Times the set-up (import of ocareach
from ``src/`` plus instance generation), then decides the queries at
INDICES (comma-separated) with ``decide_full`` on a freshly parsed
automaton and checks the emitted evidence with ``verify_evidence`` on
another fresh parse, the way a third party would. A fresh process per
worker keeps the analysis caches, which live as long as the process,
from carrying over between rounds. With CHECK set, every verdict is then
compared against independent ground truth. Prints one JSON object.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import resource
import sys
import time

import truth
import workloads
from tracer import Tracer

# The speed probe: a fixed naive breadth-first search (truth.py, no
# ocareach code) over the README loop with a lifting self-loop, capped
# at PROBE_BOUND; about 0.035 s. A shared machine's speed swings by up
# to a factor of two over seconds to minutes, for the probe and the
# solver alike, so every timed call carries the mean probe time just
# before and just after it, and the runner scales the call's time by
# that. A probe is taken after set-up, before a timed call once
# PROBE_EVERY_S have passed since the last one, and at the end.
PROBE_TEXT = """states: q r s
guard q != 5000
guard r != 30000
guard s != 15000
trans q +2 r
trans r +1 s
trans s +2 q
trans q -3 q
"""
PROBE_BOUND = 15_000
PROBE_EVERY_S = 0.5


def setup(name: str, seed: int, src: str):
    """Import of ocareach from ``src`` plus instance generation, timed."""
    start = time.perf_counter()
    ocareach = importlib.import_module("ocareach")
    queries = workloads.build(name, ocareach, seed)
    elapsed = time.perf_counter() - start
    if not os.path.abspath(ocareach.__file__).startswith(src + os.sep):
        raise SystemExit(f"ocareach imported from {ocareach.__file__}, not from {src}")
    return ocareach, queries, elapsed


class SpeedProbe:
    """Probe times, each with the interval it was taken in."""

    def __init__(self):
        self.marks: list[tuple[float, float, float]] = []
        self.take()

    def take(self) -> None:
        model = truth.Model(PROBE_TEXT)
        start = time.perf_counter()
        found = truth.bounded_reach(model, ("q", 1), ("q", PROBE_BOUND + 7), PROBE_BOUND)
        end = time.perf_counter()
        if found is not None:
            raise SystemExit(f"speed probe settled ({found}); it must run to its cap")
        self.marks.append((start, end, end - start))

    def due(self) -> None:
        if time.perf_counter() - self.marks[-1][1] >= PROBE_EVERY_S:
            self.take()

    def around(self, start: float, end: float) -> float:
        """Mean of the last probe before ``start`` and the first after ``end``."""
        before = [p for _, e, p in self.marks if e <= start][-1]
        after = next(p for s, _, p in self.marks if s >= end)
        return (before + after) / 2


def _leg(verdict, query, model_has_eq: bool, probe: dict) -> str:
    if verdict.kind == "unreachable":
        return "witness" if verdict.witness is not None else "no_evidence"
    if query.src == query.trg:
        return "trivial"
    if model_has_eq:
        return "eqgraph"
    if probe.get("lift"):
        return "lift"
    if probe.get("oracle_run"):
        return "oracle"
    return "other"


def run_pass(ocareach, queries, tracer: Tracer, probe: SpeedProbe):
    """Decide and verify every query; returns rows, evidence texts and
    per-phase (hits, lookups) of the boundedness caches. Each row has
    the probe time around each of its timed calls."""
    rows = []
    texts: list[str | None] = []
    cache = {"decide": [0, 0], "verify": [0, 0]}
    clock = time.perf_counter

    spans = []  # (row, phase, start, end) of every timed call

    def timed(phase, call):
        probe.due()
        tracer.phase = phase
        hits, lookups = tracer.cache_totals()
        start = clock()
        try:
            return call()
        finally:
            end = clock()
            hits2, lookups2 = tracer.cache_totals()
            cache[phase][0] += hits2 - hits
            cache[phase][1] += lookups2 - lookups
            row[f"{phase}_s"] = end - start
            spans.append((row, phase, start, end))

    for q in queries:
        row = {
            "family": q.family,
            "label": q.label,
            "decide_s": 0.0,
            "verify_s": 0.0,
            "outcome": "ok",
        }
        has_eq = truth.Model(q.text).has_equality_tests()
        tracer.phase = "decide"
        a = ocareach.parse_oca(q.text)
        src, trg = ocareach.parse_config(q.src), ocareach.parse_config(q.trg)
        tracer.begin_query(a)
        verdict = text = None
        try:
            verdict = timed("decide", lambda: ocareach.decide_full(a, src, trg))
        except ocareach.ResourceExceeded:
            row["outcome"] = "resource-exceeded"
        except Exception as exc:  # a crash is a failed query, never a verdict
            row["outcome"] = f"crash: {type(exc).__name__}: {exc}"
        del a
        if verdict is not None:
            row["kind"] = verdict.kind
            row["leg"] = _leg(verdict, q, has_eq, tracer.query)
            if verdict.kind == ocareach.REACHABLE:
                text = ocareach.format_run(src, trg, verdict.run)
            elif verdict.witness is not None:
                text = ocareach.format_witness(verdict.witness, normalized=True)
        del verdict
        if text is not None:
            data = text.encode()
            row["evidence"] = text.split(None, 1)[0]
            row["evidence_bytes"] = len(data)
            row["evidence_sha1"] = hashlib.sha1(data).hexdigest()
            tracer.phase = "verify"
            b = ocareach.parse_oca(q.text)
            try:
                report = timed("verify", lambda: ocareach.verify_evidence(b, src, trg, text))
                row["verified"] = bool(report.verified)
                if not report.verified:
                    row["refuted"] = f"{report.kind}: {report.condition}"
            except Exception as exc:
                row["verified"] = False
                row["refuted"] = f"crash: {type(exc).__name__}: {exc}"
            del b
        rows.append(row)
        texts.append(text)
    probe.take()
    for row, phase, start, end in spans:
        row[f"{phase}_probe_s"] = probe.around(start, end)
    return rows, texts, cache


def check(queries, rows, texts) -> None:
    """Compare each verdict with ground truth; replay each emitted run."""
    for q, row, text in zip(queries, rows, texts):
        if row["outcome"] != "ok":
            continue
        expected = workloads.truth(q)
        row["truth"] = expected
        reachable = row["kind"] == "reachable"
        if expected is not None and expected != reachable:
            row["wrong"] = f"verdict {row['kind']}, ground truth {expected}"
        if reachable:
            model = truth.Model(q.text)
            fsrc, ftrg, path = truth.parse_run_text(text)
            if (fsrc, ftrg) != (q.src, q.trg):
                row["wrong"] = "RUN file names other endpoints"
            else:
                why = truth.replay(
                    model, truth.parse_endpoint(q.src), truth.parse_endpoint(q.trg), path
                )
                if why:
                    row["wrong"] = f"run does not replay: {why}"


def main(argv: list[str]) -> int:
    name, seed, traced, checked = argv[0], int(argv[1]), argv[2] == "1", argv[3] == "1"
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    ocareach, queries, setup_s = setup(name, seed, src)
    queries = [queries[int(i)] for i in argv[4].split(",")]
    probe = SpeedProbe()
    tracer = Tracer(timed=traced)
    tracer.install()
    rows, texts, cache = run_pass(ocareach, queries, tracer, probe)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tracer.uninstall()
    if checked:
        check(queries, rows, texts)
    out = {
        "setup_s": setup_s,
        "setup_probe_s": probe.marks[0][2],
        "probe_s": [p for _, _, p in probe.marks],
        "rows": rows,
        "peak_rss_mb": rss_mb,
        "absent": tracer.absent,
    }
    if traced:
        out["trace"] = {
            "self_time": {f"{p}|{layer}": t for (p, layer), t in tracer.self_time.items()},
            "calls": {f"{p}|{layer}": n for (p, layer), n in tracer.calls.items()},
            "counts": dict(tracer.counts),
            "cache": cache,
            "identity_gap": tracer.identity_gap(),
            "tree": tracer.span_tree(),
        }
    else:
        out["counts"] = dict(tracer.counts)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
