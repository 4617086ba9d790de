"""Differential fuzzing: the structured pipeline against the oracle.

A campaign decides every generated instance twice, through
:func:`ocareach.solver.decide_full` and through plain exploration, and
records any disagreement together with a shrunken reproducer.  Reports
are deterministic for a fixed spec; wall-clock time stays off the page.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .automaton import OCA, Config, Transition, format_oca
from .exploration import ResourceExceeded, reach_oracle
from .generators import FuzzSpec, random_instance
from .solver import REACHABLE, UNREACHABLE, decide_full


@dataclass(frozen=True)
class Disagreement:
    index: int
    pipeline: str
    oracle: str
    instance: str
    src: Config
    trg: Config


@dataclass(frozen=True)
class CampaignReport:
    spec: FuzzSpec
    rows: tuple[tuple[int, str], ...]
    disagreements: tuple[Disagreement, ...]
    skipped: tuple[int, ...]
    seconds: float

    def clean(self) -> bool:
        return not self.disagreements


def _verdicts(a: OCA, src: Config, trg: Config) -> tuple[str, str] | None:
    """Pipeline and oracle verdicts, or None when either gives up."""
    try:
        mine = decide_full(a, src, trg).kind
        run = reach_oracle(a, src, trg)
    except ResourceExceeded:
        return None
    return mine, REACHABLE if run is not None else UNREACHABLE


def _disagrees(a: OCA, src: Config, trg: Config) -> bool:
    if src.state not in a.states or trg.state not in a.states:
        return False
    if not (a.is_valid(src) and a.is_valid(trg)):
        return False
    pair = _verdicts(a, src, trg)
    return pair is not None and pair[0] != pair[1]


def _drop_state(a: OCA, q: str) -> OCA:
    return OCA(
        tuple(s for s in a.states if s != q),
        tuple(t for t in a.transitions if q not in (t.src, t.dst)),
        {s: g for s, g in a.guards.items() if s != q},
    )


def _drop_transition(a: OCA, i: int) -> OCA:
    kept = a.transitions[:i] + a.transitions[i + 1 :]
    return OCA(a.states, kept, a.guards)


def _with_update(a: OCA, i: int, update: int) -> OCA:
    t = a.transitions[i]
    swapped = a.transitions[:i] + (Transition(t.src, update, t.dst),) + a.transitions[i + 1 :]
    return OCA(a.states, swapped, a.guards)


def _drop_guard(a: OCA, q: str) -> OCA:
    return OCA(a.states, a.transitions, {s: g for s, g in a.guards.items() if s != q})


def shrink(a: OCA, src: Config, trg: Config, keeps=_disagrees) -> OCA:
    """Greedy reducer keeping the pipeline/oracle disagreement alive.

    Passes: delete states, delete transitions, move updates toward
    zero, delete guards.  Each accepted step strictly shrinks the
    instance, so the loop terminates.  ``keeps`` is the predicate a
    step must preserve; the default is the campaign's disagreement.
    Raises ValueError when the instance does not satisfy ``keeps``.
    """
    if not keeps(a, src, trg):
        raise ValueError("nothing to shrink")
    smaller = True
    while smaller:
        smaller = False
        for q in a.states:
            if q in (src.state, trg.state):
                continue
            b = _drop_state(a, q)
            if keeps(b, src, trg):
                a, smaller = b, True
                break
        if smaller:
            continue
        for i in reversed(range(len(a.transitions))):
            b = _drop_transition(a, i)
            if keeps(b, src, trg):
                a, smaller = b, True
        for i, t in enumerate(a.transitions):
            while t.update != 0:
                nudged = t.update - (1 if t.update > 0 else -1)
                b = _with_update(a, i, nudged)
                if not keeps(b, src, trg):
                    break
                a, smaller = b, True
                t = a.transitions[i]
        for q, g in list(a.guards.items()):
            if g.kind == "true":
                continue
            b = _drop_guard(a, q)
            if keeps(b, src, trg):
                a, smaller = b, True
    return a


def run_campaign(spec: FuzzSpec) -> CampaignReport:
    rows: list[tuple[int, str]] = []
    found: list[Disagreement] = []
    skipped: list[int] = []
    started = time.perf_counter()
    for index in range(spec.count):
        a, src, trg = random_instance(spec, index)
        pair = _verdicts(a, src, trg)
        if pair is None:
            skipped.append(index)
            continue
        mine, want = pair
        rows.append((index, mine))
        if mine != want:
            small = shrink(a, src, trg)
            small_mine, small_want = _verdicts(small, src, trg)
            found.append(
                Disagreement(index, small_mine, small_want, format_oca(small), src, trg)
            )
    return CampaignReport(
        spec,
        tuple(rows),
        tuple(found),
        tuple(skipped),
        time.perf_counter() - started,
    )


def format_report(report: CampaignReport) -> str:
    """Render a campaign; byte-identical for identical specs."""
    spec = report.spec
    reachable = sum(1 for _, kind in report.rows if kind == REACHABLE)
    lines = [
        "CAMPAIGN",
        f"seed {spec.seed}  count {spec.count}",
        f"shape states={spec.num_states} update<={spec.max_update}"
        f" guard<={spec.max_guard} density={spec.guard_density}"
        f" equality={spec.equality_fraction}",
        f"decided {len(report.rows)}  reachable {reachable}"
        f"  unreachable {len(report.rows) - reachable}",
        f"skipped {len(report.skipped)}",
        f"disagreements {len(report.disagreements)}",
    ]
    for d in report.disagreements:
        lines.append(
            f"instance {d.index}: pipeline={d.pipeline} oracle={d.oracle}"
            f" src={d.src} trg={d.trg}"
        )
        lines.extend("  " + line for line in d.instance.splitlines())
    return "\n".join(lines) + "\n"
