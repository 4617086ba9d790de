"""Flows: balanced transition multisets abstracting a path's step counts.

A path from ``u`` to ``v`` induces a flow: the multiset of transitions it
uses.  The flow forgets the order but keeps enough structure to rebuild
some path with the same endpoints and counts (an Euler trail), which is
the backbone of both candidate-path materialization and the descent
certificates.  The module checks the flow conditions, realizes flows as
paths, and tests whether a flow's support carries a positive-effect
cycle, which descent certificates must rule out.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass

from .automaton import OCA, InternalError, Path, path_states


class FlowError(ValueError):
    """A multiset failed one of the flow conditions; ``condition`` names it."""

    def __init__(self, condition: str, detail: str = ""):
        super().__init__(condition + (f": {detail}" if detail else ""))
        self.condition = condition


@dataclass(frozen=True)
class Flow:
    """Transition multiset with designated endpoints.

    ``counts`` maps transition index -> multiplicity (>= 1 entries only).
    The zero flow with ``start == end`` is valid and realizes the empty
    path.
    """

    counts: tuple[tuple[int, int], ...]
    start: str
    end: str

    @staticmethod
    def make(counts: Counter[int] | dict[int, int], start: str, end: str) -> "Flow":
        items = tuple(sorted((i, m) for i, m in counts.items() if m != 0))
        return Flow(items, start, end)

    def counter(self) -> Counter[int]:
        return Counter(dict(self.counts))

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.counts)

    def effect(self, a: OCA) -> int:
        return sum(a.transitions[i].update * m for i, m in self.counts)

    def size(self) -> int:
        return sum(m for _, m in self.counts)


def check_flow(a: OCA, flow: Flow) -> None:
    """Raise :class:`FlowError` unless ``flow`` satisfies all conditions.

    Conditions: multiplicities positive over known transitions; endpoints
    declared; degree balance (one extra departure at start, one extra
    arrival at end, everything else even); support plus endpoints
    connected as one weakly connected piece.
    """
    if flow.start not in a.state_index or flow.end not in a.state_index:
        raise FlowError("endpoint", f"unknown state {flow.start!r} or {flow.end!r}")
    for i, m in flow.counts:
        if not 0 <= i < len(a.transitions):
            raise FlowError("support", f"no transition with index {i}")
        if m < 0:
            raise FlowError("multiplicity", f"transition {i} has count {m}")

    out_deg: Counter[str] = Counter()
    in_deg: Counter[str] = Counter()
    for i, m in flow.counts:
        t = a.transitions[i]
        out_deg[t.src] += m
        in_deg[t.dst] += m
    for q in set(out_deg) | set(in_deg) | {flow.start, flow.end}:
        expected = 0
        if q == flow.start:
            expected += 1
        if q == flow.end:
            expected -= 1
        if out_deg[q] - in_deg[q] != expected:
            raise FlowError("balance", f"state {q} has surplus {out_deg[q] - in_deg[q]}")

    touched = {q for q in out_deg} | {q for q in in_deg}
    if not touched:
        return  # zero flow, start == end by balance
    # Weak connectivity of the support, which must include both endpoints.
    if flow.start not in touched or flow.end not in touched:
        raise FlowError("connectivity", "an endpoint is outside the support")
    neighbors: dict[str, set[str]] = {q: set() for q in touched}
    for i, _ in flow.counts:
        t = a.transitions[i]
        neighbors[t.src].add(t.dst)
        neighbors[t.dst].add(t.src)
    seen = {flow.start}
    queue = deque([flow.start])
    while queue:
        for nxt in neighbors[queue.popleft()]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    if seen != touched:
        raise FlowError("connectivity", f"{touched - seen} unreachable from {flow.start}")


def flow_of_path(a: OCA, start_state: str, path: Path) -> Flow:
    """The flow induced by a path (validates that the path chains)."""
    states = path_states(a, start_state, path)
    return Flow.make(Counter(path), start_state, states[-1])


def path_from_flow(a: OCA, flow: Flow) -> Path:
    """Some path realizing ``flow`` exactly (Euler trail over the multiset).

    Deterministic: at every state the lowest-index remaining transition
    leaves first.  Raises :class:`FlowError` on inputs that are not
    flows.
    """
    check_flow(a, flow)
    remaining: dict[str, list[int]] = {}
    for i, m in flow.counts:
        remaining.setdefault(a.transitions[i].src, []).extend([i] * m)
    for lst in remaining.values():
        lst.sort(reverse=True)  # pop() yields lowest index first

    trail: list[int] = []
    stack: list[tuple[str, int | None]] = [(flow.start, None)]
    while stack:
        state, _ = stack[-1]
        edges = remaining.get(state)
        if edges:
            i = edges.pop()
            stack.append((a.transitions[i].dst, i))
        else:
            _, via = stack.pop()
            if via is not None:
                trail.append(via)
    trail.reverse()
    # The flow conditions guarantee the trail spends every edge.
    if len(trail) != flow.size():
        raise InternalError("Euler trail failed to cover the flow")
    return tuple(trail)


def flow_has_positive_cycle(a: OCA, flow: Flow) -> bool:
    """Does the support digraph carry a positive-effect cycle?

    Positive cycles are negative cycles after negating updates, found by
    Bellman-Ford over the support states.
    """
    support = flow.support()
    if not support:
        return False
    states = sorted({a.transitions[i].src for i in support}
                    | {a.transitions[i].dst for i in support})
    # Parallel edges: only the largest update matters for positivity.
    best: dict[tuple[str, str], int] = {}
    for i in support:
        t = a.transitions[i]
        key = (t.src, t.dst)
        if key not in best or t.update > best[key]:
            best[key] = t.update
    dist = {q: 0 for q in states}
    edges = [(src, dst, -upd) for (src, dst), upd in best.items()]
    for _ in range(len(states) - 1):
        changed = False
        for src, dst, w in edges:
            if dist[src] + w < dist[dst]:
                dist[dst] = dist[src] + w
                changed = True
        if not changed:
            return False
    return any(dist[src] + w < dist[dst] for src, dst, w in edges)
