"""Ground truth that shares no code with ``ocareach``.

The benchmark checks every verdict against these functions. They read
the plain-text automaton and evidence formats themselves and run
deliberately naive searches, so a bug in the solver cannot hide behind
the same bug here.
"""

from __future__ import annotations

from collections import deque


class Model:
    """An automaton parsed from text: guards and transitions by index."""

    def __init__(self, text: str):
        self.states: list[str] = []
        self.guards: dict[str, tuple[str, int]] = {}
        self.transitions: list[tuple[str, int, str]] = []
        for raw in text.splitlines():
            tokens = raw.split("#", 1)[0].split()
            if not tokens:
                continue
            if tokens[0] == "states:":
                self.states = tokens[1:]
            elif tokens[0] == "guard":
                self.guards[tokens[1]] = (tokens[2], int(tokens[3]))
            elif tokens[0] == "trans":
                self.transitions.append((tokens[1], int(tokens[2]), tokens[3]))
            else:
                raise ValueError(f"unknown line {raw!r}")
        self.out: dict[str, list[tuple[int, str]]] = {q: [] for q in self.states}
        self.inc: dict[str, list[tuple[int, str]]] = {q: [] for q in self.states}
        for src, upd, dst in self.transitions:
            self.out[src].append((upd, dst))
            self.inc[dst].append((upd, src))

    def valid(self, state: str, value: int) -> bool:
        if value < 0:
            return False
        guard = self.guards.get(state)
        if guard is None:
            return True
        op, bound = guard
        return value == bound if op == "==" else value != bound

    def has_equality_tests(self) -> bool:
        return any(op == "==" for op, _ in self.guards.values())

    def monotone(self) -> bool:
        return all(upd > 0 for _, upd, _ in self.transitions)


def parse_endpoint(text: str) -> tuple[str, int]:
    state, _, value = text.rpartition(":")
    return state, int(value)


def _closure(model: Model, start, goal, bound: int, backward: bool):
    """Breadth-first closure inside [0, bound]: (goal found, bound hit)."""
    edges = model.inc if backward else model.out
    sign = -1 if backward else 1
    seen = {start}
    queue = deque([start])
    hit = False
    while queue:
        state, value = queue.popleft()
        for upd, nxt in edges[state]:
            cfg = (nxt, value + sign * upd)
            if cfg in seen or not model.valid(*cfg):
                continue
            if cfg[1] > bound:
                hit = True
                continue
            if cfg == goal:
                return True, hit
            seen.add(cfg)
            queue.append(cfg)
    return False, hit


def bounded_reach(model: Model, src, trg, bound: int) -> bool | None:
    """True / False, or None when neither closure finished below ``bound``.

    A forward closure that finds the target proves reachability. A
    forward or backward closure that completes below the bound without
    meeting the other endpoint proves unreachability.
    """
    if not (model.valid(*src) and model.valid(*trg)):
        return False
    if src == trg:
        return True
    found, hit = _closure(model, src, trg, bound, backward=False)
    if found:
        return True
    if not hit:
        return False
    found, hit = _closure(model, trg, src, bound, backward=True)
    if found:
        return True
    return None if hit else False


def monotone_reach(model: Model, src, trg) -> bool:
    """Exact when every update is positive: no run to ``trg`` climbs past it."""
    if not model.monotone():
        raise ValueError("the value bound is exact only for monotone automata")
    found = bounded_reach(model, src, trg, trg[1])
    if found is None:
        raise AssertionError("a closure capped at the target value cannot stay open")
    return found


def subset_sums(values) -> set[int]:
    sums = {0}
    for v in values:
        sums |= {s + v for s in sums}
    return sums


def parse_run_text(text: str) -> tuple[str, str, list[int]]:
    """Endpoints and transition indices of a RUN evidence file."""
    src = trg = ""
    path: list[int] = []
    lines = [line.split("#", 1)[0].strip() for line in text.splitlines()]
    lines = [line for line in lines if line]
    if not lines or lines[0] != "RUN":
        raise ValueError("not a RUN file")
    for line in lines[1:]:
        tag, _, rest = line.partition(" ")
        if tag == "src":
            src = rest.strip()
        elif tag == "trg":
            trg = rest.strip()
        elif tag == "path":
            path.extend(int(tok) for tok in rest.split())
        else:
            raise ValueError(f"unknown RUN line {line!r}")
    return src, trg, path


def replay(model: Model, src, trg, path) -> str:
    """Step a run through valid configurations; '' on success, else why not."""
    state, value = src
    if not model.valid(state, value):
        return "invalid start"
    for pos, i in enumerate(path):
        if not 0 <= i < len(model.transitions):
            return f"step {pos}: no transition {i}"
        t_src, upd, t_dst = model.transitions[i]
        if t_src != state:
            return f"step {pos}: transition {i} leaves {t_src}, not {state}"
        state, value = t_dst, value + upd
        if not model.valid(state, value):
            return f"step {pos}: invalid configuration {state}:{value}"
    if (state, value) != tuple(trg):
        return f"run ends at {state}:{value}"
    return ""
