"""One-counter automata with per-state counter tests.

A machine is a finite digraph whose edges carry integer counter updates.
Each control state carries at most one test, ``== k`` or ``!= k`` against
the counter; a configuration ``state:value`` is valid when the value is
nonnegative and passes the state's test.  Runs step along transitions
through valid configurations only.  Candidate runs relax both
requirements and live in plain integer semantics.

Paths are tuples of transition indices into ``OCA.transitions``; indices
are stable, survive duplicate transitions, and are what the evidence
file formats reference.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property, wraps
from typing import Callable, Iterable, Iterator, Literal, NamedTuple

from .values import Values, discard, has, one, shift

GuardKind = Literal["true", "eq", "ne"]

Path = tuple[int, ...]


@dataclass(frozen=True)
class Guard:
    kind: GuardKind = "true"
    value: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "true":
            if self.value is not None:
                raise ValueError("a trivial guard carries no test value")
        elif self.kind in ("eq", "ne"):
            if self.value is None or self.value < 0:
                raise ValueError("counter tests compare against a natural number")
        else:
            raise ValueError(f"unknown guard kind {self.kind!r}")

    def allows(self, value: int) -> bool:
        if self.kind == "eq":
            return value == self.value
        if self.kind == "ne":
            return value != self.value
        return True

    def __str__(self) -> str:
        if self.kind == "eq":
            return f"== {self.value}"
        if self.kind == "ne":
            return f"!= {self.value}"
        return "true"


TRUE_GUARD = Guard()


@dataclass(frozen=True)
class Transition:
    src: str
    update: int
    dst: str

    def __str__(self) -> str:
        return f"{self.src} {self.update:+d} {self.dst}"


class Config(NamedTuple):
    """A configuration ``state:value``.

    A named tuple, so hashing, equality and field access run in C; it
    is immutable, and it also equals the plain tuple ``(state, value)``.
    """

    state: str
    value: int

    def __str__(self) -> str:
        return f"{self.state}:{self.value}"


@dataclass(eq=False)
class OCA:
    """Automaton container.

    ``guards`` is the automaton's own copy of the tests it is given, with
    the trivial test filled in for every state without one; the caller's
    dict is left as it was.  ``memo`` holds every analysis derived from
    this automaton, one entry per :func:`per_automaton` function, and is
    freed with it; an automaton built by :func:`extend` also keeps its
    link to its base there.  Instances compare by identity on purpose:
    two parses of the same file are two automata with two memos, never a
    shared or stale one.
    """

    states: tuple[str, ...]
    transitions: tuple[Transition, ...]
    guards: dict[str, Guard]
    memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        if len(set(self.states)) != len(self.states):
            raise ValueError("duplicate state names")
        known = set(self.states)
        for t in self.transitions:
            if t.src not in known or t.dst not in known:
                raise ValueError(f"transition {t} uses an undeclared state")
        for q in self.guards:
            if q not in known:
                raise ValueError(f"guard on undeclared state {q!r}")
        guards = self.guards = dict(self.guards)
        for q in self.states:
            guards.setdefault(q, TRUE_GUARD)

    @cached_property
    def state_index(self) -> dict[str, int]:
        return {q: i for i, q in enumerate(self.states)}

    @cached_property
    def step_table(self):
        """``(out, blocked, pinned)``: ``out[q]`` lists ``(index, dst,
        update)`` per transition leaving ``q`` in index order,
        ``blocked[q]`` is the value a ``!=`` test at ``q`` forbids (-1
        when there is none), and ``pinned`` maps each ``==`` test state
        to its one allowed value."""
        out: dict[str, list[tuple[int, str, int]]] = {q: [] for q in self.states}
        for i, t in enumerate(self.transitions):
            out[t.src].append((i, t.dst, t.update))
        guards = self.guards
        blocked = {q: g.value if g.kind == "ne" else -1 for q, g in guards.items()}
        pinned = {q: g.value for q, g in guards.items() if g.kind == "eq"}
        return {q: tuple(v) for q, v in out.items()}, blocked, pinned

    @cached_property
    def max_update(self) -> int:
        return max((abs(t.update) for t in self.transitions), default=0)

    @cached_property
    def max_test(self) -> int:
        return max(
            (g.value for g in self.guards.values() if g.value is not None),
            default=0,
        )

    def guard(self, state: str) -> Guard:
        return self.guards[state]

    def is_valid(self, c: Config) -> bool:
        """An undeclared state is invalid too: ``blocked.get`` yields ``value``."""
        state, value = c
        _, blocked, pinned = self.step_table
        return 0 <= value != blocked.get(state, value) and pinned.get(state, value) == value

    def has_equality_tests(self) -> bool:
        return any(g.kind == "eq" for g in self.guards.values())


def require_valid(a: OCA, *configs: Config) -> None:
    """The one validity gate on caller-supplied configurations: raises
    ValueError naming the first of ``configs`` that ``a`` rejects."""
    for c in configs:
        if not a.is_valid(c):
            raise ValueError(f"configuration {c} is not valid")


def batch_steps(a: OCA, state: str, values: Values) -> Iterator[tuple[int, str, int, Values]]:
    """Every valid step out of ``state`` at each of ``values``, a
    :mod:`ocareach.values` set of valid values, one batch per transition:
    ``(i, dst, update, targets)`` with transitions ``i`` in index order
    and ``targets`` the set of values reached at ``dst`` that pass its
    test.  A batch is ``values`` shifted by the update, less the value a
    ``!=`` test forbids; an ``==`` test lets through its one value if
    the one source value that reaches it is in ``values``.  Scans over a
    whole configuration set step each state's set through here;
    :func:`ocareach.exploration.post_star` inlines the same rule per
    level."""
    out, blocked, pinned = a.step_table
    for i, dst, update in out[state]:
        pin = pinned.get(dst)
        if pin is not None:
            targets = one(pin) if has(values, pin - update) else ()
        else:
            targets = discard(shift(values, update), blocked[dst])
        yield i, dst, update, targets


def valid_steps(a: OCA, configs: Iterable[Config]) -> Iterator[tuple[Config, int, Config]]:
    """Every valid step ``(c, i, d)`` out of ``configs``: ``c`` in the
    order given, its transitions ``i`` in index order, ``d`` valid.  One
    configuration at a time, for short scans; whole-set scans step value
    sets through :func:`batch_steps`."""
    out = a.step_table[0]
    for c in configs:
        for i, dst, update in out[c.state]:
            d = Config(dst, c.value + update)
            if a.is_valid(d):
                yield c, i, d


def per_automaton(fn):
    """Memoize ``fn`` in ``a.memo[fn]``: the result of ``fn(a)``, or a
    table keyed by the arguments after ``a``.  The wrapper keeps ``fn``'s
    name and signature, so callers bind it like any function."""

    def one(a):
        if fn not in a.memo:
            a.memo[fn] = fn(a)
        return a.memo[fn]

    def two(a, x):
        try:
            return a.memo[fn][x]
        except KeyError:
            pass
        value = a.memo.setdefault(fn, {})[x] = fn(a, x)
        return value

    def many(a, *key):
        try:
            return a.memo[fn][key]
        except KeyError:
            pass
        value = a.memo.setdefault(fn, {})[key] = fn(a, *key)
        return value

    return wraps(fn)((one, two, many)[min(fn.__code__.co_argcount, 3) - 1])


class InternalError(RuntimeError):
    """A soundness check inside the solver failed.

    Raised instead of returning a verdict the solver cannot back, so a
    bug surfaces as a crash and never as an answer.  Unlike ``assert``
    it survives ``python -O``.
    """


class ReplayError(ValueError):
    """A path failed to replay; ``index`` points at the first bad spot.

    ``index`` counts configurations (0 is the start), and for a
    transition whose source state does not match it is the position of
    the offending step.
    """

    def __init__(self, reason: str, index: int, config: Config | None = None):
        super().__init__(f"{reason} at index {index}" + (f" ({config})" if config else ""))
        self.reason = reason
        self.index = index
        self.config = config


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """Numbered lines of a text file format, each cut at its first ``#``
    and stripped; lines left blank are skipped, numbers count from 1."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_config(text: str) -> Config:
    """Parse a ``state:value`` literal such as ``q:0``."""
    state, sep, value = text.rpartition(":")
    if not sep or not state:
        raise ValueError(f"bad configuration literal {text!r}, expected state:value")
    return Config(state, int(value))


def parse_oca(text: str) -> OCA:
    """Parse the plain-text automaton format.

    ::

        # comment
        states: q r s
        guard q != 5
        guard r == 7
        trans q +2 r
    """
    states: tuple[str, ...] | None = None
    guards: dict[str, Guard] = {}
    transitions: list[Transition] = []
    for lineno, line in content_lines(text):
        tokens = line.split()
        try:
            if tokens[0] == "states:":
                if states is not None:
                    raise ValueError("states declared twice")
                if len(tokens) == 1:
                    raise ValueError("empty states declaration")
                states = tuple(tokens[1:])
            elif tokens[0] == "guard":
                if len(tokens) != 4 or tokens[2] not in ("!=", "=="):
                    raise ValueError("expected: guard STATE !=|== VALUE")
                state, op, value = tokens[1], tokens[2], int(tokens[3])
                if state in guards:
                    raise ValueError(f"second guard for state {state!r}")
                guards[state] = Guard("eq" if op == "==" else "ne", value)
            elif tokens[0] == "trans":
                if len(tokens) != 4:
                    raise ValueError("expected: trans SRC UPDATE DST")
                transitions.append(Transition(tokens[1], int(tokens[2]), tokens[3]))
            else:
                raise ValueError(f"unknown directive {tokens[0]!r}")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if states is None:
        raise ValueError("missing states: declaration")
    return OCA(states, tuple(transitions), guards)


def format_oca(a: OCA) -> str:
    lines = ["states: " + " ".join(a.states)]
    for q in a.states:
        g = a.guards[q]
        if g.kind != "true":
            op = "==" if g.kind == "eq" else "!="
            lines.append(f"guard {q} {op} {g.value}")
    for t in a.transitions:
        lines.append(f"trans {t.src} {t.update:+d} {t.dst}")
    return "\n".join(lines) + "\n"


def extend(
    a: OCA, states: tuple[str, ...], transitions: tuple[Transition, ...], guards: dict[str, Guard]
) -> OCA:
    """``a`` with ``states``, ``transitions`` and the new states' ``guards``
    appended: ``a``'s states and transitions come first, with the same
    indices and tests.

    Each new state must be a strongly connected component of its own:
    every new transition links a new state to itself, or to ``a`` in one
    direction only (ValueError otherwise).  Then every component of an
    old state is the same as in ``a``, so the result answers
    :func:`scc_of` from ``a``'s table and :func:`component` for an old
    state with ``a``'s own sub-automaton, its analyses included; its
    :func:`reverse` does the same from ``reverse(a)``, built only when
    such a component is asked for.  The result holds ``a``, and ``a``
    holds nothing of it.
    """
    new = frozenset(states)
    for t in transitions:
        if (t.src in new) + (t.dst in new) != (2 if t.src == t.dst else 1):
            raise ValueError(f"transition {t} links no new state to itself or to the base")
    entered = {t.dst for t in transitions if t.src not in new}
    if not entered.isdisjoint(t.src for t in transitions if t.dst not in new):
        raise ValueError("a new state has steps both into and out of the base")
    if not new.issuperset(guards):
        raise ValueError("only new states take guards")
    n = OCA(a.states + states, a.transitions + transitions, {**a.guards, **guards})
    n.memo[extend] = (a, False)
    return n


def reverse(a: OCA) -> OCA:
    """The reversed automaton: arrows flipped, updates negated, tests kept.

    Transition ``i`` of the result mirrors transition ``i`` of ``a``, so
    a path reversed index-wise replays there.  The components are the
    same, so the result keeps ``a``'s :func:`scc_of` table if there is
    one, and an :func:`extend`-ed ``a``'s link to its base, flipped.

    Memoized in ``a.memo[reverse]``, as :func:`per_automaton` would, and
    the result links back to ``a`` there too, but weakly: reversing it
    again gives ``a`` itself, with its analyses, while ``a`` lives, and
    no reference cycle keeps either alive.
    """
    r = reversal(a)
    if r is None:
        flipped = tuple(Transition(t.dst, -t.update, t.src) for t in a.transitions)
        r = OCA(a.states, flipped, a.guards)
        if scc_of.__wrapped__ in a.memo:
            r.memo[scc_of.__wrapped__] = a.memo[scc_of.__wrapped__]
        if extend in a.memo:
            base, reversed_base = a.memo[extend]
            r.memo[extend] = (base, not reversed_base)
        a.memo[reverse] = r
        r.memo[reverse] = weakref.ref(a)
    return r


def reversal(a: OCA) -> OCA | None:
    """``reverse(a)`` if it is built, and alive where it is ``a``'s
    original; None otherwise.  Nothing is built."""
    r = a.memo.get(reverse)
    return r() if type(r) is weakref.ref else r


@per_automaton
def restrict(a: OCA, states: frozenset[str]) -> tuple[OCA, tuple[int, ...]]:
    """Sub-automaton induced by ``states``.

    Returns the restriction and the tuple mapping its transition indices
    back to indices in ``a``.
    """
    kept = tuple(q for q in a.states if q in states)
    indices = tuple(
        i for i, t in enumerate(a.transitions) if t.src in states and t.dst in states
    )
    sub = OCA(
        kept,
        tuple(a.transitions[i] for i in indices),
        {q: a.guards[q] for q in kept},
    )
    return sub, indices


def scc_decompose(a: OCA) -> tuple[frozenset[str], ...]:
    """Strongly connected components, topologically ordered, sources first.

    Iterative Kosaraju: a depth-first pass records the finish order, then
    a sweep over predecessor lists, read off ``a.transitions`` in one
    pass, collects components in decreasing finish time of their first
    state.  Single states without a self-loop still form their own
    (trivial) component.
    """
    out = a.step_table[0]
    seen: set[str] = set()
    finished: list[str] = []
    for root in a.states:
        if root in seen:
            continue
        seen.add(root)
        work = [(root, iter(out[root]))]
        while work:
            node, steps = work[-1]
            for _, dst, _ in steps:
                if dst not in seen:
                    seen.add(dst)
                    work.append((dst, iter(out[dst])))
                    break
            else:
                work.pop()
                finished.append(node)
    preds: dict[str, list[str]] = {q: [] for q in a.states}
    for t in a.transitions:
        preds[t.dst].append(t.src)
    placed: set[str] = set()
    components: list[frozenset[str]] = []
    for root in reversed(finished):
        if root in placed:
            continue
        placed.add(root)
        component = [root]
        for q in component:  # grows while it is read
            for p in preds[q]:
                if p not in placed:
                    placed.add(p)
                    component.append(p)
        components.append(frozenset(component))
    return tuple(components)


@per_automaton
def scc_of(a: OCA) -> dict[str, frozenset[str]]:
    """State -> its strongly connected component.  An :func:`extend`-ed
    automaton copies its base's table, reversed or not, and adds each
    new state as its own component, without a search."""
    if extend in a.memo:
        table = dict(scc_of(a.memo[extend][0]))
        for q in a.states[len(table) :]:
            table[q] = frozenset((q,))
        return table
    table = {}
    for component in scc_decompose(a):
        for q in component:
            table[q] = component
    return table


def component(a: OCA, q: str) -> tuple[OCA, tuple[int, ...]]:
    """q's strongly connected component as a sub-automaton, with the map
    back to ``a``'s transition indices, as :func:`restrict` gives them.
    The sub-automaton is one component, so its :func:`scc_of` table is
    filled in here, not searched for; a one-component ``a`` is its own.
    For an old state of an :func:`extend`-ed automaton it is the base's
    component, the very same object: indices and tests agree, and so
    do its analyses.  A reversed extension resolves ``reverse`` of the
    base only here."""
    if extend in a.memo:
        base, flipped = a.memo[extend]
        if q in base.state_index:
            return component(reverse(base) if flipped else base, q)
    states = scc_of(a)[q]
    if len(states) == len(a.states):
        return a, tuple(range(len(a.transitions)))
    sub, back = restrict(a, states)
    sub.memo.setdefault(scc_of.__wrapped__, dict.fromkeys(sub.states, states))
    return sub, back


@per_automaton
def state_search(a: OCA, q: str) -> dict[str, tuple[str, int] | None]:
    """Breadth-first search over states from ``q``: every state reached,
    in discovery order, mapped to the step ``(state, index)`` that first
    reached it (None at ``q``)."""
    out = a.step_table[0]
    parents: dict[str, tuple[str, int] | None] = {q: None}
    order = [q]
    for state in order:  # grows while it is read
        for i, dst, _ in out[state]:
            if dst not in parents:
                parents[dst] = (state, i)
                order.append(dst)
    return parents


def path_to(parents: dict, target) -> Path:
    """Transition indices from a search root to ``target``, read back
    through ``parents`` (node -> ``(previous node, index)``, None at a root)."""
    rev: list[int] = []
    link = parents[target]
    while link is not None:
        target, i = link
        rev.append(i)
        link = parents[target]
    return tuple(reversed(rev))


def apply_path(
    a: OCA,
    start: Config,
    path: Path,
    mode: str = "valid",
    on_step: Callable[[Config], object] | None = None,
) -> Config:
    """Replay ``path`` from ``start`` and return the configuration it ends at.

    The one loop over a transition sequence: every other walk is a view
    of it.  ``valid`` mode raises :class:`ReplayError` at the first
    configuration that is negative or fails its state's test (the start
    counts, at index 0).  ``candidate`` mode only checks that transitions
    chain.  Both reject an index that names no transition.  The loop
    tracks a plain ``(state, value)`` pair and builds a :class:`Config`
    only for the result or an error, or for ``on_step``, when given,
    which receives each configuration after the start.
    """
    if mode not in ("valid", "candidate"):
        raise ValueError(f"unknown replay mode {mode!r}")
    if start.state not in a.state_index:
        raise ValueError(f"unknown state {start.state!r}")
    check = mode == "valid"
    if check and not a.is_valid(start):
        raise ReplayError("invalid configuration", 0, start)
    _, blocked, pinned = a.step_table
    transitions = a.transitions
    count = len(transitions)
    state, value = start
    for pos, i in enumerate(path):
        if not 0 <= i < count:
            raise ReplayError(f"no transition {i}", pos, Config(state, value))
        t = transitions[i]
        if t.src != state:
            raise ReplayError("step source mismatch", pos, Config(state, value))
        state = t.dst
        value += t.update
        if check and not (0 <= value != blocked[state] and pinned.get(state, value) == value):
            raise ReplayError("invalid configuration", pos + 1, Config(state, value))
        if on_step is not None:
            on_step(Config(state, value))
    return Config(state, value)


def path_configs(a: OCA, start: Config, path: Path, mode: str = "valid") -> list[Config]:
    """Every configuration ``path`` visits from ``start``, the start
    first: a view of :func:`apply_path`, collected through its
    ``on_step`` callback, with the same checks and errors."""
    configs = [start]
    apply_path(a, start, path, mode, configs.append)
    return configs


def source_replay(a: OCA, path: Path) -> list[Config]:
    """Candidate replay of a nonempty ``path`` from value 0 at the source
    of its first transition, every configuration visited."""
    first = path[0]
    # An index naming no transition starts anywhere; apply_path rejects it.
    state = a.transitions[first].src if 0 <= first < len(a.transitions) else a.states[0]
    return path_configs(a, Config(state, 0), path, mode="candidate")


def path_states(a: OCA, start_state: str, path: Path) -> list[str]:
    """States visited by ``path`` from ``start_state`` (length + 1 entries)."""
    return [c.state for c in path_configs(a, Config(start_state, 0), path, mode="candidate")]


def path_effect_drop(a: OCA, path: Path) -> tuple[int, int]:
    """Total counter effect and drop of a path.

    The drop is the smallest start value keeping every prefix
    nonnegative; it composes as
    ``drop(p + q) = max(drop(p), drop(q) - effect(p))``.
    """
    if not path:
        return 0, 0
    values = [c.value for c in source_replay(a, path)]
    return values[-1], -min(values)
