"""Brute-force semantics: bounded exploration and exact candidate reachability.

Everything here is explicit-state.  The values a closure finds at one
state are a :mod:`ocareach.values` set: segments of bits, costing what
the values span where they are dense and a few words each where they
are sparse.  :func:`post_star` runs a capped breadth-first closure that
steps a few values one by one and a wider frontier a segment at a time,
per transition with a shift and a cleared ``!=`` bit.  Roots, stepped
segments and lap lattices add values by one admission rule,
:func:`_put`; only the per-value step spells it out inline.  A closure
is a set, found in any order: one given no target takes a chain's free
laps at once from a thin frontier's value, climbing its state's
canonical cycle and descending the reversed automaton's, each lap
position's values one lattice.  A search given a target, and
:func:`first_found`, go level by level and keep each level's
frontiers, to read the shortest run back from them.
Closures are restricted per state too: a restriction names, for each
state, either nothing (every valid value is admitted) or a predicate on
values.  Local boundedness (:func:`locally_bounded`) and the
boundedness labels behind it take the same per-state form.
:func:`reach_oracle` layers escalating value caps on top of it
and never answers unless the answer is certain; it is the only search
that escalates.
:func:`candidate_reach` decides reachability under integer semantics
(counter may go negative, tests are ignored) exactly, by decomposing
walks into a simple path plus attached simple cycles (an enumeration
exponential in the state count) and then solving one coin problem over
the free cycle effects with a walk over residues.
"""

from __future__ import annotations

import heapq
import weakref
from collections import Counter, deque
from itertools import chain
from collections.abc import Iterator, Set
from dataclasses import dataclass
from math import gcd

from .analysis import climbing_cycles, climbs_forever, lap_context, lone_loops
from .automaton import (
    OCA,
    Config,
    Guard,
    InternalError,
    Path,
    apply_path,
    component,
    per_automaton,
    require_valid,
    reverse,
    reversal,
    scc_of,
    state_search,
)
from .flows import Flow, path_from_flow
from .values import (
    BIT,
    PAGE,
    PAGE_BYTES,
    PAGE_MASK,
    PAGE_SHIFT,
    Pages,
    Values,
    admitted,
    count,
    from_pages,
    greatest,
    has,
    iterate,
    joined,
    lattice,
    mark,
    marked,
    of,
    unmarked,
)


class ResourceExceeded(Exception):
    """A search ran past its cap undecided."""


NODE_CAP = 500_000  # the oracle's rungs, the perfect-core closure, the lift's climb searches


def _value_cap(a: OCA, *values: int, scale: int = 1) -> int:
    """Value cap that is decisive for desk-sized instances around ``values``."""
    base = a.max_test + sum(v for v in values if v > 0)
    base += (len(a.states) + 2) * (a.max_update + 1)
    return base * scale


class Configs(Set):
    """A read-only set of configurations over per-state value sets:
    ``sets[state]`` is the :mod:`ocareach.values` set of the values at
    ``state``.  Membership takes a :class:`~ocareach.automaton.Config` or
    a plain ``(state, value)`` tuple, and anything else is not a member;
    iteration yields configurations state by state, values in increasing
    order.  It is a view: nothing is copied."""

    __slots__ = ("sets",)

    def __init__(self, sets: dict[str, Values]):
        self.sets = sets

    @classmethod
    def _from_iterable(cls, it) -> set:
        return set(it)

    def __contains__(self, c) -> bool:
        try:
            state, value = c
        except (TypeError, ValueError):
            return False
        got = self.sets.get(state)
        return got is not None and isinstance(value, int) and has(got, value)

    def __iter__(self) -> Iterator[Config]:
        new = tuple.__new__
        for state, got in self.sets.items():
            for value in iterate(got):
                yield new(Config, (state, value))

    def __len__(self) -> int:
        return sum(count(got) for got in self.sets.values())

    def __repr__(self) -> str:
        return f"Configs({set(self)!r})"


def value_sets(configs) -> dict[str, Values]:
    """``configs`` as the values at each state: a :class:`Configs` view's ``sets``, or grouped once."""
    if isinstance(configs, Configs):
        return configs.sets
    grouped: dict[str, list[int]] = {}
    for state, value in configs:
        grouped.setdefault(state, []).append(value)
    return {state: of(values) for state, values in grouped.items()}


@dataclass
class PostStarResult:
    """A closure: ``sets`` maps each state to the :mod:`ocareach.values`
    set of values found there, and ``configs`` is a set view over it, not
    a copy.  ``run`` is, for a search given ``stop_at``, the transition
    indices of a shortest run to it; None when the search did not find
    it or was given no target."""

    sets: dict[str, Values]
    cap_hit: bool
    run: Path | None = None

    @property
    def configs(self) -> Configs:
        return Configs(self.sets)

    def __contains__(self, c: Config) -> bool:
        return c in Configs(self.sets)


# A state's frontier at one level: a tuple of values, or a list of
# disjoint segments ``[at, bits, at, bits, ...]`` for the values
# ``at + j`` of each ``bits``.  A search given a target keeps each level
# flat, ``(state, front, state, front, ...)``, and a lone state's lone
# value as ``(state, value)``: a long thin search keeps one small tuple
# per level.
Front = dict[str, "tuple[int, ...] | list[int]"]


def _flat(level: Front) -> tuple:
    if len(level) == 1:
        ((state, front),) = level.items()
        return (state, front[0]) if type(front) is tuple and len(front) == 1 else (state, front)
    return tuple(chain.from_iterable(level.items()))


def _holds(level: tuple, state: str, value: int) -> bool:
    if state not in level:  # no front equals a state's name
        return False
    got = level[level.index(state) + 1]
    if type(got) is int:
        return value == got
    if type(got) is tuple:
        return value in got
    return any(got[j + 1] >> d & 1 for j in range(0, len(got), 2) if (d := value - got[j]) >= 0)


def _run_back(a: OCA, levels: list[tuple], c: Config) -> Path:
    """Transition indices of a shortest run to ``c``, found one level
    after the last of ``levels``.

    Read back one level at a time through the reversed automaton's step
    table: the step into the current configuration is the least, by
    (source state index, source value, transition index), of those from
    a configuration one level up.  That is the step a search scanning
    each level in that order meets first, so runs do not depend on the
    order the closure was built in.
    """
    into, order = reverse(a).step_table[0], a.state_index
    state, value = c
    rev: list[int] = []
    for level in reversed(levels):
        rank, value, i = min(
            (order[src], value + back, i)
            for i, src, back in into[state]
            if _holds(level, src, value + back)
        )
        state = a.states[rank]
        rev.append(i)
    return tuple(reversed(rev))


# Up to this many values, stepping each costs less than stepping a segment.
# The per-value branch takes 90% of frontier steps on the README loop, 99% on
# random automata and 10% on subset sums; without it, and so without the laps
# it takes at once, the loop decides 2.7x slower.
_THIN = 8


# A closure takes laps at once only once it has found more than this many
# configurations: 98% of those given no target on subset sums and random
# automata end sooner, and build no lap plan.
_FEW = 64


def _add(found: list[int], at: int, bits: int) -> None:
    """Add the segment ``at, bits`` to the frontier segments ``found``:
    into the last one when less than a page apart, so that a dense
    frontier stays one segment, else as a segment of its own."""
    low, old = found[-2], found[-1]
    if low - PAGE < at + bits.bit_length() and at - PAGE < low + old.bit_length():
        if at < low:
            found[-2:] = at, bits | old << (low - at)
        else:
            found[-1] = old | bits << (at - low)
    else:
        found += (at, bits)


def post_star(a, start, node_cap, value_cap=None, restrict=None, stop_at=None) -> PostStarResult:
    """Forward closure of ``start`` under valid steps, capped.

    ``start``, configurations or a :class:`Configs` view, is read as the
    values at each state (:func:`value_sets`) and checked per state; an
    invalid one raises ValueError naming it.  ``restrict`` filters which
    configurations may be traversed at all, start configurations
    included.  It is asked per state: ``restrict(state)`` is None when
    every valid value at ``state`` is admitted, else a predicate on
    values, asked before the value cap.  ``cap_hit`` is set when
    ``value_cap`` cut anything off; only then may the result be a strict
    subset of the true closure.  By default ``value_cap`` cannot bind: it
    sits ``node_cap * max_update`` above the highest start.  Finding a
    configuration beyond the first ``node_cap``, roots included, raises
    :class:`ResourceExceeded` instead of returning something wrong.
    ``stop_at`` ends the search at the level that finds that
    configuration, and only such a search keeps its levels, to read
    ``run`` back from them.

    Breadth first, one level at a time, reading the test at each
    destination from :attr:`ocareach.automaton.OCA.step_table`.  A
    state's frontier is a tuple of at most :data:`_THIN` values, stepped
    one by one as in long climbs and descents, or else a list of
    segments, each of which a transition steps whole: the update shifts
    it, a ``!=`` test clears one bit, and an ``==`` test lets through
    the one value its source must hold.  Each root segment, stepped
    segment and lap lattice is then admitted by one rule (:func:`_put`):
    what its state has already marked is masked off, the state's
    restriction, looked up once, when a new value first needs it, is
    asked of each new value, the value cap cuts, and the rest is charged
    to the node cap.  Found values are marked in pages (see
    :mod:`ocareach.values`), so memory follows the values found, not how
    high they are.  No configuration is built.

    A search given no ``stop_at`` is a set, found in any order: a thin
    value on a chain of its state's canonical cycle takes the chain's
    free laps at once, climbing and descending (:func:`_take_laps`), and
    the values they reach go on the next frontier as segments.  A search
    given ``stop_at`` goes level by level, keeps each level's frontiers
    flat and reads the run back from them, see :func:`_run_back`.
    """
    return _search(a, start, node_cap, value_cap, restrict, stop_at, None if stop_at is None else [])


class Found(Exception):
    """Raised by a restriction of :func:`first_found`, with the
    configuration it was asked about, to end the search there; and by
    :func:`is_bounded`'s probe at its first unbounded configuration."""


def first_found(a: OCA, c: Config, node_cap: int, restrict) -> tuple[Config, Path] | None:
    """The first configuration at which ``restrict``, a restriction as
    :func:`post_star` takes it, raises :class:`Found`, in the order a
    level-by-level search from ``c`` asks it, with a shortest run from
    ``c`` to it; None when the closure ends first.  One search, which
    keeps its levels and takes no laps at once, so the configuration
    is the one the search meets first, and the run is the one a search
    given it as ``stop_at`` reads back."""
    levels: list[tuple] = []
    try:
        _search(a, [c], node_cap, None, restrict, None, levels)
    except Found as hit:
        (u,) = hit.args
        return u, _run_back(a, levels, u)
    return None


def _search(a, start, node_cap, value_cap, restrict, stop_at, levels) -> PostStarResult:
    """:func:`post_star`'s search.
    ``levels`` is None for a closure, which may take laps at once, or a
    list it appends each level's frontiers to, flat, level by level."""
    roots = value_sets(start)
    out, blocked, pinned = a.step_table
    if value_cap is None:
        value_cap = max(map(greatest, roots.values()), default=0) + node_cap * a.max_update + 1
    seen: dict[str, Pages] = {}  # per state, the values found
    frontier: Front = {}
    cap_hit = False
    size = 0
    keeps: dict[str, object] = {}  # each state's restriction, looked up at first need
    for state, got in roots.items():
        avoid, pin = blocked.get(state), pinned.get(state)  # avoid is None: an undeclared state
        if avoid is None or got[0] < 0 or (got != (pin, 1) if pin is not None else has(got, avoid)):
            bad = next(v for v in iterate(got) if not a.is_valid((state, v)))
            raise ValueError(f"start configuration {Config(state, bad)} is not valid")
        for k in range(0, len(got), 2):
            size, hit = _put(state, got[k], got[k + 1], seen, keeps, restrict, value_cap, node_cap, size, frontier)
            cap_hit = cap_hit or hit
    for state, front in frontier.items():
        if count(front) <= _THIN:
            frontier[state] = tuple(iterate(joined(front)))
    laps: dict[str, tuple] = {}  # each state's lap plans, looked up at first need
    few = _FEW if levels is None else node_cap  # laps are taken at once past this size
    run = None
    while frontier:
        if stop_at is not None:
            if marked(seen.get(stop_at[0], {}), stop_at[1]):
                run = _run_back(a, levels, stop_at)
                break
        if levels is not None:
            levels.append(_flat(frontier))
        nxt: Front = {}
        for state, front in frontier.items():
            if type(front) is tuple and len(front) <= _THIN:
                if size > few:
                    plans = laps.get(state)
                    if plans is None:
                        plans = laps[state] = _lap_plans(a, state)
                    for plan in plans:
                        for v in front:
                            size = _take_laps(v, plan, value_cap, node_cap, size, seen, keeps, restrict, nxt)
                for _, dst, update in out[state]:
                    pin, avoid = pinned.get(dst), blocked[dst]
                    batch = front if pin is None else (pin - update,) if pin - update in front else ()
                    pages = seen.get(dst)
                    if pages is None:
                        pages = seen[dst] = {}
                    keep, found = keeps.get(dst, keeps), nxt.get(dst)
                    for at in batch:
                        at += update
                        if at < 0 or at == avoid:
                            continue
                        page, i, bit = pages.get(at >> PAGE_SHIFT), (at & PAGE_MASK) >> 3, BIT[at & 7]
                        if page is not None and page[i] & bit:
                            continue
                        if keep is keeps:
                            keep = keeps[dst] = None if restrict is None else restrict(dst)
                        if keep is not None and not keep(at):
                            continue
                        if at > value_cap:
                            cap_hit = True
                            continue
                        size += 1
                        if size > node_cap:
                            raise ResourceExceeded(f"post_star exceeded {node_cap} configurations")
                        if page is None:
                            page = pages[at >> PAGE_SHIFT] = bytearray(PAGE_BYTES)
                        page[i] |= bit
                        if found is None:
                            found = nxt[dst] = (at,)
                        elif type(found) is tuple:
                            found = nxt[dst] = found + (at,)
                        else:
                            _add(found, at, 1)
                continue
            if type(front) is tuple:
                front = list(of(front))
            for k in range(0, len(front), 2):
                low, values = front[k], front[k + 1]
                for _, dst, update in out[state]:
                    at, bits = low + update, values
                    pin = pinned.get(dst)
                    if pin is None:
                        if at < 0:
                            at, bits = 0, bits >> -at
                            if not bits:
                                continue
                        j = blocked[dst] - at
                        if j >= 0 and bits >> j & 1:
                            bits ^= 1 << j
                            if not bits:
                                continue
                    elif pin >= at and bits >> (pin - at) & 1:
                        at, bits = pin, 1
                    else:
                        continue
                    size, hit = _put(dst, at, bits, seen, keeps, restrict, value_cap, node_cap, size, nxt)
                    cap_hit = cap_hit or hit
        frontier = nxt
    sets = {state: from_pages(pages) for state, pages in seen.items() if pages}
    return PostStarResult(sets, cap_hit, run)


def _lap_plans(a: OCA, q: str) -> tuple:
    """The laps a closure given no target takes at once from a value at
    ``q``: climbing q's canonical cycle, and, once ``a``'s reversal is
    built (a closure builds no automaton), descending the one of the
    reversal, as :func:`_lap_plan` gives them."""
    r = reversal(a)
    plans = (_lap_plan(a, q, False), None if r is None else _lap_plan(r, q, True))
    return tuple(p for p in plans if p is not None)


@per_automaton
def _lap_plan(a: OCA, q: str, backwards: bool) -> tuple | None:
    """Laps of q's canonical cycle in ``a`` as ``(free, d, steps, top)``,
    read forwards or, for the reversed automaton, backwards.
    ``free(v)`` counts the laps free from a value v (None: they climb
    forever), each moves the value by ``d``, ``steps`` lists each step
    of a lap as ``(state, offset from the lap's start)``, the last back
    at q, and ``top`` is the greatest offset.  Forwards the laps climb
    from v, read off the chain context
    (:func:`~ocareach.analysis.lap_context`); backwards each one undoes
    a lap climbing into v, so they descend.  None where the chains are
    walked, not read off, and where laps rise more than a page: a
    lattice costs the values it spans, and values a page apart cost
    less stepped one by one."""
    ctx = lap_context(a, q)
    if ctx is None or ctx.period > PAGE:
        return None
    steps = tuple(ctx.lap)
    if not backwards:
        return ctx.laps_from, ctx.period, steps, max(eff for _, eff in steps)
    g = ctx.period
    steps = tuple((st, eff - g) for st, eff in reversed(((q, 0),) + steps[:-1]))
    return ctx.laps_into, -g, steps, max(off for _, off in steps)


def _put(st, at, bits, seen, keeps, restrict, value_cap, node_cap, size, nxt) -> tuple[int, bool]:
    """Add the values ``at + j`` of ``bits`` at ``st`` to a closure: the
    one admission rule of roots, stepped segments and lap lattices.

    What ``seen`` has marked at ``st`` is masked off; then, unless
    ``keeps`` is None (values already asked and cut), st's restriction,
    looked up once through ``keeps``, is asked of each new value in
    increasing order and what lies above ``value_cap`` is cut.  The rest
    is charged to ``node_cap``, marked, and goes on the frontier ``nxt``.
    Returns the closure's new size and whether the cap cut anything."""
    pages = seen.get(st)
    if pages is None:
        pages = seen[st] = {}
    bits = unmarked(pages, at, bits)
    cap_hit = False
    if bits and keeps is not None:
        keep = keeps.get(st, keeps)
        if keep is keeps:
            keep = keeps[st] = None if restrict is None else restrict(st)
        if keep is not None:
            bits = admitted(at, bits, keep)
        if bits and at + bits.bit_length() - 1 > value_cap:
            cap_hit = True
            bits &= (1 << max(value_cap + 1 - at, 0)) - 1
    if not bits:
        return size, cap_hit
    size += bits.bit_count()
    if size > node_cap:
        raise ResourceExceeded(f"post_star exceeded {node_cap} configurations")
    mark(pages, at, bits)
    found = nxt.get(st)
    if found is None:
        nxt[st] = [at, bits]
    else:
        if type(found) is tuple:
            found = nxt[st] = list(of(found))
        _add(found, at, bits)
    return size, cap_hit


def _take_laps(v, plan, value_cap, node_cap, size, seen, keeps, restrict, nxt) -> int:
    """Take the free laps of ``plan`` from ``v``, a value just found at
    the plan's state, at once, and return the closure's new size.

    The laps are cut to those wholly under ``value_cap``, to one more
    than the node budget left, and after the first that ends on a value
    already found, which is stepped anyway.  A restriction is asked lap
    by lap, in lap order, of the values not yet found, as a
    level-by-level search would reach them; the laps stop at the first
    value it refuses, whose predecessors are kept.  Each step's values
    ``v + offset, v + offset + d, ...`` then go to :func:`_put` as one
    lattice, which adds those not found before to the next frontier
    ``nxt`` as one segment.  Fewer than two free laps are left to the
    search, which steps them as fast."""
    free, d, steps, top = plan
    n = free(v)
    if n is not None and n < 2:
        return size
    g = abs(d)
    if d > 0:
        most = (value_cap - v - top) // d + 1
        n = most if n is None else min(n, most)
    elif v + top > value_cap:
        return size
    n = min(n, node_cap - size + 1)
    if n < 2:
        return size
    n = _laps_to_found(v, n, d, seen[steps[-1][0]])
    whole, part = n, 0  # laps taken whole, then steps of the next one
    if restrict is not None:
        whole, part = _ask_laps(v, n, d, steps, seen, keeps, restrict)
    laps = lattice(whole, g) if whole else 0
    for p, (st, off) in enumerate(steps):
        if p < part:
            k, bits = whole + 1, laps | 1 << whole * g
        elif whole:
            k, bits = whole, laps
        else:
            continue
        low = v + off if d > 0 else v + off - (k - 1) * g
        size, _ = _put(st, low, bits, seen, None, restrict, value_cap, node_cap, size, nxt)
    return size


def _laps_to_found(v, n, d, ends) -> int:
    """How many of ``n`` laps of effect ``d`` from ``v`` to take: up to
    the first that ends on a value marked in ``ends``, that one
    included, else all.  Read in lattices of 1, 2, 4, ... laps, so that
    the cost follows the laps taken, not the laps free."""
    g, k, m = abs(d), 0, 1
    while k < n:
        m = min(m, n - k)
        bits = lattice(m, g)  # the ends of laps k + 1, ..., k + m
        hit = bits & ~unmarked(ends, v + (k + 1) * d if d > 0 else v - (k + m) * g, bits)
        if hit:
            return k + (((hit & -hit).bit_length() - 1) // g + 1 if d > 0 else m - (hit.bit_length() - 1) // g)
        k, m = k + m, 2 * m
    return n


def _ask_laps(v, n, d, steps, seen, keeps, restrict) -> tuple[int, int]:
    """Ask the restrictions along ``n`` laps from ``v`` of the values not
    yet found, lap by lap and step by step: ``(k, p)`` for the first
    refused, at step p of lap k, else ``(n, 0)``.  The first lap looks
    each state's restriction up, and the later ones, if any step is
    restricted by a predicate, visit only those steps."""
    asked = []
    for p, (st, off) in enumerate(steps):
        pages = seen.get(st, {})
        keep = keeps.get(st, keeps)
        if keep is keeps:
            keep = keeps[st] = restrict(st)
        if keep is None:
            continue
        if not marked(pages, v + off) and not keep(v + off):
            return 0, p
        asked.append((p, off, pages, keep))
    if not asked:
        return n, 0
    for k in range(1, n):
        base = v + k * d
        for p, off, pages, keep in asked:
            x = base + off
            page = pages.get(x >> PAGE_SHIFT)
            if (page is None or not page[(x & PAGE_MASK) >> 3] & BIT[x & 7]) and not keep(x):
                return k, p
    return n, 0


def reach_oracle(a: OCA, src: Config, trg: Config) -> Path | None:
    """Decide src ->* trg by exploration; never guesses.

    Returns a replayable run, or None when unreachability is certain: a
    closure completed without hitting its cap, or candidate reachability
    fails, asked once when both closures of a rung were cut off or a
    node cap ended the ladder.  Runs come from the forward closure; the
    backward one holds the same runs reversed, so it only proves
    unreachability.  Raises :class:`ResourceExceeded` when every rung
    was cut off undecided.  The rungs share :data:`NODE_CAP` and grow
    the value cap fourfold each.
    """
    require_valid(a, src, trg)
    checked = False
    for k in range(4):
        cap = _value_cap(a, src.value, trg.value, scale=4**k)
        try:
            res = post_star(a, [src], NODE_CAP, cap, stop_at=trg)
        except ResourceExceeded:
            break
        if res.run is not None:
            return res.run
        if not res.cap_hit:
            return None
        try:
            back = post_star(reverse(a), [trg], NODE_CAP, cap)
        except ResourceExceeded:
            break
        if not back.cap_hit:
            return None
        if not checked and candidate_reach(a, src, trg) is None:
            return None
        checked = True
    if not checked and candidate_reach(a, src, trg) is None:
        return None
    raise ResourceExceeded(f"reach_oracle undecided for {src} -> {trg}")


# --------------------------------------------------------------- boundedness


@per_automaton
def _labels(a: OCA) -> dict[str, dict[int, bool]]:
    """Boundedness labels of ``a``'s configurations, one value table per
    state, see :func:`is_bounded`."""
    return {}


def is_bounded(a: OCA, c: Config) -> bool:
    """Is the set of configurations reachable from ``c`` finite?

    A ``c`` on an unbounded chain (:func:`ocareach.analysis.climbs_forever`)
    is labeled unbounded at once, with no probe: every lap from it is
    valid, so it climbs forever.  Any other ``c`` costs one
    :func:`post_star` probe whose value cap cannot bind.  A closure
    that completes proves bounded.  An infinite one reaches a
    configuration on an unbounded chain, proving unbounded: above
    every test plus ``|Q|*max_update`` a climbing cycle of the
    equality-free restriction runs freely, and a run that climbs that
    high without coming back down repeats a state on such a cycle.  The
    probe stops at the first such configuration, raising
    :class:`Found`.  Only the node cap of 2,000,000 stops it early,
    raising :class:`ResourceExceeded`.

    Verdicts go into the automaton's memo as labels: per state, a table
    from value to verdict.  A closed probe labels every configuration it
    saw bounded, one table entry per value: each one's closure lies
    inside the closed one.  Later probes stop at labels: one labeled
    bounded is neither expanded nor counted against the node cap, as it
    adds finitely many configurations; reaching one labeled unbounded
    makes the probe's root unbounded.  The probe's restriction is read
    per state from that state's labels and
    :func:`ocareach.analysis.climbs_forever`; a state with neither
    admits every value unasked.  Labels are exact, so the order of
    queries changes only the work.  Without equality tests, strongly
    connected and climbing, a probe above every test plus
    ``(2|Q|+2)*(max_update+1)`` stops within |Q| levels.
    """
    labels = _labels(a)
    state, value = c
    known = labels.get(state, {}).get(value)
    if known is not None:
        return known
    require_valid(a, c)
    climbs = climbs_forever(a, state)
    if climbs is not None and climbs(value):
        labels.setdefault(state, {})[value] = False
        return False

    def admit(state: str):
        table, climbs = labels.get(state), climbs_forever(a, state)
        if not table and climbs is None:
            return None
        return _admit(table or {}, climbs)

    try:
        res = post_star(a, [c], 2_000_000, restrict=admit)
    except Found:
        labels.setdefault(state, {})[value] = False
        return False
    for state, found in res.sets.items():
        labels.setdefault(state, {}).update(dict.fromkeys(iterate(found), True))
    return True


def _admit(labels: dict[int, bool], climbs):
    """:func:`is_bounded`'s probe restriction at one state: values
    labeled bounded are not expanded, and one labeled unbounded, or
    unlabeled and on an unbounded chain by ``climbs``, ends the probe
    with :class:`Found`."""

    def keep(v: int) -> bool:
        label = labels.get(v)
        if label is False or (label is None and climbs is not None and climbs(v)):
            raise Found
        return label is None

    return keep


def _component(a: OCA, q: str) -> OCA | None:
    """q's strongly connected component as a sub-automaton, or None when
    it has no climbing cycle, hence no positive cycle: no run in it then
    climbs over ``(|Q|-1)*max_update`` above its start, so closures end.
    Its cycles are the table every automaton sharing the component reads
    (:func:`~ocareach.analysis.climbing_cycles`).  :func:`locally_bounded`
    asks this only of components of two or more states: it reads a lone
    state off its self-loops and builds nothing for it."""
    sub, _ = component(a, q)
    return sub if climbing_cycles(sub) else None


def _lone_bounded(guard: Guard, loops: tuple[tuple[int, int], ...]):
    """:func:`is_bounded` in a lone state's component, from its test and
    its self-loops ``(index, update)``, with no probe: None when every
    valid value is bounded, else a predicate on valid values.

    Without a positive loop, or under an ``==`` test, nothing climbs;
    with no test, a positive loop climbs forever.  Under ``!= g`` a value
    above g climbs freely, and so does every value when two positive
    updates differ: where one would land on g, the other steps past.
    With one positive update u, a value v below g can only climb onto g
    when ``(g - v) % u == 0``; it then stays at or below ``g - u``
    unless a negative loop of a size n, ``n % u != 0``, fits under
    ``g - u`` and moves it to a residue that climbs past g."""
    ups = {u for _, u in loops if u > 0}
    if not ups or guard.kind == "eq":
        return None
    top, u = guard.value, min(ups)
    fenced = guard.kind == "ne" and len(ups) == 1
    if not fenced or any(-n % u and -n <= top - u for _, n in loops if n < 0):
        return lambda v: False
    return lambda v: v < top and (top - v) % u == 0


@per_automaton
def locally_bounded(a: OCA):
    """:func:`is_bounded` inside each state's strongly connected
    component, as a per-state restriction for :func:`post_star`.

    ``locally_bounded(a)(q)`` is None, every valid value at ``q`` being
    locally bounded unprobed, when q's component has no climbing cycle
    or q is alone under an ``==`` test; else a predicate on q's valid
    values.  A lone state is read off its self-loops
    (:func:`_lone_bounded`); in a larger component the component's
    labels for q answer, a probe of the component filling them on a
    miss.
    The per-state table of answers fills on first use of each state.
    The restriction sits in ``a``'s memo, so it reaches ``a`` only
    through a weak reference, to fill that table.
    """
    owner = weakref.ref(a)
    table: dict[str, object] = {}

    def at(state: str):
        try:
            return table[state]
        except KeyError:
            pass
        owned = owner()
        loops = lone_loops(owned, state)
        if loops is not None:
            keep = _lone_bounded(owned.guards[state], loops)
        else:
            sub = _component(owned, state)
            keep = None if sub is None else _bounded_at(sub, state)
        table[state] = keep
        return keep

    return at


def _bounded_at(sub: OCA, state: str):
    """:func:`is_bounded` in ``sub`` on the values at ``state``, read from
    its labels for ``state`` first.  ``sub``, which may be the automaton
    whose memo holds the predicate, is held weakly."""
    labels = _labels(sub).setdefault(state, {})
    held = weakref.ref(sub)

    def bounded(v: int) -> bool:
        known = labels.get(v)
        return is_bounded(held(), Config(state, v)) if known is None else known

    return bounded


def is_locally_bounded(a: OCA, c: Config) -> bool:
    """is_bounded inside c's strongly connected component, for a valid
    ``c``: :func:`locally_bounded` of ``a`` asked once.  The component's
    labels are the only cache of the answer."""
    keep = locally_bounded(a)(c.state)
    return keep is None or keep(c.value)


# ------------------------------------------------------ candidate semantics


def _walk_states(a: OCA, u: str, v: str) -> frozenset[str]:
    """States on some walk from u to v: found from u, and from v backwards."""
    return frozenset(state_search(a, u).keys() & state_search(reverse(a), v).keys())


_ENUM_CAP = 500_000


def _simple_walks(succ, start: str, goal: str, out: dict, steps: int, what: str) -> int:
    """Record in ``out`` one exemplar per (state set, effect) class of the
    simple walks start -> goal along ``succ`` (``start == goal`` for
    cycles), and return ``steps`` plus the edges tried.

    Depth first with an explicit stack of edge iterators, one per state
    on the current walk, so long walks need no recursion.
    """
    visited = {start, goal}
    acc: list[int] = []
    stack = [(iter(succ[start]), 0, start)]
    while stack:
        edges, eff, _ = stack[-1]
        for i, dst, update in edges:
            if dst in visited and dst != goal:
                continue
            steps += 1
            if steps > _ENUM_CAP:
                raise ResourceExceeded(f"too many simple {what} to enumerate")
            if dst == goal:
                out.setdefault((frozenset(visited), eff + update), (*acc, i))
                continue
            acc.append(i)
            visited.add(dst)
            stack.append((iter(succ[dst]), eff + update, dst))
            break
        else:
            state = stack.pop()[2]
            if stack:
                acc.pop()
                visited.discard(state)
    return steps


def _simple_paths(a: OCA, u: str, v: str, rel: frozenset[str]):
    """One exemplar per (state set, effect) class of simple paths u -> v,
    and the edges tried."""
    if u == v:
        return {(frozenset([u]), 0): ()}, 0
    out_steps = a.step_table[0]
    succ = {q: [e for e in out_steps[q] if e[1] in rel] for q in rel}
    out: dict[tuple[frozenset[str], int], Path] = {}
    return out, _simple_walks(succ, u, v, out, 0, "paths")


def _simple_cycles(a: OCA, rel: frozenset[str], steps: int = 0):
    """One exemplar per (state set, effect) class of simple cycles in rel,
    each found from its least state in ``a.states`` order, walking only
    that state's strongly connected component; and ``steps`` plus the
    edges tried."""
    order = a.state_index
    out_steps = a.step_table[0]
    out: dict[tuple[frozenset[str], int], Path] = {}
    for pivot in sorted(rel, key=order.get):
        floor = order[pivot]
        comp = rel & scc_of(a)[pivot]
        succ = {
            q: [e for e in out_steps[q] if e[1] in comp and order[e[1]] >= floor] for q in comp
        }
        steps = _simple_walks(succ, pivot, pivot, out, steps, "cycles")
    return out, steps


def _ordkey(a: OCA, states: frozenset[str]) -> tuple[int, ...]:
    return tuple(sorted(a.state_index[s] for s in states))


@per_automaton
def _candidate_tables(a: OCA, u: str, v: str):
    """Skeleton table for candidate queries between two states.

    Every walk u -> v is a simple path plus simple cycles whose supports
    hang together.  Entries are (support, base effect) pairs reachable
    by a path class plus cycle classes that each widened the support;
    cycles lying inside the support may then repeat freely.  Each entry
    carries exemplars to materialize an actual path, plus an exemplar
    cycle for each nonzero effect free inside its support.  The support
    closure counts against :data:`_ENUM_CAP`, on the walks' counter of
    edges tried: each entry it takes up costs one per cycle class it
    tries, so the cap bounds both the entries added and the work.
    """
    rel = _walk_states(a, u, v)
    if u not in rel or v not in rel:
        return ()
    paths, steps = _simple_paths(a, u, v, rel)
    cycles, steps = _simple_cycles(a, rel, steps)
    cycle_items = sorted(
        cycles.items(), key=lambda kv: (_ordkey(a, kv[0][0]), kv[0][1])
    )
    table: dict[tuple[frozenset[str], int], tuple[Path, tuple[Path, ...]]] = {}
    queue: deque[tuple[frozenset[str], int]] = deque()
    for (t0, b0), exemplar in sorted(
        paths.items(), key=lambda kv: (_ordkey(a, kv[0][0]), kv[0][1])
    ):
        if (t0, b0) not in table:
            table[(t0, b0)] = (exemplar, ())
            queue.append((t0, b0))
    while queue:
        key = queue.popleft()
        support, base = key
        path_ex, cycle_exs = table[key]
        steps += len(cycle_items)
        if steps > _ENUM_CAP:
            raise ResourceExceeded("too many support classes to close over")
        for (states, eff), exemplar in cycle_items:
            if states <= support or not (states & support):
                continue
            grown = (support | states, base + eff)
            if grown not in table:
                table[grown] = (path_ex, cycle_exs + (exemplar,))
                queue.append(grown)
    free: dict[frozenset[str], dict[int, Path]] = {}
    entries = []
    for (support, base), (path_ex, cycle_exs) in table.items():
        if support not in free:
            by_effect: dict[int, Path] = {}
            for (states, eff), exemplar in cycle_items:
                if eff != 0 and states <= support:
                    by_effect.setdefault(eff, exemplar)
            free[support] = by_effect
        entries.append((support, base, path_ex, cycle_exs, free[support]))
    return tuple(entries)


def _semigroup_member(effects, r: int) -> dict[int, int] | None:
    """Nonnegative counts k_e of the effects with sum(k_e * e) = r, or None.

    The effects are scaled to r's sign and divided by their gcd.  A
    Dijkstra walk over residues mod b, the least effect of r's sign,
    with each effect costing its magnitude, finds for each residue the
    combination of least total magnitude.  The goal's residue gives the
    counts.  A combination that overshoots the goal takes repeats of the
    smallest effect of the other sign, ``down``, in blocks of
    b / gcd(b, |down|), the fewest that keep the residue, or fails when
    there is none; what is left below the goal is padded with copies of
    b.  With effects of one sign a magnitude is a sum, so this is the
    Apery-set walk of the numerical semigroup (Ramirez Alfonsin, The
    Diophantine Frobenius Problem, 2005): the same counts, and an
    overshoot means the goal lies outside the semigroup.
    """
    if r == 0:
        return {}
    g = 0
    for e in effects:
        g = gcd(g, e)
    if g == 0 or r % g:
        return None
    sign = 1 if r > 0 else -1
    coins = sorted(sign * e // g for e in effects)
    goal = abs(r) // g
    ups = [c for c in coins if c > 0]
    if not ups:
        return None
    b = ups[0]
    dist = {0: 0}
    step: dict[int, int] = {}
    heap = [(0, 0)]
    while heap:
        cost, res = heapq.heappop(heap)
        if cost > dist[res]:
            continue
        for coin in coins:
            nres, ncost = (res + coin) % b, cost + abs(coin)
            if coin != b and ncost < dist.get(nres, ncost + 1):
                dist[nres] = ncost
                step[nres] = coin
                heapq.heappush(heap, (ncost, nres))
    out: Counter[int] = Counter()
    res = goal % b
    while res:
        out[step[res]] += 1
        res = (res - step[res]) % b
    left = goal - sum(coin * k for coin, k in out.items())
    if left < 0:
        if coins[0] > 0:
            return None
        down = max(c for c in coins if c < 0)
        block = b // gcd(b, down)
        laps = -(-left // (block * down))
        out[down] += block * laps
        left -= block * down * laps
    out[b] += left // b
    return {sign * g * coin: k for coin, k in out.items() if k > 0}


def candidate_reach(a: OCA, src: Config, trg: Config) -> Path | None:
    """Exact reachability when the counter ranges over all integers.

    Tests and nonnegativity are ignored; only the additive structure
    matters.  Returns a path with effect trg.value - src.value, or None
    when no such path exists.  The path takes the first (support, base
    effect) skeleton whose remaining effect the free cycles can make,
    repeated as :func:`_semigroup_member` counts them.  Multiplying every
    update and both values by one factor leaves the path unchanged.
    """
    target = trg.value - src.value
    for entry in _candidate_tables(a, src.state, trg.state):
        _, base, path_ex, cycle_exs, by_effect = entry
        coeffs = _semigroup_member(by_effect, target - base)
        if coeffs is None:
            continue
        counts: Counter[int] = Counter(path_ex)
        for exemplar in cycle_exs:
            counts.update(exemplar)
        for eff, mult in coeffs.items():
            for i, m in Counter(by_effect[eff]).items():
                counts[i] += m * mult
        flow = Flow.make(counts, src.state, trg.state)
        path = path_from_flow(a, flow)
        if apply_path(a, src, path, mode="candidate") != trg:
            raise InternalError(f"candidate path does not reach {trg}")
        return path
    return None
