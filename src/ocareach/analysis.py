"""Cycle structure: pumpable states, canonical climbing cycles, chains.

A state is pumpable when it sits on a positive-effect cycle of at most
|C| steps, |C| the size of its strongly connected component (counter
tests ignored, nonnegativity kept): every simple cycle fits in its
component.  Each pumpable state gets one canonical such cycle: minimal
drop, ties broken by the lexicographically least transition-index tuple.
The pumpable region collects configurations at pumpable states whose
value covers the canonical cycle's drop.

The component's sub-automaton (:func:`~ocareach.automaton.component`)
owns its states' cycles, for every automaton with that component.  A
state alone in its component is read off its self-loops
(:func:`lone_loops`): its canonical cycle, if any, is its first
positive loop, with drop 0, and nothing is built or searched.  In a
larger component the least drop is asked at 0 first, where most states
climb; only then is the cap checked, and the drop found by galloping
(1, 3, 7, ...) and bisecting, each step one max-value search of at most
|C| layers.

Iterating the canonical cycle from a value either climbs forever or gets
stuck on a test somewhere along the lap; the orbit segments are chains.
A value forbidden by the state's own test is quarantined as a singleton
chain flagged ``invalid_anchor``.  Chains are arithmetic progressions
cut at a few blocked values: those where a lap hits a test, and the
state's own test value.  These are gathered once per state, sorted per
residue class, so a chain's ends are one bisect each, whatever the
values (:func:`chain_of`).  Only a state with an equality test on its
lap or at itself is walked lap by lap; its chains are short.

Chains also drive closures: a closure given no target takes the free
laps from a value at once, to its chain's last member, or, read on the
reversed automaton, down to its first, counted in closed form off the
same tables (:func:`lap_context`) with no :class:`Chain` built.  They
also stop searches: a boundedness probe and a lifted climb both end at
the first value on an unbounded chain, read off the same tables
(:func:`climbs_forever`).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace

from ocareach.automaton import (
    OCA,
    Config,
    InternalError,
    Path,
    component,
    path_configs,
    path_effect_drop,
    per_automaton,
    restrict,
    scc_decompose,
    scc_of,
)


@dataclass(frozen=True)
class CanonicalCycle:
    state: str
    path: Path
    effect: int
    drop: int


@dataclass(frozen=True)
class Chain:
    """One orbit segment of the canonical cycle at ``state``.

    Members are ``first, first + period, ...`` up to ``last`` inclusive;
    ``last is None`` means the chain climbs forever.
    """

    state: str
    period: int
    first: int
    last: int | None
    invalid_anchor: bool = False

    def member_count(self) -> int | None:
        if self.last is None:
            return None
        return (self.last - self.first) // self.period + 1


def _completable(a: OCA, q: str, d: int, state: str, value: int, budget: int) -> bool:
    """Does a nonnegative walk of at most ``budget`` steps reach q above d?
    Each step keeps the best value per state over walks of exactly that
    many steps."""
    out = a.step_table[0]
    vals = {state: value}
    for _ in range(budget):
        if vals.get(q, -1) > d:
            return True
        nxt: dict[str, int] = {}
        for s, v in vals.items():
            for _, dst, update in out[s]:
                v2 = v + update
                if v2 > nxt.get(dst, -1):
                    nxt[dst] = v2
        if not nxt:
            return False
        vals = nxt
    return vals.get(q, -1) > d


def _least_drop(a: OCA, q: str) -> int | None:
    """Least drop of a climbing cycle at q (None without one): drop 0
    first, then the cap |C|*max_update, which bounds the drop of every
    cycle of at most |C| steps, then gallop (1, 3, 7, ...) and bisect.
    A cycle from drop d also climbs from every higher drop."""
    n = len(a.states)
    if _completable(a, q, 0, q, 0, n):
        return 0
    lo, hi, d = 0, n * a.max_update, 1
    if not _completable(a, q, hi, q, hi, n):
        return None
    while d < hi and not _completable(a, q, d, q, d, n):
        lo, d = d, 2 * d + 1
    hi = min(d, hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _completable(a, q, mid, q, mid, n):
            hi = mid
        else:
            lo = mid
    return hi


def _lex_least_cycle(a: OCA, q: str, d: int) -> Path:
    """The canonical cycle at q for minimal drop d.

    Greedy: always take the smallest completable transition index, and
    stop the moment the walk is back at q with a gain (a proper prefix
    beats every extension in tuple order).
    """
    prefix: list[int] = []
    state, value = q, d
    while True:
        if prefix and state == q and value > d:
            return tuple(prefix)
        budget = len(a.states) - len(prefix) - 1
        for i, dst, update in a.step_table[0][state]:
            v2 = value + update
            if v2 >= 0 and _completable(a, q, d, dst, v2, budget):
                prefix.append(i)
                state, value = dst, v2
                break
        else:
            raise InternalError("feasible climbing cycle vanished during reconstruction")


def lone_loops(a: OCA, q: str) -> tuple[tuple[int, int], ...] | None:
    """q's self-loops, ``(index, update)`` in index order, when q is alone
    in its strongly connected component; None in a larger one.  Every
    cycle through a lone q of at most one step is one of these loops,
    so its climbing cycle and its local boundedness are read off them,
    with no component built and no search run."""
    if len(scc_of(a)[q]) > 1:
        return None
    return tuple((i, u) for i, dst, u in a.step_table[0][q] if dst == q)


@per_automaton
def climbing_cycles(a: OCA) -> dict[str, CanonicalCycle]:
    """Canonical climbing cycle per pumpable state, in state order: the
    cycle in the table of q's :func:`~ocareach.automaton.component`, its
    indices mapped back.  A lone state's cycle is its lowest-index
    positive self-loop, of drop 0.  Only an automaton that is one larger
    component searches, by :func:`_least_drop`, over walks of at most
    |C| steps, |C| its state count: every simple cycle fits in its
    component."""
    result: dict[str, CanonicalCycle] = {}
    for q in a.states:
        loops = lone_loops(a, q)
        if loops is not None:
            up = next(((i, u) for i, u in loops if u > 0), None)
            if up is not None:
                result[q] = CanonicalCycle(q, up[:1], up[1], 0)
            continue
        sub, back = component(a, q)
        if sub is not a:
            cyc = climbing_cycles(sub).get(q)
            if cyc is not None:
                result[q] = replace(cyc, path=tuple(back[i] for i in cyc.path))
            continue
        drop = _least_drop(a, q)
        if drop is None:
            continue
        path = _lex_least_cycle(a, q, drop)
        effect, path_drop = path_effect_drop(a, path)
        if effect <= 0 or path_drop != drop:
            raise InternalError(f"canonical cycle at {q} disagrees with its search")
        result[q] = CanonicalCycle(q, path, effect, drop)
    return result


@per_automaton
def pumpable_drops(a: OCA) -> dict[str, int]:
    """The pumpable region, per state: each pumpable state's canonical
    cycle's drop, the least value of the state in the region.  Closures
    and scans read it once per state, not once per configuration."""
    return {q: cyc.drop for q, cyc in climbing_cycles(a).items()}


def in_pumpable_region(a: OCA, c: Config) -> bool:
    """Is ``c`` valid and at or above its state's :func:`pumpable_drops`?"""
    drop = pumpable_drops(a).get(c.state)
    return drop is not None and c.value >= drop and a.is_valid(c)


class _ChainContext:
    """Orbit data at one pumpable state, gathered once.

    ``blocked`` holds, per residue class mod the period and sorted, the
    values at or above the drop where the orbit is cut: where a lap hits
    a test (the test values pulled back along the lap), and the state's
    own test value.  On a state that is not degenerate nothing else cuts
    it, so a chain's ends are the blocked values around it."""

    def __init__(self, a: OCA, cyc: CanonicalCycle):
        self.guards = a.guards  # not ``a``: the context sits in a's memo
        self.q = cyc.state
        self.period = cyc.effect
        self.drop = cyc.drop
        # Each step of one lap from q:0: its state and the prefix effect.
        self.lap = path_configs(a, Config(cyc.state, 0), cyc.path, mode="candidate")[1:]
        exceptions: set[int] = set()
        eq_on_lap = False
        for st, eff in self.lap:
            g = a.guards[st]
            if g.kind != "true":
                eq_on_lap = eq_on_lap or g.kind == "eq"
                exceptions.add(g.value - eff)
        own = a.guards[self.q]
        if own.kind != "true":
            exceptions.add(own.value)
        self.blocked: dict[int, list[int]] = {}
        for z in sorted(exceptions):
            if z >= self.drop:
                self.blocked.setdefault(z % self.period, []).append(z)
        # An equality on the lap or at the state cuts the orbit at every
        # value but a few: its chains are walked, not read off.
        self.degenerate = eq_on_lap or own.kind == "eq"

    def laps_from(self, z: int) -> int | None:
        """How many valid laps climb one after the other from ``z``, a
        valid value, on a state that is not degenerate: up to the least
        blocked value at or above ``z``, the chain's last member; None
        when they climb forever, 0 below the drop."""
        if z < self.drop:
            return 0
        blocked = self.blocked.get(z % self.period, ())
        i = bisect_left(blocked, z)
        return (blocked[i] - z) // self.period if i < len(blocked) else None

    def laps_into(self, z: int) -> int:
        """How many valid laps climb one after the other into ``z``, a
        valid value, on a state that is not degenerate: from one period
        past the greatest blocked value below ``z``, or from the least
        value of its residue class at or above the drop, the chain's
        first member."""
        if z < self.drop:
            return 0
        g = self.period
        blocked = self.blocked.get(z % g, ())
        i = bisect_left(blocked, z)
        first = blocked[i - 1] + g if i else self.drop + (z - self.drop) % g
        return (z - first) // g

    def member_ok(self, z: int) -> bool:
        return z >= 0 and self.guards[self.q].allows(z)

    def step_ok(self, z: int) -> bool:
        for st, eff in self.lap:
            if not self.guards[st].allows(z + eff):
                return False
        return True


@per_automaton
def _chain_context(a: OCA, q: str) -> _ChainContext | None:
    cyc = climbing_cycles(a).get(q)
    return _ChainContext(a, cyc) if cyc else None


def lap_context(a: OCA, q: str) -> _ChainContext | None:
    """q's chain context when its chains are read in closed form: q is
    pumpable and not degenerate.  Closures given no target read the
    laps free from a value off it (:meth:`_ChainContext.laps_from`,
    :meth:`_ChainContext.laps_into`) with no :class:`Chain` built."""
    ctx = _chain_context(a, q)
    return None if ctx is None or ctx.degenerate else ctx


def chain_enumeration_complete(a: OCA, q: str) -> bool:
    """False when every high value is stuck on an equality test, making
    the chain partition an infinite family of singletons."""
    ctx = _chain_context(a, q)
    return ctx is None or not ctx.degenerate


def chains_at(a: OCA, q: str) -> tuple[Chain, ...]:
    """Chains at q, sorted by first value.

    Each residue class is walked with :func:`chain_of`, from the drop
    onwards, each chain starting one period past the last one's end.
    For states whose lap or own test is an equality, a residue's walk
    stops one period past its last blocked value (everything beyond
    repeats the same stuck singleton pattern forever); see
    :func:`chain_enumeration_complete`.
    """
    ctx = _chain_context(a, q)
    if ctx is None:
        return ()
    chains: list[Chain] = []
    g = ctx.period
    for r in range(g):
        z = ctx.drop + r
        blocked = ctx.blocked.get(z % g)
        stop = (blocked[-1] if blocked else z - g) + g
        while not (ctx.degenerate and z > stop):
            chain = chain_of(a, Config(q, z))
            chains.append(chain)
            if chain.last is None:
                break
            z = chain.last + g
    chains.sort(key=lambda c: c.first)
    return tuple(chains)


def chain_of(a: OCA, c: Config) -> Chain | None:
    """The chain containing ``c`` (None outside the pumpable region).

    In closed form, at any value: on a state that is not degenerate, a
    lap from z fails only at a blocked value, and z + period is a
    forbidden member only when z is blocked, so the chain ends at the
    least blocked value at or above ``c``'s (it climbs forever without
    one), and starts one period past the greatest blocked value below
    it, or at its residue class's least value at or above the drop.
    Each end is one bisect of the class's blocked values, whatever the
    values are.  A degenerate state's chain is walked lap by lap.
    """
    ctx = _chain_context(a, c.state)
    if ctx is None or c.value < ctx.drop:
        return None
    g = ctx.period
    z = c.value
    if not ctx.member_ok(z):
        return Chain(c.state, g, z, z, invalid_anchor=True)
    if not ctx.degenerate:
        up = ctx.laps_from(z)
        return Chain(c.state, g, z - ctx.laps_into(z) * g, None if up is None else z + up * g)
    first = z
    while first - g >= ctx.drop and ctx.member_ok(first - g) and ctx.step_ok(first - g):
        first -= g
    last = z
    while ctx.step_ok(last) and ctx.member_ok(last + g):
        last += g
    return Chain(c.state, g, first, last)


def spans_one_chain(a: OCA, q: str, period: int, low: int, high: int) -> bool:
    """Do ``low, low + period, ..., high``, ``low < high``, lie on one
    chain at q?  Then each is valid and reached from ``low`` by valid
    laps.  Read as :func:`chain_of` reads a chain's last member:
    ``period`` is the canonical cycle's effect on a state that is not
    degenerate, and the laps free from ``low``
    (:meth:`_ChainContext.laps_from`) reach ``high``.  A forbidden
    ``low`` or ``high`` is caught too: the state's own test value is
    blocked, and the lap's last step pulls it back one period.
    """
    ctx = lap_context(a, q)
    if ctx is None or period != ctx.period:
        return False
    up = ctx.laps_from(low)
    return up is None or low + up * period >= high


@per_automaton
def climbs_forever(a: OCA, q: str):
    """None when no chain at q climbs forever, else a predicate on q's
    valid values: is the value on an unbounded chain of ``a``'s
    equality-free part, the restriction to the states without an
    ``==`` test, which is never degenerate.  A value climbs forever when
    it is at or above the drop and above every blocked value of its
    residue class.  Every lap from it is valid in ``a`` too, so it
    reaches infinitely many configurations.  Without ``==`` tests the
    part is ``a`` itself, and at a valid value the predicate is
    ``chain_of(a, Config(q, v)).last is None``."""
    sub = a
    if a.has_equality_tests():
        sub, _ = restrict(a, frozenset(s for s in a.states if a.guards[s].kind != "eq"))
    ctx = _chain_context(sub, q)
    if ctx is None:
        return None
    drop, g, blocked = ctx.drop, ctx.period, ctx.blocked
    return lambda v: v >= drop and v > blocked.get(v % g, (-1,))[-1]


def structure_report(a: OCA) -> str:
    """Deterministic plain-text analysis report."""
    lines = [
        f"states: {len(a.states)}   transitions: {len(a.transitions)}",
        f"max update: {a.max_update}   max test: {a.max_test}",
        "sccs (topological):",
    ]
    for comp in scc_decompose(a):
        members = " ".join(sorted(comp, key=a.state_index.get))
        lines.append(f"  {{{members}}}")
    cycles = climbing_cycles(a)
    lines.append("pumpable states:")
    if not cycles:
        lines.append("  (none)")
    for q, cyc in cycles.items():
        idx = " ".join(str(i) for i in cyc.path)
        lines.append(f"  {q}: cycle [{idx}]  effect +{cyc.effect}  drop {cyc.drop}")
    lines.append("chains:")
    for q, cyc in cycles.items():
        lines.append(f"  {q}  period {cyc.effect}:")
        for chain in chains_at(a, q):
            if chain.invalid_anchor:
                lines.append(f"    [{chain.first}]  forbidden anchor")
            elif chain.last is None:
                lines.append(f"    [{chain.first} ...]  unbounded")
            elif chain.first == chain.last:
                lines.append(f"    [{chain.first}]  bounded")
            else:
                lines.append(
                    f"    [{chain.first} .. {chain.last}]  bounded"
                    f" ({chain.member_count()} members)"
                )
        if not chain_enumeration_complete(a, q):
            lines.append("    ... every later value stuck on an equality test")
    return "\n".join(lines) + "\n"
