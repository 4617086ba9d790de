"""Independent brute-force baselines used to freeze expected values.

Everything here is deliberately naive: plain breadth-first searches and
exhaustive enumerations with explicit bounds.  Tests compare the real
implementations against these, never the other way around.
"""

from __future__ import annotations

from collections import deque

from ocareach.analysis import CanonicalCycle, pumpable_drops
from ocareach.automaton import (
    OCA,
    Config,
    Guard,
    InternalError,
    Path,
    ReplayError,
    Transition,
    path_effect_drop,
    restrict,
    scc_of,
    source_replay,
)
from ocareach.pessimistic import pessimistic_post_star


def naive_successors(a: OCA, c: Config) -> list[tuple[Config, int]]:
    out = []
    for i, t in enumerate(a.transitions):
        if t.src != c.state:
            continue
        nxt = Config(t.dst, c.value + t.update)
        if a.is_valid(nxt):
            out.append((nxt, i))
    return out


def reference_replay(a: OCA, start: Config, path: Path, mode: str = "valid") -> list[Config]:
    """The list-building replay loop that ``apply_path`` once was, kept
    verbatim: every configuration, the start first, with the same checks
    and :class:`ReplayError` reasons, indices and configurations."""
    if mode not in ("valid", "candidate"):
        raise ValueError(f"unknown replay mode {mode!r}")
    if start.state not in a.state_index:
        raise ValueError(f"unknown state {start.state!r}")
    check = mode == "valid"
    if check and not a.is_valid(start):
        raise ReplayError("invalid configuration", 0, start)
    configs = [start]
    for pos, i in enumerate(path):
        if not 0 <= i < len(a.transitions):
            raise ReplayError(f"no transition {i}", pos, configs[-1])
        t = a.transitions[i]
        if t.src != configs[-1].state:
            raise ReplayError("step source mismatch", pos, configs[-1])
        nxt = Config(t.dst, configs[-1].value + t.update)
        if check and not a.is_valid(nxt):
            raise ReplayError("invalid configuration", pos + 1, nxt)
        configs.append(nxt)
    return configs


def naive_post_star(a: OCA, start: Config, value_bound: int, node_bound: int = 500_000):
    """Valid-semantics closure with a hard value ceiling.

    Returns (set of configurations, ceiling_hit).  Only trustworthy as a
    full closure when ceiling_hit is False.
    """
    if not a.is_valid(start):
        return set(), False
    seen = {start}
    queue = deque([start])
    hit = False
    while queue:
        cur = queue.popleft()
        for nxt, _ in naive_successors(a, cur):
            if nxt.value > value_bound:
                hit = True
                continue
            if nxt not in seen:
                if len(seen) >= node_bound:
                    raise RuntimeError("naive_post_star node bound exhausted")
                seen.add(nxt)
                queue.append(nxt)
    return seen, hit


def sorted_bfs(a: OCA, start, value_cap: int, restrict=None, stop_at=None):
    """The closure a level-sorted breadth-first search finds.

    Each level is scanned in (state index, value) order, each
    configuration's transitions in index order, and the first step to
    reach a configuration is its parent.  ``restrict`` filters every
    configuration, starts included, before the value cap: a state's
    ``restrict(state)`` is None when it admits every value, else a
    predicate on values.  ``stop_at`` ends the search after the level
    that found it.  Returns (parents, cap_hit), parents mapping each
    configuration to ``(previous, index)``, None at a start.
    """
    key = lambda c: (a.states.index(c.state), c.value)
    parents: dict[Config, tuple[Config, int] | None] = {}
    hit = False
    level = []

    def refused(c: Config) -> bool:
        keep = None if restrict is None else restrict(c.state)
        return keep is not None and not keep(c.value)

    for c in sorted(set(start), key=key):
        if refused(c):
            continue
        if c.value > value_cap:
            hit = True
            continue
        parents[c] = None
        level.append(c)
    while level and (stop_at is None or stop_at not in parents):
        found = []
        for c in level:
            for d, i in naive_successors(a, c):
                if d in parents or refused(d):
                    continue
                if d.value > value_cap:
                    hit = True
                    continue
                parents[d] = (c, i)
                found.append(d)
        level = sorted(found, key=key)
    return parents, hit


def parent_run(parents, c: Config) -> Path:
    """Transition indices from a start to ``c`` through ``parents``."""
    steps: list[int] = []
    while parents[c] is not None:
        c, i = parents[c]
        steps.append(i)
    return tuple(reversed(steps))


def naive_reach(a: OCA, src: Config, trg: Config, value_bound: int):
    """True / False / None (None: inconclusive at this ceiling)."""
    if not a.is_valid(src) or not a.is_valid(trg):
        return False
    seen, hit = naive_post_star(a, src, value_bound)
    if trg in seen:
        return True
    return None if hit else False


def naive_z_reach(a: OCA, src: Config, trg: Config, lo: int, hi: int):
    """Candidate (integer) semantics reachability inside a value window.

    True means a candidate path exists; None means nothing was found but
    the window may have been too small.  Guards and nonnegativity are
    ignored on purpose.
    """
    if src.state not in a.state_index or trg.state not in a.state_index:
        return None
    if src == trg:
        return True
    seen = {src}
    queue = deque([src])
    clipped = False
    while queue:
        cur = queue.popleft()
        for t in a.transitions:
            if t.src != cur.state:
                continue
            nxt = Config(t.dst, cur.value + t.update)
            if nxt == trg:
                return True
            if not lo <= nxt.value <= hi:
                clipped = True
                continue
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return None if clipped else False


def naive_sums(effects, lo: int, hi: int) -> set[int]:
    """Sums of nonnegative counts of ``effects`` reachable from 0 by
    adding one effect at a time without leaving [lo, hi].

    Exact for sums s with lo + m <= min(0, s) and max(0, s) <= hi - m,
    where m is the largest magnitude: any combination can be ordered to
    add a positive effect while below s and a negative one otherwise,
    so its partial sums stay within m of the segment from 0 to s."""
    seen = {0}
    queue = deque([0])
    while queue:
        cur = queue.popleft()
        for e in effects:
            nxt = cur + e
            if lo <= nxt <= hi and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def naive_cycles_through(a: OCA, q: str, max_len: int) -> list[Path]:
    """Every transition sequence q -> q of length 1..max_len, as index tuples."""
    found: list[Path] = []

    def extend(state: str, prefix: list[int]) -> None:
        if prefix and state == q:
            found.append(tuple(prefix))
        if len(prefix) >= max_len:
            return
        for i, t in enumerate(a.transitions):
            if t.src != state:
                continue
            prefix.append(i)
            extend(t.dst, prefix)
            prefix.pop()

    extend(q, [])
    return found


def naive_effect_drop(a: OCA, path: Path) -> tuple[int, int]:
    effect = 0
    worst = 0
    for i in path:
        effect += a.transitions[i].update
        worst = min(worst, effect)
    return effect, -worst


def component_size(a: OCA, q: str) -> int:
    """How many states lie on some cycle through q (q counted), found by
    following transitions forwards and backwards."""
    ahead, behind = {q}, {q}
    for found, near, far in ((ahead, "src", "dst"), (behind, "dst", "src")):
        grown = True
        while grown:
            grown = False
            for t in a.transitions:
                if getattr(t, near) in found and getattr(t, far) not in found:
                    found.add(getattr(t, far))
                    grown = True
    return len(ahead & behind)


def naive_climbing_cycle(a: OCA, q: str):
    """Reference answer for the canonical cycle at q.

    Exhaustive: positive-effect cycles of length <= |C|, the size of q's
    component, minimal drop, lexicographically least index tuple.
    Returns None when q has no positive-effect cycle that short.
    """
    best = None
    for cycle in naive_cycles_through(a, q, component_size(a, q)):
        effect, drop = naive_effect_drop(a, cycle)
        if effect <= 0:
            continue
        key = (drop, cycle)
        if best is None or key < best:
            best = key
    if best is None:
        return None
    drop, cycle = best
    effect, _ = naive_effect_drop(a, cycle)
    return cycle, effect, drop


def _max_value_layers(a: OCA, source: str, value: int, layers: int):
    """Best value per state for walks of exact length 1..layers, lazily."""
    out = a.step_table[0]
    vals = {source: value}
    for _ in range(layers):
        nxt: dict[str, int] = {}
        for state, v in vals.items():
            for _, dst, update in out[state]:
                v2 = v + update
                if v2 >= 0 and v2 > nxt.get(dst, -1):
                    nxt[dst] = v2
        yield nxt
        vals = nxt
        if not vals:
            return


def _completable(a: OCA, q: str, d: int, state: str, value: int, budget: int) -> bool:
    """Does a nonnegative walk of at most ``budget`` steps reach q above d?"""
    if state == q and value > d:
        return True
    for layer in _max_value_layers(a, state, value, budget):
        if layer.get(q, -1) > d:
            return True
    return False


def _lex_least_cycle(a: OCA, q: str, d: int, n: int) -> Path:
    """Greedy: the smallest completable transition index at every step,
    for cycles of at most ``n`` steps."""
    prefix: list[int] = []
    state, value = q, d
    while True:
        if prefix and state == q and value > d:
            return tuple(prefix)
        budget = n - len(prefix) - 1
        for i, dst, update in a.step_table[0][state]:
            v2 = value + update
            if v2 < 0:
                continue
            if _completable(a, q, d, dst, v2, budget):
                prefix.append(i)
                state, value = dst, v2
                break
        else:
            raise AssertionError("feasible climbing cycle vanished during reconstruction")


def bisected_climbing_cycles(a: OCA) -> dict:
    """Canonical climbing cycles by the earlier search, kept as a reference
    past the exhaustive oracle's reach: for every state, a binary search
    over drops in ``[0, |C|*max_update]``, each probe a max-value walk of
    at most |C| steps, |C| the size of the state's component, over the
    whole automaton, then the greedy lexicographically least cycle."""
    result = {}
    for q in a.states:
        n = component_size(a, q)
        cap = n * a.max_update
        if not _completable(a, q, cap, q, cap, n):
            continue
        lo, hi = 0, cap
        while lo < hi:
            mid = (lo + hi) // 2
            if _completable(a, q, mid, q, mid, n):
                hi = mid
            else:
                lo = mid + 1
        path = _lex_least_cycle(a, q, lo, n)
        effect, drop = naive_effect_drop(a, path)
        if effect <= 0 or drop != lo:
            raise AssertionError(f"canonical cycle at {q} disagrees with its search")
        result[q] = CanonicalCycle(q, path, effect, lo)
    return result


def _lap_checks(a: OCA, q: str, cycle: Path):
    """Is z a valid value at q, and is one lap of ``cycle`` from q:z a
    run?  Both by direct replay."""
    updates = [a.transitions[i].update for i in cycle]
    dsts = [a.transitions[i].dst for i in cycle]

    def member_ok(z: int) -> bool:
        return a.is_valid(Config(q, z))

    def step_ok(z: int) -> bool:
        v = z
        for upd, dst in zip(updates, dsts):
            v += upd
            if not a.is_valid(Config(dst, v)):
                return False
        return True

    return member_ok, step_ok


def walked_chain(a: OCA, q: str, cycle: Path, drop: int, z: int):
    """The chain through q:z, ``z >= drop``, walked one lap at a time, as
    ``(first, last, invalid_anchor)`` with ``last`` None for a chain that
    climbs forever.

    Down from z while the value one period lower is at least the drop,
    valid, and a lap from it runs; up while a lap runs and lands on a
    valid value.  Past ``drop + max_test`` every value of a lap exceeds
    every test, so a lap that runs from there proves no equality test
    on the lap or at q, and every later lap runs too.
    """
    effect, _ = naive_effect_drop(a, cycle)
    member_ok, step_ok = _lap_checks(a, q, cycle)
    if not member_ok(z):
        return z, z, True
    first = z
    while first - effect >= drop and member_ok(first - effect) and step_ok(first - effect):
        first -= effect
    last = z
    while step_ok(last) and member_ok(last + effect):
        if last > drop + a.max_test:
            return first, None, False
        last += effect
    return first, last, False


def naive_chain_partition(a: OCA, q: str, cycle: Path, drop: int, window: int):
    """Chain structure at q inside [drop, window], by direct simulation.

    Returns a list of (members, invalid_anchor, closed) triples where
    ``closed`` says the chain provably ends at its last listed member
    (the next orbit step is blocked or lands on an invalid anchor).
    Chains still open at the window edge are reported with closed=False.
    """
    effect, _ = naive_effect_drop(a, cycle)
    member_ok, step_ok = _lap_checks(a, q, cycle)
    chains = []
    for r in range(effect):
        z = drop + r
        current: list[int] = []
        while z <= window:
            if not member_ok(z):
                if current:
                    chains.append((current, False, True))
                chains.append(([z], True, True))
                current = []
            else:
                current.append(z)
                if not step_ok(z):
                    chains.append((current, False, True))
                    current = []
            z += effect
        if current:
            chains.append((current, False, False))
    return chains


def probe_automaton(a: OCA, p) -> tuple[OCA, str]:
    """Strongly connected slice around progression ``p``'s state, plus a
    probe state that can enter the slice at exactly the member values.

    Every member of ``p`` is locally bounded exactly when the probe
    state, started at the least member, is bounded in the result.
    """
    sub, _ = restrict(a, scc_of(a)[p.state])
    probe = p.state + "'"
    while probe in sub.states:
        probe += "'"
    top = p.max_value()
    if top is None:
        raise ValueError(f"progression {p} has no members")
    return (
        OCA(
            sub.states + (probe,),
            sub.transitions
            + (Transition(probe, 0, p.state), Transition(probe, p.period, probe)),
            {**sub.guards, probe: Guard("ne", top + p.period)},
        ),
        probe,
    )


def naive_first_step(a: OCA, configs, hit) -> tuple[Config, int, Config] | None:
    """First valid step ``(c, i, d)`` with ``hit(d)``, scanning ``configs``
    sorted by (state index, value) and each one's transitions by index."""
    for c in sorted(configs, key=lambda c: (a.states.index(c.state), c.value)):
        for d, i in naive_successors(a, c):
            if hit(d):
                return c, i, d
    return None


# Helpers only tests call.  Unlike the baselines above they build on the
# package's own analyses and replay.


def rotate_to_zero_drop(a: OCA, cycle: Path) -> Path:
    """Rotate a positive-effect cycle so its drop becomes zero.

    Rotating to start at the first lowest prefix point lifts every other
    prefix above the start.  Rejects paths that are not cycles or whose
    effect is not positive.
    """
    if not cycle:
        raise ValueError("empty path is not a rotatable cycle")
    configs = source_replay(a, cycle)
    if configs[0].state != configs[-1].state:
        raise ValueError(f"path is not a cycle ({configs[0].state} to {configs[-1].state})")
    values = [c.value for c in configs]
    if values[-1] <= 0:
        raise ValueError(f"cycle effect {values[-1]} is not positive")
    cut = values.index(min(values))
    rotated = cycle[cut:] + cycle[:cut]
    _, drop = path_effect_drop(a, rotated)
    if drop != 0:
        raise InternalError("rotation at the minimum prefix must clear the drop")
    return rotated


# The witness checker's scans as they were written over per-state value
# tables (dicts and sets), kept verbatim but for what the table shape
# forces: each closure is read into per-state value sets first, the
# list-based batch stepping they called lives here too, and the scan
# also returns its leaks.  The bitset scans must agree with them.


def reference_batch_steps(a: OCA, state: str, values):
    """Every valid step out of ``state`` at each of ``values`` (distinct
    valid values, a list or any collection), one batch per transition:
    ``(i, dst, update, targets)`` with transitions ``i`` in index order
    and ``targets`` the values reached at ``dst`` that pass its test,
    in the order of ``values``."""
    out, blocked, pinned = a.step_table
    for i, dst, update in out[state]:
        pin = pinned.get(dst)
        if pin is not None:
            targets = [pin] if pin - update in values else []
        else:
            if update >= 0:
                targets = [v + update for v in values]
            else:
                targets = [w for v in values if (w := v + update) >= 0]
            avoid = blocked[dst]
            if avoid >= 0 and avoid in targets:
                targets.remove(avoid)
        yield i, dst, update, targets


def _value_tables(configs) -> dict[str, set[int]]:
    tables: dict[str, set[int]] = {}
    for state, value in configs:
        tables.setdefault(state, set()).add(value)
    return tables


def reference_closures(a: OCA, roots: list[Config]):
    """``invariants._closures`` over value tables: the closure through
    locally bounded configurations, the escape candidates, the leaks and
    the induced set, which holds what the unrestricted closure adds."""
    bounded = pessimistic_post_star(a, roots, locally_bounded=True)
    drops = pumpable_drops(a)
    inside: dict[str, set[int]] = {}
    for state, value in roots:
        inside.setdefault(state, set()).add(value)
    escapes = []
    leaks = [c for c in roots if c not in bounded]
    tables = _value_tables(bounded)
    induced = {state: set(table) for state, table in tables.items()}
    for state, table in tables.items():
        for i, dst, update, targets in reference_batch_steps(a, state, table):
            if not targets:
                continue
            drop, seen = drops.get(dst), tables.get(dst, {})
            if drop is None:
                leaks += [Config(dst, w) for w in targets if w not in seen]
            else:
                free = inside.get(dst, ())
                for w in targets:
                    if w >= drop and w not in free:
                        escapes.append((Config(state, w - update), i, Config(dst, w)))
                    elif w not in seen:
                        leaks.append(Config(dst, w))
            _add(induced, dst, targets)
    more = set()
    if leaks:
        more = set(pessimistic_post_star(a, roots)) - set(bounded)
        for state, table in _value_tables(more).items():
            _add(induced, state, table)
            for _, dst, _, targets in reference_batch_steps(a, state, table):
                _add(induced, dst, targets)
    return bounded, escapes, leaks, induced


def _add(values: dict[str, set[int]], state: str, new) -> None:
    if state in values:
        values[state].update(new)
    elif new:
        values[state] = set(new)


def reference_crossing(a: OCA, fwd_side: dict[str, set[int]], bwd_side: dict[str, set[int]]):
    """``check_separator``'s Sep1 search over value tables: the least
    step from one side into the other, or None."""
    order = a.state_index
    crossing = None
    for state, values in fwd_side.items():
        for i, dst, update, targets in reference_batch_steps(a, state, values):
            other = bwd_side.get(dst)
            if other is None:
                continue
            for w in targets:
                if w in other:
                    step = (order[state], w - update, i, dst, w)
                    if crossing is None or step < crossing:
                        crossing = step
    if crossing is not None:
        rank, v, i, dst, w = crossing
        return (Config(a.states[rank], v), i, Config(dst, w))
    return None
