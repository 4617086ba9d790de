import gc
import inspect
import random
import sys
import tracemalloc
import weakref
from collections import Counter
from itertools import combinations

import pytest

from ocareach import analysis, automaton, cli, exploration, invariants
from ocareach.automaton import (
    OCA,
    Config,
    Guard,
    Transition,
    apply_path,
    component,
    format_oca,
    parse_oca,
    reverse,
    restrict,
    scc_of,
)
from ocareach.analysis import climbing_cycles
from ocareach.exploration import (
    ResourceExceeded,
    candidate_reach,
    is_bounded,
    is_locally_bounded,
    locally_bounded,
    post_star,
    reach_oracle,
    _candidate_tables,
    _semigroup_member,
    _simple_cycles,
    _simple_paths,
    _value_cap,
)
from ocareach.generators import FuzzSpec, gen_subset_sum, instances
from ocareach.values import iterate
from ocareach.solver import decide_full, normalize_endpoints

from _oracles import (
    naive_post_star,
    naive_reach,
    naive_successors,
    naive_sums,
    naive_z_reach,
    parent_run,
    sorted_bfs,
)
from conftest import FIG_LOOP, random_oca, scaled

BIG = {"node_cap": 200_000, "value_cap": 10_000}


# --------------------------------------------------------------- post_star


def test_post_star_loop3_golden(loop3):
    res = post_star(loop3, [Config("q", 0)], **BIG)
    assert res.configs == {Config("q", 0), Config("r", 2), Config("s", 3)}
    assert not res.cap_hit and res.run is None
    assert post_star(loop3, [Config("q", 0)], **BIG, stop_at=Config("s", 3)).run == (0, 1)
    assert post_star(loop3, [Config("q", 0)], **BIG, stop_at=Config("q", 0)).run == ()


def test_post_star_empty_start(loop3):
    res = post_star(loop3, [], **BIG)
    assert res.configs == set()
    assert not res.cap_hit


def test_post_star_cap_hit_on_pump():
    a = parse_oca("states: q\ntrans q +1 q\n")
    res = post_star(a, [Config("q", 0)], 1000, 10)
    assert res.configs == {Config("q", v) for v in range(11)}
    assert res.cap_hit


def test_post_star_rejects_invalid_start(loop3):
    with pytest.raises(ValueError):
        post_star(loop3, [Config("q", 5)], **BIG)
    with pytest.raises(ValueError):
        post_star(loop3, [Config("q", -1)], **BIG)


def test_post_star_restrict_filters_roots_too():
    a = parse_oca("states: q\ntrans q +1 q\n")
    allowed = lambda state: lambda v: v in (1, 2, 3)
    res = post_star(a, [Config("q", 0)], **BIG, restrict=allowed)
    assert res.configs == set()
    res = post_star(a, [Config("q", 1)], **BIG, restrict=allowed)
    assert res.configs == {Config("q", 1), Config("q", 2), Config("q", 3)}
    assert not res.cap_hit  # the predicate, not the cap, stopped growth


def test_post_star_node_cap_raises():
    a = parse_oca("states: q\ntrans q +1 q\n")
    with pytest.raises(ResourceExceeded):
        post_star(a, [Config("q", 0)], 50)


def test_post_star_runs_replay_everywhere(loop3):
    rng = random.Random(5)
    for _ in range(60):
        a = random_oca(rng, num_states=rng.randint(1, 4))
        start = Config(a.states[0], rng.randint(0, 3))
        if not a.is_valid(start):
            continue
        res = post_star(a, [start], 10_000, 40)
        for c in res.configs:
            assert apply_path(a, start, post_star(a, [start], 10_000, 40, stop_at=c).run) == c


def test_post_star_stop_at_short_circuits():
    a = parse_oca("states: q\ntrans q +1 q\n")
    res = post_star(a, [Config("q", 0)], **BIG, stop_at=Config("q", 5))
    assert Config("q", 5) in res.configs
    assert res.run == (0,) * 5
    assert Config("q", 7) not in res.configs
    res = post_star(a, [Config("q", 0)], 200_000, 4, stop_at=Config("q", 5))
    assert res.run is None and res.cap_hit


def test_a_thin_search_without_a_target_keeps_no_levels():
    """Twenty thousand levels of one value each: a search given no
    target keeps the values it found, a few kilobytes of bits, and no
    record per level."""
    a = parse_oca("states: q r\nguard r != 7\ntrans q +1 q\ntrans q +0 r\n")
    tracemalloc.start()
    try:
        res = post_star(a, [Config("q", 0)], 100_000, 20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(res.configs) == 40_001 and res.cap_hit
    assert peak < 500_000, peak


def _levels_taken(call) -> int:
    """How many frontier levels the closures that ``call`` runs take, all
    together: the times a search starts its next level."""
    code = exploration._search.__code__
    lines, first = inspect.getsourcelines(exploration._search)
    line = first + next(i for i, text in enumerate(lines) if "nxt: Front = {}" in text)
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line" and frame.f_lineno == line
        return local

    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        call()
    finally:
        sys.settrace(None)
    return count


def test_core_closures_take_as_many_levels_whatever_the_chain_length():
    """The perfect-core closure from q:0 in the README loop with tests
    scaled by k, and the boundedness probe its restriction runs, take
    the orbit's laps at once: as many levels at k = 20,000 as at
    k = 200, where a level per configuration would take 60,000."""
    taken = {}
    for k in (200, 20_000):
        a = parse_oca(
            f"states: q r s\nguard q != {5 * k}\nguard r != {30 * k}\n"
            f"guard s != {15 * k}\ntrans q +2 r\ntrans r +1 s\ntrans s +2 q\n"
        )
        core = []
        taken[k] = _levels_taken(lambda: core.append(invariants._core(a, Config("q", 0))))
        ends = [(p.state, p.low, p.high) for p in core[0].progressions]
        assert ends == [("q", 0, 5 * k - 5), ("r", 2, 5 * k - 3), ("s", 3, 5 * k - 2)]
    assert taken[20_000] <= taken[200] + 3 and taken[200] < 3 * 200, taken


def _value_filter(top, shift):
    return lambda v: v <= top and (v + shift) % 7 != 3


def test_post_star_matches_a_sorted_bfs():
    """Configurations, cap_hit and the run to every configuration agree
    with a search that sorts each level and keeps the first parent found,
    across equality tests, restrictions (some mixing states answered
    wholesale with value predicates), binding value caps and stop_at."""
    rng = random.Random(2024)
    seen = dict.fromkeys(("automata", "eq", "restrict", "mixed", "cap_hit", "stopped"), 0)
    while seen["automata"] < 320:
        a = random_oca(
            rng,
            num_states=rng.randint(1, 5),
            max_update=3,
            max_guard=10,
            equality_fraction=0.3,
        )
        pool = [Config(q, v) for q in a.states for v in range(8) if a.is_valid(Config(q, v))]
        if not pool:
            continue
        start = rng.sample(pool, rng.randint(1, min(3, len(pool))))
        value_cap = rng.randint(0, 40)
        restrict = None
        if rng.random() < 0.4:
            # A ceiling below the value cap keeps the cap from being hit;
            # states answered wholesale (None) admit every value.
            salt, top = rng.randint(1, 6), value_cap + rng.randint(-8, 4)
            keeps = {q: _value_filter(top, salt * i) for i, q in enumerate(a.states)}
            for q in rng.sample(a.states, rng.randint(0, len(a.states))):
                keeps[q] = None
            restrict = keeps.__getitem__
            mixed = None in keeps.values() and any(keeps.values())
        stop_at = None
        if rng.random() < 0.4:
            # Mostly a configuration the search finds, sometimes any valid one.
            full, _ = sorted_bfs(a, start, value_cap, restrict)
            stop_at = rng.choice(sorted(full) if full and rng.random() < 0.8 else pool)
        parents, hit = sorted_bfs(a, start, value_cap, restrict, stop_at)
        res = post_star(a, start, 10_000, value_cap, restrict=restrict, stop_at=stop_at)
        assert set(res.configs) == set(parents), format_oca(a)
        assert res.cap_hit == hit, format_oca(a)
        assert res.run == (parent_run(parents, stop_at) if stop_at in parents else None), format_oca(a)
        for c in parents:
            run = post_star(a, start, 10_000, value_cap, restrict=restrict, stop_at=c).run
            assert run == parent_run(parents, c), (format_oca(a), c)
        seen["automata"] += 1
        seen["eq"] += a.has_equality_tests()
        seen["restrict"] += restrict is not None
        seen["mixed"] += restrict is not None and mixed
        seen["cap_hit"] += hit
        seen["stopped"] += stop_at in parents
    assert min(seen.values()) >= 40, seen


def _wide_oca(rng, num_states):
    """States with tests into the thousands, ``==`` pins mostly above 64,
    and transitions mixing small updates with updates up to +-1,000."""
    states = tuple(f"q{i}" for i in range(num_states))
    guards = {}
    for q in states:
        roll = rng.random()
        if roll < 0.25:
            guards[q] = Guard("eq", rng.randint(65, 3000) if rng.random() < 0.9 else rng.randint(0, 64))
        elif roll < 0.6:
            guards[q] = Guard("ne", rng.randint(0, 3000))
    transitions = []
    for _ in range(rng.randint(num_states, 2 * num_states + 1)):
        update = rng.randint(-3, 3) if rng.random() < 0.5 else rng.randint(-1000, 1000)
        transitions.append(Transition(rng.choice(states), update, rng.choice(states)))
    return OCA(states, tuple(transitions), guards)


def test_post_star_matches_a_sorted_bfs_on_multiword_sets(monkeypatch):
    """As the test above, with values, tests and ``==`` pins into the
    thousands and updates up to +-1,000, so that value sets span many
    machine words and frontiers are both short lists and bitsets;
    restrictions, binding and non-binding value caps and stop_at.  Runs
    are compared on a sample of each closure, each through a search
    given it as target."""
    segments = []  # of the search under test; only the segment branch calls ``mark``
    mark = exploration.mark

    def counted(pages, at, bits):
        segments.append(at)
        mark(pages, at, bits)

    monkeypatch.setattr(exploration, "mark", counted)
    rng = random.Random(1818)
    keys = ("automata", "wide", "eq_pin", "restrict", "cap_hit", "cap_free", "stopped")
    seen = dict.fromkeys(keys, 0)
    while seen["automata"] < 150:
        a = _wide_oca(rng, rng.randint(1, 3))
        pool = [
            c
            for q in a.states
            for c in (Config(q, rng.randint(0, 3000)), Config(q, rng.randint(0, 8)), Config(q, a.guards[q].value or 0))
            if a.is_valid(c)
        ]
        if not pool:
            continue
        start = rng.sample(pool, rng.randint(1, min(3, len(pool))))
        value_cap = rng.randint(max(c.value for c in start), 4000)
        restrict = None
        if rng.random() < 0.4:
            salt, top = rng.randint(1, 6), value_cap - rng.randint(-50, 1500)
            keeps = {q: _value_filter(top, salt * i) for i, q in enumerate(a.states)}
            for q in rng.sample(a.states, rng.randint(0, len(a.states))):
                keeps[q] = None
            restrict = keeps.__getitem__
        stop_at = None
        if rng.random() < 0.4:
            full, _ = sorted_bfs(a, start, value_cap, restrict)
            stop_at = rng.choice(sorted(full) if full and rng.random() < 0.8 else pool)
        parents, hit = sorted_bfs(a, start, value_cap, restrict, stop_at)
        segments.clear()
        res = post_star(a, start, 50_000, value_cap, restrict=restrict, stop_at=stop_at)
        wide = bool(segments)
        assert set(res.configs) == set(parents), format_oca(a)
        assert len(res.configs) == len(parents), format_oca(a)
        assert res.cap_hit == hit, format_oca(a)
        assert res.run == (parent_run(parents, stop_at) if stop_at in parents else None), format_oca(a)
        for c in rng.sample(sorted(parents), min(len(parents), 40)):
            run = post_star(a, start, 50_000, value_cap, restrict=restrict, stop_at=c).run
            assert run == parent_run(parents, c), (format_oca(a), c)
        seen["automata"] += 1
        seen["wide"] += wide and max(max(iterate(found)) for found in res.sets.values()) > 640
        seen["eq_pin"] += any(g.kind == "eq" and g.value > 64 and q in res.sets for q, g in a.guards.items())
        seen["restrict"] += restrict is not None
        seen["cap_hit"] += hit
        seen["cap_free"] += not hit and len(parents) > 100
        seen["stopped"] += stop_at in parents
    assert min(seen.values()) >= 15, seen


def test_post_star_cap_is_not_hit_by_what_the_restriction_refuses():
    """A frontier of many values, stepped as one bitset, whose successors
    all lie above the cap and are all refused: the restriction, not the
    cap, stopped them, as it did for the single value in the second
    search."""
    a = parse_oca("states: q r\ntrans q +100 r\n")
    refuse = {"q": None, "r": lambda v: False}.__getitem__
    for start in ([Config("q", v) for v in range(20)], [Config("q", 0)]):
        res = post_star(a, start, 1000, 50, restrict=refuse)
        assert set(res.configs) == set(start) and not res.cap_hit
    res = post_star(a, [Config("q", v) for v in range(20)], 1000, 50)
    assert set(res.configs) == {Config("q", v) for v in range(20)} and res.cap_hit


def _sparse_oca(rng, num_states):
    """States whose tests sit in clusters a million apart, and
    transitions mixing small updates with jumps of whole millions."""
    states = tuple(f"q{i}" for i in range(num_states))
    guards = {}
    for q in states:
        roll, at = rng.random(), rng.randint(0, 5) * 10**6 + rng.randint(0, 40)
        if roll < 0.2:
            guards[q] = Guard("eq", at)
        elif roll < 0.6:
            guards[q] = Guard("ne", at)
    transitions = []
    for _ in range(rng.randint(num_states, 2 * num_states + 1)):
        jump = rng.choice((-1, 1)) * rng.randint(1, 4) * 10**6 if rng.random() < 0.4 else 0
        transitions.append(Transition(rng.choice(states), jump + rng.randint(-3, 3), rng.choice(states)))
    return OCA(states, tuple(transitions), guards)


def test_post_star_matches_a_sorted_bfs_on_sparse_sets():
    """As the tests above, with values in clusters a million apart, so
    that a state's values are far apart and a frontier holds several
    clusters; every state keeps only the first 60 values of each
    million, so closures stay small."""
    rng = random.Random(1819)
    keys = ("automata", "spread", "cap_hit", "stopped")
    seen = dict.fromkeys(keys, 0)
    keep = lambda v: v % 10**6 < 60
    while seen["automata"] < 120:
        a = _sparse_oca(rng, rng.randint(1, 3))
        pool = [
            c
            for q in a.states
            for c in (Config(q, rng.randint(0, 3) * 10**6 + rng.randint(0, 50)), Config(q, a.guards[q].value or 0))
            if a.is_valid(c) and keep(c.value)
        ]
        if not pool:
            continue
        start = rng.sample(pool, rng.randint(1, min(3, len(pool))))
        value_cap = max(c.value for c in start) + rng.randint(0, 5) * 10**6 + rng.randint(0, 60)
        restrict = dict.fromkeys(a.states, keep).__getitem__
        stop_at = None
        if rng.random() < 0.3:
            full, _ = sorted_bfs(a, start, value_cap, restrict)
            stop_at = rng.choice(sorted(full))
        parents, hit = sorted_bfs(a, start, value_cap, restrict, stop_at)
        res = post_star(a, start, 50_000, value_cap, restrict=restrict, stop_at=stop_at)
        assert set(res.configs) == set(parents), format_oca(a)
        assert len(res.configs) == len(parents) and res.cap_hit == hit, format_oca(a)
        assert res.run == (parent_run(parents, stop_at) if stop_at in parents else None), format_oca(a)
        for c in rng.sample(sorted(parents), min(len(parents), 30)):
            run = post_star(a, start, 50_000, value_cap, restrict=restrict, stop_at=c).run
            assert run == parent_run(parents, c), (format_oca(a), c)
            far = Config(c.state, c.value + 10**6)
            assert (far in res.configs) == (far in parents)
        seen["automata"] += 1
        seen["spread"] += any(max(iterate(found)) - min(iterate(found)) > 10**6 for found in res.sets.values())
        seen["cap_hit"] += hit
        seen["stopped"] += stop_at in parents
    assert min(seen.values()) >= 15, seen


def _long_chain_oca(rng, num_states):
    """A ring through every state plus self-loops and a few more
    transitions, updates of at most 3 either way, and tests into the
    thousands, now and then an ``==``: cycles climb and descend, and
    their chains run hundreds of laps both ways."""
    states = tuple(f"q{i}" for i in range(num_states))
    guards = {}
    for q in states:
        roll = rng.random()
        if roll < 0.1:
            guards[q] = Guard("eq", rng.randint(0, 3000))
        elif roll < 0.8:
            guards[q] = Guard("ne", rng.randint(0, 3000))
    step = lambda: rng.choice((-1, 1)) * rng.randint(1, 3)
    transitions = [Transition(q, step(), states[(i + 1) % num_states]) for i, q in enumerate(states)]
    transitions += [Transition(q, step(), q) for q in states if rng.random() < 0.6]
    transitions += [Transition(rng.choice(states), step(), rng.choice(states)) for _ in range(rng.randint(0, 2))]
    return OCA(states, tuple(transitions), guards)


class _Boom(Exception):
    pass


def test_closures_taking_laps_at_once_match_a_sorted_bfs(monkeypatch):
    """A closure given no target takes a chain's free laps at once,
    climbing and descending; it finds what a level-sorted search finds,
    with the same ``cap_hit``, raises where that search's restriction
    raises (as :func:`is_bounded`'s probe does), and raises
    ResourceExceeded exactly past the node cap.  Automata with long
    chains both ways and their reversals, under value predicates that
    refuse now and then, states answered wholesale, and binding value
    caps."""
    took = []
    take = exploration._take_laps

    def counted(v, plan, value_cap, node_cap, size, *rest):
        grown = take(v, plan, value_cap, node_cap, size, *rest)
        if grown > size:
            took.append(plan[1] > 0)
        return grown

    monkeypatch.setattr(exploration, "_take_laps", counted)
    rng = random.Random(2028)
    keys = ("closures", "up", "down", "restrict", "mixed", "raised", "cap_hit", "cap_free")
    seen = dict.fromkeys(keys, 0)
    while seen["closures"] < 160:
        base = _long_chain_oca(rng, rng.randint(1, 3))
        for a in (base, reverse(base)):
            pool = [Config(q, rng.randint(0, 3000)) for q in a.states for _ in range(3)]
            pool = [c for c in pool if a.is_valid(c)]
            if not pool:
                continue
            start = rng.sample(pool, rng.randint(1, min(3, len(pool))))
            value_cap = rng.randint(max(c.value for c in start), 3600)
            restrict, roll = None, rng.random()
            if roll < 0.5:
                keeps = {}
                for i, q in enumerate(a.states):
                    top, salt, gap = value_cap - rng.randint(-200, 800), rng.randint(0, 500), rng.randint(40, 400)
                    keeps[q] = (lambda top, salt, gap: lambda v: v <= top and (v + salt) % gap != 0)(top, salt, gap)
                for q in rng.sample(a.states, rng.randint(0, len(a.states))):
                    keeps[q] = None
                restrict = keeps.__getitem__
                seen["mixed"] += None in keeps.values() and any(keeps.values())
            elif roll < 0.7:
                top, at = rng.randint(0, 3600), rng.choice(a.states)

                def boom(v, top=top):
                    if v >= top:
                        raise _Boom
                    return True

                restrict = {q: boom if q == at else None for q in a.states}.__getitem__
            try:
                parents, hit = sorted_bfs(a, start, value_cap, restrict)
            except _Boom:
                with pytest.raises(_Boom):
                    post_star(a, start, 100_000, value_cap, restrict=restrict)
                seen["raised"] += 1
                continue
            del took[:]
            res = post_star(a, start, 100_000, value_cap, restrict=restrict)
            assert set(res.configs) == set(parents) and len(res.configs) == len(parents), format_oca(a)
            assert res.cap_hit == hit, format_oca(a)
            n = len(parents)
            assert len(post_star(a, start, n, value_cap, restrict=restrict).configs) == n
            if any(parents.values()):  # the roots are never refused for the cap
                with pytest.raises(ResourceExceeded):
                    post_star(a, start, n - 1, value_cap, restrict=restrict)
            seen["closures"] += 1
            seen["up"] += True in took
            seen["down"] += False in took
            seen["restrict"] += restrict is not None
            seen["cap_hit"] += hit
            seen["cap_free"] += not hit and n > 200
    assert min(seen.values()) >= 20, seen


def test_sparse_values_cost_what_they_hold():
    """A few values near 10**8: a closure, its runs, boundedness and a
    decision cost what the values are, not how high they are, well
    under the 12 MB that one bit per value from 0 would take."""
    a = parse_oca("states: p q\nguard q == 123456789\ntrans p +123456789 q\ntrans q +1 p\n")
    b = parse_oca("states: p q r\nguard q != 100000001\ntrans p +100000000 q\ntrans q -100000000 r\ntrans r +1 r\n")
    top = Config("p", 123456790)
    tracemalloc.start()
    try:
        res = post_star(a, [Config("p", 0)], 1000)
        assert set(res.configs) == {Config("p", 0), Config("q", 123456789), top}
        assert Config("p", 123456789) not in res.configs
        assert post_star(a, [Config("p", 0)], 1000, stop_at=top).run == (0, 1)
        assert is_bounded(a, Config("p", 0)) and is_bounded(a, top)
        assert is_locally_bounded(a, Config("q", 123456789))
        assert decide_full(b, Config("p", 0), Config("r", 5)).kind == "reachable"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak


def test_post_star_reads_runs_back_through_packed_levels():
    """A search given a target keeps its levels packed flat; runs of
    over 4,096 levels read back through them, for a lone value per
    level, two states per level and a wide frontier."""
    a = parse_oca("states: p q r\ntrans p +1 p\ntrans p +0 q\ntrans r +1 r\ntrans r +2 r\n")
    for start, cap in (([Config("p", 0)], 9_000), ([Config("r", v) for v in range(0, 40, 3)], 12_000)):
        res = post_star(a, start, 50_000, cap)
        parents, hit = sorted_bfs(a, start, cap)
        assert set(res.configs) == set(parents) and res.cap_hit == hit
        top = max(parents, key=lambda c: c.value)
        assert len(parent_run(parents, top)) > 4096
        for c in sorted(parents, key=lambda c: c.value)[::997] + [top]:
            assert post_star(a, start, 50_000, cap, stop_at=c).run == parent_run(parents, c), c


def test_post_star_configs_view_refuses_what_is_not_a_configuration():
    a = parse_oca("states: q\ntrans q +1 q\n")
    view = post_star(a, [Config("q", 0)], 100, 70).configs
    assert ("q", 70) in view and ("q", 1) in view and ("q", True) in view
    for other in (("q", "1"), ("q", 1.5), ("q",), ("q", -1), ("q", 71), ("q", 1, 2), "q", 7, None):
        assert other not in view, other


def test_post_star_asks_values_only_where_restricted():
    """A state whose restriction is None admits every value unasked; the
    value predicates are asked only of their own state's candidates: a
    start, or a valid step out of what the closure found.  A state's
    restriction is looked up only where such a candidate needs it."""
    rng = random.Random(77)
    wholesale_found = 0
    for _ in range(150):
        a = random_oca(rng, num_states=rng.randint(2, 5), max_update=3, max_guard=10)
        start = [Config(q, v) for q in a.states for v in range(4) if a.is_valid(Config(q, v))]
        wholesale = set(rng.sample(a.states, rng.randint(1, len(a.states) - 1)))
        asked: list[Config] = []
        looked_up: set[str] = set()

        def restrict(state):
            looked_up.add(state)
            if state in wholesale:
                return None

            def keep(v):
                asked.append(Config(state, v))
                return v % 5 != 4

            return keep

        res = post_star(a, start, 10_000, 30, restrict=restrict)
        candidates = set(start) | {d for c in res.configs for d, _ in naive_successors(a, c)}
        assert not {c.state for c in asked} & wholesale
        assert set(asked) <= candidates, format_oca(a)
        assert looked_up <= {c.state for c in candidates}, format_oca(a)
        found_at = lambda states: {c for c in res.configs if c.state in states}
        assert found_at(set(a.states) - wholesale) <= set(asked)
        wholesale_found += len(found_at(wholesale))
    assert wholesale_found >= 500, wholesale_found
    # r is a destination, but every step into it goes negative.
    a = parse_oca("states: q r\ntrans q +1 q\ntrans q -5 r\n")
    looked_up = []
    res = post_star(a, [Config("q", 0)], 100, 3, restrict=lambda q: looked_up.append(q))
    assert len(res.configs) == 4 and set(looked_up) == {"q"}


def test_post_star_configs_view():
    """``configs`` is a read-only set view over the per-state tables."""
    a = parse_oca("states: q r\nguard q != 3\ntrans q +1 q\ntrans q +0 r\n")
    res = post_star(a, [Config("q", 0)], **BIG)
    expected = {Config(q, v) for q in "qr" for v in range(3)}
    view = res.configs
    assert len(view) == 6
    assert Config("r", 2) in view and ("r", 2) in view and Config("r", 2) in res
    assert Config("q", 3) not in view and ("s", 0) not in view and "q" not in view
    assert all(type(c) is Config for c in view)
    assert sorted(view) == sorted(expected)
    assert view == expected and expected == view and view != expected - {Config("q", 0)}
    assert view <= expected and expected <= view and {Config("q", 1)} <= view
    assert view | set() == expected and isinstance(view & expected, set)


def test_post_star_node_cap_is_exact():
    # From q:0 the closure is q:0..5 and r:0..5, twelve configurations.
    a = parse_oca("states: q r\nguard q != 6\ntrans q +1 q\ntrans q +0 r\n")
    assert len(post_star(a, [Config("q", 0)], 12).configs) == 12
    with pytest.raises(ResourceExceeded):
        post_star(a, [Config("q", 0)], 11)


def test_post_star_lets_restrict_exceptions_through():
    a = parse_oca("states: q\ntrans q +1 q\n")

    def admit(state):
        def keep(v):
            if v == 3:
                raise exploration.Found
            return True

        return keep

    for start in (Config("q", 0), Config("q", 3)):
        with pytest.raises(exploration.Found):
            post_star(a, [start], 100, restrict=admit)
    # is_bounded ends its probe through the same exception.
    assert not is_bounded(a, Config("q", 0))


def test_locally_bounded_predicate_holds_its_automaton_weakly():
    a = parse_oca(FIG_LOOP)
    bounded = locally_bounded(a)
    assert bounded is locally_bounded(a)
    assert bounded("q")(0) and not bounded("q")(6)
    owner = weakref.ref(a)
    del a
    assert owner() is None
    assert bounded("q")(0)  # its table already holds q's component


# ------------------------------------------------------------- reach_oracle


def test_oracle_loop3_goldens(loop3):
    assert reach_oracle(loop3, Config("q", 0), Config("q", 10)) is None
    assert reach_oracle(loop3, Config("q", 0), Config("s", 3)) == (0, 1)
    assert reach_oracle(loop3, Config("q", 0), Config("q", 0)) == ()


def test_oracle_parity_unreachable():
    a = parse_oca("states: q\ntrans q +2 q\n")
    assert reach_oracle(a, Config("q", 0), Config("q", 5)) is None
    assert reach_oracle(a, Config("q", 0), Config("q", 6)) == (0, 0, 0)


def test_oracle_refuses_when_the_node_cap_ends_the_ladder(monkeypatch):
    """The first rung's forward search raises at once; the oracle still
    refuses a target that no run over the integers reaches."""
    a = parse_oca("states: q\ntrans q +2 q\n")
    monkeypatch.setattr(exploration, "NODE_CAP", 1)
    assert reach_oracle(a, Config("q", 0), Config("q", 5)) is None
    with pytest.raises(ResourceExceeded):
        reach_oracle(a, Config("q", 0), Config("q", 6))


def test_oracle_refuses_after_the_first_inconclusive_rung(monkeypatch):
    """Both closures pump forever, so the first rung is cut off both ways
    and candidate reachability refuses there, before three more rungs."""
    a = parse_oca("states: q\ntrans q +2 q\ntrans q -2 q\n")
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return post_star(*args, **kwargs)

    monkeypatch.setattr(exploration, "post_star", counted)
    assert reach_oracle(a, Config("q", 0), Config("q", 5)) is None
    assert calls == [[Config("q", 0)], [Config("q", 5)]]


def test_oracle_decides_reachable_without_candidate_tables():
    """Candidate reachability is consulted only when exploration is
    inconclusive, so deciding a reachable subset-sum instance through
    the oracle builds no candidate table (2^n simple paths)."""
    a, src, trg = gen_subset_sum((44, 957, 593, 549, 86, 342, 708, 694), 1980)
    verdict = decide_full(a, src, trg)
    assert verdict.kind == "reachable"
    assert _candidate_tables.__wrapped__ not in a.memo


def test_oracle_needs_backward_direction():
    # Forward closure from (q,0) pumps forever, but backward from the
    # target closes fast: t has no incoming candidate paths of the right
    # shape once the guard on b cuts the bridge.
    text = "states: q b t\nguard b == 3\ntrans q +1 q\ntrans q +0 b\ntrans b +0 t\n"
    a = parse_oca(text)
    run = reach_oracle(a, Config("q", 0), Config("t", 3))
    assert run is not None
    assert apply_path(a, Config("q", 0), run) == Config("t", 3)
    assert reach_oracle(a, Config("q", 0), Config("t", 4)) is None


def test_oracle_honest_resource_error():
    text = (
        "states: a c b\n"
        "guard c == 1000000\n"
        "trans a +1 a\n"
        "trans a +0 c\n"
        "trans c +0 b\n"
        "trans b -1 b\n"
    )
    a = parse_oca(text)
    with pytest.raises(ResourceExceeded):
        reach_oracle(a, Config("a", 0), Config("b", 5))


def test_oracle_matches_naive_and_reverse():
    rng = random.Random(99)
    checked = 0
    while checked < 150:
        a = random_oca(
            rng,
            num_states=rng.randint(1, 4),
            max_update=2,
            max_guard=6,
            equality_fraction=0.3,
        )
        src = Config(a.states[0], rng.randint(0, 3))
        trg = Config(a.states[-1], rng.randint(0, 6))
        if not (a.is_valid(src) and a.is_valid(trg)):
            continue
        try:
            run = reach_oracle(a, src, trg)
        except ResourceExceeded:
            continue
        naive = naive_reach(a, src, trg, value_bound=80)
        if run is None:
            assert naive is not True
        else:
            assert apply_path(a, src, run) == trg
            assert naive is not False
        rev_run = reach_oracle(reverse(a), trg, src)
        assert (rev_run is None) == (run is None)
        checked += 1


def test_backward_closure_holds_src_exactly_when_forward_holds_trg():
    # reach_oracle takes runs from its forward closure only: at one value
    # cap the backward closure on the reversed automaton holds the same
    # runs reversed, so it never finds src when the forward one missed trg.
    rng = random.Random(58)
    checked = cut_off = 0
    while checked < 400:
        a = random_oca(
            rng,
            num_states=rng.randint(1, 5),
            max_update=2,
            max_guard=6,
            equality_fraction=0.3,
        )
        src = Config(rng.choice(a.states), rng.randint(0, 6))
        trg = Config(rng.choice(a.states), rng.randint(0, 6))
        if not (a.is_valid(src) and a.is_valid(trg)):
            continue
        cap = _value_cap(a, src.value, trg.value, scale=rng.choice((1, 4)))
        fwd = post_star(a, [src], 100_000, cap)
        back = post_star(reverse(a), [trg], 100_000, cap)
        assert (trg in fwd.configs) == (src in back.configs), (format_oca(a), src, trg, cap)
        checked += 1
        cut_off += fwd.cap_hit and trg not in fwd.configs
    assert cut_off >= 60


# --------------------------------------------------------------- bounded


def test_is_bounded_goldens(loop3):
    assert is_bounded(loop3, Config("q", 0))
    assert not is_bounded(loop3, Config("q", 1))
    assert is_bounded(loop3, Config("q", 2))  # orbit dies at the s=15 wall
    a = parse_oca("states: q\ntrans q +1 q\n")
    assert not is_bounded(a, Config("q", 0))
    b = parse_oca("states: q r\ntrans q +1 r\n")
    assert is_bounded(b, Config("q", 3))


def test_is_bounded_rejects_invalid(loop3):
    """An invalid value and an undeclared state raise ValueError, with
    and without equality tests, before any per-state table is read."""
    pinned = FIG_LOOP.replace("states: q r s", "states: q r s t") + "guard t == 3\ntrans q +0 t\n"
    pinned = parse_oca(pinned)
    assert not is_bounded(pinned, Config("q", 1))  # on a chain that avoids t
    for a, bad in ((loop3, Config("q", 5)), (pinned, Config("t", 4))):
        for c in (bad, Config("q", -1), Config("nowhere", 0)):
            with pytest.raises(ValueError):
                is_bounded(a, c)


def _asked_by_probe(monkeypatch, k: int) -> int:
    """Values the restriction of ``is_bounded(a, p:0)`` is asked, on the
    README loop with its tests scaled by k and a state p entering it
    with +1: q:1 lies in a residue class with no blocked value, on an
    unbounded chain however large k is."""
    a = parse_oca(
        f"states: p q r s\nguard q != {5 * k}\nguard r != {30 * k}\n"
        f"guard s != {15 * k}\ntrans q +2 r\ntrans r +1 s\ntrans s +2 q\ntrans p +1 q\n"
    )
    asked = [0]
    real = exploration.post_star

    def counted(b, start, node_cap, value_cap=None, restrict=None, stop_at=None):
        def admit(state):
            keep = restrict(state)
            if keep is None:
                return None

            def counted_keep(v):
                asked[0] += 1
                return keep(v)

            return counted_keep

        return real(b, start, node_cap, value_cap, admit, stop_at)

    monkeypatch.setattr(exploration, "post_star", counted)
    assert not is_bounded(a, Config("p", 0))
    monkeypatch.undo()
    return asked[0]


def test_is_bounded_probe_stops_at_the_first_unbounded_chain(monkeypatch):
    assert _asked_by_probe(monkeypatch, 1) <= 2
    assert _asked_by_probe(monkeypatch, 100) <= 2


def test_is_bounded_against_naive_closure():
    rng = random.Random(12)
    for _ in range(120):
        a = random_oca(
            rng,
            num_states=rng.randint(1, 4),
            max_update=2,
            max_guard=6,
            equality_fraction=0.2,
        )
        c = Config(a.states[0], rng.randint(0, 4))
        if not a.is_valid(c):
            continue
        verdict = is_bounded(a, c)
        closure, hit = naive_post_star(a, c, value_bound=300)
        if verdict:
            assert not hit, f"{a.states} {c}: bounded verdict but naive still grows"
        else:
            assert hit, f"{a.states} {c}: unbounded verdict but naive closed"


def test_bounded_labels_do_not_depend_on_query_order():
    # Each query order shares one automaton object, so later queries
    # read the labels earlier probes left; a fresh parse has none.
    rng = random.Random(31)
    automata = eq_tests = 0
    while automata < 100:
        a = random_oca(
            rng,
            num_states=rng.randint(1, 4),
            max_update=2,
            max_guard=6,
            equality_fraction=0.3,
        )
        text = format_oca(a)
        configs = [
            Config(q, v) for q in a.states for v in range(21) if a.is_valid(Config(q, v))
        ]
        if not configs:
            continue
        expected = {}
        for c in configs:
            expected[c] = is_bounded(parse_oca(text), c)
            # Bounded closures here stay below 25; unbounded ones pass 100.
            _, hit = naive_post_star(a, c, value_bound=100)
            assert expected[c] == (not hit), f"{text}{c}: naive closure disagrees"
        expected_local = {c: is_locally_bounded(parse_oca(text), c) for c in configs}
        shuffled = list(configs)
        rng.shuffle(shuffled)
        for order in (configs, configs[::-1], shuffled):
            shared = parse_oca(text)
            got = {c: is_bounded(shared, c) for c in order}
            assert got == expected, text
            # The component's label table is is_locally_bounded's only cache.
            got = {c: is_locally_bounded(shared, c) for c in order}
            assert got == expected_local, text
        automata += 1
        eq_tests += a.has_equality_tests()
    assert eq_tests >= 20


def test_component_sub_automata_need_no_scc_search(monkeypatch):
    """The sub-automata ``_component`` restricts to one strongly
    connected component are one component by construction: neither
    their cycle analysis nor the boundedness probes run on them search
    for components again."""
    a = parse_oca(
        "states: a b c d e\nguard b != 4\ntrans a +2 b\ntrans b -1 a\ntrans b +0 c\n"
        "trans c +1 d\ntrans d +1 c\ntrans d -3 e\ntrans e +1 e\n"
    )
    scc_of(a)  # a's own components, searched once
    searched = []
    real = automaton.scc_decompose
    monkeypatch.setattr(automaton, "scc_decompose", lambda b: searched.append(b) or real(b))
    subs = {q: exploration._component(a, q) for q in a.states}
    assert {q: sub and sub.states for q, sub in subs.items()} == {
        "a": ("a", "b"),
        "b": ("a", "b"),
        "c": ("c", "d"),
        "d": ("c", "d"),
        "e": ("e",),
    }
    verdicts = [is_locally_bounded(a, Config(q, v)) for q in a.states for v in range(8) if a.is_valid(Config(q, v))]
    assert not all(verdicts) and any(verdicts)
    assert searched == []


def test_is_locally_bounded_on_strongly_connected_equals_global(loop3):
    # loop3 is one SCC, so the local and global notions coincide.
    for v in range(0, 8):
        c = Config("q", v)
        if not loop3.is_valid(c):
            continue
        assert is_locally_bounded(loop3, c) == is_bounded(loop3, c)


def test_is_locally_bounded_sink_dag():
    a = parse_oca("states: a b\ntrans a +1 b\n")
    assert is_locally_bounded(a, Config("a", 0))
    assert is_locally_bounded(a, Config("b", 50))


def test_is_locally_bounded_ignores_other_components():
    # b feeds an unbounded pump, but b's own component is a dead end.
    a = parse_oca("states: b p\ntrans b +0 p\ntrans p +1 p\n")
    assert is_locally_bounded(a, Config("b", 0))
    assert not is_bounded(a, Config("b", 0))
    assert not is_locally_bounded(a, Config("p", 0))


def test_is_locally_bounded_matches_naive_closure_of_the_component():
    # Low values, and values around T: above T a probe on a component
    # without equality tests meets a pumping configuration within |Q| levels.
    rng = random.Random(404)
    compared = high = 0
    for _ in range(300):
        a = random_oca(
            rng,
            num_states=rng.randint(1, 4),
            max_update=2,
            max_guard=6,
            equality_fraction=0.3,
        )
        for q in a.states:
            sub, _ = restrict(a, scc_of(a)[q])
            t = sub.max_test + (2 * len(sub.states) + 2) * (sub.max_update + 1)
            for v in [*range(13), t - 1, t, t + 1, 2 * t]:
                c = Config(q, v)
                if not a.is_valid(c):
                    continue
                _, hit = naive_post_star(sub, c, value_bound=v + 60)
                assert is_locally_bounded(a, c) == (not hit), (format_oca(a), c)
                compared += 1
                high += v >= t
    assert compared >= 10_000 and high >= 4000, (compared, high)


def test_component_without_climbing_cycle_answers_without_a_probe(monkeypatch, loop3):
    # Reversed, the loop's one component only descends: no probe is needed
    # at any value, low ones included.
    def no_probe(*args, **kwargs):
        raise AssertionError("boundedness probe on a component without a climbing cycle")

    monkeypatch.setattr(exploration, "post_star", no_probe)
    rev = reverse(loop3)
    for v in range(9):
        c = Config("q", v)
        if rev.is_valid(c):
            assert is_locally_bounded(rev, c)


# The README loop between a lone state p without a self-loop and a lone
# state t with a climbing one.
TAILED_LOOP = """
states: p q r s t
guard q != 5
guard r != 30
guard s != 15
trans q +2 r
trans r +1 s
trans s +2 q
trans p +1 q
trans s -1 t
trans t +1 t
"""


def test_gadget_shares_its_base_components(monkeypatch):
    a = parse_oca(TAILED_LOOP)
    src, trg = Config("p", 0), Config("t", 3)
    scc_of(a)  # the one search; the gadget and both reversals reuse it

    def no_search(b):
        raise AssertionError("strongly connected components searched again")

    monkeypatch.setattr(automaton, "scc_decompose", no_search)
    n, s2, t2 = normalize_endpoints(a, src, trg)
    rn = reverse(n)
    singles = {s2.state: frozenset({s2.state}), t2.state: frozenset({t2.state})}
    assert scc_of(n) == scc_of(rn) == {**scc_of(a), **singles}
    assert reverse in a.memo  # its components own the reversed gadget's cycles
    for q in a.states:
        for gadget, base in ((n, a), (rn, reverse(a))):
            sub, back = component(gadget, q)
            want, want_back = component(base, q)
            assert sub is want and back == want_back
    gone = weakref.ref(n), weakref.ref(rn)
    del n, rn, gadget
    assert all(ref() is None for ref in gone)  # a's memo holds no gadget


def test_lone_state_builds_no_component(monkeypatch):
    a = parse_oca(TAILED_LOOP)
    asked = []
    real = automaton.restrict

    def counted(b, states):
        asked.append(states)
        return real(b, states)

    monkeypatch.setattr(automaton, "restrict", counted)
    assert locally_bounded(a)("p") is None  # no self-loop
    assert is_locally_bounded(a, Config("p", 7))
    assert not is_locally_bounded(a, Config("t", 7))  # read off t's +1 loop
    assert not asked
    assert climbing_cycles(a)["t"].path == (5,)
    assert set(asked) == {frozenset({"q", "r", "s"})}  # the loop's component only


def test_lone_states_are_read_off_their_self_loops(monkeypatch):
    """One-state automata with one to three self-loops of updates -7..+6
    and a ``!=`` test, an ``==`` test or none at 0..30: local boundedness
    at every valid value 0..40 agrees with a naive closure, and the
    climbing cycle with the component search, with no probe run.  A
    bounded closure stays at or below 40, the start or under the test;
    an unbounded one passes any bound."""
    search = analysis._least_drop, analysis._lex_least_cycle

    def no_probe(*args, **kwargs):
        raise AssertionError("probe or search on a lone state")

    monkeypatch.setattr(exploration, "post_star", no_probe)
    monkeypatch.setattr(analysis, "_least_drop", no_probe)
    rng = random.Random(2626)
    seen = Counter()
    for _ in range(600):
        updates = [rng.randint(-7, 6) for _ in range(rng.randint(1, 3))]
        kind = rng.choice(("ne", "ne", "eq", "true"))
        guards = {} if kind == "true" else {"q": Guard(kind, rng.randint(0, 30))}
        a = OCA(("q",), tuple(Transition("q", u, "q") for u in updates), guards)
        drop = search[0](a, "q")
        want = None if drop is None else (search[1](a, "q", drop), drop)
        cyc = climbing_cycles(a).get("q")
        assert (cyc and (cyc.path, cyc.drop)) == want, updates
        for v in range(41):
            c = Config("q", v)
            if a.is_valid(c):
                _, hit = naive_post_star(a, c, value_bound=40)
                assert is_locally_bounded(a, c) == (not hit), (updates, guards, v)
                seen[kind, hit] += 1
    assert min(seen.values()) > 100, seen


def _reaches(a, x, y):
    seen, stack = {x}, [x]
    while stack:
        cur = stack.pop()
        for t in a.transitions:
            if t.src == cur and t.dst not in seen:
                seen.add(t.dst)
                stack.append(t.dst)
    return y in seen


def test_is_locally_bounded_matches_manual_restriction():
    from ocareach.automaton import OCA

    rng = random.Random(77)
    for _ in range(120):
        a = random_oca(
            rng,
            num_states=rng.randint(1, 5),
            max_update=2,
            max_guard=6,
            equality_fraction=0.2,
        )
        state = rng.choice(a.states)
        value = rng.randint(0, 30)
        c = Config(state, value)
        if not a.is_valid(c):
            continue
        comp = {s for s in a.states if _reaches(a, state, s) and _reaches(a, s, state)}
        sub = OCA(
            states=tuple(s for s in a.states if s in comp),
            transitions=tuple(
                t for t in a.transitions if t.src in comp and t.dst in comp
            ),
            guards={s: g for s, g in a.guards.items() if s in comp},
        )
        assert is_locally_bounded(a, c) == is_bounded(sub, c)


# --------------------------------------------------------- candidate_reach


def test_candidate_parity():
    a = parse_oca("states: q\ntrans q +2 q\n")
    assert candidate_reach(a, Config("q", 0), Config("q", 5)) is None
    p = candidate_reach(a, Config("q", 0), Config("q", 6))
    assert p == (0, 0, 0)


def test_candidate_seven_laps(loop3):
    p = candidate_reach(loop3, Config("q", 0), Config("q", 35))
    assert p is not None and len(p) == 21
    assert apply_path(loop3, Config("q", 0), p, mode="candidate") == Config("q", 35)


def test_candidate_disconnected():
    a = parse_oca("states: q r\ntrans q +1 q\ntrans r +1 r\n")
    assert candidate_reach(a, Config("q", 0), Config("r", 0)) is None


def test_candidate_ignores_guards_and_sign():
    a = parse_oca("states: q r\nguard r == 9\ntrans q -4 r\n")
    assert candidate_reach(a, Config("q", 0), Config("r", -4)) == (0,)
    assert candidate_reach(a, Config("q", -3), Config("r", -7)) == (0,)


def test_candidate_connectivity_is_not_free():
    # The b-loop alone has effect 1, but using it forces the a<->b
    # shuttle (effect 2) in as well, so odd totals below 3 are out.
    a = parse_oca("states: a b\ntrans a +1 b\ntrans b +1 a\ntrans b +1 b\n")
    assert candidate_reach(a, Config("a", 0), Config("a", 1)) is None
    assert candidate_reach(a, Config("a", 0), Config("a", 2)) == (0, 1)
    p = candidate_reach(a, Config("a", 0), Config("a", 3))
    assert p is not None
    assert apply_path(a, Config("a", 0), p, mode="candidate") == Config("a", 3)


def test_candidate_path_effect_classes():
    a = parse_oca(
        "states: s x y t\n"
        "trans s +2 x\ntrans s +0 y\ntrans x +0 t\ntrans y +3 t\n"
    )
    assert candidate_reach(a, Config("s", 0), Config("t", 2)) == (0, 2)
    assert candidate_reach(a, Config("s", 0), Config("t", 3)) == (1, 3)
    assert candidate_reach(a, Config("s", 0), Config("t", 5)) is None


def test_candidate_mixed_sign_cycles():
    a = parse_oca("states: a\ntrans a +3 a\ntrans a -5 a\n")
    for target in (1, -1, 7, -13, 10_001):
        p = candidate_reach(a, Config("a", 0), Config("a", target))
        assert p is not None
        end = apply_path(a, Config("a", 0), p, mode="candidate")
        assert end == Config("a", target)


@pytest.mark.parametrize("coins", [(4, 6, 9), (3, 5), (7, 11, 13)])
@pytest.mark.parametrize("sign", [1, -1])
def test_candidate_coin_gap_golden(coins, sign):
    # One state with a self-loop per coin: a target is candidate-reachable
    # from a:0 exactly when some sum of coins (repeats allowed) makes it.
    a = parse_oca("states: a\n" + "".join(f"trans a {sign * c:+d} a\n" for c in coins))
    sums = {0}
    for total in range(1, 151):
        if any(total - c in sums for c in coins):
            sums.add(total)
    for total in list(range(151)) + [9_997]:
        target = Config("a", sign * total)
        p = candidate_reach(a, Config("a", 0), target)
        assert (p is None) == (total <= 150 and total not in sums), total
        if p is not None:
            assert apply_path(a, Config("a", 0), p, mode="candidate") == target


def test_candidate_matches_windowed_bfs():
    rng = random.Random(2024)
    checked = 0
    while checked < 250:
        a = random_oca(rng, num_states=rng.randint(1, 4), max_update=3)
        src = Config(rng.choice(a.states), rng.randint(-3, 3))
        trg = Config(rng.choice(a.states), rng.randint(-12, 12))
        got = candidate_reach(a, src, trg)
        naive = naive_z_reach(a, src, trg, lo=-60, hi=60)
        if got is None:
            assert naive is not True
        else:
            end = apply_path(a, src, got, mode="candidate")
            assert end == trg
            assert naive is not False
        checked += 1


def test_candidate_deterministic():
    a = parse_oca("states: a b\ntrans a +1 b\ntrans b +1 a\ntrans b +1 b\n")
    one = candidate_reach(a, Config("a", 0), Config("a", 9))
    two = candidate_reach(a, Config("a", 0), Config("a", 9))
    assert one == two


def test_support_closure_counts_against_the_enumeration_cap(monkeypatch):
    """A hub with six petal cycles of effects 1, 2, 4, ..., 32: the walks
    try a few edges, and the support closure takes up 64 entries, the
    hub's empty path and one per nonempty set of petals, each trying
    the six cycle classes.  That work is charged to the walks' counter,
    so a cap the walks pass but the closure does not raises."""
    text = "states: h " + " ".join(f"p{i}" for i in range(6)) + "\n"
    text += "".join(f"trans h +{2**i} p{i}\ntrans p{i} 0 h\n" for i in range(6))
    src, trg = Config("h", 0), Config("h", 63)
    a = parse_oca(text)
    rel = frozenset(a.states)
    _, steps = _simple_cycles(a, rel, _simple_paths(a, "h", "h", rel)[1])
    closure = 2**6 * 6
    assert steps < closure
    monkeypatch.setattr(exploration, "_ENUM_CAP", steps + closure - 1)
    with pytest.raises(ResourceExceeded, match="support classes"):
        candidate_reach(a, src, trg)
    monkeypatch.setattr(exploration, "_ENUM_CAP", steps + closure)
    path = candidate_reach(parse_oca(text), src, trg)
    assert apply_path(a, src, path, mode="candidate") == trg


@pytest.mark.parametrize("c", [7, 1000])
def test_candidate_reach_ignores_a_common_factor(c):
    # Scaling every update and both endpoints by c scales every cycle
    # effect and the target alike, so the counts, and the path, stay.
    rng = random.Random(1729)
    solved = 0
    for _ in range(1200):
        a = random_oca(rng, num_states=rng.randint(1, 4), max_update=4)
        src = Config(rng.choice(a.states), rng.randint(-3, 3))
        trg = Config(rng.choice(a.states), rng.randint(-12, 12))
        p = candidate_reach(a, src, trg)
        assert candidate_reach(*scaled(a, src, trg, c)) == p, format_oca(a)
        solved += p is not None
    assert solved >= 300


def test_semigroup_member_matches_bounded_sums():
    """Every set of at most 3 nonzero effects in [-12, 12] and every
    target in [-60, 60]: counts exist exactly when the bounded search
    reaches the target, and they are positive and sum to it."""
    values = [e for e in range(-12, 13) if e]
    for size in range(4):
        for effects in combinations(values, size):
            sums = naive_sums(effects, -72, 72)
            for r in range(-60, 61):
                counts = _semigroup_member(effects, r)
                assert (counts is not None) == (r in sums), (effects, r)
                if counts is not None:
                    assert set(counts) <= set(effects), (effects, r, counts)
                    assert all(k > 0 for k in counts.values()), (effects, r, counts)
                    assert sum(e * k for e, k in counts.items()) == r, (effects, r, counts)


@pytest.mark.parametrize(
    "effects, r, most",
    [((5, -3), -10, 6), ((-7, -2, 3), 6, 2), ((-2, 4, 5), 1, 3)],
    ids=["5,-3", "-7,-2,3", "-2,4,5"],
)
def test_semigroup_member_mixed_signs_stay_small(effects, r, most):
    # an extended-gcd construction with sign fix-ups used 30 and 32 cycles;
    # fixing the overshoot of 5 with b = 4 repeats of -2 used 6 for 1
    counts = _semigroup_member(effects, r)
    assert sum(e * k for e, k in counts.items()) == r
    assert sum(counts.values()) <= most, counts

def test_value_cap_formula(loop3):
    # max test 30, positive values 10, (|Q|+2) * (max update + 1) = 15
    assert _value_cap(loop3, 0, 10) == 55
    assert _value_cap(loop3, 0, 10, scale=4) == 220


# ------------------------------------------------------ deep and long walks


def _chain_text(n: int) -> str:
    """c0 climbs on a +1 self-loop, then a +1 chain c0 -> ... -> c(n-1),
    which descends on a -1 self-loop."""
    lines = ["states: " + " ".join(f"c{i}" for i in range(n)), "trans c0 +1 c0"]
    lines += [f"trans c{i} +1 c{i + 1}" for i in range(n - 1)]
    lines.append(f"trans c{n - 1} -1 c{n - 1}")
    return "\n".join(lines) + "\n"


def test_simple_walks_need_no_recursion():
    n = 1500
    chain = parse_oca(_chain_text(n))
    rel = frozenset(chain.states)
    path = tuple(range(1, n))
    assert _simple_paths(chain, "c0", f"c{n - 1}", rel)[0] == {(rel, n - 1): path}
    # A ring walked against state order: only c0, the least state, can
    # start a cycle, and it runs through all n states.
    ring = parse_oca(
        "states: " + " ".join(f"c{i}" for i in range(n)) + "\n"
        + f"trans c0 +1 c{n - 1}\n"
        + "".join(f"trans c{i + 1} -1 c{i}\n" for i in range(n - 1))
    )
    cycle = (0,) + tuple(range(n - 1, 0, -1))
    assert _simple_cycles(ring, frozenset(ring.states))[0] == {(rel, 1 - (n - 1)): cycle}


def test_long_chain_decides_without_recursion(tmp_path, capsys):
    n = 1500
    a = parse_oca(_chain_text(n))
    src, trg = Config("c0", 0), Config(f"c{n - 1}", 3)
    verdict = decide_full(a, src, trg)
    assert verdict.kind == "reachable"
    assert apply_path(a, src, verdict.run) == trg
    path = tmp_path / "chain.oca"
    path.write_text(_chain_text(n))
    code = cli.main(["decide", str(path), "--src", str(src), "--trg", str(trg)])
    assert code == 0, capsys.readouterr().err


def test_automata_die_without_the_cycle_collector(monkeypatch):
    """Deciding leaves no reference cycle that holds an automaton, so
    every automaton is freed as soon as its last reference goes."""
    created = []
    init = OCA.__post_init__

    def tracked(self):
        init(self)
        created.append(weakref.ref(self))

    monkeypatch.setattr(OCA, "__post_init__", tracked)
    spec = FuzzSpec(num_states=8, max_update=4, max_guard=12, equality_fraction=0.25, count=60)
    gc.disable()
    try:
        for _, (a, src, trg) in instances(spec):
            try:
                decide_full(a, src, trg)
            except ResourceExceeded:
                pass
        del a
        alive = [r for r in created if r() is not None]
    finally:
        gc.enable()
    assert created and not alive, f"{len(alive)} of {len(created)} automata still alive"


def test_reversing_twice_gives_the_automaton_back_weakly():
    """``reverse(reverse(a))`` is ``a`` itself, analyses and all, while
    ``a`` lives, yet the reversal reaches ``a`` only weakly: ``a`` dies
    with its last reference, the collector off, and reversing the
    reversal then builds a fresh automaton, which links back in turn."""
    gc.disable()
    try:
        a = parse_oca(FIG_LOOP)
        cycles = climbing_cycles(a)
        r = reverse(a)
        assert reverse(r) is a and reverse(reverse(r)) is r
        assert climbing_cycles(reverse(r)) is cycles
        held = weakref.ref(a)
        del a
        assert held() is None
        b = reverse(r)
        assert b.transitions == parse_oca(FIG_LOOP).transitions and b.guards == r.guards
        assert reverse(b) is r and reverse(r) is b
    finally:
        gc.enable()
