import random

from ocareach import analysis, automaton
from ocareach.analysis import (
    CanonicalCycle,
    Chain,
    chain_enumeration_complete,
    chain_of,
    chains_at,
    climbing_cycles,
    climbs_forever,
    in_pumpable_region,
    pumpable_drops,
    spans_one_chain,
    structure_report,
)
from ocareach.automaton import OCA, Config, Transition, format_oca, parse_oca, restrict
from ocareach.exploration import ResourceExceeded
from ocareach.generators import FuzzSpec, instances
from ocareach.invariants import format_witness
from ocareach.solver import decide_full

from _oracles import (
    bisected_climbing_cycles,
    naive_chain_partition,
    naive_climbing_cycle,
    naive_post_star,
    walked_chain,
)
from conftest import FIG_LOOP, random_oca

# ------------------------------------------------------- canonical cycles


def test_loop3_cycles_golden(loop3):
    cycles = climbing_cycles(loop3)
    assert set(cycles) == {"q", "r", "s"}
    assert cycles["q"] == CanonicalCycle("q", (0, 1, 2), 5, 0)
    assert cycles["r"] == CanonicalCycle("r", (1, 2, 0), 5, 0)
    assert cycles["s"] == CanonicalCycle("s", (2, 0, 1), 5, 0)


def test_no_positive_cycle_means_no_entry():
    a = parse_oca("states: a b\ntrans a +1 b\ntrans b -1 a\ntrans a -2 a\n")
    assert climbing_cycles(a) == {}
    b = parse_oca("states: a b\ntrans a +1 b\n")
    assert climbing_cycles(b) == {}


def test_minimal_drop_preferred_over_index():
    # Transition 0 alone dips to -5; the canonical cycle must avoid it.
    a = parse_oca("states: a\ntrans a -5 a\ntrans a +1 a\n")
    assert climbing_cycles(a)["a"] == CanonicalCycle("a", (1,), 1, 0)


def test_lex_least_among_equal_drop():
    # Self-loop +1 (index 0) and two-step +2 both have drop 0; the tuple
    # (0,) precedes (1, 2).
    a = parse_oca("states: a b\ntrans a +1 a\ntrans a +1 b\ntrans b +1 a\n")
    assert climbing_cycles(a)["a"].path == (0,)


def test_shorter_prefix_wins():
    # (0, 1) is a prefix of (0, 1, 0, 1); prefixes sort first, so the
    # single lap is canonical even though both have drop 0.
    a = parse_oca("states: a b\ntrans a -1 b\ntrans b +2 a\n")
    assert climbing_cycles(a)["a"] == CanonicalCycle("a", (0, 1), 1, 1)


def test_cycle_length_capped_by_state_count():
    # The only positive cycle needs 3 steps but there are 3 states: fine.
    a = parse_oca("states: a b c\ntrans a +0 b\ntrans b +0 c\ntrans c +1 a\n")
    assert climbing_cycles(a)["a"] == CanonicalCycle("a", (0, 1, 2), 1, 0)


def _with_isolated(a: OCA, count: int) -> OCA:
    """``a`` plus ``count`` states without transitions."""
    return OCA(a.states + tuple(f"x{i}" for i in range(count)), a.transitions, a.guards)


def test_cycles_match_exhaustive_search():
    rng = random.Random(31)
    for _ in range(150):
        drawn = random_oca(rng, num_states=rng.randint(1, 4), max_update=3)
        for a in (drawn, _with_isolated(drawn, 2)):
            got = climbing_cycles(a)
            for q in a.states:
                expected = naive_climbing_cycle(a, q)
                if expected is None:
                    assert q not in got
                else:
                    cycle, effect, drop = expected
                    assert got[q] == CanonicalCycle(q, cycle, effect, drop)


def _components_and_tail(rng: random.Random) -> OCA:
    """6 to 12 states: up to three strongly connected blocks joined by
    forward steps, a chain of tail states after them, isolated states,
    updates up to 9 either way, in shuffled state order."""
    upd = lambda: rng.randint(-9, 9)
    blocks = [[f"b{k}_{i}" for i in range(rng.randint(1, 3))] for k in range(rng.randint(1, 3))]
    tail = [f"t{i}" for i in range(rng.randint(0, 3))]
    transitions = []
    for k, block in enumerate(blocks):
        for i, q in enumerate(block):
            transitions.append(Transition(q, upd(), block[(i + 1) % len(block)]))
        for _ in range(rng.randint(0, len(block) + 1)):
            transitions.append(Transition(rng.choice(block), upd(), rng.choice(block)))
        later = [q for b in blocks[k + 1 :] for q in b] + tail[:1]
        if later:
            transitions.append(Transition(rng.choice(block), upd(), rng.choice(later)))
    for i in range(len(tail) - 1):
        transitions.append(Transition(tail[i], upd(), tail[i + 1]))
    states = [q for b in blocks for q in b] + tail
    isolated = min(max(rng.randint(0, 3), 6 - len(states)), 12 - len(states))
    states += [f"x{i}" for i in range(isolated)]
    rng.shuffle(transitions)
    rng.shuffle(states)
    return OCA(tuple(states), tuple(transitions), {})


def test_cycles_match_the_bisected_search():
    """Beyond the exhaustive oracle's reach, the search inside each
    component, drop 0 first, finds what a bisection over every drop with
    walks through the whole automaton finds, state order included.
    Drops of 2 and more make the search gallop and bisect."""
    rng = random.Random(1978)
    seen = dict.fromkeys(("drop_0", "drop_1", "drop_2_up", "not_pumpable", "blocks", "tail"), 0)
    for _ in range(600):
        a = _components_and_tail(rng)
        got = climbing_cycles(a)
        expected = bisected_climbing_cycles(a)
        assert list(got.items()) == list(expected.items()), a
        drops = [cyc.drop for cyc in got.values()]
        seen["drop_0"] += drops.count(0)
        seen["drop_1"] += drops.count(1)
        seen["drop_2_up"] += sum(d >= 2 for d in drops)
        seen["not_pumpable"] += len(a.states) - len(got)
        seen["blocks"] += len({q.split("_")[0] for q in a.states if q[0] == "b"}) > 1
        seen["tail"] += "t0" in a.states
    assert min(seen.values()) >= 40, seen


def _decided_witness(a: OCA, src: Config, trg: Config) -> str | None:
    """decide_full's WITNESS text, None without one, or "undecided"."""
    try:
        v = decide_full(a, src, trg)
    except ResourceExceeded:
        return "undecided"
    return None if v.witness is None else format_witness(v.witness, normalized=True)


def test_isolated_states_change_no_cycle():
    """Every simple cycle fits in its component, so cycles are searched
    up to |C| steps, and states no run can touch change no cycle, no
    pumpable drop and no witness.  Under a bound of |Q| steps, 100 of
    these 400 automata changed their cycles."""
    spec = FuzzSpec(num_states=6, max_update=5, count=400, seed=3)
    seen = dict.fromkeys(("pumpable", "witness"), 0)
    for index, (a, src, trg) in instances(spec):
        grown = _with_isolated(a, 3)
        cycles, drops = climbing_cycles(grown), pumpable_drops(grown)
        assert climbing_cycles(a) == {q: c for q, c in cycles.items() if q in a.states}, index
        assert pumpable_drops(a) == {q: d for q, d in drops.items() if q in a.states}, index
        witness = _decided_witness(a, src, trg)
        assert witness == _decided_witness(grown, src, trg), index
        seen["pumpable"] += bool(cycles)
        seen["witness"] += witness not in (None, "undecided")
    assert min(seen.values()) >= 40, seen
    # q climbs only by walks of 4 steps, twice its component's size.
    text = "trans q 0 r\ntrans r +1 r\ntrans r -2 q\n"
    for states in ("q r", "q r x y z"):
        cycles = climbing_cycles(parse_oca(f"states: {states}\n" + text))
        assert cycles == {"r": CanonicalCycle("r", (1,), 1, 0)}


class _CountingOut(dict):
    """An out-table that counts its lookups."""

    def __init__(self, table):
        super().__init__(table)
        self.reads = 0

    def __getitem__(self, state):
        self.reads += 1
        return super().__getitem__(state)


def _out_list_reads(tail: int) -> int:
    """Out-lists read by climbing_cycles on a 2-state +1 cycle that leads
    into a chain of ``tail`` states."""
    steps = ["trans c0 +1 c1", "trans c1 0 c0", "trans c1 0 t0"]
    steps += [f"trans t{i} 0 t{i + 1}" for i in range(tail - 1)]
    names = " ".join(f"t{i}" for i in range(tail))
    a = parse_oca(f"states: c0 c1 {names}\n" + "\n".join(steps) + "\n")
    out, blocked, pinned = a.step_table
    counting = _CountingOut(out)
    a.__dict__["step_table"] = (counting, blocked, pinned)
    assert list(climbing_cycles(a)) == ["c0", "c1"]
    return counting.reads


def test_cycle_search_stays_in_the_component():
    """No walk that leaves a state's component comes back, so the search
    reads no out-list beyond it, and lone tail states are not searched:
    the reads grow linearly with the tail, not with its square."""
    assert _out_list_reads(300) <= 3.5 * _out_list_reads(100)


# ------------------------------------------------------- pumpable region


def test_pumpable_region_goldens(loop3):
    assert in_pumpable_region(loop3, Config("q", 0))
    assert in_pumpable_region(loop3, Config("q", 1))
    assert not in_pumpable_region(loop3, Config("q", 5))  # fails its own test
    assert not in_pumpable_region(loop3, Config("q", -1))


def test_pumpable_region_respects_drop():
    a = parse_oca("states: a\ntrans a -2 a\ntrans a +3 a\n")
    assert climbing_cycles(a)["a"].drop == 0  # lone +3 loop climbs from 0
    b = parse_oca("states: a b\ntrans a -2 b\ntrans b +3 a\n")
    assert climbing_cycles(b)["a"].drop == 2
    assert not in_pumpable_region(b, Config("a", 1))
    assert in_pumpable_region(b, Config("a", 2))


# ------------------------------------------------------- chains


def test_loop3_chains_at_q_golden(loop3):
    expected = (
        Chain("q", 5, 0, 0),
        Chain("q", 5, 1, None),
        Chain("q", 5, 2, 12),
        Chain("q", 5, 3, 28),
        Chain("q", 5, 4, None),
        Chain("q", 5, 5, 5, invalid_anchor=True),
        Chain("q", 5, 10, None),
        Chain("q", 5, 17, None),
        Chain("q", 5, 33, None),
    )
    assert chains_at(loop3, "q") == expected
    bounded = [c for c in chains_at(loop3, "q") if c.last is not None]
    assert len(bounded) == 4


def test_loop3_chain_membership(loop3):
    assert chain_of(loop3, Config("q", 7)) == Chain("q", 5, 2, 12)
    assert chain_of(loop3, Config("q", 28)) == Chain("q", 5, 3, 28)
    assert chain_of(loop3, Config("q", 5)) == Chain("q", 5, 5, 5, invalid_anchor=True)
    assert chain_of(loop3, Config("q", 100)) == Chain("q", 5, 10, None)
    assert chain_of(loop3, Config("q", 1)) == Chain("q", 5, 1, None)
    # Residue 1 mod 5 at r has no blockers anywhere, so its chain starts
    # at the residue floor and runs forever.
    assert chain_of(loop3, Config("r", 31)) == Chain("r", 5, 1, None)


def test_chain_member_helpers():
    c = Chain("q", 5, 2, 12)
    assert c.member_count() == 3
    assert Chain("q", 5, 10, None).member_count() is None


def test_chains_cover_window_against_simulation():
    rng = random.Random(47)
    checked = 0
    while checked < 120:
        a = random_oca(rng, num_states=rng.randint(1, 4), max_update=3, max_guard=9)
        cycles = climbing_cycles(a)
        if not cycles:
            continue
        for q, cyc in cycles.items():
            window = cyc.drop + max(a.max_test, 1) + 4 * cyc.effect
            naive = naive_chain_partition(a, q, cyc.path, cyc.drop, window)
            for members, anchor, closed in naive:
                found = chain_of(a, Config(q, members[0]))
                assert found is not None
                assert found.first == members[0]
                assert found.invalid_anchor == anchor
                for z in members:
                    assert chain_of(a, Config(q, z)) == found
                if closed:
                    assert found.last == members[-1]
                else:
                    assert found.last is None or found.last > window
        checked += 1


def test_chains_at_matches_simulation():
    """Every chain chains_at lists, and no other, against direct simulation.

    Complete states are compared up to one period past the last listed
    first value, where every residue has reached its unbounded chain.
    Degenerate states list a finite prefix per residue, so each residue
    is compared up to the last chain listed in it.
    """
    rng = random.Random(53)
    degenerate = 0
    for fraction in (0.0, 0.4):
        checked = 0
        while checked < 150:
            a = random_oca(
                rng,
                num_states=rng.randint(1, 4),
                max_update=3,
                max_guard=9,
                equality_fraction=fraction,
            )
            cycles = climbing_cycles(a)
            if not cycles:
                continue
            checked += 1
            for q, cyc in cycles.items():
                g = cyc.effect
                listed = chains_at(a, q)
                residue = lambda first: (first - cyc.drop) % g
                complete = chain_enumeration_complete(a, q)
                degenerate += not complete
                if complete:
                    window = max(c.first for c in listed) + g
                    windows = dict.fromkeys(range(g), window)
                else:
                    windows = {}
                    for c in listed:
                        windows[residue(c.first)] = max(windows.get(residue(c.first), 0), c.last)
                    assert sorted(windows) == list(range(g)), (a, q)
                    window = max(windows.values())
                naive = naive_chain_partition(a, q, cyc.path, cyc.drop, window)
                expected = sorted(
                    (members[0], members[-1] if closed else None, anchor)
                    for members, anchor, closed in naive
                    if members[-1] <= windows[residue(members[0])]
                )
                got = sorted((c.first, c.last, c.invalid_anchor) for c in listed)
                assert got == expected, (a, q)
    assert degenerate >= 20, degenerate


def test_chain_of_matches_the_lap_walk():
    """The closed form against a lap-by-lap walk, at every value from
    the drop to three periods past ``drop + max_test``, on automata with
    disequality tests only and with equality tests too."""
    rng = random.Random(61)
    compared = degenerate = 0
    for fraction in (0.0, 0.4):
        for _ in range(1000):
            a = random_oca(
                rng,
                num_states=rng.randint(1, 4),
                max_update=4,
                max_guard=20,
                guard_density=0.7,
                equality_fraction=fraction,
            )
            for q, cyc in climbing_cycles(a).items():
                degenerate += not chain_enumeration_complete(a, q)
                if cyc.drop:
                    assert chain_of(a, Config(q, cyc.drop - 1)) is None
                for z in range(cyc.drop, cyc.drop + a.max_test + 3 * cyc.effect + 1):
                    chain = chain_of(a, Config(q, z))
                    got = (chain.first, chain.last, chain.invalid_anchor)
                    assert got == walked_chain(a, q, cyc.path, cyc.drop, z), (a, q, z)
                    compared += 1
    assert compared >= 40_000 and degenerate >= 300, (compared, degenerate)


def test_spans_one_chain_agrees_with_chain_of():
    """``low, ..., high`` lie on one chain exactly when the chain that
    :func:`chain_of` finds at ``low`` is read in closed form (its state
    is not degenerate), is no invalid anchor, has the period asked, and
    ends at or above ``high``: on random automata with != and == tests,
    at spans that fit, overrun, start below the drop or on a forbidden
    value, and with periods other than the cycle's."""
    rng = random.Random(3131)
    keys = ("spans", "overruns", "degenerate", "below", "anchor", "other")
    seen = dict.fromkeys(keys, 0)
    for _ in range(600):
        a = random_oca(
            rng,
            num_states=rng.randint(1, 4),
            max_update=4,
            max_guard=30,
            guard_density=0.7,
            equality_fraction=0.2,
        )
        for q, cyc in climbing_cycles(a).items():
            for _ in range(12):
                low = rng.randint(0, cyc.drop + a.max_test + 2 * cyc.effect)
                period = cyc.effect if rng.random() < 0.85 else rng.randint(1, 9)
                high = low + rng.randint(1, 8) * period
                chain = chain_of(a, Config(q, low))
                closed = chain_enumeration_complete(a, q)
                expected = (
                    chain is not None
                    and closed
                    and not chain.invalid_anchor
                    and chain.period == period
                    and (chain.last is None or chain.last >= high)
                )
                assert spans_one_chain(a, q, period, low, high) == expected, (format_oca(a), q, low, high)
                seen["spans"] += expected
                seen["overruns"] += closed and chain is not None and period == cyc.effect and not expected
                seen["degenerate"] += not closed
                seen["below"] += chain is None
                seen["anchor"] += chain is not None and chain.invalid_anchor
                seen["other"] += period != cyc.effect
    assert min(seen.values()) >= 20, seen


def _allows_per_chain_of(monkeypatch, k: int) -> list[int]:
    """``Guard.allows`` calls of one ``chain_of`` each on the README loop
    with its tests scaled by k: inside q's first chain, 0 .. 5k - 5, at
    its top, at 5k, which q's test forbids, and twice on the unbounded
    chain above."""
    a = parse_oca(
        f"states: q r s\nguard q != {5 * k}\nguard r != {30 * k}\n"
        f"guard s != {15 * k}\ntrans q +2 r\ntrans r +1 s\ntrans s +2 q\n"
    )
    assert chain_of(a, Config("q", 0)) == Chain("q", 5, 0, 5 * k - 5)
    calls = []
    allows = automaton.Guard.allows

    def counted(guard, value):
        calls[-1] += 1
        return allows(guard, value)

    monkeypatch.setattr(automaton.Guard, "allows", counted)
    for z in (5 * (k // 2), 5 * k - 5, 5 * k, 5 * k + 5, 100 * k):
        calls.append(0)
        chain_of(a, Config("q", z))
    monkeypatch.undo()
    return calls


def test_chain_of_asks_a_test_count_independent_of_chain_length(monkeypatch):
    short = _allows_per_chain_of(monkeypatch, 200)
    assert short == _allows_per_chain_of(monkeypatch, 20_000)
    assert max(short) <= 1, short


def test_degenerate_chains_with_equality_test():
    a = parse_oca("states: a b\nguard b == 3\ntrans a +1 b\ntrans b +1 a\n")
    assert not chain_enumeration_complete(a, "a")
    listed = chains_at(a, "a")
    assert Chain("a", 2, 2, 4) in listed  # 2 -> 4 passes b exactly at 3
    assert Chain("a", 2, 0, 0) in listed
    assert chain_of(a, Config("a", 6)) == Chain("a", 2, 6, 6)
    assert chain_of(a, Config("a", 3)) == Chain("a", 2, 3, 3)


# ------------------------------------------------------- unbounded chains


def test_climbs_forever_loop3(loop3):
    """q's residue classes 1 and 4 mod 5 hold no blocked value, so they
    climb forever from their first value; the others from one period
    past their greatest blocked value, 5, 12 and 28.  Every value from
    29 on climbs, as the greatest blocked value of all says."""
    climbs = climbs_forever(loop3, "q")
    firsts = {1: 1, 4: 4, 0: 10, 2: 17, 3: 33}  # per class, as chains_at lists them
    assert [v for v in range(35) if climbs(v)] == [v for v in range(35) if v >= firsts[v % 5]]
    assert all(climbs(v) for v in range(29, 300))
    assert not climbs(28) and not climbs(13)


def test_climbs_forever_reuses_an_equality_free_automaton(monkeypatch):
    """Without equality tests the restriction to the other states is the
    automaton itself: no copy is built, and its cycles are analyzed once."""
    a = parse_oca(FIG_LOOP)
    seen = []
    real = analysis.climbing_cycles

    def recorded(b):
        seen.append(b)
        return real(b)

    monkeypatch.setattr(analysis, "climbing_cycles", recorded)
    assert all(climbs_forever(a, q) is not None for q in a.states)
    assert restrict.__wrapped__ not in a.memo
    assert seen and all(b is a for b in seen)
    assert real.__wrapped__ in a.memo


def test_climbs_forever_skips_equality_cycles():
    a = parse_oca("states: a b\nguard b == 3\ntrans a +1 b\ntrans b +1 a\n")
    # The only cycle passes the equality test: nothing climbs for sure.
    assert climbs_forever(a, "a") is None and climbs_forever(a, "b") is None
    b = parse_oca("states: a b\nguard b == 3\ntrans a +1 b\ntrans b +1 a\ntrans a +2 a\n")
    # The self-loop avoids b entirely.
    assert climbs_forever(b, "a") is not None and climbs_forever(b, "b") is None


def test_climbs_forever_matches_the_chain_tables():
    """Without equality tests the predicate is ``chain_of``'s unbounded
    chains at every valid value up to ``max_test + 3 * max_update``.
    With them, every value it says climbs forever keeps growing in a
    naive closure past 60 above it."""
    rng = random.Random(67)
    compared = confirmed = 0
    for fraction in (0.0, 0.4):
        for _ in range(400):
            a = random_oca(
                rng,
                num_states=rng.randint(1, 4),
                max_update=4,
                max_guard=20,
                guard_density=0.7,
                equality_fraction=fraction,
            )
            for q in a.states:
                climbs = climbs_forever(a, q)
                if not fraction:
                    assert (climbs is None) == (q not in climbing_cycles(a)), (a, q)
                if climbs is None:
                    continue
                for v in range(a.max_test + 3 * a.max_update + 1):
                    c = Config(q, v)
                    if not a.is_valid(c):
                        continue
                    if not fraction:
                        chain = chain_of(a, c)
                        assert climbs(v) == (chain is not None and chain.last is None), (a, c)
                        compared += 1
                    elif climbs(v):
                        assert naive_post_star(a, c, value_bound=v + 60)[1], (a, c)
                        confirmed += a.has_equality_tests()
    assert compared >= 8_000 and confirmed >= 1_000, (compared, confirmed)


# ------------------------------------------------------- report


def test_structure_report_deterministic(loop3):
    text = structure_report(loop3)
    assert text == structure_report(loop3)
    assert "q: cycle [0 1 2]  effect +5  drop 0" in text
    assert "[3 .. 28]  bounded (6 members)" in text
    assert "[5]  forbidden anchor" in text


def test_structure_report_no_pumpable():
    a = parse_oca("states: a b\ntrans a +1 b\n")
    text = structure_report(a)
    assert "(none)" in text
