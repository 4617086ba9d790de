import random
from collections import Counter

import pytest

from ocareach.analysis import in_pumpable_region
from ocareach.automaton import Config, apply_path, format_oca, parse_oca, path_configs
from ocareach.exploration import is_locally_bounded
from ocareach.flows import Flow, flow_has_positive_cycle, flow_of_path
from ocareach.pessimistic import (
    PessimisticCertificate,
    decide_pessimistic_reach,
    format_certificate,
    make_certificate,
    parse_certificate,
    pessimistic_post_star,
    verify_pessimistic_certificate,
)

from _oracles import naive_climbing_cycle, naive_successors, parent_run, sorted_bfs
from conftest import random_oca


def naive_drops(a):
    """Each pumpable state's least drop, from exhaustive cycles."""
    drops = {}
    for q in a.states:
        found = naive_climbing_cycle(a, q)
        if found is not None:
            drops[q] = found[2]
    return drops


def brute_pessimistic(a, roots, locally_bounded=False):
    """Independent closure: pumpable region derived from exhaustive cycles."""
    drops = naive_drops(a)

    def pumpable(c):
        return c.state in drops and c.value >= drops[c.state]

    seen = set()
    queue = []
    for c in roots:
        if locally_bounded and not is_locally_bounded(a, c):
            continue
        seen.add(c)
        queue.append(c)
    while queue:
        cur = queue.pop()
        for nxt, _ in naive_successors(a, cur):
            if nxt in seen or pumpable(nxt):
                continue
            if locally_bounded and not is_locally_bounded(a, nxt):
                continue
            seen.add(nxt)
            queue.append(nxt)
    return seen


# ---------------------------------------------------------------- closures


def test_post_star_loop3_collapses(loop3):
    assert pessimistic_post_star(loop3, [Config("q", 0)]) == {Config("q", 0)}


def test_post_star_trivialities(loop3):
    assert pessimistic_post_star(loop3, []) == set()
    s = [Config("q", 0), Config("r", 31)]
    assert set(s) <= pessimistic_post_star(loop3, s)


def test_post_star_rejects_invalid_root(loop3):
    with pytest.raises(ValueError):
        pessimistic_post_star(loop3, [Config("q", 5)])


def test_locally_bounded_mode_drops_unbounded_root():
    a = parse_oca("states: a\ntrans a +1 a\n")
    assert pessimistic_post_star(a, [Config("a", 0)]) == {Config("a", 0)}
    assert pessimistic_post_star(a, [Config("a", 0)], locally_bounded=True) == set()


def test_closures_match_brute_force():
    rng = random.Random(404)
    for _ in range(120):
        a = random_oca(
            rng,
            num_states=rng.randint(1, 4),
            max_update=2,
            max_guard=6,
            equality_fraction=0.2,
        )
        roots = []
        for _ in range(2):
            c = Config(rng.choice(a.states), rng.randint(0, 5))
            if a.is_valid(c):
                roots.append(c)
        for flag in (False, True):
            got = pessimistic_post_star(a, roots, locally_bounded=flag)
            assert got == brute_pessimistic(a, roots, locally_bounded=flag)


def test_decide_returns_the_sorted_bfs_run():
    """The run is the one a level-sorted search finds that refuses every
    pumpable configuration but the source, up to the closure's ceiling;
    the search that ends at the target's level keeps it."""
    rng = random.Random(406)
    seen = Counter()
    while min(seen[k] for k in ("reachable", "unreachable", "pumpable", "long")) < 40:
        a = random_oca(
            rng,
            num_states=rng.randint(1, 5),
            max_update=2,
            max_guard=6,
            equality_fraction=0.2,
        )
        src = Config(rng.choice(a.states), rng.randint(0, 5))
        if not a.is_valid(src):
            continue
        drops = naive_drops(a)

        def keep(q):
            if q not in drops:
                return None
            return lambda v: v < drops[q] or (q, v) == src

        ceiling = src.value + (len(a.states) - 1) * a.max_update
        parents, hit = sorted_bfs(a, [src], ceiling, keep)
        assert not hit, format_oca(a)
        pool = [Config(q, v) for q in a.states for v in range(ceiling + 2) if a.is_valid(Config(q, v))]
        trg = rng.choice(sorted(parents) if rng.random() < 0.5 else pool)
        expected = parent_run(parents, trg) if trg in parents else None
        assert decide_pessimistic_reach(a, src, trg) == expected, (format_oca(a), src, trg)
        seen["reachable" if expected is not None else "unreachable"] += 1
        seen["pumpable"] += bool(drops)
        seen["long"] += expected is not None and len(expected) > 2


def test_value_bound_holds_everywhere():
    rng = random.Random(405)
    for _ in range(80):
        a = random_oca(rng, num_states=rng.randint(1, 5), max_update=3, max_guard=8)
        c = Config(rng.choice(a.states), rng.randint(0, 6))
        if not a.is_valid(c):
            continue
        ceiling = c.value + (len(a.states) - 1) * a.max_update
        for d in pessimistic_post_star(a, [c]):
            assert d.value <= ceiling


# ---------------------------------------------------------------- decision


def test_decide_goldens(loop3):
    assert decide_pessimistic_reach(loop3, Config("q", 0), Config("q", 0)) == ()
    assert decide_pessimistic_reach(loop3, Config("q", 0), Config("r", 2)) is None
    a = parse_oca("states: p q\ntrans p -1 q\n")
    assert decide_pessimistic_reach(a, Config("p", 3), Config("q", 2)) == (0,)
    # q != 5: either endpoint failing its test is an error, not an answer.
    for src, trg in [(Config("q", 0), Config("q", 5)), (Config("q", 5), Config("q", 0))]:
        with pytest.raises(ValueError):
            decide_pessimistic_reach(loop3, src, trg)


def test_decide_runs_are_pessimistic_and_replay():
    rng = random.Random(406)
    hits = 0
    while hits < 60:
        a = random_oca(
            rng,
            num_states=rng.randint(1, 4),
            max_update=2,
            max_guard=6,
            equality_fraction=0.2,
        )
        src = Config(rng.choice(a.states), rng.randint(0, 4))
        trg = Config(rng.choice(a.states), rng.randint(0, 6))
        if not (a.is_valid(src) and a.is_valid(trg)):
            continue
        run = decide_pessimistic_reach(a, src, trg)
        if run is None:
            assert trg not in brute_pessimistic(a, [src])
            continue
        configs = path_configs(a, src, run)
        assert configs[-1] == trg
        assert all(not in_pumpable_region(a, c) for c in configs[1:])
        hits += 1


# ------------------------------------------------------------- certificates


def cross_instance():
    a = parse_oca("states: a b\nguard a != 3\ntrans a -2 a\ntrans a +0 b\n")
    run = decide_pessimistic_reach(a, Config("a", 6), Config("b", 0))
    assert run is not None
    return a, Config("a", 6), Config("b", 0), run


def test_certificate_round_trip_with_crossing():
    a, src, trg, run = cross_instance()
    cert = make_certificate(a, src, run)
    assert cert.crossings and cert.crossings[0][0] == "a"
    res = verify_pessimistic_certificate(a, src, trg, cert)
    assert res.verified, res.condition
    assert apply_path(a, src, res.run) == trg


def test_certificate_empty_run(loop3):
    src = Config("q", 0)
    cert = make_certificate(loop3, src, ())
    assert cert.decomposition == ()
    assert cert.waypoints == (src,)
    res = verify_pessimistic_certificate(loop3, src, src, cert)
    assert res.verified and res.run == ()


def test_certificate_mutations_are_refuted():
    a, src, trg, run = cross_instance()
    cert = make_certificate(a, src, run)

    no_cross = PessimisticCertificate(
        cert.flow, cert.decomposition, cert.waypoints, ()
    )
    assert verify_pessimistic_certificate(a, src, trg, no_cross).condition == (
        "crossing-missing"
    )

    wp = list(cert.waypoints)
    wp[1] = Config(wp[1].state, wp[1].value + 1)
    bad_chain = PessimisticCertificate(
        cert.flow, cert.decomposition, tuple(wp), cert.crossings
    )
    assert verify_pessimistic_certificate(a, src, trg, bad_chain).condition == (
        "effect-chain"
    )

    short = PessimisticCertificate(
        cert.flow, cert.decomposition[:-1], cert.waypoints, cert.crossings
    )
    assert verify_pessimistic_certificate(a, src, trg, short).condition == "shape"

    wrong_end = verify_pessimistic_certificate(a, src, Config("b", 5), cert)
    assert wrong_end.condition == "endpoint"


def test_certificate_guard_hit_refuted():
    a = parse_oca("states: a b\nguard a != 3\ntrans a -2 a\ntrans a +0 b\n")
    # Hand-build waypoints that sit exactly on the guard.
    src, trg = Config("a", 5), Config("b", 3)
    run = (0, 1)
    with pytest.raises(Exception):
        apply_path(a, src, run)  # 5 -> 3 hits the guard, not a real run
    flow = flow_of_path(a, "a", run)
    cert = PessimisticCertificate(
        flow,
        (flow_of_path(a, "a", (0,)), flow_of_path(a, "a", (1,))),
        (src, Config("a", 3), trg),
        (),
    )
    res = verify_pessimistic_certificate(a, src, trg, cert)
    assert res.condition == "waypoint-guard"


def test_certificate_positive_cycle_refuted():
    a = parse_oca("states: a\ntrans a +1 a\ntrans a -2 a\n")
    # Flow with a positive cycle: +1 twice, -2 once, net 0 back to a.
    flow = Flow.make({0: 2, 1: 1}, "a", "a")
    cert = PessimisticCertificate(
        flow, (flow,), (Config("a", 5), Config("a", 5)), ()
    )
    res = verify_pessimistic_certificate(a, Config("a", 5), Config("a", 5), cert)
    assert res.condition == "no-positive-cycle"


def test_certificate_decomposition_sum_checked():
    a, src, trg, run = cross_instance()
    cert = make_certificate(a, src, run)
    # A perfectly valid flow for the same endpoints, just not the one the
    # segments add up to.
    other = Flow.make(Counter({0: 1, 1: 1}), cert.flow.start, cert.flow.end)
    assert other != cert.flow
    bad = PessimisticCertificate(other, cert.decomposition, cert.waypoints, cert.crossings)
    res = verify_pessimistic_certificate(a, src, trg, bad)
    assert res.condition == "decomposition-sum"


# Hand-built certificates, one per refutation site that certificates
# made by make_certificate never reach.  Each row: the condition, the
# automaton (transitions listed as "src update dst"), the waypoints, and
# each segment as a list of transition indices (its endpoints are the
# waypoints around it).  The whole flow is the segments' sum unless the
# row overrides it; "crossings" defaults to none, and a record names x
# unless it names its state first.
_DOWN = "x -1 y, y -1 x, x -2 x"  # t0 leaves x, t1 returns, t2 loops
REFUTATIONS = [
    # More segments than 4 * |Q| + 1.
    ("waypoint-count", "a -1 a", "a:6 a:5 a:4 a:3 a:2 a:1 a:0", [[0]] * 6, {}),
    # The flow itself breaks a flow condition (unbalanced at a).
    ("flow", "a -1 b", "a:1 b:0", [[0]], {"flow": ({0: 2}, "a", "b")}),
    # A valid flow between the wrong states.
    ("endpoint", "a -1 b", "a:0", [], {"flow": ({}, "b", "b")}),
    ("segment-endpoints", "a -1 b", "a:1 b:0", [[0]], {"starts": ["b"]}),
    # A zero segment between two different states is unbalanced.
    ("segment-flow", "a -1 b", "a:1 b:0", [[]], {"flow": ({0: 1}, "a", "b")}),
    ("waypoint-negative", "a -2 b, b +2 c", "a:1 b:-1 c:1", [[0], [1]], {}),
    # b is visited but never a waypoint.
    ("support-covered", "a -1 b, b -1 c", "a:2 c:0", [[0, 1]], {}),
    # The segment after a's last waypoint comes back to a ...
    ("last-occurrence", "a -1 a, a -1 b", "a:3 b:1", [[0, 1]], {}),
    # ... or a later segment passes through a.
    ("last-occurrence", "a -1 b, b -1 a, a -1 c", "a:5 b:4 c:2", [[0], [1, 2]], {}),
    # The segment before b's first waypoint was in b already ...
    ("first-occurrence", "a -1 b, b -1 b", "a:5 b:3", [[0, 1]], {}),
    # ... or an earlier segment passes through c.
    ("first-occurrence", "a -1 c, c -1 b, b -1 c", "a:5 b:3 c:2", [[0, 1], [2]], {}),
    # Two records for one state.
    ("crossing-malformed", "x -2 x", "x:7 x:3", [[0, 0]], {"crossings": [(0, 1), (0, 1)]}),
    # A record for a state without a disequality test.
    ("crossing-malformed", "x -2 x", "x:7 x:3", [[0, 0]], {"guard": "", "crossings": [(0, 1)]}),
    # Occurrences 0 and 2 of x are not consecutive.
    ("crossing-malformed", "x -2 x", "x:9 x:7 x:3", [[0], [0, 0]], {"crossings": [(0, 2)]}),
    # 9 and 7 do not straddle the test value 5.
    ("crossing-malformed", "x -2 x", "x:9 x:7", [[0]], {"crossings": [(0, 1)]}),
    # Adjacent occurrences, but the segment loops at x twice (through x:5).
    ("crossing-confinement", "x -2 x", "x:7 x:3", [[0, 0]], {"crossings": [(0, 1)]}),
    # The segment leaving x's upper occurrence comes back to x first ...
    ("crossing-confinement", _DOWN, "x:8 y:5 x:4", [[2, 0], [1]], {"crossings": [(0, 2)]}),
    # ... the one entering its lower occurrence leaves x again ...
    ("crossing-confinement", _DOWN, "x:8 y:7 x:4", [[0], [1, 2]], {"crossings": [(0, 2)]}),
    # ... or a segment in between passes through x.
    (
        "crossing-confinement",
        "x -1 y, y -1 x, x -1 z, z -2 x",
        "x:9 y:8 z:6 x:4",
        [[0], [1, 2], [3]],
        {"crossings": [(0, 3)]},
    ),
    # A record for a state the automaton does not declare.
    ("crossing-malformed", "x -2 x", "x:7 x:3", [[0, 0]], {"crossings": [("zz", 0, 1)]}),
]


@pytest.mark.parametrize(
    "condition, transitions, waypoints, segments, extra",
    REFUTATIONS,
    ids=[f"{row[0]}-{k}" for k, row in enumerate(REFUTATIONS)],
)
def test_hand_built_certificate_refutations(condition, transitions, waypoints, segments, extra):
    steps = [t.split() for t in transitions.split(", ")]
    names = sorted({w for src, _, dst in steps for w in (src, dst)})
    guard = extra.get("guard", "guard x != 5\n" if "x" in names else "")
    a = parse_oca(
        f"states: {' '.join(names)}\n{guard}"
        + "".join(f"trans {src} {upd} {dst}\n" for src, upd, dst in steps)
    )
    wp = tuple(Config(w.split(":")[0], int(w.split(":")[1])) for w in waypoints.split())
    starts = extra.get("starts", [c.state for c in wp])
    decomposition = tuple(
        Flow.make(Counter(seg), starts[k], wp[k + 1].state) for k, seg in enumerate(segments)
    )
    if "flow" in extra:
        counts, start, end = extra["flow"]
        flow = Flow.make(counts, start, end)
    else:
        flow = Flow.make(Counter(i for seg in segments for i in seg), wp[0].state, wp[-1].state)
    crossings = tuple(c if len(c) == 3 else ("x", *c) for c in extra.get("crossings", ()))
    cert = PessimisticCertificate(flow, decomposition, wp, crossings)
    res = verify_pessimistic_certificate(a, wp[0], wp[-1], cert)
    assert not res.verified
    assert res.condition == condition


def test_make_certificate_rejects_climbing_run():
    a = parse_oca("states: a\ntrans a +1 a\ntrans a -1 a\n")
    with pytest.raises(ValueError):
        make_certificate(a, Config("a", 0), (0, 0, 1))


def test_certificates_across_corpus():
    rng = random.Random(407)
    verified = 0
    while verified < 80:
        a = random_oca(
            rng,
            num_states=rng.randint(1, 4),
            max_update=3,
            max_guard=9,
            equality_fraction=0.15,
        )
        src = Config(rng.choice(a.states), rng.randint(0, 6))
        trg = Config(rng.choice(a.states), rng.randint(0, 8))
        if not (a.is_valid(src) and a.is_valid(trg)):
            continue
        run = decide_pessimistic_reach(a, src, trg)
        if run is None:
            continue
        cert = make_certificate(a, src, run)
        assert not flow_has_positive_cycle(a, cert.flow)
        res = verify_pessimistic_certificate(a, src, trg, cert)
        assert res.verified, (a.states, src, trg, res.condition)
        assert apply_path(a, src, res.run) == trg
        verified += 1


def test_certificate_file_round_trip():
    a, src, trg, run = cross_instance()
    cert = make_certificate(a, src, run)
    text = format_certificate(src, trg, cert)
    assert text.splitlines()[0] == "CERT"
    src2, trg2, cert2 = parse_certificate(text)
    assert (src2, trg2, cert2) == (src, trg, cert)
    assert verify_pessimistic_certificate(a, src2, trg2, cert2).verified


def test_certificate_parser_rejects_garbage():
    with pytest.raises(ValueError):
        parse_certificate("WITNESS\n")
    with pytest.raises(ValueError):
        parse_certificate("CERT\nsrc a:0\n")
    with pytest.raises(ValueError):
        parse_certificate("CERT\nsrc a:0\ntrg b:1\nflow a b\nwibble\n")
