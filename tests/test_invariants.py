import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from ocareach import exploration, invariants
from ocareach.analysis import climbing_cycles, in_pumpable_region, pumpable_drops
from ocareach.automaton import (
    OCA,
    Config,
    Guard,
    InternalError,
    Transition,
    parse_oca,
    path_configs,
    reverse,
    valid_steps,
)
from ocareach.exploration import ResourceExceeded, is_bounded, is_locally_bounded, reach_oracle
from ocareach.invariants import (
    APSet,
    NonReachabilityWitness,
    Progression,
    check_ap_domain,
    check_inductive,
    check_separator,
    format_witness,
    normalize_endpoints,
    parse_witness,
    perfect_cores,
    synthesize_witness,
    verify_witness,
    _compress_core,
)
from ocareach.solver import decide_full

from ocareach.pessimistic import pessimistic_post_star
from ocareach.values import iterate, of

from _oracles import (
    ap_members,
    naive_first_step,
    naive_reach,
    naive_successors,
    probe_automaton,
    reference_closures,
    reference_crossing,
)
from conftest import random_oca


def normalize(a, src, trg):
    """Endpoint gadget: makes src pumpable+locally bounded, trg likewise
    in reverse, preserving reachability between the new endpoints."""
    sp, tp = "src'", "trg'"
    while sp in a.states:
        sp += "'"
    while tp in a.states or tp == sp:
        tp += "'"
    trans = a.transitions + (
        Transition(sp, 0, src.state),
        Transition(sp, 1, sp),
        Transition(trg.state, 0, tp),
        Transition(tp, -1, tp),
    )
    guards = dict(a.guards)
    guards[sp] = Guard("ne", src.value + 1)
    guards[tp] = Guard("ne", trg.value + 1)
    b = OCA(a.states + (sp, tp), trans, guards)
    return b, Config(sp, src.value), Config(tp, trg.value)


def blocked_pair():
    # pp climbs but is fenced at 4; t's guard is harmless; tp only descends.
    a = parse_oca(
        "states: pp p t tp\n"
        "guard pp != 4\nguard t != 2\nguard tp != 8\n"
        "trans pp +1 pp\ntrans pp +0 p\ntrans p +1 t\n"
        "trans t +0 tp\ntrans tp -1 tp\n"
    )
    return a, Config("pp", 3), Config("tp", 7)


def crossing_pair():
    # Same shape without the middle; trg actually reachable.
    a = parse_oca(
        "states: pp tp\nguard pp != 4\nguard tp != 8\n"
        "trans pp +1 pp\ntrans pp +0 tp\ntrans tp -1 tp\n"
    )
    return a, Config("pp", 3), Config("tp", 2)


# ---------------------------------------------------------------- types & io


def test_progression_arithmetic():
    p = Progression("q", 3, 5, 4, 30)
    assert p.min_value() == 8
    assert p.max_value() == 28
    assert list(p.values()) == [8, 13, 18, 23, 28]
    assert p.contains(Config("q", 13))
    assert not p.contains(Config("q", 12))
    assert not p.contains(Config("r", 13))
    empty = Progression("q", 0, 7, 3, 6)
    assert empty.min_value() is None
    assert list(empty.values()) == []


def test_progression_validation():
    with pytest.raises(ValueError):
        Progression("q", 0, 0, 0, 5)
    with pytest.raises(ValueError):
        Progression("q", 0, 1, -1, 5)


def test_apset_members_dedupe():
    aps = APSet(
        (
            Progression("q", 0, 2, 0, 4),
            Progression("q", 0, 1, 0, 1),
        )
    )
    assert sorted(c.value for c in ap_members(aps)) == [0, 1, 2, 4]
    assert aps.contains(Config("q", 1))
    assert not aps.contains(Config("q", 3))


def test_witness_file_round_trip():
    w = NonReachabilityWitness(
        APSet((Progression("q", 3, 5, 3, 28), Progression("q", 0, 5, 0, 0))),
        APSet((Progression("r", 1, 5, 1, 31),)),
    )
    text = format_witness(w, normalized=True)
    assert text.splitlines()[0] == "WITNESS"
    w2, normalized = parse_witness(text)
    assert w2 == w and normalized is True
    w3, normalized = parse_witness("WITNESS\nI q 5 3 3 28\n")
    assert normalized is False
    assert w3.fwd.progressions[0] == Progression("q", 3, 5, 3, 28)
    assert w3.bwd.progressions == ()


def test_witness_parse_rejections():
    with pytest.raises(ValueError):
        parse_witness("RUN\n")
    with pytest.raises(ValueError):
        parse_witness("WITNESS\nnormalized maybe\n")
    with pytest.raises(ValueError):
        parse_witness("WITNESS\nK q 1 0 0 5\n")
    with pytest.raises(ValueError):
        parse_witness("WITNESS\nI q 1 0 0\n")
    with pytest.raises(ValueError):
        parse_witness("WITNESS\nI q one 0 0 5\n")


# ------------------------------------------------------------- perfect cores


def test_perfect_cores_golden():
    a, src, trg = blocked_pair()
    fwd, bwd = perfect_cores(a, src, trg)
    assert fwd == APSet((Progression("pp", 3, 1, 3, 3),))
    assert bwd == APSet((Progression("tp", 7, 1, 7, 7),))


def test_perfect_cores_preconditions():
    a, src, trg = blocked_pair()
    with pytest.raises(ValueError):
        perfect_cores(a, Config("p", 3), trg)  # p has no climbing cycle
    eq = parse_oca("states: a\nguard a == 1\ntrans a +1 a\n")
    with pytest.raises(ValueError):
        perfect_cores(eq, Config("a", 1), Config("a", 1))


def test_compress_requires_chain_suffixes():
    a, src, trg = blocked_pair()
    # {(pp, 3)} is the true suffix of its chain; a gap below the top is not.
    fenced = parse_oca("states: pp\nguard pp != 4\ntrans pp +1 pp\n")
    with pytest.raises(InternalError):
        _compress_core(fenced, {"pp": of([1, 3])})
    with pytest.raises(InternalError):
        _compress_core(fenced, {"pp": of([5])})  # unbounded chain


# ------------------------------------------------------------ verify_witness


def test_verify_synthesized_witness():
    a, src, trg = blocked_pair()
    w = synthesize_witness(a, src, trg)
    assert w is not None
    assert verify_witness(a, src, trg, w).verified


def test_verify_refuses_equal_endpoints():
    a, src, _ = blocked_pair()
    w = NonReachabilityWitness(APSet(()), APSet(()))
    assert verify_witness(a, src, src, w).reason == "trivial"


def test_verify_membership_reasons():
    a, src, trg = blocked_pair()
    w = synthesize_witness(a, src, trg)
    hollow = NonReachabilityWitness(APSet(()), w.bwd)
    assert verify_witness(a, src, trg, hollow).reason == "src-membership"
    hollow = NonReachabilityWitness(w.fwd, APSet(()))
    assert verify_witness(a, src, trg, hollow).reason == "trg-membership"


def test_verify_size_and_value_bounds():
    a, src, trg = blocked_pair()
    w = synthesize_witness(a, src, trg)
    parts = tuple(Progression("pp", 3, 1, 3, 3) for _ in range(2 * len(a.states) ** 2 + 2))
    assert verify_witness(a, src, trg, NonReachabilityWitness(APSet(parts), w.bwd)).reason == "size"
    high = Progression("pp", 2000, 1, 2000, 2001)
    got = verify_witness(a, src, trg, NonReachabilityWitness(APSet(w.fwd.progressions + (high,)), w.bwd))
    assert got.reason == "value-bound"
    # A singleton exactly at an endpoint is the one slot allowed past the bound.
    lifted_src = Config("pp", 2000)
    got = verify_witness(
        a,
        lifted_src,
        trg,
        NonReachabilityWitness(APSet((Progression("pp", 2000, 1, 2000, 2000),)), w.bwd),
    )
    assert got.reason != "value-bound"


# The README loop with its tests scaled by a million: a progression of
# 200,001 members from q:0 passes the size and value-bound checks.
BIG_LOOP = """states: q r s
guard q != 5000000
guard r != 30000000
guard s != 15000000
trans q +2 r
trans r +1 s
trans s +2 q
"""


def test_oversized_witness_is_refused_before_any_member_work(monkeypatch):
    def no_member_work(*args):
        raise AssertionError("member checked before the size cap")

    monkeypatch.setattr(invariants, "is_locally_bounded", no_member_work)
    a = parse_oca(BIG_LOOP)
    src, trg = Config("q", 0), Config("q", 5_000_005)
    fwd = APSet((Progression("q", 0, 5, 0, 1_000_000),))
    bwd = APSet((Progression("q", 0, 5, 5_000_005, 5_000_005),))
    assert sum(a.is_valid(c) for c in ap_members(fwd)) == 200_001
    with pytest.raises(ResourceExceeded):
        verify_witness(a, src, trg, NonReachabilityWitness(fwd, bwd))


def test_verify_malformed_progression():
    a, src, trg = blocked_pair()
    w = synthesize_witness(a, src, trg)
    empty = Progression("pp", 0, 7, 3, 6)
    got = verify_witness(a, src, trg, NonReachabilityWitness(APSet((empty,)), w.bwd))
    assert got.reason == "malformed"


def test_verify_domain_reasons():
    a, src, trg = blocked_pair()
    w = synthesize_witness(a, src, trg)
    hits_guard = Progression("pp", 3, 1, 3, 4)  # (pp, 4) violates its own test
    got = verify_witness(a, src, trg, NonReachabilityWitness(APSet((hits_guard,)), w.bwd))
    assert got.reason == "domain" and got.detail[2].condition == "invalid-member"
    off_region = Progression("t", 3, 1, 3, 3)  # t has no climbing cycle
    got = verify_witness(
        a, src, trg, NonReachabilityWitness(APSet(w.fwd.progressions + (off_region,)), w.bwd)
    )
    assert got.reason == "domain" and got.detail[2].condition == "outside-pumpable"
    runaway = Progression("pp", 5, 1, 5, 7)  # above the fence, climbs forever
    got = verify_witness(
        a, src, trg, NonReachabilityWitness(APSet(w.fwd.progressions + (runaway,)), w.bwd)
    )
    assert got.reason == "domain" and got.detail[2].condition == "locally-unbounded"


def widened_pair():
    # blocked_pair with the fence at 6, so the source chain has three members.
    a = parse_oca(
        "states: pp p t tp\n"
        "guard pp != 6\nguard t != 2\nguard tp != 8\n"
        "trans pp +1 pp\ntrans pp +0 p\ntrans p +1 t\n"
        "trans t +0 tp\ntrans tp -1 tp\n"
    )
    return a, Config("pp", 3), Config("tp", 7)


def test_verify_inductive_escape():
    # Dropping the upper two members of the source chain leaves a hole one
    # pessimistic step wide.
    a, src, trg = widened_pair()
    w = synthesize_witness(a, src, trg)
    assert w is not None
    assert w.fwd == APSet((Progression("pp", 3, 1, 3, 5),))
    clipped = NonReachabilityWitness(APSet((Progression("pp", 3, 1, 3, 3),)), w.bwd)
    got = verify_witness(a, src, trg, clipped)
    assert got.reason == "inductive"
    side, (c, i, d) = got.detail
    assert side == "forward"
    assert path_configs(a, c, (i,)) == [c, d]
    assert d == Config("pp", 4)


def test_verify_separator_violation():
    a, src, trg = crossing_pair()
    fwd, bwd = perfect_cores(a, src, trg)
    got = verify_witness(a, src, trg, NonReachabilityWitness(fwd, bwd))
    assert got.reason == "separator"
    assert got.detail[0] == "Sep1"
    c, i, d = got.detail[1]
    assert path_configs(a, c, (i,)) == [c, d]


def test_check_inductive_vacuous():
    a, _, _ = blocked_pair()
    w = NonReachabilityWitness(APSet(()), APSet(()))
    assert check_inductive(a, w)[0].holds


def test_check_inductive_rejects_an_invalid_core_member():
    a, _, _ = blocked_pair()  # pp != 4 and tp != 8
    none = APSet(())
    for w in (
        NonReachabilityWitness(APSet((Progression("pp", 4, 1, 4, 4),)), none),
        NonReachabilityWitness(none, APSet((Progression("tp", 8, 1, 8, 8),))),
    ):
        with pytest.raises(ValueError):
            check_inductive(a, w)


def test_verify_witness_calls_its_public_stages(monkeypatch):
    """verify_witness reaches its stages through the module globals that
    the benchmark tracer wraps, and stops at the first stage that fails."""
    a, src, trg = widened_pair()
    w = synthesize_witness(a, src, trg)
    assert w is not None
    clipped = NonReachabilityWitness(APSet((Progression("pp", 3, 1, 3, 3),)), w.bwd)
    calls: dict[str, int] = {}
    for name in ("check_ap_domain", "check_inductive", "check_separator"):

        def counted(*args, _name=name, _real=getattr(invariants, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args)

        monkeypatch.setattr(invariants, name, counted)

    assert verify_witness(a, src, trg, w).verified
    progressions = len(w.fwd.progressions) + len(w.bwd.progressions)
    assert calls == {"check_ap_domain": progressions, "check_inductive": 1, "check_separator": 1}
    calls.clear()
    assert verify_witness(a, src, trg, clipped).reason == "inductive"
    assert calls == {"check_ap_domain": 1 + len(w.bwd.progressions), "check_inductive": 1}


# ------------------------------------------------------------ ap domain


def test_ap_domain_golden():
    a, _, _ = blocked_pair()
    assert check_ap_domain(a, Progression("pp", 3, 1, 3, 3)).holds
    got = check_ap_domain(a, Progression("nowhere", 0, 1, 0, 0))
    assert got.condition == "malformed"
    got = check_ap_domain(a, Progression("pp", 5, 1, 5, 7))
    assert got.condition == "locally-unbounded" and got.detail == Config("pp", 5)


def test_ap_domain_dual_paths_agree():
    # The member-by-member scan in check_ap_domain against one probe
    # automaton that feeds every member into the state's component.
    rng = random.Random(2024)
    compared = 0
    for _ in range(3000):
        a = random_oca(rng, num_states=rng.randint(1, 4), max_update=3, max_guard=8)
        st = rng.choice(a.states)
        lo = rng.randint(0, 8)
        p = Progression(st, lo, rng.randint(1, 3), lo, lo + rng.randint(0, 8))
        res = check_ap_domain(a, p)
        if res.condition not in (None, "locally-unbounded"):
            continue
        gadget, probe = probe_automaton(a, p)
        assert is_bounded(gadget, Config(probe, p.min_value())) == res.holds, (a, p)
        compared += 1
    assert compared >= 50


def _loop_witness_work(monkeypatch, k):
    """Decide the README loop with its tests scaled by k, from q:0 to the
    first q past the stop; returns (configurations expanded by
    boundedness probes, chain_of calls, progressions emitted).

    The cores span the whole orbit below 5k, so boundedness is asked of
    O(k) configurations and the cores have O(k) members.  One BFS per
    question would expand O(k^2) configurations, and one chain walk per
    core member would take O(k^2) chain steps.
    """
    a = parse_oca(
        f"states: q r s\nguard q != {5 * k}\nguard r != {30 * k}\n"
        f"guard s != {15 * k}\ntrans q +2 r\ntrans r +1 s\ntrans s +2 q\n"
    )
    counts = {"expanded": 0, "chain_of": 0}
    real_admit = exploration._admit
    real_chain_of = invariants.chain_of

    def counting_admit(labels, top):
        keep = real_admit(labels, top)

        def counted(v):
            counts["expanded"] += v not in labels  # a probe asks once per value it expands
            return keep(v)

        return counted

    def counting_chain_of(b, c):
        counts["chain_of"] += 1
        return real_chain_of(b, c)

    monkeypatch.setattr(exploration, "_admit", counting_admit)
    monkeypatch.setattr(invariants, "chain_of", counting_chain_of)
    verdict = decide_full(a, Config("q", 0), Config("q", 5 * k + 5))
    assert verdict.kind == "unreachable" and verdict.witness is not None
    w = verdict.witness
    return counts["expanded"], counts["chain_of"], len(w.fwd.progressions) + len(w.bwd.progressions)


def test_loop_witness_boundedness_work_is_linear(monkeypatch):
    k = 200
    expanded, _, _ = _loop_witness_work(monkeypatch, k)
    assert expanded <= 25 * k + 1000, expanded


def test_loop_witness_walks_each_chain_once(monkeypatch):
    _, chain_walks, emitted = _loop_witness_work(monkeypatch, 200)
    assert 0 < chain_walks <= emitted, (chain_walks, emitted)


# ----------------------------------------------------------- fuzz both gates


def test_witness_pipeline_matches_oracle():
    rng = random.Random(99)
    done = 0
    while done < 150:
        a = random_oca(rng, num_states=rng.randint(1, 4), max_update=3, max_guard=10)
        src = Config(rng.choice(a.states), rng.randint(0, 5))
        trg = Config(rng.choice(a.states), rng.randint(0, 8))
        if not (a.is_valid(src) and a.is_valid(trg)) or src == trg:
            continue
        try:
            run = reach_oracle(a, src, trg)
        except ResourceExceeded:
            continue
        b, s2, t2 = normalize(a, src, trg)
        w = synthesize_witness(b, s2, t2)
        assert (w is not None) == (run is None), (a.transitions, src, trg)
        if w is not None:
            assert verify_witness(b, s2, t2, w).verified
        done += 1


def test_synthesis_fails_exactly_on_reachable_targets(monkeypatch):
    """On normalized endpoints synthesis returns None exactly when a
    naive closure reaches the target, whether the forward core's closure
    already holds it or the cores fail verification."""
    refuted = []
    verify = invariants.verify_witness

    def counted(*args):
        report = verify(*args)
        refuted.append(not report)
        return report

    monkeypatch.setattr(invariants, "verify_witness", counted)
    rng = random.Random(71)
    done = reachable = 0
    while done < 150:
        a = random_oca(rng, num_states=rng.randint(1, 4), max_update=3, max_guard=10)
        src = Config(rng.choice(a.states), rng.randint(0, 5))
        trg = Config(rng.choice(a.states), rng.randint(0, 8))
        if not (a.is_valid(src) and a.is_valid(trg)) or src == trg:
            continue
        b, s2, t2 = normalize(a, src, trg)
        expected = naive_reach(b, s2, t2, 80)
        if expected is None:
            continue
        assert (synthesize_witness(b, s2, t2) is None) == expected, (a.transitions, src, trg)
        reachable += expected
        done += 1
    # Reachable targets outside the forward core's closure still go
    # through the failing check; the others skip it.
    assert sum(refuted) >= 20 and reachable - sum(refuted) >= 10, (reachable, sum(refuted))


def test_no_witness_ever_verifies_reachable():
    rng = random.Random(13)
    done = 0
    while done < 150:
        a = random_oca(rng, num_states=rng.randint(1, 4), max_update=3, max_guard=10)
        src = Config(rng.choice(a.states), rng.randint(0, 5))
        trg = Config(rng.choice(a.states), rng.randint(0, 8))
        if not (a.is_valid(src) and a.is_valid(trg)) or src == trg:
            continue
        try:
            run = reach_oracle(a, src, trg)
        except ResourceExceeded:
            continue
        if run is None:
            continue
        progs = {"I": [], "J": []}
        for side in progs:
            for _ in range(rng.randint(0, 4)):
                st = rng.choice(a.states)
                lo = rng.randint(0, 10)
                progs[side].append(
                    Progression(st, lo, rng.randint(1, 4), lo, lo + rng.randint(0, 10))
                )
        progs["I"].append(Progression(src.state, src.value, 1, src.value, src.value))
        progs["J"].append(Progression(trg.state, trg.value, 1, trg.value, trg.value))
        w = NonReachabilityWitness(APSet(tuple(progs["I"])), APSet(tuple(progs["J"])))
        assert not verify_witness(a, src, trg, w).verified, (a.transitions, src, trg, w)
        done += 1


def test_enlarged_verified_witnesses_contain_the_cores():
    rng = random.Random(47)
    done = 0
    grown_verified = 0
    while done < 80:
        a = random_oca(rng, num_states=rng.randint(1, 4), max_update=3, max_guard=10)
        src = Config(rng.choice(a.states), rng.randint(0, 5))
        trg = Config(rng.choice(a.states), rng.randint(0, 8))
        if not (a.is_valid(src) and a.is_valid(trg)) or src == trg:
            continue
        try:
            run = reach_oracle(a, src, trg)
        except ResourceExceeded:
            continue
        if run is not None:
            continue
        b, s2, t2 = normalize(a, src, trg)
        w = synthesize_witness(b, s2, t2)
        assert w is not None
        done += 1
        st = rng.choice(b.states)
        lo = rng.randint(0, 10)
        extra = Progression(st, lo, rng.randint(1, 4), lo, lo + rng.randint(0, 6))
        grown = NonReachabilityWitness(APSet(w.fwd.progressions + (extra,)), w.bwd)
        if verify_witness(b, s2, t2, grown).verified:
            grown_verified += 1
            members = set(ap_members(grown.fwd))
            assert set(ap_members(w.fwd)) <= members
    assert grown_verified > 0


# --------------------------------------------------------- refutation detail


def _thinned(rng, a, aps, keep, extra):
    """Singleton progressions for a random half of ``aps`` plus ``extra``
    random valid configurations; ``keep`` always stays."""
    members = {c for c in ap_members(aps) if c == keep or rng.random() < 0.5}
    for _ in range(extra):
        c = Config(rng.choice(a.states), rng.randint(0, 12))
        if a.is_valid(c):
            members.add(c)
    singles = (Progression(c.state, c.value, 1, c.value, c.value) for c in sorted(members, key=str))
    return APSet(tuple(singles))


def test_refutation_details_match_a_sorted_scan():
    """Each scan reports the least offending step by (state index, value,
    transition index), the first one a sorted scan meets."""
    rng = random.Random(23)
    hits = {"inductive": 0, "Sep1": 0}
    for _ in range(300):
        a = random_oca(rng, num_states=rng.randint(2, 4), max_update=3, max_guard=10)
        src = Config(rng.choice(a.states), rng.randint(0, 5))
        trg = Config(rng.choice(a.states), rng.randint(0, 8))
        if not (a.is_valid(src) and a.is_valid(trg)) or src == trg:
            continue
        b, s2, t2 = normalize(a, src, trg)
        rev = reverse(b)
        try:
            fwd, bwd = perfect_cores(b, s2, t2)
        except ResourceExceeded:
            continue
        w = NonReachabilityWitness(
            _thinned(rng, b, fwd, s2, rng.randint(0, 3)),
            _thinned(rng, rev, bwd, t2, rng.randint(0, 3)),
        )
        expected = None
        for side, machine, aps in (("forward", b, w.fwd), ("backward", rev, w.bwd)):
            members = set(ap_members(aps))
            closure = pessimistic_post_star(machine, members, locally_bounded=True)
            found = naive_first_step(
                machine,
                closure,
                lambda d: d not in members
                and in_pumpable_region(machine, d)
                and is_locally_bounded(machine, d),
            )
            if found is not None:
                expected = (side, found)
                break
        res, _ = check_inductive(b, w)
        assert (res.condition, res.detail) == (expected or (None, None))
        hits["inductive"] += expected is not None

        sides = []
        for machine, aps in ((b, w.fwd), (rev, w.bwd)):
            closure = pessimistic_post_star(machine, list(ap_members(aps)))
            sides.append(closure | {d for c in closure for d, _ in naive_successors(machine, c)})
        crossing = naive_first_step(b, sides[0], lambda d: d in sides[1])
        induced = [
            invariants._closures(m, list(ap_members(aps)))[1] for m, aps in ((b, w.fwd), (rev, w.bwd))
        ]
        res = check_separator(b, *induced)
        if crossing is not None:
            assert (res.condition, res.detail) == ("Sep1", crossing)
            hits["Sep1"] += 1
        else:
            assert res.condition != "Sep1"

    assert min(hits.values()) >= 20, hits


# ------------------------------------------------------- shared closures


def _assert_shared_closures(a, roots):
    """One side's escapes and induced set against the independent
    closures; True when the unrestricted closure is strictly larger."""
    escapes, induced = invariants._closures(a, roots)
    bounded = pessimistic_post_star(a, roots, locally_bounded=True)
    full = pessimistic_post_star(a, roots)
    expected: dict[str, set[int]] = {}
    for c in full | {d for _, _, d in valid_steps(a, full)}:
        expected.setdefault(c.state, set()).add(c.value)
    assert _value_sets(induced) == expected
    region = set(roots)
    assert escapes == [
        s for s in valid_steps(a, bounded) if s[2] not in region and in_pumpable_region(a, s[2])
    ]
    return len(full) > len(bounded)


def test_shared_closures_match_pessimistic_post_star():
    """Roots drawn mostly at states with a climbing cycle, where local
    boundedness keeps configurations out of the closure."""
    rng = random.Random(61)
    draws = larger = 0
    while draws < 200:
        a = random_oca(rng, num_states=rng.randint(2, 5), max_update=3, max_guard=10)
        for machine in (a, reverse(a)):
            climbing = sorted(climbing_cycles(machine))
            if not climbing:
                continue
            roots = set()
            for _ in range(rng.randint(1, 3)):
                q = rng.choice(climbing if rng.random() < 0.7 else machine.states)
                c = Config(q, rng.randint(0, 14))
                if machine.is_valid(c):
                    roots.add(c)
            larger += _assert_shared_closures(machine, sorted(roots, key=str))
            draws += 1
    assert larger >= 20, larger


def test_shared_closures_continue_from_a_successor():
    """x:10 is locally bounded, and its successor r:10 is not (r's
    component climbs through q) but sits outside the pumpable region:
    only the unrestricted closure holds it."""
    a = parse_oca("states: x r q\ntrans x +0 r\ntrans r -3 q\ntrans q +1 q\ntrans q -3 r\n")
    root = Config("x", 10)
    assert is_locally_bounded(a, root)
    assert not is_locally_bounded(a, Config("r", 10))
    assert not in_pumpable_region(a, Config("r", 10))
    assert _assert_shared_closures(a, [root])
    bounded = pessimistic_post_star(a, [root], locally_bounded=True)
    assert invariants._scan(a, [root], bounded)[1]
    assert set(pessimistic_post_star(a, [root])) - set(bounded) == {Config("r", 10)}


def test_only_a_leaking_side_builds_the_unrestricted_closure(monkeypatch, loop3):
    """The unrestricted closure is built for a side whose closure through
    locally bounded configurations leaks, and for no other side."""
    unrestricted = []
    real = invariants.pessimistic_post_star

    def counting(a, configs, locally_bounded=False):
        unrestricted.append(not locally_bounded)
        return real(a, configs, locally_bounded)

    monkeypatch.setattr(invariants, "pessimistic_post_star", counting)
    a = parse_oca("states: x r q\ntrans x +0 r\ntrans r -3 q\ntrans q +1 q\ntrans q -3 r\n")
    root = APSet((Progression("x", 10, 1, 10, 10),))
    assert check_inductive(a, NonReachabilityWitness(root, root))[0]
    assert sum(unrestricted) == 1 and len(unrestricted) == 3

    src, trg = Config("q", 0), Config("q", 10)
    verdict = decide_full(loop3, src, trg)
    n, s2, t2 = normalize_endpoints(loop3, src, trg)
    unrestricted.clear()
    assert verify_witness(n, s2, t2, verdict.witness)
    assert sum(unrestricted) == 0 and len(unrestricted) == 2


def test_check_inductive_reads_the_cores_as_value_sets(monkeypatch):
    """check_inductive on the README loop's witness with tests scaled by
    k asks no Configs membership, iterates no Configs view, and builds as
    few configurations at k = 20,000 as at k = 200, though the cores grow
    a hundredfold: it builds the escapes only."""
    real_new, counts = Config.__new__, Counter()

    def counted_new(cls, *args, **kwargs):
        counts["built"] += 1
        return real_new(cls, *args, **kwargs)

    def refused(name):
        def call(*args, **kwargs):
            counts[name] += 1
            raise AssertionError(f"Configs.{name} called")

        return call

    built = {}
    for k in (200, 20_000):
        a = parse_oca(
            f"states: q r s\nguard q != {5 * k}\nguard r != {30 * k}\n"
            f"guard s != {15 * k}\ntrans q +2 r\ntrans r +1 s\ntrans s +2 q\n"
        )
        verdict = decide_full(a, Config("q", 0), Config("q", 5 * k + 5))
        n, w = verdict.certified[0], verdict.witness
        assert sum(len(p.values()) for p in w.fwd.progressions) > 3 * k
        sides = ((n, w.fwd), (reverse(n), w.bwd))
        escapes = sum(len(invariants._closures(m, list(ap_members(aps)))[0]) for m, aps in sides)
        with monkeypatch.context() as m:
            m.setattr(Config, "__new__", counted_new)
            m.setattr(exploration.Configs, "__contains__", refused("__contains__"))
            m.setattr(exploration.Configs, "__iter__", refused("__iter__"))
            counts.clear()
            assert check_inductive(n, w)[0]
            built[k] = counts["built"]
        assert counts["__contains__"] == counts["__iter__"] == 0
        assert built[k] == 2 * escapes, (k, built, escapes)
    assert built[200] == built[20_000], built


def _value_sets(side) -> dict[str, set[int]]:
    return {state: set(iterate(found)) for state, found in side.items()}


def test_scans_match_the_value_table_scans():
    """The witness checker's bitset scans against the value-table scans
    they replaced (``tests/_oracles.py``), on equality-free automata with
    pumpable states: the escape candidates in ``_step_order``, the
    leaks, the unrestricted closure, the induced sets and the least Sep1
    crossing agree.  Half the draws have updates and tests large enough
    that the value sets span several machine words."""
    rng = random.Random(1818)
    hits = dict.fromkeys(("draws", "wide", "escapes", "leaks", "crossings"), 0)
    while hits["draws"] < 200:
        wide = rng.random() < 0.5
        a = random_oca(
            rng,
            num_states=rng.randint(2, 5),
            max_update=40 if wide else 3,
            max_guard=300 if wide else 10,
        )
        sides = []
        for machine in (a, reverse(a)):
            climbing = sorted(climbing_cycles(machine))
            roots = set()
            for _ in range(rng.randint(1, 3)):
                q = rng.choice(climbing if climbing and rng.random() < 0.7 else machine.states)
                c = Config(q, rng.randint(0, 300 if wide else 14))
                if machine.is_valid(c):
                    roots.add(c)
            roots = sorted(roots, key=str)
            escapes, induced = invariants._closures(machine, roots)
            bounded, ref_escapes, ref_leaks, ref_induced = reference_closures(machine, roots)
            order = invariants._step_order(machine)
            assert sorted(escapes, key=order) == sorted(ref_escapes, key=order)
            _, leaks, _ = invariants._scan(machine, roots, bounded)
            assert leaks == bool(ref_leaks)
            assert _value_sets(induced) == ref_induced
            sides.append(induced)
            hits["escapes"] += bool(escapes)
            hits["leaks"] += bool(leaks)
            hits["wide"] += max((max(iterate(found)) for found in induced.values()), default=0) > 128
        crossing = invariants._crossing(a, *sides)
        assert crossing == reference_crossing(a, *map(_value_sets, sides))
        hits["crossings"] += crossing is not None
        hits["draws"] += 1
    assert min(hits.values()) >= 20, hits


@st.composite
def _gadget_cases(draw):
    """An equality-free automaton of 1 to 4 states, updates -3..3, tests
    != 0..6, and two valid endpoints below 7."""
    states = tuple(f"q{i}" for i in range(draw(st.integers(1, 4))))
    state = st.sampled_from(states)
    transitions = tuple(
        Transition(draw(state), draw(st.integers(-3, 3)), draw(state))
        for _ in range(draw(st.integers(1, 2 * len(states) + 1)))
    )
    guards = {q: Guard("ne", draw(st.integers(0, 6))) for q in states if draw(st.booleans())}
    a = OCA(states, transitions, guards)
    valid = st.sampled_from([c for q in states for v in range(7) if a.is_valid(c := Config(q, v))])
    return a, draw(valid), draw(valid)


@settings(max_examples=150, deadline=None)
@given(_gadget_cases())
def test_shared_gadget_answers_like_a_fresh_copy(case):
    """A gadget that shares its base's components, labeled first the way
    decide_disequality labels them, answers like a copy with an empty
    memo."""
    a, src, trg = case
    is_locally_bounded(a, src)
    is_locally_bounded(reverse(a), trg)
    n, s2, t2 = normalize_endpoints(a, src, trg)
    fresh = OCA(n.states, n.transitions, n.guards)
    for shared, copy in ((n, fresh), (reverse(n), reverse(fresh))):
        assert climbing_cycles(shared) == climbing_cycles(copy)
        assert pumpable_drops(shared) == pumpable_drops(copy)
        for q in shared.states:
            for v in range(12):
                c = Config(q, v)
                if shared.is_valid(c):
                    assert is_locally_bounded(shared, c) == is_locally_bounded(copy, c), c
    w = synthesize_witness(n, s2, t2)
    assert w == synthesize_witness(fresh, s2, t2)
    if w is not None:
        assert verify_witness(n, s2, t2, w) == verify_witness(fresh, s2, t2, w)
