from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest

from conftest import FIG_LOOP, random_oca
from ocareach.cli import main
from ocareach.analysis import Chain, chain_of
from ocareach.automaton import (
    OCA,
    Config,
    InternalError,
    ReplayError,
    Transition,
    apply_path,
    component,
    format_oca,
    parse_oca,
    path_effect_drop,
    reverse,
)
from ocareach.exploration import (
    ResourceExceeded,
    candidate_reach,
    is_locally_bounded,
    reach_oracle,
)
from ocareach.evidence import format_run, verify_evidence
from ocareach.generators import FuzzSpec, gen_subset_sum, instances
from ocareach.invariants import verify_witness
import ocareach.analysis as analysis
import ocareach.automaton as automaton
import ocareach.exploration as exploration
import ocareach.invariants as invariants
import ocareach.solver as solver
from ocareach.solver import (
    REACHABLE,
    UNREACHABLE,
    Verdict,
    decide_disequality,
    decide_full,
    lift_candidate_run,
    normalize_endpoints,
)


@pytest.fixture(autouse=True)
def _cross_checked(monkeypatch):
    """Re-derive every decisive ``decide_disequality`` verdict through the
    exploration oracle and fail hard on disagreement.

    Both bindings are wrapped: the solver's own, which ``decide_full``
    calls for its segment queries, and this module's.
    """
    decide = solver.decide_disequality

    def checked(a, src, trg):
        verdict = decide(a, src, trg)
        try:
            run = reach_oracle(a, src, trg)
        except ResourceExceeded:
            return verdict
        if (run is not None) != (verdict.kind == REACHABLE):
            raise InternalError(f"oracle disagrees with {verdict.kind} for {src} -> {trg}")
        return verdict

    monkeypatch.setattr(solver, "decide_disequality", checked)
    monkeypatch.setitem(globals(), "decide_disequality", checked)


def check_verdict(a, src, trg, v: Verdict) -> None:
    """Every verdict must carry evidence that stands on its own."""
    if v.kind == REACHABLE:
        assert v.run is not None
        assert apply_path(a, src, v.run) == trg
    elif v.witness is not None:
        n, s2, t2 = v.certified
        report = verify_witness(n, s2, t2, v.witness)
        assert report.verified, report.reason


# ------------------------------------------------------------------ goldens


def test_fig_loop_unreachable_with_witness(loop3):
    v = decide_disequality(loop3, Config("q", 0), Config("q", 10))
    assert v.kind == UNREACHABLE
    assert v.witness is not None
    check_verdict(loop3, Config("q", 0), Config("q", 10), v)


def test_fig_loop_reachable_seven_laps(loop3):
    src, trg = Config("q", 1), Config("q", 36)
    v = decide_disequality(loop3, src, trg)
    assert v.kind == REACHABLE
    assert len(v.run) == 21  # 7 laps of the 3-transition loop, effect 5 each
    assert apply_path(loop3, src, v.run) == trg


def test_equal_endpoints_short_circuit(loop3):
    v = decide_disequality(loop3, Config("r", 4), Config("r", 4))
    assert v.kind == REACHABLE and v.run == ()
    assert decide_full(loop3, Config("r", 4), Config("r", 4)).run == ()


def test_invalid_endpoints_rejected(loop3):
    with pytest.raises(ValueError):
        decide_disequality(loop3, Config("q", 5), Config("q", 10))
    with pytest.raises(ValueError):
        decide_full(loop3, Config("q", 0), Config("r", 30))


def test_equality_tests_rejected_by_disequality_entry():
    a = parse_oca("states: a b\nguard a == 2\ntrans a +1 b\n")
    with pytest.raises(ValueError):
        decide_disequality(a, Config("a", 2), Config("b", 3))


# ------------------------------------------------------------ normalization


def test_normalize_golden(loop3):
    src, trg = Config("q", 0), Config("q", 10)
    n, s2, t2 = normalize_endpoints(loop3, src, trg)
    assert n.states == loop3.states + ("q'", "q''")
    assert n.transitions[: len(loop3.transitions)] == loop3.transitions
    assert n.transitions[len(loop3.transitions) :] == (
        Transition("q'", 0, "q"),
        Transition("q'", 1, "q'"),
        Transition("q", 0, "q''"),
        Transition("q''", -1, "q''"),
    )
    assert n.guards["q'"].value == 1 and n.guards["q''"].value == 11
    assert (s2, t2) == (Config("q'", 0), Config("q''", 10))
    assert n.is_valid(s2) and n.is_valid(t2)


def test_normalize_rejects_invalid_endpoint(loop3):
    with pytest.raises(ValueError):
        normalize_endpoints(loop3, Config("q", 0), Config("s", 15))


def test_normalized_endpoints_are_fenced(loop3):
    n, s2, t2 = normalize_endpoints(loop3, Config("q", 2), Config("s", 4))
    assert is_locally_bounded(n, s2)
    assert is_locally_bounded(reverse(n), t2)
    # the fence sits one above the endpoint, so the loops stall immediately
    assert not n.is_valid(Config(s2.state, s2.value + 1))
    assert not n.is_valid(Config(t2.state, t2.value + 1))


def test_normalize_preserves_verdicts_corpus():
    rng = random.Random(808)
    compared = 0
    for _ in range(120):
        a = random_oca(rng)
        states = list(a.states)
        src = Config(rng.choice(states), rng.randrange(8))
        trg = Config(rng.choice(states), rng.randrange(8))
        if not (a.is_valid(src) and a.is_valid(trg)):
            continue
        n, s2, t2 = normalize_endpoints(a, src, trg)
        try:
            before = reach_oracle(a, src, trg)
            after = reach_oracle(n, s2, t2)
        except ResourceExceeded:
            continue
        assert (before is None) == (after is None), (src, trg)
        compared += 1
    assert compared > 80


# ------------------------------------------------------------------ lifting


def free_slide(up=1, down=1):
    a = parse_oca(f"states: a b\ntrans a +{up} a\ntrans a +0 b\ntrans b -{down} b\n")
    return a, Config("a", 3), Config("b", 0)


def test_lift_free_slide_replays():
    a, src, trg = free_slide()
    p = candidate_reach(a, src, trg)
    run = lift_candidate_run(a, src, trg, p)
    assert apply_path(a, src, run) == trg


def test_lift_keeps_valid_candidate_valid():
    # the candidate path is already a run; pumping must not break it
    a, src, trg = free_slide()
    p = (1,) + (2,) * 3  # step over, then slide 3 down to 0
    assert apply_path(a, src, p) == trg
    run = lift_candidate_run(a, src, trg, p)
    assert apply_path(a, src, run) == trg


def test_lift_guard_free_strongly_connected():
    a = parse_oca("states: u v\ntrans u +3 v\ntrans v -1 u\ntrans v -4 u\n")
    src, trg = Config("u", 2), Config("u", 1)
    for p in ((0, 1), (0, 2), (0, 1, 0, 2)):
        end = apply_path(a, src, p, mode="candidate")
        run = lift_candidate_run(a, src, end, p)
        assert apply_path(a, src, run) == end
    assert trg == apply_path(a, src, (0, 2), mode="candidate")


def test_lift_precondition_errors(loop3):
    a, src, trg = free_slide()
    with pytest.raises(ValueError):  # bounded source
        lift_candidate_run(a, Config("b", 2), Config("b", 0), (2, 2))
    with pytest.raises(ValueError):  # path endpoints disagree
        lift_candidate_run(a, src, trg, (1,))
    eq = parse_oca("states: a b\nguard b == 2\ntrans a +1 a\ntrans a +1 b\n")
    with pytest.raises(ValueError):
        lift_candidate_run(eq, Config("a", 0), Config("b", 2), (1,))


def test_lift_fuzz_matches_candidate_level():
    rng = random.Random(4242)
    lifted = 0
    for _ in range(300):
        a = random_oca(rng, num_states=4, max_update=4, max_guard=12)
        states = list(a.states)
        src = Config(rng.choice(states), rng.randrange(8))
        trg = Config(rng.choice(states), rng.randrange(8))
        if not (a.is_valid(src) and a.is_valid(trg)):
            continue
        if is_locally_bounded(a, src) or is_locally_bounded(reverse(a), trg):
            continue
        p = candidate_reach(a, src, trg)
        want = reach_oracle(a, src, trg)
        assert (p is None) == (want is None), (src, trg)
        if p is None:
            continue
        run = lift_candidate_run(a, src, trg, p)
        assert apply_path(a, src, run) == trg
        lifted += 1
    assert lifted >= 15


def scaled_lift_loop(k):
    """The fixture loop with tests scaled by k and a -3 self-loop on q.

    From q:5k+1 down to q:1 both endpoints pump, so the decision lifts a
    candidate run.
    """
    return parse_oca(
        "states: q r s\n"
        f"guard q != {5 * k}\n"
        f"guard r != {30 * k}\n"
        f"guard s != {15 * k}\n"
        "trans q +2 r\n"
        "trans r +1 s\n"
        "trans s +2 q\n"
        "trans q -3 q\n"
    )


@pytest.mark.parametrize("k", [1, 10, 50, 3000])
def test_lifted_run_grows_linearly_in_the_tests(k):
    # climbing to the product of both cycle effects gave 82,709
    # transitions at k=1, 33.6 M at k=10 and MemoryError at k=50; an
    # explicit climb search past every test gave ResourceExceeded at k=3000
    a = scaled_lift_loop(k)
    src, trg = Config("q", 5 * k + 1), Config("q", 1)
    v = decide_full(a, src, trg)
    assert v.kind == REACHABLE
    assert apply_path(a, src, v.run) == trg
    assert len(v.run) <= 100 * k + 100


def test_lift_source_on_an_unbounded_chain_is_not_probed():
    # q:150001 lies on an unbounded chain, so it is locally unbounded
    # without a probe; the probe passed its 2,000,000-configuration cap
    k = 30_000
    src, trg = Config("q", 5 * k + 1), Config("q", 1)
    v = decide_full(scaled_lift_loop(k), src, trg)
    assert v.kind == REACHABLE
    report = verify_evidence(scaled_lift_loop(k), src, trg, format_run(src, trg, v.run))
    assert report.verified, report


def test_lift_loop_candidate_run_is_short():
    # an extended-gcd construction of the cycle counts gave 278 transitions
    a = scaled_lift_loop(10)
    src, trg = Config("q", 51), Config("q", 1)
    p = candidate_reach(a, src, trg)
    assert apply_path(a, src, p, mode="candidate") == trg
    assert len(p) <= 30


def _lap_counts(up, down, m):
    """The least height H >= m that both climbs rise with enough laps to
    be valid, and those lap counts, by trying every height in turn."""
    for h in itertools.count(m):
        k, kr = divmod(h - up.base, up.effect)
        l, lr = divmod(h - down.base, down.effect)
        if not kr and not lr and k >= up.least and l >= down.least:
            return k, l


@pytest.mark.parametrize("up, down", [(1, 1), (2, 3), (4, 6)])
def test_lift_height_is_the_least_common_height(up, down):
    a, src, _ = free_slide(up, down)
    lifted = 0
    for value in range(12):
        trg = Config("b", value)
        p = candidate_reach(a, src, trg)
        if p is None:
            continue
        climb, descent = solver._climb(a, src), solver._climb(reverse(a), trg)
        _, drop = path_effect_drop(a, p)
        k, l = _lap_counts(climb, descent, drop + a.max_test + 1)
        run = lift_candidate_run(a, src, trg, p)
        assert run == climb.path(k) + p + tuple(reversed(descent.path(l)))
        assert apply_path(a, src, run) == trg
        lifted += 1
    assert lifted >= 4


def test_climbs_from_free_ends_search_nothing(monkeypatch):
    # q:6 and, reversed, q:1 lie on unbounded chains of their cycles
    def no_search(*args, **kwargs):
        raise AssertionError("a free end needs no search")

    monkeypatch.setattr(solver, "first_found", no_search)
    a, src, trg = scaled_lift_loop(1), Config("q", 6), Config("q", 1)
    up, down = solver._climb(a, src), solver._climb(reverse(a), trg)
    assert up == solver._Climb((), (0, 1, 2), (), 5, 0, 0)
    assert down == solver._Climb((), (3,), (), 3, 0, 0)
    v = decide_full(a, src, trg)
    assert v.kind == REACHABLE and apply_path(a, src, v.run) == trg


def test_climb_searches_to_the_first_unbounded_chain():
    # Reversed, q:1 climbs by +3 laps to q:7, where q != 10 stops it;
    # the search finds q:2, two residues over, on a chain that never stops.
    a, src, trg = scaled_lift_loop(2), Config("q", 11), Config("q", 1)
    rev = reverse(a)
    sub, _ = component(rev, "q")
    assert chain_of(sub, trg) == Chain("q", 3, 1, 7)
    down = solver._climb(rev, trg)
    u = apply_path(rev, trg, down.prefix)
    assert u == Config("q", 2) and chain_of(sub, u).last is None
    assert down == solver._Climb((3, 3, 2, 1, 0), (3,), (), 3, 1, 0)
    # every shorter run from q:1 ends off the unbounded chains
    for n in range(len(down.prefix)):
        for path in itertools.product(range(len(rev.transitions)), repeat=n):
            try:
                chain = chain_of(sub, apply_path(rev, trg, path))
            except ReplayError:
                continue
            assert chain is None or chain.last is not None, path
    v = decide_full(a, src, trg)
    assert v.kind == REACHABLE and apply_path(a, src, v.run) == trg


# Shrunk from instance 977 of `fuzz --num-states 4 --seed 1`.  The climb
# from q1:1 rises 1 + 3k (up to q0, laps of +3, back through q3), the
# descent into q1:4 rises 3l: no lap counts give equal heights.
UNEQUAL_RESIDUES = (
    "states: q0 q1 q3\nguard q1 != 2\ntrans q0 +3 q0\ntrans q0 -2 q3\n"
    "trans q1 -3 q1\ntrans q3 +1 q1\ntrans q1 +2 q0\n"
)


def test_climbs_that_never_meet_repeat_whole():
    a, src, trg = parse_oca(UNEQUAL_RESIDUES), Config("q1", 1), Config("q1", 4)
    up, down = solver._climb(a, src), solver._climb(reverse(a), trg)
    assert up == solver._Climb((4,), (0,), (1, 3), 3, 1, 1)
    assert down == solver._Climb((), (2,), (), 3, 0, 0)
    p = candidate_reach(a, src, trg)
    run = lift_candidate_run(a, src, trg, p)
    # one lap makes each climb rise past the test: 4 and 3, repeated to 12
    assert run == up.path(1) * 3 + p + tuple(reversed(down.path(1))) * 4
    assert apply_path(a, src, run) == trg
    assert decide_full(a, src, trg).run == run


def lift_leg_gadget(n):
    """Subset sum over n values up to 1,000 with a +1 loop on s0, a zero
    step from s{n} into t and a -1 loop on t: s0:0 -> t:0 lifts."""
    rng = random.Random(7)
    values = tuple(rng.randint(1, 1000) for _ in range(n))
    a, src, trg = gen_subset_sum(values, sum(values) // 2)
    extra = (Transition("s0", 1, "s0"), Transition(f"s{n}", 0, "t"), Transition("t", -1, "t"))
    return OCA(a.states, a.transitions + extra, a.guards), src, trg


def test_lift_leg_gadget_run_stays_small():
    # climbing past every test plus |Q| * max_update gave 196,918 transitions
    a, src, trg = lift_leg_gadget(12)
    v = decide_full(a, src, trg)
    assert v.kind == REACHABLE and apply_path(a, src, v.run) == trg
    assert len(v.run) <= 10_000


@pytest.mark.parametrize(
    "corrupt",
    [lambda run: run[:-1], lambda run: run + (0,), lambda run: (1,) + run],
    ids=["ends-short", "ends-past", "bad-first-step"],
)
def test_corrupted_lift_is_an_internal_error(monkeypatch, corrupt):
    real = solver.lift_candidate_run
    monkeypatch.setattr(solver, "lift_candidate_run", lambda *args: corrupt(real(*args)))
    with pytest.raises(InternalError):
        decide_full(scaled_lift_loop(1), Config("q", 6), Config("q", 1))


# ------------------------------------------------------- decide_disequality


def test_decide_fuzz_versus_oracle():
    rng = random.Random(5150)
    decided = witnessed = 0
    for _ in range(250):
        a = random_oca(rng)
        states = list(a.states)
        src = Config(rng.choice(states), rng.randrange(10))
        trg = Config(rng.choice(states), rng.randrange(10))
        if not (a.is_valid(src) and a.is_valid(trg)):
            continue
        try:
            v = decide_disequality(a, src, trg)
            want = reach_oracle(a, src, trg)
        except ResourceExceeded:
            continue
        assert v.kind == (REACHABLE if want is not None else UNREACHABLE)
        check_verdict(a, src, trg, v)
        witnessed += v.witness is not None
        decided += 1
    assert decided > 180 and witnessed > 60


# -------------------------------------------------------------- decide_full


def parity_gate():
    return parse_oca(
        "states: a m b\n"
        "guard m == 3\n"
        "trans a +2 a\n"
        "trans a +0 m\n"
        "trans m +0 b\n"
    )


def test_decide_full_parity_fixture():
    a = parity_gate()
    bad = decide_full(a, Config("a", 0), Config("b", 3))
    assert bad.kind == UNREACHABLE
    good = decide_full(a, Config("a", 1), Config("b", 3))
    assert good.kind == REACHABLE
    assert apply_path(a, Config("a", 1), good.run) == Config("b", 3)


def test_decide_full_refusals_are_checkable():
    v = decide_full(parity_gate(), Config("a", 0), Config("b", 3))
    assert v.parts  # at least the segment toward the pin was refused
    for e, x, part in v.parts:
        assert part.kind == UNREACHABLE
        if part.witness is not None:
            n, s2, t2 = part.certified
            assert verify_witness(n, s2, t2, part.witness).verified


def test_decide_full_equality_endpoints():
    a = parity_gate()
    v = decide_full(a, Config("m", 3), Config("b", 3))
    assert v.kind == REACHABLE and v.run == (2,)
    # entering the pin from below and leaving it again
    v2 = decide_full(a, Config("a", 3), Config("m", 3))
    assert v2.kind == REACHABLE and apply_path(a, Config("a", 3), v2.run) == Config("m", 3)


def test_decide_full_without_equality_delegates(loop3):
    assert decide_full(loop3, Config("q", 0), Config("q", 10)).kind == UNREACHABLE
    assert decide_full(loop3, Config("q", 1), Config("q", 36)).kind == REACHABLE


def chained_pins():
    # two pins must be crossed in sequence, each via a bridge
    return parse_oca(
        "states: a m n b\n"
        "guard m == 2\n"
        "guard n == 5\n"
        "trans a +1 a\n"
        "trans a +0 m\n"
        "trans m +3 n\n"
        "trans n -5 b\n"
        "trans b +1 b\n"
    )


def test_decide_full_chained_pins():
    a = chained_pins()
    v = decide_full(a, Config("a", 0), Config("b", 4))
    assert v.kind == REACHABLE
    assert apply_path(a, Config("a", 0), v.run) == Config("b", 4)


def test_decide_full_mixed_fuzz_versus_oracle():
    rng = random.Random(77)
    decided = 0
    for _ in range(220):
        a = random_oca(rng, equality_fraction=0.3)
        states = list(a.states)
        src = Config(rng.choice(states), rng.randrange(8))
        trg = Config(rng.choice(states), rng.randrange(8))
        if not (a.is_valid(src) and a.is_valid(trg)):
            continue
        try:
            v = decide_full(a, src, trg)
            want = reach_oracle(a, src, trg)
        except ResourceExceeded:
            continue
        assert v.kind == (REACHABLE if want is not None else UNREACHABLE)
        check_verdict(a, src, trg, v)
        decided += 1
    assert decided > 140


# ---------------------------------------------------- set-to-set segments

# The mixed corpus whose evidence test_evidence.py pins.
_FUZZ_MIXED = FuzzSpec(num_states=8, max_update=4, max_guard=12, equality_fraction=0.25, count=60)


def test_isolated_states_change_no_run():
    """States no transition touches change no verdict and no run: climbs
    end at their first unbounded chain, not at a height that counts
    states."""
    for index, (a, src, trg) in instances(_FUZZ_MIXED):
        b = OCA(a.states + ("iso0", "iso1", "iso2"), a.transitions, a.guards)
        v, w = decide_full(a, src, trg), decide_full(b, src, trg)
        assert (w.kind, w.run) == (v.kind, v.run), index


def test_set_query_is_any_pair():
    """The hub reduction: a set query is reachable iff some pair is, and
    its run, hub steps dropped, replays from the source it names to the
    target it names."""
    rng = random.Random(2323)
    decided = Counter()
    for _ in range(150):
        a = random_oca(rng)
        configs = [Config(q, v) for q in a.states for v in range(6) if a.is_valid(Config(q, v))]
        sources = rng.sample(configs, rng.randint(1, 3))
        targets = rng.sample(configs, rng.randint(1, 3))
        try:
            s, t, v = solver._decide_between(a, sources, targets)
            want = [(x, y) for x in sources for y in targets if reach_oracle(a, x, y) is not None]
        except ResourceExceeded:
            continue
        assert v.kind == (REACHABLE if want else UNREACHABLE), (sources, targets)
        if v.kind == REACHABLE:
            assert s in sources and t in targets
            assert apply_path(a, s, v.run) == t
        else:
            check_verdict(a, s, t, v)
        decided[v.kind, len(sources) * len(targets) > 1] += 1
    assert decided[REACHABLE, True] > 30 and decided[UNREACHABLE, True] > 30, decided


def test_one_segment_query_per_vertex_found_or_popped(monkeypatch):
    """Each popped vertex asks until refused, and each answer but the
    refusal finds a vertex: at most one call per vertex the search can
    reach, plus one per vertex it pops, which it also reached."""
    decide = solver.decide_disequality
    calls = Counter()

    def counted(a, src, trg):
        calls["decide_disequality"] += 1
        return decide(a, src, trg)

    monkeypatch.setattr(solver, "decide_disequality", counted)
    total = 0
    for index, (a, src, trg) in instances(_FUZZ_MIXED):
        if not a.has_equality_tests():
            continue
        calls.clear()
        decide_full(a, src, trg)
        found = {v for v in solver._pinned_configs(a) + [trg] if v != src}
        found = {v for v in found if reach_oracle(a, src, v) is not None}
        assert calls["decide_disequality"] <= 2 * len(found) + 1, index
        total += calls["decide_disequality"]
    assert total == 32  # 53 with one query per (entry, exit) pair


def test_undecided_set_queries_split_to_pairs(monkeypatch):
    """With every set query out of budget, the halves down to single
    pairs decide what the set queries did."""
    cases = [(parity_gate(), Config("a", 0), Config("b", 3)), (parity_gate(), Config("a", 1), Config("b", 3))]
    cases += [(chained_pins(), Config("a", 0), Config("b", 4))]
    cases += [instance for _, instance in instances(_FUZZ_MIXED)]
    before = [decide_full(*case).kind for case in cases]
    decide = solver.decide_disequality
    refused = Counter()

    def pairs_only(a, src, trg):
        if any(q.startswith("hub_") for q in a.states):
            refused["hub query"] += 1
            raise ResourceExceeded("set queries forced undecided")
        return decide(a, src, trg)

    monkeypatch.setattr(solver, "decide_disequality", pairs_only)
    assert [decide_full(*case).kind for case in cases] == before
    assert refused["hub query"] > 20


def test_one_cycle_search_per_component_and_direction(monkeypatch):
    """Every automaton a decision builds, the base, its reversal, the
    normalization gadget and the hub gadget, reads its climbing cycles
    from the components it shares: no component of the instance's
    states, keyed by its states and transitions, is searched twice in
    one decision.  A state alone in its component, such as each state a
    gadget adds, is read off its self-loops: no sub-automaton is built
    for it, and none is searched or probed."""
    search, probe, sub = analysis._least_drop, exploration.is_bounded, automaton.restrict
    searched = Counter()

    def counted(a, q):
        searched[a.states, a.transitions, q] += 1
        return search(a, q)

    def probed(a, c):
        assert len(a.states) > 1, c
        return probe(a, c)

    def restricted(a, states):
        assert len(states) > 1, states
        return sub(a, states)

    monkeypatch.setattr(analysis, "_least_drop", counted)
    monkeypatch.setattr(exploration, "is_bounded", probed)
    monkeypatch.setattr(automaton, "restrict", restricted)
    total = 0
    for index, (a, src, trg) in instances(_FUZZ_MIXED):
        searched.clear()
        try:
            decide_full(a, src, trg)
        except ResourceExceeded:
            pass
        for (states, _, q), count in searched.items():
            assert len(states) > 1 and a.state_index.keys() >= set(states), (index, q)
            assert count == 1, (index, q)
            total += 1
    assert total > 200


# ------------------------------------------- verdict paths no corpus reaches

# An undecided segment query must block a refusal, never become one.  The
# direct query s:0 -> t:2 is forced undecided; the detour over the pin p:2
# still decides reachability, and without the pin's exit nothing does.
PINNED_DETOUR = "states: s m p t\nguard p == 2\ntrans s +1 m\ntrans m +1 t\ntrans s +2 p\n"


def _undecided_direct_query(monkeypatch):
    decide = solver.decide_disequality

    def flaky(a, src, trg):
        if (src, trg) == (Config("s", 0), Config("t", 2)):
            raise ResourceExceeded("forced undecided")
        return decide(a, src, trg)

    monkeypatch.setattr(solver, "decide_disequality", flaky)


def test_undecided_segment_goes_through_the_pin(monkeypatch):
    _undecided_direct_query(monkeypatch)
    v = decide_full(parse_oca(PINNED_DETOUR + "trans p +0 t\n"), Config("s", 0), Config("t", 2))
    assert v.kind == REACHABLE and v.run == (2, 3)


def test_undecided_segment_is_never_a_refusal(monkeypatch):
    _undecided_direct_query(monkeypatch)
    with pytest.raises(ResourceExceeded, match="1 segment queries undecided"):
        decide_full(parse_oca(PINNED_DETOUR), Config("s", 0), Config("t", 2))


# Both endpoints locally unbounded, and every path has an even effect.
EVEN_STEPS = "states: q r\ntrans q +2 q\ntrans q +0 r\ntrans r -2 r\n"


def test_climb_that_finds_no_chain_is_an_internal_error(monkeypatch, tmp_path):
    """The lift leg climbs only from a locally unbounded configuration,
    so a search that ends without reaching an unbounded chain is a bug:
    InternalError and exit 3, never the input error ValueError.  The
    reversed target q:1 is not free, so its climb searches; here that
    search refuses every value two above its start."""
    a, src, trg = scaled_lift_loop(2), Config("q", 11), Config("q", 1)
    (tmp_path / "lift.oca").write_text(format_oca(a))
    argv = ["decide", str(tmp_path / "lift.oca"), "--src", "q:11", "--trg", "q:1"]
    assert main(argv) == 0
    first_found = solver.first_found

    def capped(a, c, node_cap, restrict):
        def low(state):
            keep = restrict(state)
            return lambda v: v <= c.value + 2 and (keep is None or keep(v))

        return first_found(a, c, node_cap, low)

    monkeypatch.setattr(solver, "first_found", capped)
    with pytest.raises(InternalError, match="reaches no unbounded chain"):
        solver._climb(reverse(a), trg)
    with pytest.raises(InternalError, match="reaches no unbounded chain"):
        decide_full(a, src, trg)
    assert main(argv) == 3


def test_lift_leg_refuses_without_a_witness(monkeypatch):
    a, src, trg = parse_oca(EVEN_STEPS), Config("q", 0), Config("r", 1)
    assert decide_full(a, src, trg).witness is not None

    def exhausted(*args):
        raise ResourceExceeded("forced")

    monkeypatch.setattr(solver, "synthesize_witness", exhausted)
    v = decide_full(a, src, trg)
    assert v.kind == UNREACHABLE and v.witness is None
    assert v.note == "no candidate run over the integers"


def test_oracle_needs_its_higher_rungs(monkeypatch):
    # The shortest run climbs 78 laps of +97 to 7,566 and descends 85 laps
    # of -89: past the first two rungs' value caps, inside the third's.
    post_star = exploration.post_star
    caps = set()

    def spy(a, start, node_cap, value_cap=None, restrict=None, stop_at=None):
        if stop_at is not None:
            caps.add(value_cap)
        return post_star(a, start, node_cap, value_cap, restrict, stop_at)

    monkeypatch.setattr(exploration, "post_star", spy)
    a = parse_oca("states: s p r\ntrans s +0 p\ntrans p +97 p\ntrans p +0 r\ntrans r -89 r\n")
    src, trg = Config("s", 0), Config("r", 1)
    v = decide_full(a, src, trg)
    assert v.kind == REACHABLE and len(v.run) == 165
    assert apply_path(a, src, v.run) == trg
    assert len(caps) > 1


def test_reachable_core_closure_skips_the_witness_check(monkeypatch):
    """The n = 8 reachable subset-sum target lies in the forward core's
    closure, so synthesis stops there: no witness is verified, and the
    oracle, asked once, finds the run."""
    calls = Counter()
    for module, name in ((solver, "reach_oracle"), (invariants, "verify_witness")):
        fn = getattr(module, name)

        def counted(*args, fn=fn, name=name):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, counted)
    a, src, trg = gen_subset_sum((44, 957, 593, 549, 86, 342, 708, 694), 1980)
    v = decide_disequality(a, src, trg)
    assert v.kind == REACHABLE
    assert apply_path(a, src, v.run) == trg
    assert calls == {"reach_oracle": 1}
