import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from ocareach.automaton import OCA, Transition, parse_oca, path_effect_drop, path_states
from ocareach.flows import (
    Flow,
    FlowError,
    check_flow,
    flow_has_positive_cycle,
    flow_of_path,
    path_from_flow,
)

from _oracles import naive_cycles_through, naive_effect_drop, rotate_to_zero_drop
from conftest import random_oca, random_walk

# ---------------------------------------------------------------- basics


def test_flow_of_path_counts(loop3):
    f = flow_of_path(loop3, "q", (0, 1, 2, 0))
    assert f.counter() == Counter({0: 2, 1: 1, 2: 1})
    assert (f.start, f.end) == ("q", "r")
    assert f.effect(loop3) == 7
    check_flow(loop3, f)


def test_zero_flow_round_trips(loop3):
    f = flow_of_path(loop3, "q", ())
    assert f.counts == ()
    check_flow(loop3, f)
    assert path_from_flow(loop3, f) == ()


def test_zero_flow_with_split_endpoints_rejected(loop3):
    with pytest.raises(FlowError) as err:
        check_flow(loop3, Flow.make(Counter(), "q", "r"))
    assert err.value.condition == "balance"


def test_unbalanced_flow_rejected(loop3):
    with pytest.raises(FlowError) as err:
        check_flow(loop3, Flow.make(Counter({0: 2, 1: 1, 2: 1}), "q", "q"))
    assert err.value.condition == "balance"


def test_disconnected_flow_rejected():
    a = parse_oca(
        "states: a b c d\n"
        "trans a +1 b\ntrans b -1 a\ntrans c +1 d\ntrans d -1 c\n"
    )
    # Two separate two-cycles; balanced everywhere but not one piece.
    with pytest.raises(FlowError) as err:
        check_flow(a, Flow.make(Counter({0: 1, 1: 1, 2: 1, 3: 1}), "a", "a"))
    assert err.value.condition == "connectivity"


def test_endpoint_outside_support_rejected(loop3):
    with pytest.raises(FlowError) as err:
        check_flow(loop3, Flow.make(Counter({0: 1}), "q", "s"))
    assert err.value.condition in ("balance", "connectivity")


def test_unknown_transition_rejected(loop3):
    with pytest.raises(FlowError) as err:
        check_flow(loop3, Flow.make(Counter({17: 1}), "q", "q"))
    assert err.value.condition == "support"


# ---------------------------------------------------------------- round trip


def test_round_trip_loop(loop3):
    f = flow_of_path(loop3, "q", (0, 1, 2, 0, 1, 2))
    rebuilt = path_from_flow(loop3, f)
    assert flow_of_path(loop3, "q", rebuilt) == f
    assert path_from_flow(loop3, f) == rebuilt  # deterministic


def test_round_trip_random_walks():
    rng = random.Random(11)
    done = 0
    while done < 300:
        a = random_oca(rng, num_states=rng.randint(1, 5))
        start, path = random_walk(a, rng, rng.randint(0, 12))
        f = flow_of_path(a, start, path)
        rebuilt = path_from_flow(a, f)
        assert flow_of_path(a, start, rebuilt) == f
        states = path_states(a, start, rebuilt)
        assert states[0] == f.start and states[-1] == f.end
        done += 1


@given(st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=10),
       st.integers(min_value=0))
@settings(max_examples=60)
def test_round_trip_two_state_shuttle(updates, seed):
    # A dense two-state automaton exercises parallel edges and self-loops.
    rng = random.Random(seed)
    states = ("a", "b")
    transitions = tuple(
        Transition(rng.choice(states), u, rng.choice(states)) for u in updates
    )
    a = OCA(states, transitions, {})
    start, path = random_walk(a, rng, rng.randint(0, 14))
    f = flow_of_path(a, start, path)
    assert flow_of_path(a, start, path_from_flow(a, f)) == f


# ---------------------------------------------------------------- cycles


def brute_positive_cycle(a, support):
    # Any positive-effect cycle using only support transitions, found by
    # exhaustive enumeration up to the number of support states.
    allowed = set(support)
    states = {a.transitions[i].src for i in support} | {
        a.transitions[i].dst for i in support
    }
    for q in sorted(states):
        for cycle in naive_cycles_through(a, q, len(states)):
            if all(i in allowed for i in cycle):
                effect, _ = naive_effect_drop(a, cycle)
                if effect > 0:
                    return True
    return False


def test_positive_cycle_golden(loop3):
    f = flow_of_path(loop3, "q", (0, 1, 2))
    assert flow_has_positive_cycle(loop3, f)
    assert not flow_has_positive_cycle(loop3, flow_of_path(loop3, "q", (0, 1)))
    assert not flow_has_positive_cycle(loop3, flow_of_path(loop3, "q", ()))


def test_positive_cycle_needs_positive_effect():
    a = parse_oca("states: a b\ntrans a +1 b\ntrans b -1 a\ntrans b -2 a\n")
    assert not flow_has_positive_cycle(a, flow_of_path(a, "a", (0, 1, 0, 2)))
    b = parse_oca("states: a b\ntrans a +1 b\ntrans b +1 a\n")
    assert flow_has_positive_cycle(b, flow_of_path(b, "a", (0, 1)))


def test_positive_cycle_random_matches_brute():
    rng = random.Random(23)
    for _ in range(200):
        a = random_oca(rng, num_states=rng.randint(1, 5))
        start, path = random_walk(a, rng, rng.randint(0, 10))
        f = flow_of_path(a, start, path)
        assert flow_has_positive_cycle(a, f) == brute_positive_cycle(a, f.support())


# ---------------------------------------------------------------- rotation


def test_rotation_goldens():
    a = parse_oca("states: a\ntrans a -1 a\ntrans a +3 a\ntrans a +2 a\ntrans a +1 a\n")
    # Updates (-1, +3) rotate to (+3, -1); (+2, +1, +2) is already flat.
    assert rotate_to_zero_drop(a, (0, 1)) == (1, 0)
    assert rotate_to_zero_drop(a, (2, 3, 2)) == (2, 3, 2)


def test_rotation_rejects_non_cycle(loop3):
    with pytest.raises(ValueError):
        rotate_to_zero_drop(loop3, (0,))
    with pytest.raises(ValueError):
        rotate_to_zero_drop(loop3, ())


def test_rotation_rejects_nonpositive():
    a = parse_oca("states: a\ntrans a -1 a\ntrans a +1 a\n")
    with pytest.raises(ValueError):
        rotate_to_zero_drop(a, (0, 1))


def test_rotation_random_properties():
    rng = random.Random(5)
    done = 0
    while done < 300:
        a = random_oca(rng, num_states=rng.randint(1, 4))
        start, path = random_walk(a, rng, rng.randint(1, 10))
        if not path:
            continue
        states = path_states(a, start, path)
        if states[0] != states[-1]:
            continue
        effect, _ = path_effect_drop(a, path)
        if effect <= 0:
            continue
        rotated = rotate_to_zero_drop(a, path)
        assert Counter(rotated) == Counter(path)
        assert path_effect_drop(a, rotated) == (effect, 0)
        rstates = path_states(a, a.transitions[rotated[0]].src, rotated)
        assert rstates[0] == rstates[-1]
        done += 1
