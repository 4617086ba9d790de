import ast
import gc
import random
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ocareach
from ocareach.automaton import (
    Config,
    Guard,
    OCA,
    ReplayError,
    Transition,
    apply_path,
    extend,
    format_oca,
    parse_config,
    parse_oca,
    path_configs,
    path_effect_drop,
    path_states,
    restrict,
    reverse,
    scc_decompose,
    scc_of,
    valid_steps,
)
from ocareach.evidence import verify_evidence
from ocareach.invariants import format_witness
from ocareach.solver import decide_full

from _oracles import naive_effect_drop, reference_replay, rotate_to_zero_drop
from conftest import FIG_LOOP, random_oca

# ---------------------------------------------------------------- parsing


def test_parse_round_trip(loop3):
    again = parse_oca(format_oca(loop3))
    assert again.states == loop3.states
    assert again.transitions == loop3.transitions
    assert again.guards == loop3.guards


def test_parse_comments_and_blanks():
    a = parse_oca("# header\n\nstates: a b  # trailing\ntrans a +1 b\n")
    assert a.states == ("a", "b")
    assert a.transitions == (Transition("a", 1, "b"),)


def test_parse_guard_kinds():
    a = parse_oca("states: a b\nguard a == 7\nguard b != 0\n")
    assert a.guards["a"] == Guard("eq", 7)
    assert a.guards["b"] == Guard("ne", 0)


@pytest.mark.parametrize(
    "text",
    [
        "trans a +1 b\n",  # no states line
        "states: a\nstates: a\n",
        "states: a a\n",
        "states: a\nguard b != 1\n",
        "states: a\nguard a != 1\nguard a != 2\n",
        "states: a\ntrans a x a\n",
        "states: a\nfrobnicate a\n",
        "states: a b\ntrans a +1 c\n",
    ],
)
def test_parse_rejects(text):
    with pytest.raises(ValueError):
        parse_oca(text)


def test_parse_config_literal():
    assert parse_config("q:0") == Config("q", 0)
    assert parse_config("odd:name:12") == Config("odd:name", 12)
    with pytest.raises(ValueError):
        parse_config("justastate")


def test_config_is_an_immutable_named_tuple():
    c = Config("q", 3)
    assert c == Config("q", 3) and hash(c) == hash(Config("q", 3))
    assert c != Config("q", 4) and c != Config("r", 3)
    assert c == ("q", 3) and hash(c) == hash(("q", 3))
    assert len({c, Config("q", 3), ("q", 3)}) == 1
    assert (c.state, c.value) == ("q", 3)
    assert str(c) == "q:3"
    assert repr(c) == "Config(state='q', value=3)"
    with pytest.raises(AttributeError):
        c.value = 4
    with pytest.raises(TypeError):
        c[1] = 4
    for text in ("q:0", "odd:name:12", "s:1000000"):
        assert str(parse_config(text)) == text
        assert parse_config(str(parse_config(text))) == parse_config(text)


def test_step_table_agrees_with_guards_and_transitions():
    rng = random.Random(5)
    for _ in range(60):
        a = random_oca(rng, num_states=5, equality_fraction=0.4, guard_density=0.7)
        for q in a.states:
            for v in range(-2, 12):
                c = Config(q, v)
                assert a.is_valid(c) == (v >= 0 and a.guards[q].allows(v))
        configs = [Config(q, v) for q in a.states for v in range(10)]
        expected = [
            (c, i, Config(t.dst, c.value + t.update))
            for c in configs
            for i, t in enumerate(a.transitions)
            if t.src == c.state and a.is_valid(Config(t.dst, c.value + t.update))
        ]
        assert list(valid_steps(a, configs)) == expected


def test_building_an_automaton_leaves_the_callers_guards_alone(loop3):
    """An automaton fills in the trivial test on its own copy of the
    guards, so one built over another's states and guards with states
    added leaves the other's table, and its reversal, as they were."""
    guards = {"q": Guard("ne", 5)}
    a = OCA(("q", "r"), (Transition("q", 1, "r"),), guards)
    assert guards == {"q": Guard("ne", 5)}
    assert a.guards == {"q": Guard("ne", 5), "r": Guard()}
    before = dict(loop3.guards)
    b = OCA(loop3.states + ("x",), loop3.transitions, loop3.guards)
    assert loop3.guards == before and b.guards == {**before, "x": Guard()}
    assert reverse(loop3).guards == before


def test_guard_allows():
    assert Guard("ne", 5).allows(4)
    assert not Guard("ne", 5).allows(5)
    assert Guard("eq", 5).allows(5)
    assert not Guard("eq", 5).allows(4)
    assert Guard().allows(123)
    with pytest.raises(ValueError):
        Guard("ne", -1)


# ---------------------------------------------------------------- reverse


def test_reverse_flips_and_negates(loop3):
    rev = reverse(loop3)
    assert rev.transitions[0] == Transition("r", -2, "q")
    assert rev.guards == loop3.guards
    assert reverse(rev).transitions == loop3.transitions


def test_reverse_is_cached(loop3):
    assert reverse(loop3) is reverse(loop3)


# ---------------------------------------------------------------- sccs


def test_scc_single_loop(loop3):
    assert scc_decompose(loop3) == (frozenset({"q", "r", "s"}),)


def test_scc_topological_order():
    a = parse_oca(
        "states: a b c d\n"
        "trans a +1 b\ntrans b +0 a\ntrans b +1 c\ntrans c -1 d\ntrans d +1 c\n"
    )
    comps = scc_decompose(a)
    assert comps == (frozenset({"a", "b"}), frozenset({"c", "d"}))


def test_scc_trivial_components():
    a = parse_oca("states: a b\ntrans a +1 b\n")
    comps = scc_decompose(a)
    assert set(comps) == {frozenset({"a"}), frozenset({"b"})}
    assert comps.index(frozenset({"a"})) < comps.index(frozenset({"b"}))


def test_scc_random_matches_reachability():
    # Two states share a component exactly when each reaches the other.
    rng = random.Random(7)
    for _ in range(40):
        a = random_oca(rng, num_states=5)
        table = {}
        for comp in scc_decompose(a):
            for q in comp:
                table[q] = comp
        reach = {q: {q} for q in a.states}
        for q in a.states:
            frontier = [q]
            while frontier:
                cur = frontier.pop()
                for t in a.transitions:
                    if t.src == cur and t.dst not in reach[q]:
                        reach[q].add(t.dst)
                        frontier.append(t.dst)
        for p in a.states:
            for q in a.states:
                together = q in reach[p] and p in reach[q]
                assert (table[p] is table[q]) == together
        # Topological: no transition leads back to an earlier component.
        position = {comp: k for k, comp in enumerate(scc_decompose(a))}
        for t in a.transitions:
            assert position[table[t.src]] <= position[table[t.dst]]


def test_scc_order_golden():
    # {f}, {b, c} and {d, e} are pairwise incomparable; their relative
    # order is part of the output (it orders the analyze report).
    a = parse_oca(
        "states: a b c d e f g h\n"
        "trans a +1 d\ntrans a +1 b\ntrans a +1 f\n"
        "trans b +1 c\ntrans c -1 b\ntrans d +0 e\ntrans e +0 d\ntrans f +2 f\n"
        "trans c +0 g\ntrans e +0 g\ntrans h +1 a\n"
    )
    assert scc_decompose(a) == (
        frozenset({"h"}),
        frozenset({"a"}),
        frozenset({"f"}),
        frozenset({"b", "c"}),
        frozenset({"d", "e"}),
        frozenset({"g"}),
    )
    # Predecessors are read off the transitions: no reversed automaton.
    scc_of(a)
    assert reverse not in a.memo


def test_reverse_keeps_the_scc_table(loop3):
    table = scc_of(loop3)
    assert scc_of(reverse(loop3)) is table


@pytest.mark.parametrize(
    "trans, guards, reason",
    [
        ((Transition("q", 1, "q"),), {}, "links no new state"),
        ((Transition("n", 0, "m"),), {}, "links no new state"),
        ((Transition("n", 0, "q"), Transition("r", 0, "n")), {}, "both into and out"),
        ((Transition("n", 0, "q"),), {"q": Guard("ne", 1)}, "only new states"),
    ],
    ids=["old-old", "new-new", "both-ways", "old-guard"],
)
def test_extend_keeps_old_components(loop3, trans, guards, reason):
    with pytest.raises(ValueError, match=reason):
        extend(loop3, ("n", "m"), trans, guards)


def test_restrict_maps_indices(loop3):
    sub, indices = restrict(loop3, frozenset({"q", "r"}))
    assert sub.states == ("q", "r")
    assert sub.transitions == (Transition("q", 2, "r"),)
    assert indices == (0,)
    assert restrict(loop3, frozenset({"q", "r"}))[0] is sub


# ---------------------------------------------------------------- effect/drop


def test_effect_drop_loop(loop3):
    assert path_effect_drop(loop3, (0, 1, 2)) == (5, 0)


def test_effect_drop_dip():
    a = parse_oca("states: a\ntrans a -1 a\ntrans a +3 a\n")
    assert path_effect_drop(a, (0, 1)) == (2, 1)
    assert path_effect_drop(a, (1, 0)) == (2, 0)
    assert path_effect_drop(a, ()) == (0, 0)


@given(st.lists(st.integers(min_value=-5, max_value=5), max_size=12), st.data())
def test_effect_drop_composition_law(updates, data):
    a = OCA(
        ("a",),
        tuple(Transition("a", u, "a") for u in updates),
        {},
    )
    whole = tuple(range(len(updates)))
    cut = data.draw(st.integers(min_value=0, max_value=len(updates)))
    e1, d1 = path_effect_drop(a, whole[:cut])
    e2, d2 = path_effect_drop(a, whole[cut:])
    e, d = path_effect_drop(a, whole)
    assert e == e1 + e2
    assert d == max(d1, d2 - e1)
    assert (e, d) == naive_effect_drop(a, whole)


# ---------------------------------------------------------------- replay


def test_apply_path_valid(loop3):
    configs = path_configs(loop3, Config("q", 1), (0, 1, 2))
    assert configs == [Config("q", 1), Config("r", 3), Config("s", 4), Config("q", 6)]


def test_apply_path_guard_failure_index(loop3):
    # One lap from q:0 lands exactly on the forbidden q:5.
    with pytest.raises(ReplayError) as err:
        apply_path(loop3, Config("q", 0), (0, 1, 2))
    assert err.value.index == 3
    assert err.value.config == Config("q", 5)


def test_apply_path_checks_start(loop3):
    with pytest.raises(ReplayError) as err:
        apply_path(loop3, Config("q", 5), ())
    assert err.value.index == 0


def test_apply_path_negative_value():
    a = parse_oca("states: a\ntrans a -2 a\n")
    with pytest.raises(ReplayError) as err:
        apply_path(a, Config("a", 1), (0,))
    assert err.value.index == 1


def test_apply_path_candidate_ignores_guards(loop3):
    end = apply_path(loop3, Config("q", 0), (0, 1, 2), mode="candidate")
    assert end == Config("q", 5)


def test_apply_path_candidate_allows_negative():
    a = parse_oca("states: a\ntrans a -2 a\n")
    end = apply_path(a, Config("a", 1), (0, 0), mode="candidate")
    assert end == Config("a", -3)


def test_apply_path_step_mismatch(loop3):
    with pytest.raises(ReplayError) as err:
        apply_path(loop3, Config("q", 1), (1,), mode="candidate")
    assert err.value.reason == "step source mismatch"
    assert err.value.index == 0


@pytest.mark.parametrize("bad", [-1, 3])
def test_every_walk_rejects_an_index_naming_no_transition(loop3, bad):
    # Python would wrap -1 around to the last transition.
    with pytest.raises(ReplayError) as err:
        apply_path(loop3, Config("q", 1), (0, bad), mode="candidate")
    assert err.value.index == 1
    with pytest.raises(ReplayError):
        path_states(loop3, "q", (bad,))
    with pytest.raises(ReplayError):
        path_effect_drop(loop3, (bad, 1, 2))
    with pytest.raises(ReplayError):
        rotate_to_zero_drop(loop3, (bad, 1, 2))


@st.composite
def replays(draw):
    """A small automaton with ``!=`` and ``==`` tests, a start and a path.
    Each step either follows a transition out of the current state or
    names any index, out-of-range ones and mismatched steps included."""
    n = draw(st.integers(min_value=1, max_value=3))
    states = tuple(f"q{k}" for k in range(n))
    state = st.sampled_from(states)
    step = st.builds(Transition, state, st.integers(-3, 3), state)
    transitions = tuple(draw(st.lists(step, min_size=1, max_size=8)))
    guards = {}
    for q in states:
        kind = draw(st.sampled_from(("true", "ne", "eq")))
        if kind != "true":
            guards[q] = Guard(kind, draw(st.integers(0, 4)))
    a = OCA(states, transitions, guards)
    at = draw(state)
    pinned = a.guards[at].value if a.guards[at].kind == "eq" else None
    value = draw(st.integers(-1, 6) if pinned is None else st.sampled_from((pinned, pinned + 1)))
    start, path = Config(at, value), []
    for _ in range(draw(st.integers(1, 12))):
        out = [i for i, t in enumerate(transitions) if t.src == at]
        if out and draw(st.integers(0, 3)):
            i = draw(st.sampled_from(out))
        else:
            i = draw(st.integers(-1, len(transitions)))
        path.append(i)
        if 0 <= i < len(transitions):
            at = transitions[i].dst
    return a, start, tuple(path)


@settings(max_examples=300)
@given(replays(), st.sampled_from(("valid", "candidate")))
def test_replay_matches_the_list_building_loop(case, mode):
    a, start, path = case
    try:
        want = reference_replay(a, start, path, mode)
    except ReplayError as exc:
        for replay in (apply_path, path_configs):
            with pytest.raises(ReplayError) as err:
                replay(a, start, path, mode)
            assert (err.value.reason, err.value.index, err.value.config) == (
                exc.reason,
                exc.index,
                exc.config,
            )
        return
    assert apply_path(a, start, path, mode) == want[-1]
    assert path_configs(a, start, path, mode) == want


def test_undeclared_state_is_invalid(loop3):
    assert not loop3.is_valid(Config("zz", 0))
    with pytest.raises(ValueError, match="not valid"):
        decide_full(loop3, Config("zz", 0), Config("q", 3))


# ------------------------------------------------------------- ownership


def test_analyses_die_with_their_automaton(monkeypatch):
    """Every memoized analysis sits in its automaton's memo, so deciding
    and verifying leaves no automaton alive, derived ones included
    (reverse, restrictions, normalizations)."""
    created = []
    init = OCA.__post_init__

    def tracked(self):
        init(self)
        created.append(weakref.ref(self))

    monkeypatch.setattr(OCA, "__post_init__", tracked)
    k = 50
    text = (
        f"states: q r s\nguard q != {5 * k}\nguard r != {30 * k}\nguard s != {15 * k}\n"
        "trans q +2 r\ntrans r +1 s\ntrans s +2 q\n"
    )
    src, trg = Config("q", 0), Config("q", 5 * k + 5)
    for _ in range(3):
        a = parse_oca(text)
        verdict = decide_full(a, src, trg)
        assert verdict.kind == "unreachable" and verdict.witness is not None
        evidence = format_witness(verdict.witness, normalized=True)
        assert verify_evidence(a, src, trg, evidence).verified
    del a, verdict
    gc.collect()
    alive = [r() for r in created if r() is not None]
    assert created and not alive, f"{len(alive)} of {len(created)} automata still alive"


def test_no_assert_in_the_package():
    """Soundness checks raise InternalError: ``python -O`` strips asserts."""
    found = []
    for path in sorted(Path(ocareach.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(node, ast.Assert) or (
                isinstance(exc, ast.Name) and exc.id == "AssertionError"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert left in the package at {', '.join(found)}"


def _reads(node) -> Counter:
    """The names ``node`` reads, as plain names or attributes."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) or isinstance(n, ast.Attribute)
    )


# Read by the benchmark's tracer, not yet by the package: ROADMAP item 12
# tracks pointing synthesis at it or moving it out.
_UNREAD_PUBLIC = {"perfect_cores"}


def test_no_unused_import_or_private_name_in_the_package():
    """Each module uses every name it imports (``__init__`` re-exports
    them), and each module-level ``_private`` function, class or
    constant, each public function and class, and each public method is
    read somewhere in the package outside its own definition: no package
    name is there only for tests."""
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for path in sorted(Path(ocareach.__file__).parent.rglob("*.py"))
    }
    everywhere = sum((_reads(tree) for tree in trees.values()), Counter())
    for tree in trees.values():
        everywhere.update(
            alias.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for alias in n.names
        )
    found = []
    for path, tree in trees.items():
        used = _reads(tree)
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and path.name != "__init__.py":
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if not used[name]:
                        found.append(f"{path.name}: import {name}")
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            own = _reads(node)
            for name in names:
                if name.startswith("_"):
                    checked = not name.startswith("__")
                else:
                    checked = isinstance(node, (ast.FunctionDef, ast.ClassDef))
                if checked and name not in _UNREAD_PUBLIC and everywhere[name] <= own[name]:
                    found.append(f"{path.name}: {name}")
            for method in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                    if everywhere[method.name] <= _reads(method)[method.name]:
                        found.append(f"{path.name}: {node.name}.{method.name}")
    assert not found, f"unused in the package: {', '.join(found)}"
