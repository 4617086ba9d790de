"""Top-level reachability decisions with self-certifying verdicts.

Glue layer over the structural machinery: a pumping shortcut when both
endpoints sit in locally unbounded components, the invariant engine on
normalized endpoints, and a finite graph wrapper that reduces equality
tests to disequality-only queries.  Every run and witness returned has
passed the check ``verify`` applies to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .automaton import (
    OCA,
    Config,
    InternalError,
    Path,
    ReplayError,
    Transition,
    apply_path,
    component,
    extend,
    path_effect_drop,
    path_to,
    require_valid,
    restrict,
    reverse,
    state_search,
    valid_steps,
)
from .evidence import check_run
from .exploration import (
    NODE_CAP,
    ResourceExceeded,
    _value_cap,
    candidate_reach,
    is_locally_bounded,
    post_star,
    reach_oracle,
)
from .invariants import (
    NonReachabilityWitness,
    _fresh_state,
    normalize_endpoints,
    synthesize_witness,
)
from .values import least_above

REACHABLE = "reachable"
UNREACHABLE = "unreachable"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a reachability query plus the evidence backing it.

    ``run`` is present on reachable verdicts and replays under valid
    semantics.  ``witness`` is present on unreachable verdicts decided
    by the invariant engine and is stated over ``certified``, the
    normalized instance it was synthesized for.  ``parts`` carries the
    refused segment queries when the equality wrapper pieced the answer
    together from several disequality queries, each as ``(s, t, part)``.
    For a single pair, ``s`` and ``t`` are the entry and the exit.  For
    a set query they are the hubs' :0 configurations, and
    ``part.certified`` is the gadget over the hub automaton, whose hub
    steps name the entries and exits (see :func:`_decide_between`).
    """

    kind: str
    run: Path | None = None
    witness: NonReachabilityWitness | None = None
    certified: tuple[OCA, Config, Config] | None = None
    parts: tuple[tuple[Config, Config, "Verdict"], ...] = ()
    note: str = ""


def _pumping_cycle(a: OCA, c: Config) -> tuple[Path, int]:
    """Cycle on ``c.state`` that climbs from ``c`` and from anywhere above.

    A closure of c's component picks the least configuration past every
    test plus the worst a return walk can drop (``goal``), a second
    search given it as target climbs there, and a shortest path back
    closes the loop.  The first lap is valid by construction and every
    later lap runs above the tests, so the cycle pumps freely.  Returns
    the cycle and its (positive) effect.  The value cap exceeds ``goal``
    plus any update of the component, so it holds the first crossing of
    ``goal``; exceeding :data:`NODE_CAP` raises ResourceExceeded.  The
    caller has checked that ``c`` is locally unbounded, so finding no
    value above ``goal``, or no climb to it, raises InternalError.
    """
    sub, back = component(a, c.state)
    goal = c.value + a.max_test + a.max_update * len(a.states) + 1
    cap = _value_cap(sub, c.value, goal)
    res = post_star(sub, [c], NODE_CAP, cap)
    high = None
    for state in sub.states:  # the least value above goal, ties to the lower state index
        value = least_above(res.sets.get(state, ()), goal)
        if value is not None and (high is None or value < high.value):
            high = Config(state, value)
    if high is None:
        raise InternalError(f"{c} is locally unbounded, yet its closure stays at or below {goal}")
    climb = post_star(sub, [c], NODE_CAP, cap, stop_at=high).run
    if climb is None:
        raise InternalError(f"no climb from {c} to {high}, which its closure holds")
    cycle = tuple(back[i] for i in climb + path_to(state_search(sub, high.state), c.state))
    end = _replay(a, c, cycle)
    effect = end.value - c.value
    if end.state != c.state or effect <= a.max_test:
        raise InternalError(f"cycle from {c} ends at {end}, not above the tests")
    return cycle, effect


def lift_candidate_run(a: OCA, c: Config, d: Config, p: Path) -> Path:
    """Turn a candidate path into a valid run by pumping at both ends.

    Requires ``c`` locally unbounded forwards and ``d`` locally
    unbounded backwards.  The run is ``up^(H/e_up) p down^(H/e_down)``:
    laps of a cycle climbing ``e_up`` at the source, the candidate path,
    then laps of a cycle descending ``e_down`` into the target.  ``H``
    is the least common multiple of ``e_up`` and ``e_down`` that is at
    least ``m = drop(p) + max_test + 1``.

    Any common multiple ``H >= m`` is sound.  Being a multiple of both
    effects, the climb and the descent cancel, so the run ends at ``d``.
    The first climbing lap is valid by construction; each later lap
    replays an earlier one shifted up by ``e_up > max_test``, so it runs
    above every test.  The same holds for the descent read backwards
    from ``d``.  In between, ``p`` starts at ``c.value + H`` and never
    drops by more than ``drop(p)``, so it stays at or above
    ``max_test + 1``.  The least such ``H`` keeps the run's length
    linear in the test values rather than in their product.

    The result is not replayed here; callers certify it.
    """
    if a.has_equality_tests():
        raise ValueError("lifting needs an automaton with disequality tests only")
    require_valid(a, c, d)
    if is_locally_bounded(a, c):
        raise ValueError(f"{c} is locally bounded; lifting does not apply")
    rev = reverse(a)
    if is_locally_bounded(rev, d):
        raise ValueError(f"{d} is locally bounded in reverse; lifting does not apply")
    if apply_path(a, c, p, mode="candidate") != d:
        raise ValueError(f"path does not lead from {c} to {d} over the integers")
    up, e_up = _pumping_cycle(a, c)
    down_rev, e_down = _pumping_cycle(rev, d)
    down = tuple(reversed(down_rev))
    _, drop = path_effect_drop(a, p)
    m = drop + a.max_test + 1
    lcm = math.lcm(e_up, e_down)
    height = lcm * -(-m // lcm)
    return up * (height // e_up) + p + down * (height // e_down)


def _replay(a: OCA, start: Config, path: Path) -> Config:
    """Where ``path`` ends from ``start``; a path that does not replay is a bug."""
    try:
        return apply_path(a, start, path)
    except ReplayError as exc:
        raise InternalError(f"path from {start} does not replay: {exc}") from exc


def _certify_run(a: OCA, src: Config, trg: Config, run: Path) -> Verdict:
    """The RUN check ``verify`` applies, passed by every reachable verdict."""
    failed = check_run(a, src, trg, run)
    if failed:
        raise InternalError(f"run from {src} to {trg} fails its check: {failed}")
    return Verdict(REACHABLE, run=run)


def decide_disequality(a: OCA, src: Config, trg: Config) -> Verdict:
    """Decide src ->* trg in an automaton without equality tests.

    Both endpoints locally unbounded (forwards resp. backwards): decided
    at the candidate level and lifted.  Otherwise the endpoints are
    normalized and the invariant engine either synthesizes a witness or
    certifies reachability: the target lies in the forward core's
    closure, or the perfect cores fail verification.  The exploration
    oracle then extracts the run.  Each leg is a finite search under its
    own node cap.  Raises :class:`ResourceExceeded` when a cap ran out
    undecided.
    """
    if a.has_equality_tests():
        raise ValueError("decide_disequality needs disequality tests only")
    require_valid(a, src, trg)
    if src == trg:
        return Verdict(REACHABLE, run=())
    lift = not is_locally_bounded(a, src) and not is_locally_bounded(reverse(a), trg)
    p = candidate_reach(a, src, trg) if lift else None
    if p is not None:
        return _certify_run(a, src, trg, lift_candidate_run(a, src, trg, p))
    # Lifting without a candidate path: no run over the integers, let
    # alone a valid one.  Still try for a checkable invariant certificate.
    n, s2, t2 = normalize_endpoints(a, src, trg)
    try:
        w = synthesize_witness(n, s2, t2)
    except ResourceExceeded:
        if not lift:
            raise
        w = None
    if w is not None:
        return Verdict(UNREACHABLE, witness=w, certified=(n, s2, t2))
    if lift:
        return Verdict(UNREACHABLE, note="no candidate run over the integers")
    # No witness means the target is reachable: it lies in the forward
    # core's closure, or the perfect cores failed verification, which
    # only happens on reachable instances.  The oracle digs up the run.
    run = reach_oracle(a, src, trg)
    if run is None:
        raise InternalError("witness synthesis and exploration disagree")
    return _certify_run(a, src, trg, run)


def _decide_between(
    a: OCA, sources: list[Config], targets: list[Config]
) -> tuple[Config, Config, Verdict]:
    """Decide whether some source reaches some target, without equality tests.

    One pair is :func:`decide_disequality` itself.  More pairs are one
    query on ``a`` :func:`~ocareach.automaton.extend`-ed by two hubs:
    ``hub_in`` steps by +v onto each source (q, v), each target (x, w)
    steps by -w into ``hub_out``, and the query is hub_in:0 ->
    hub_out:0.  No step enters ``hub_in`` and none leaves ``hub_out``,
    so a run is one source step, a run of ``a`` and one target step:
    the set query is unreachable iff every pair is.  Each hub is a
    component of its own, so the query shares ``a``'s analyses.

    Returns ``(s, t, verdict)``.  On a reachable verdict the run joins
    source ``s`` to target ``t`` in ``a``: the hub steps, which name
    them, are dropped.  On an unreachable one, ``s`` and ``t`` are the
    endpoints of the refused query, for a set the hubs' :0
    configurations.  Raises :class:`ResourceExceeded` when a cap ran
    out undecided.
    """
    if len(sources) == 1 and len(targets) == 1:
        return sources[0], targets[0], decide_disequality(a, sources[0], targets[0])
    require_valid(a, *sources, *targets)
    taken = set(a.states)
    hub_in, hub_out = _fresh_state(taken, "hub_in"), _fresh_state(taken, "hub_out")
    links = tuple(Transition(hub_in, s.value, s.state) for s in sources)
    links += tuple(Transition(t.state, -t.value, hub_out) for t in targets)
    start, end = Config(hub_in, 0), Config(hub_out, 0)
    got = decide_disequality(extend(a, (hub_in, hub_out), links, {}), start, end)
    if got.run is None:
        return start, end, got
    n = len(a.transitions)
    s, t = sources[got.run[0] - n], targets[got.run[-1] - n - len(sources)]
    return s, t, Verdict(REACHABLE, run=got.run[1:-1])


def _pinned_configs(a: OCA) -> list[Config]:
    """The single valid configuration of every equality-test state."""
    return [Config(q, a.guards[q].value) for q in a.states if a.guards[q].kind == "eq"]


def decide_full(a: OCA, src: Config, trg: Config) -> Verdict:
    """Decide src ->* trg with equality and disequality tests mixed.

    Every run decomposes at its visits to equality-test states, each of
    which admits exactly one valid configuration.  Those pins plus the
    endpoints form a finite graph, searched depth first from ``src``.
    A popped vertex u first takes its single steps onto unvisited
    vertices.  Then one set query, in the automaton with the equality
    states deleted, asks whether any entry of u (u itself, or a step
    out of its pin) reaches any exit of an unvisited vertex (the vertex
    itself, or a step onto its pin); see :func:`_decide_between`.  Each
    reachable answer visits the vertices its run's exit steps onto, and
    the query is asked again until it is refused.  A query that runs
    out of budget is split, exits first and then entries, down to single
    pairs; only an undecided single pair leaves the answer open.
    """
    require_valid(a, src, trg)
    if src == trg:
        return Verdict(REACHABLE, run=())
    eq_states = {q for q, g in a.guards.items() if g.kind == "eq"}
    if not eq_states:
        return decide_disequality(a, src, trg)
    keep = frozenset(a.states) - eq_states
    sub, back = restrict(a, keep)

    vertices = [src, *(pin for pin in _pinned_configs(a) if pin not in (src, trg)), trg]
    vertex_set = set(vertices)

    def entries(u: Config) -> dict[Config, Path]:
        """Where a segment from ``u`` starts in ``sub``, with the step there."""
        if u.state not in eq_states:
            return {u: ()}
        starts: dict[Config, Path] = {}
        for _, i, e in valid_steps(a, (u,)):
            if e.state not in eq_states:
                starts.setdefault(e, (i,))
        return starts

    # Where a segment can end in ``sub``, with each vertex other than
    # src that it steps onto and the step; steps into a pin are steps
    # out of it in the reversed automaton.
    exits: dict[Config, list[tuple[Config, Path]]] = {}
    for v in vertices[1:]:
        if v.state not in eq_states:
            exits.setdefault(v, []).append((v, ()))
            continue
        for _, i, x in valid_steps(reverse(a), (v,)):
            if x.state not in eq_states:
                exits.setdefault(x, []).append((v, (i,)))

    paths: dict[Config, Path] = {src: ()}
    stack = [src]
    refusals: list[tuple[Config, Config, Verdict]] = []
    blocked = 0

    def visit(v: Config, path: Path) -> bool:
        """Reach ``v`` by ``path`` unless it was reached; True at trg."""
        if v in paths:
            return False
        paths[v] = path
        stack.append(v)
        return v == trg

    while stack:
        u = stack.pop()
        for _, i, d in valid_steps(a, (u,)):
            if d in vertex_set and visit(d, paths[u] + (i,)):
                return _certify_run(a, src, trg, paths[trg])
        starts = entries(u)
        blocks = [(list(starts), list(exits))]
        while blocks:
            sources, targets = blocks.pop()
            targets = [x for x in targets if any(v not in paths for v, _ in exits[x])]
            if not sources or not targets:
                continue
            try:
                e, x, got = _decide_between(sub, sources, targets)
            except ResourceExceeded:
                if len(targets) > 1:
                    half = len(targets) // 2
                    blocks += [(sources, targets[half:]), (sources, targets[:half])]
                elif len(sources) > 1:
                    half = len(sources) // 2
                    blocks += [(sources[half:], targets), (sources[:half], targets)]
                else:
                    blocked += 1
                continue
            if got.kind == UNREACHABLE:
                refusals.append((e, x, got))
                continue
            if got.run is None:
                raise InternalError(f"reachable verdict for {e} -> {x} has no run")
            piece = paths[u] + starts[e] + tuple(back[i] for i in got.run)
            for v, post in exits[x]:
                if visit(v, piece + post):
                    return _certify_run(a, src, trg, paths[trg])
            blocks.append((sources, targets))
    if blocked:
        raise ResourceExceeded(
            f"{blocked} segment queries undecided; reachability still open"
        )
    return Verdict(
        UNREACHABLE,
        parts=tuple(refusals),
        note=f"no path in the pinned-configuration graph over {len(vertices)} vertices",
    )
