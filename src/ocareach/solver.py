"""Top-level reachability decisions with self-certifying verdicts.

Glue layer over the structural machinery: a pumping shortcut when both
endpoints sit in locally unbounded components, the invariant engine on
normalized endpoints, and a finite graph wrapper that reduces equality
tests to disequality-only queries.  The shortcut lifts a candidate run
with a bounded prefix, free laps and a bounded return at each end
(Haase, Kreutzer, Ouaknine and Worrell, CONCUR 2009): the laps are
those of a canonical climbing cycle on an unbounded chain
(:mod:`ocareach.analysis`), so no climb is searched past the first such
chain and runs grow with the tests, not with their product.  Every run
and witness returned has passed the check ``verify`` applies to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .analysis import climbing_cycles, climbs_forever
from .automaton import (
    OCA,
    Config,
    InternalError,
    Path,
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
    Found,
    ResourceExceeded,
    candidate_reach,
    first_found,
    is_locally_bounded,
    reach_oracle,
)
from .invariants import (
    NonReachabilityWitness,
    _fresh_state,
    normalize_endpoints,
    synthesize_witness,
)

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


class _Climb(NamedTuple):
    """A climb from ``c`` back to ``c.state``: ``prefix`` to a
    configuration u on an unbounded chain, ``k`` laps of u's canonical
    cycle, each rising ``effect``, then ``ret`` back to ``c.state``.
    It replays from ``c`` for every ``k >= least`` and rises
    ``base + k * effect``."""

    prefix: Path
    lap: Path
    ret: Path
    effect: int
    base: int
    least: int

    def path(self, k: int) -> Path:
        return self.prefix + self.lap * k + self.ret

    def height(self, k: int) -> int:
        return self.base + k * self.effect


def _climb(a: OCA, c: Config) -> _Climb:
    """The climb from ``c``, read off the climbing-cycle tables of c's
    component.

    When ``c`` lies on an unbounded chain of its state's canonical
    cycle, the climb is laps of that cycle and nothing is searched.
    Otherwise one level-by-level search from ``c``
    (:func:`~ocareach.exploration.first_found`) stops at the first
    configuration u on an unbounded chain
    (:func:`~ocareach.analysis.climbs_forever`, where
    :func:`~ocareach.exploration.is_bounded`'s probe stops too), and
    returns the prefix, a shortest run to u.  Every lap from u is
    valid; the shortest state path back to ``c.state`` runs above every
    test once the laps have lifted u to ``drop(ret) + max_test + 1``,
    which sets ``least``.  The caller has checked that ``c`` is locally
    unbounded, so a search that ends without such a u raises
    InternalError; one past :data:`NODE_CAP` configurations raises
    ResourceExceeded.
    """
    sub, back = component(a, c.state)

    def stop(state: str):
        climbs = climbs_forever(sub, state)
        if climbs is None:
            return None

        def keep(value: int) -> bool:
            if climbs(value):
                raise Found(Config(state, value))
            return True

        return keep

    u, prefix = c, ()
    climbs = climbs_forever(sub, c.state)
    if climbs is None or not climbs(c.value):
        hit = first_found(sub, c, NODE_CAP, stop)
        if hit is None:
            raise InternalError(f"{c} is locally unbounded, yet reaches no unbounded chain")
        u, prefix = hit
    cyc = climbing_cycles(sub)[u.state]
    ret = path_to(state_search(sub, u.state), c.state)
    effect, drop = path_effect_drop(sub, ret)
    least = 0 if not ret else max(0, -(-(drop + a.max_test + 1 - u.value) // cyc.effect))
    return _Climb(
        tuple(back[i] for i in prefix),
        tuple(back[i] for i in cyc.path),
        tuple(back[i] for i in ret),
        cyc.effect,
        u.value - c.value + effect,
        least,
    )


def lift_candidate_run(a: OCA, c: Config, d: Config, p: Path) -> Path:
    """Turn a candidate path into a valid run by pumping at both ends.

    Requires ``c`` locally unbounded forwards and ``d`` locally
    unbounded backwards.  The run is ``up(k) p reverse(down(l))``: a
    :func:`_climb` from ``c`` with ``k`` laps, the candidate path, then
    a climb from ``d`` in the reversed automaton with ``l`` laps, read
    backwards.  Both climbs rise the same height ``H``, the least that
    both reach with enough laps to be valid and that is at least
    ``m = drop(p) + max_test + 1``; stepping ``k`` finds it within
    ``e_down`` tries.

    Soundness.  The prefix of a climb is a run its search found, and
    each lap from its end u replays a lap of u's canonical cycle on an
    unbounded chain, so every lap is valid, however many.  The way back
    starts at least ``drop(ret) + max_test + 1`` high, so it stays above
    every test.  The same holds for the descent read backwards from
    ``d``.  In between, ``p`` starts at ``c.value + H`` and never drops
    by more than ``drop(p)``, so it stays at or above ``max_test + 1``.
    Equal heights make the climb and the descent cancel, so the run
    ends at ``d``.  Only when the two lap effects' gcd does not divide
    the difference of the climbs' bases do no laps give equal heights;
    then whole climbs, each rising more than ``max_test``, repeat up to
    the least common multiple of their heights that is at least ``m``.
    Each later copy replays an earlier one shifted up by its height, so
    it runs above every test.  The run's length stays linear in the test
    values rather than in their product.

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
    up, down = _climb(a, c), _climb(rev, d)
    _, drop = path_effect_drop(a, p)
    m = drop + a.max_test + 1
    if (down.base - up.base) % math.gcd(up.effect, down.effect) == 0:
        low = max(m, up.height(up.least), down.height(down.least))
        k = -(-(low - up.base) // up.effect)
        while (up.height(k) - down.base) % down.effect:
            k += 1
        l = (up.height(k) - down.base) // down.effect
        return up.path(k) + p + tuple(reversed(down.path(l)))
    k = max(up.least, -(-(a.max_test + 1 - up.base) // up.effect))
    l = max(down.least, -(-(a.max_test + 1 - down.base) // down.effect))
    e_up, e_down = up.height(k), down.height(l)
    lcm = math.lcm(e_up, e_down)
    height = lcm * -(-m // lcm)
    return up.path(k) * (height // e_up) + p + tuple(reversed(down.path(l))) * (height // e_down)


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
