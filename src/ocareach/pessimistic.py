"""Pessimistic reachability: decision, closures, and checkable certificates.

A run is pessimistic when no configuration after the first sits in the
pumpable region.  Such runs cannot climb more than (|Q|-1) times the
largest update above where they start, which makes the search space
finite and the whole engine exact.  Closures run on
:func:`ocareach.exploration.post_star` with caps derived from that
ceiling.  The caps are proof obligations: a closure that crosses the
ceiling has found a bug and raises :class:`InternalError`.

A :class:`PessimisticCertificate` packages a run's flow, a short
decomposition of it with waypoint configurations, and per-guard
crossing records.  Because the flow admits no positive cycle, every
revisit of a state happens at a non-increasing counter value, so all
intermediate visits are sandwiched between the waypoint values around
them; the conditions checked by :func:`verify_pessimistic_certificate`
pin down exactly the visits that sandwich cannot clear.  The verifier
finishes by materializing the decomposition into an actual run and
replaying it, so "verified" always comes with a concrete witness.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .analysis import pumpable_drops
from .automaton import (
    OCA,
    Config,
    InternalError,
    Path,
    ReplayError,
    apply_path,
    content_lines,
    parse_config,
    path_configs,
    require_valid,
)
from .exploration import Configs, PostStarResult, post_star, value_sets
from .exploration import locally_bounded as locally_bounded_in
from .flows import Flow, FlowError, check_flow, flow_has_positive_cycle, flow_of_path, path_from_flow
from .values import greatest, mark_all, marked


def _closure(a: OCA, roots, locally_bounded: bool, stop_at: Config | None = None) -> PostStarResult:
    """Pessimistic closure on :func:`post_star`; roots, read as the values
    at each state, are exempt from the pumpable-region restriction but not
    from local boundedness.  Given ``stop_at``, the search ends at its
    level, with the shortest run to it.

    Values stay at or below ``ceiling``, the greatest root value plus
    (|Q|-1)*max_update, so at most ``|Q|`` configurations each: a
    positive simple cycle started at the least of its prefix sums never
    dips below its start, so that state has drop 0 under the |C| bound
    and admits no value.  Past its first configuration a run thus meets
    no positive cycle.

    The restriction at a state is None, admitting every value unasked,
    when the state is not pumpable and, for ``locally_bounded``, lies in
    a component without a climbing cycle.  Elsewhere it asks per value:
    below the state's drop or among the state's root values, and locally
    bounded.  :func:`post_star` looks it up at most once per state."""
    exempt = value_sets(roots)
    ceiling = max(map(greatest, exempt.values()), default=0) + (len(a.states) - 1) * a.max_update
    nodes = len(a.states) * (ceiling + 1)
    drops = pumpable_drops(a)
    stay = locally_bounded_in(a) if locally_bounded else None

    def admit(state: str):
        keep = None if stay is None else stay(state)
        if state not in drops:
            return keep
        drop, free = drops[state], {}
        mark_all(free, exempt.get(state, ()))  # the root values, each asked in constant time
        if keep is None:
            return lambda v: v < drop or marked(free, v)
        return lambda v: (v < drop or marked(free, v)) and keep(v)

    res = post_star(a, Configs(exempt), nodes, ceiling, restrict=admit, stop_at=stop_at)
    if res.cap_hit:
        raise InternalError(f"pessimistic closure climbed above {ceiling}")
    return res


def pessimistic_post_star(a: OCA, configs, locally_bounded: bool = False) -> Configs:
    """All configurations reachable by pessimistic runs from ``configs``.

    With ``locally_bounded`` the runs must additionally stay inside
    locally bounded configurations throughout, start included.
    """
    return _closure(a, configs, locally_bounded).configs


def decide_pessimistic_reach(a: OCA, src: Config, trg: Config) -> Path | None:
    """Shortest pessimistic run from src to trg, or None.

    Exact: pessimistic runs live in a finite slice of the configuration
    space, and the search ends at the target's level.  An invalid
    endpoint raises ValueError.
    """
    require_valid(a, src, trg)
    return _closure(a, [src], locally_bounded=False, stop_at=trg).run


# ------------------------------------------------------------- certificates


@dataclass(frozen=True)
class PessimisticCertificate:
    flow: Flow
    decomposition: tuple[Flow, ...]
    waypoints: tuple[Config, ...]
    crossings: tuple[tuple[str, int, int], ...]


@dataclass(frozen=True)
class VerifyResult:
    verified: bool
    condition: str | None = None
    run: Path | None = None

    def __bool__(self) -> bool:
        return self.verified


def _refuted(condition: str) -> VerifyResult:
    return VerifyResult(False, condition)


def _mults(flow: Flow, a: OCA, state: str) -> tuple[int, int]:
    out_m = in_m = 0
    for i, m in flow.counts:
        t = a.transitions[i]
        if t.src == state:
            out_m += m
        if t.dst == state:
            in_m += m
    return out_m, in_m


def _confined(segments, a: OCA, state: str, lo: int, hi: int, leaves: bool, enters: bool) -> bool:
    """Do ``segments[lo:hi]`` avoid ``state``: no step into or out of it,
    but one step out in the first when ``leaves`` is set and one step in
    in the last when ``enters`` is set?"""
    return all(
        _mults(segments[k], a, state) == (leaves and k == lo, enters and k == hi - 1)
        for k in range(lo, hi)
    )


def make_certificate(a: OCA, src: Config, run: Path) -> PessimisticCertificate:
    """Split a replayable descent run into a verifiable certificate.

    Cuts fall at the first and last visit of every state and, per
    disequality guard that the visit values cross, at the last visit
    above and first visit below the guard.  The run's flow must not
    contain a positive cycle (pessimistic runs never do).
    """
    configs = path_configs(a, src, run)
    flow = flow_of_path(a, src.state, run)
    if flow_has_positive_cycle(a, flow):
        raise ValueError("run climbs through a positive cycle; not certifiable")
    visits: dict[str, list[int]] = {}
    for pos, c in enumerate(configs):
        visits.setdefault(c.state, []).append(pos)
    cuts = {0, len(run)}
    crossing_cuts: list[tuple[str, int, int]] = []
    for state, positions in visits.items():
        cuts.add(positions[0])
        cuts.add(positions[-1])
        guard = a.guards[state]
        if guard.kind != "ne":
            continue
        g = guard.value
        if not (configs[positions[0]].value > g > configs[positions[-1]].value):
            continue
        above = [p for p in positions if configs[p].value > g]
        below = [p for p in positions if configs[p].value < g]
        hi, lo = above[-1], below[0]
        cuts.update((hi, lo))
        crossing_cuts.append((state, hi, lo))
    marks = sorted(cuts)
    if len(marks) - 1 > 4 * len(a.states) + 1:
        raise InternalError(f"{len(marks) - 1} segments exceed the waypoint bound")
    waypoints = tuple(configs[p] for p in marks)
    decomposition = tuple(
        flow_of_path(a, configs[lo].state, run[lo:hi])
        for lo, hi in zip(marks, marks[1:])
    )
    index_of = {p: i for i, p in enumerate(marks)}
    crossings = tuple(
        (state, index_of[hi], index_of[lo]) for state, hi, lo in sorted(crossing_cuts)
    )
    return PessimisticCertificate(flow, decomposition, waypoints, crossings)


def verify_pessimistic_certificate(
    a: OCA, src: Config, trg: Config, cert: PessimisticCertificate
) -> VerifyResult:
    """Check the descent-certificate conditions, then replay a realization.

    Refutations name the first failing condition.  A verified result
    always carries the materialized run, so acceptance never rests on
    the condition reasoning alone.
    """
    wp = cert.waypoints
    m = len(cert.decomposition)
    if len(wp) != m + 1:
        return _refuted("shape")
    if m > 4 * len(a.states) + 1:
        return _refuted("waypoint-count")
    if wp[0] != src or wp[-1] != trg:
        return _refuted("endpoint")
    try:
        check_flow(a, cert.flow)
    except FlowError:
        return _refuted("flow")
    if cert.flow.start != src.state or cert.flow.end != trg.state:
        return _refuted("endpoint")
    total: Counter[int] = Counter()
    for k, seg in enumerate(cert.decomposition):
        if seg.start != wp[k].state or seg.end != wp[k + 1].state:
            return _refuted("segment-endpoints")
        try:
            check_flow(a, seg)
        except FlowError:
            return _refuted("segment-flow")
        total.update(seg.counter())
    if Flow.make(total, src.state, trg.state) != cert.flow:
        return _refuted("decomposition-sum")
    if flow_has_positive_cycle(a, cert.flow):
        return _refuted("no-positive-cycle")
    for k, seg in enumerate(cert.decomposition):
        if wp[k + 1].value != wp[k].value + seg.effect(a):
            return _refuted("effect-chain")
    for c in wp:
        if c.value < 0:
            return _refuted("waypoint-negative")
        if not a.is_valid(c):
            return _refuted("waypoint-guard")
    waypoint_states = {c.state for c in wp}
    occurrences: dict[str, list[int]] = {}
    for k, c in enumerate(wp):
        occurrences.setdefault(c.state, []).append(k)
    support_states = set()
    for i, _ in cert.flow.counts:
        t = a.transitions[i]
        support_states.add(t.src)
        support_states.add(t.dst)
    if not support_states <= waypoint_states:
        return _refuted("support-covered")

    # Visits outside a state's waypoint span are impossible: the segment
    # right after the last occurrence leaves once and never returns, the
    # one before the first occurrence enters once, and all other
    # segments avoid the state entirely.
    for state in support_states:
        occ = occurrences[state]
        if not _confined(cert.decomposition, a, state, occ[-1], m, True, False):
            return _refuted("last-occurrence")
        if not _confined(cert.decomposition, a, state, 0, occ[0], False, True):
            return _refuted("first-occurrence")

    # Between consecutive occurrences of a state all its visit values
    # are sandwiched (no positive cycle means revisits never climb), so
    # only a disequality guard strictly inside the span needs a crossing
    # record confining the state to the two boundary waypoints.
    recorded: dict[str, tuple[int, int]] = {}
    for state, i, j in cert.crossings:
        if state in recorded:
            return _refuted("crossing-malformed")
        recorded[state] = (i, j)
    for state, (i, j) in recorded.items():
        occ = occurrences.get(state)
        if occ is None:
            return _refuted("crossing-malformed")
        guard = a.guards[state]
        if guard.kind != "ne":
            return _refuted("crossing-malformed")
        if i not in occ or j not in occ or occ.index(j) != occ.index(i) + 1:
            return _refuted("crossing-malformed")
        if not wp[i].value > guard.value > wp[j].value:
            return _refuted("crossing-malformed")
        if not _confined(cert.decomposition, a, state, i, j, True, True):
            return _refuted("crossing-confinement")
    for state in support_states:
        guard = a.guards[state]
        if guard.kind != "ne":
            continue
        values = [wp[k].value for k in occurrences[state]]
        if values[0] > guard.value > values[-1] and state not in recorded:
            return _refuted("crossing-missing")

    pieces: list[int] = []
    for seg in cert.decomposition:
        try:
            pieces.extend(path_from_flow(a, seg))
        except FlowError:
            return _refuted("segment-flow")
    run = tuple(pieces)
    try:
        end = apply_path(a, src, run)
    except ReplayError:
        return _refuted("replay")
    if end != trg:
        return _refuted("replay")
    return VerifyResult(True, None, run)


# ----------------------------------------------------------------- file IO


def format_certificate(src: Config, trg: Config, cert: PessimisticCertificate) -> str:
    def flow_line(tag: str, f: Flow) -> str:
        body = " ".join(f"{i}:{m}" for i, m in f.counts)
        return f"{tag} {f.start} {f.end} {body}".rstrip()

    lines = ["CERT", f"src {src}", f"trg {trg}", flow_line("flow", cert.flow)]
    lines.extend(flow_line("segment", seg) for seg in cert.decomposition)
    lines.append("waypoints " + " ".join(str(c) for c in cert.waypoints))
    lines.extend(f"crossing {s} {i} {j}" for s, i, j in cert.crossings)
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> tuple[Config, Config, PessimisticCertificate]:
    src = trg = flow = None
    segments: list[Flow] = []
    waypoints: tuple[Config, ...] = ()
    crossings: list[tuple[str, int, int]] = []

    def parse_flow(tokens: list[str]) -> Flow:
        if len(tokens) < 2:
            raise ValueError("flow line needs start and end states")
        counts: Counter[int] = Counter()
        for tok in tokens[2:]:
            idx, _, mult = tok.partition(":")
            counts[int(idx)] += int(mult)
        return Flow.make(counts, tokens[0], tokens[1])

    lines = [ln for _, ln in content_lines(text)]
    if not lines or lines[0] != "CERT":
        raise ValueError("not a certificate file")
    for ln in lines[1:]:
        tag, _, rest = ln.partition(" ")
        tokens = rest.split()
        if tag == "src":
            src = parse_config(rest)
        elif tag == "trg":
            trg = parse_config(rest)
        elif tag == "flow":
            flow = parse_flow(tokens)
        elif tag == "segment":
            segments.append(parse_flow(tokens))
        elif tag == "waypoints":
            waypoints = tuple(parse_config(t) for t in tokens)
        elif tag == "crossing":
            if len(tokens) != 3:
                raise ValueError(f"bad crossing line: {ln!r}")
            crossings.append((tokens[0], int(tokens[1]), int(tokens[2])))
        else:
            raise ValueError(f"unknown certificate line: {ln!r}")
    if src is None or trg is None or flow is None:
        raise ValueError("certificate is missing src, trg, or flow")
    cert = PessimisticCertificate(flow, tuple(segments), waypoints, tuple(crossings))
    return src, trg, cert
