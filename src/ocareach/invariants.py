"""Negative witnesses: core invariant sets and their verification.

A non-reachability witness is a pair of small configuration sets, one
around the source and one (in the reversed automaton) around the
target.  Each set lives inside the pumpable region, restricted to
locally bounded configurations, where membership along any run is
pinned down by bounded chains.  The forward set must absorb every
pumpable locally bounded configuration reachable from it by a locally
bounded pessimistic excursion plus one step; the backward set mirrors
that in reverse.  Finally the two closures, padded by one step, must
be separated: no single transition may cross between them, and no
locally unbounded pair may even be connected in candidate semantics.
Together these conditions hold exactly when the target is unreachable,
so checking them decides non-reachability with a replayable
counterexample on every failure.

The canonical witness is the pair of perfect cores: configurations
reachable by locally bounded runs, intersected with the pumpable
region.  Within each bounded chain those form a suffix, so each chain
compresses to one arithmetic progression, read from the closure's value
sets one chain at a time.  Synthesis builds each core's
closure once.  The forward closure follows valid steps only, so a target
inside it is reachable, and synthesis then stops before the backward
core: no witness could verify.

Verification runs three named stages after its shape checks:
:func:`check_ap_domain` per progression (one boundedness question for
a progression on one chain), :func:`check_inductive` per side, and
:func:`check_separator` between the sides.  The inductive
stage builds each side's pessimistic closure once, through locally
bounded configurations, and returns the induced sets the separator
reads.  Only a side whose closure leaks, holding something local
boundedness alone kept out, also builds its unrestricted closure for
the induced set; almost none does.  The stages read the closures'
per-state value sets directly, as bitsets: the escapes, the leak test, the
induced sets and the separator's crossings are shifts, ands and ors per
state and transition, and a state neither pumpable nor in a climbing
component costs no question per configuration.

The module owns the WITNESS format, and with it the normalization
gadget its ``normalized yes`` line names (:func:`normalize_endpoints`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .analysis import chain_of, in_pumpable_region, pumpable_drops, spans_one_chain
from .automaton import (
    OCA,
    Config,
    Guard,
    InternalError,
    Transition,
    batch_steps,
    content_lines,
    extend,
    require_valid,
    reverse,
)
from .exploration import (
    NODE_CAP,
    Configs,
    ResourceExceeded,
    candidate_reach,
    is_locally_bounded,
    locally_bounded,
    post_star,
)
from .pessimistic import pessimistic_post_star
from .values import Values, at_least, count, inter, iterate, lattice, least, minus, of, union


@dataclass(frozen=True)
class Progression:
    """Configurations ``(state, v)`` with ``low <= v <= high`` and
    ``v == start (mod period)``."""

    state: str
    start: int
    period: int
    low: int
    high: int

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError("progression period must be positive")
        if min(self.start, self.low, self.high) < 0:
            raise ValueError("progression bounds are natural numbers")

    def min_value(self) -> int | None:
        first = self.low + (self.start - self.low) % self.period
        return first if first <= self.high else None

    def max_value(self) -> int | None:
        if self.min_value() is None:
            return None
        return self.high - (self.high - self.start) % self.period

    def values(self) -> range:
        first = self.min_value()
        if first is None:
            return range(0)
        return range(first, self.high + 1, self.period)

    def contains(self, c: Config) -> bool:
        return (
            c.state == self.state
            and self.low <= c.value <= self.high
            and (c.value - self.start) % self.period == 0
        )


@dataclass(frozen=True)
class APSet:
    """Union of arithmetic progressions of configurations."""

    progressions: tuple[Progression, ...]

    def contains(self, c: Config) -> bool:
        return any(p.contains(c) for p in self.progressions)

    def members(self) -> Iterator[Config]:
        seen: set[Config] = set()
        for p in sorted(self.progressions, key=lambda p: (p.state, p.low)):
            for v in p.values():
                c = Config(p.state, v)
                if c not in seen:
                    seen.add(c)
                    yield c


@dataclass(frozen=True)
class NonReachabilityWitness:
    """Forward core (this automaton) and backward core (reversed one)."""

    fwd: APSet
    bwd: APSet


@dataclass(frozen=True)
class CheckResult:
    holds: bool
    condition: str | None = None
    detail: object = None

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True)
class WitnessReport:
    verified: bool
    reason: str | None = None
    detail: object = field(default=None, compare=False)

    def __bool__(self) -> bool:
        return self.verified


def _reject_equality_tests(a: OCA, what: str) -> None:
    if a.has_equality_tests():
        raise ValueError(f"{what} supports disequality tests only")


MEMBER_CAP = 200_000  # configurations one side of a witness may describe


def _step_order(a: OCA):
    """Sort key of a step ``(c, i, d)``: c's state index, c's value, i."""
    order = a.state_index
    return lambda step: (order[step[0].state], step[0].value, step[1])


def _compress_core(a: OCA, core: dict[str, Values]) -> APSet:
    """One progression per chain; ``core``, the values per state, must
    form chain suffixes.

    Anything else means the core was not produced by a locally bounded
    exploration, so fail loudly instead of emitting a wrong witness.
    Per state, the least value left and its chain give the suffix's
    lattice ``m, m + g, ..., last`` as one set; the core must hold all
    of it, and is left with the rest.  So :func:`chain_of` runs once per
    chain and no member is visited on its own.
    """
    found = []
    for state in sorted(core):
        rest = core[state]
        while rest:
            m = least(rest)
            chain = chain_of(a, Config(state, m))
            if chain is None:
                raise InternalError(f"core configuration {state}:{m} is outside every chain")
            if chain.last is None:
                raise InternalError(f"core configuration {state}:{m} sits in an unbounded chain")
            g, n = chain.period, (chain.last - m) // chain.period + 1
            suffix = (m, lattice(n, g))
            if count(inter(rest, suffix)) != n:
                raise InternalError(f"core at {state}:{m} is not a suffix of its chain {chain}")
            rest = minus(rest, suffix)
            found.append((state, chain.first, Progression(state, m, g, m, chain.last)))
    return APSet(tuple(p for _, _, p in sorted(found, key=lambda f: f[:2])))


def _endpoints(a: OCA, src: Config, trg: Config) -> OCA:
    """The reversed automaton, once both endpoints are checked normalized:
    the source pumpable and locally bounded, the target likewise in the
    reversed automaton."""
    _reject_equality_tests(a, "perfect cores")
    rev = reverse(a)
    if not (in_pumpable_region(a, src) and is_locally_bounded(a, src)):
        raise ValueError(f"source {src} is not pumpable and locally bounded")
    if not (in_pumpable_region(rev, trg) and is_locally_bounded(rev, trg)):
        raise ValueError(f"target {trg} is not pumpable and locally bounded in reverse")
    return rev


def _core(a: OCA, root: Config, avoid: Config | None = None) -> APSet | None:
    """``root``'s perfect core, or None when its closure holds ``avoid``.
    The closure is one search through locally bounded configurations,
    finite as runs cross the components' DAG; past :data:`NODE_CAP` it
    raises ResourceExceeded."""
    closure = post_star(a, [root], NODE_CAP, restrict=locally_bounded(a))
    if avoid is not None and avoid in closure:
        return None
    drops = pumpable_drops(a)
    return _compress_core(
        a,
        {
            state: at_least(found, drops[state])
            for state, found in closure.sets.items()
            if state in drops
        },
    )


def perfect_cores(a: OCA, src: Config, trg: Config) -> tuple[APSet, APSet]:
    """Smallest possible witness cores, one forward and one backward.

    Requires normalized endpoints: the source pumpable and locally
    bounded, the target likewise in the reversed automaton.
    """
    rev = _endpoints(a, src, trg)
    return _core(a, src), _core(rev, trg)


_Step = tuple[Config, int, Config]
_Values = dict[str, Values]  # a configuration set as a set of values per state


def _closures(a: OCA, roots: list[Config]) -> tuple[list[_Step], _Values]:
    """The inductive escape candidates of ``roots`` (steps out of their
    closure through locally bounded configurations into the pumpable
    region, outside ``roots``) and the induced set (their unrestricted
    pessimistic closure plus its one-step boundary) as the values at
    each state.  Both come from one :func:`_scan` of the first closure.
    Only when that closure leaks is the unrestricted one built, and the
    induced set scanned from it instead; leaks are rare.
    """
    bounded = pessimistic_post_star(a, roots, locally_bounded=True)
    escapes, leaks, induced = _scan(a, roots, bounded)
    if leaks:
        _, _, induced = _scan(a, roots, pessimistic_post_star(a, roots))
    return escapes, induced


def _scan(a: OCA, roots: list[Config], closure: Configs) -> tuple[list[_Step], bool, _Values]:
    """One pass over ``closure``, a pessimistic closure of ``roots``, a
    few shifts and masks per state and transition.  Returns the
    inductive escape candidates, whether the closure leaks and the
    closure plus its one-step boundary.  A closure through locally
    bounded configurations leaks when local boundedness alone kept
    something out of it: a locally unbounded root, or a locally
    unbounded successor outside the pumpable region."""
    drops = pumpable_drops(a)
    by_state: dict[str, list[int]] = {}
    for state, value in roots:
        by_state.setdefault(state, []).append(value)
    inside = {state: of(found) for state, found in by_state.items()}
    escapes: list[_Step] = []
    leaks = any(c not in closure for c in roots)
    sets = closure.sets
    induced = dict(sets)
    for state, found in sets.items():
        for i, dst, update, targets in batch_steps(a, state, found):
            if not targets:
                continue
            drop, new = drops.get(dst), minus(targets, sets.get(dst, ()))
            if drop is not None:
                out = minus(at_least(targets, drop), inside.get(dst, ()))
                if out:
                    escapes += [(Config(state, w - update), i, Config(dst, w)) for w in iterate(out)]
                    new = minus(new, out)
            leaks = leaks or bool(new)
            induced[dst] = union(induced.get(dst, ()), targets)
    return escapes, leaks, induced


def check_inductive(a: OCA, w: NonReachabilityWitness) -> tuple[CheckResult, list[_Values]]:
    """Closure property of the cores under locally bounded pessimistic
    exploration plus one step, forward for ``fwd``, reversed for ``bwd``.

    Also returns the induced sets of the sides it built, for
    :func:`check_separator`: forward first, and backward only if forward
    holds.  A core member that is not a valid configuration raises
    ValueError.
    """
    induced = []
    for condition, machine, aps in (("forward", a, w.fwd), ("backward", reverse(a), w.bwd)):
        escapes, side = _closures(machine, list(aps.members()))
        for escape in sorted(escapes, key=_step_order(machine)):
            if is_locally_bounded(machine, escape[2]):
                return CheckResult(False, condition, escape), induced
        induced.append(side)
    return CheckResult(True), induced


def check_separator(a: OCA, fwd_side: _Values, bwd_side: _Values) -> CheckResult:
    """No crossing between the induced sets :func:`check_inductive`
    returns: the pessimistic closures of the cores plus their one-step
    boundaries.

    Sep1: no single transition from the forward side to the backward
    side.  Sep2: no candidate path between a locally unbounded forward
    member and a backward member locally unbounded in reverse.
    """
    crossing = _crossing(a, fwd_side, bwd_side)
    if crossing is not None:
        return CheckResult(False, "Sep1", crossing)
    loose_fwd, loose_bwd = _loose(a, fwd_side), _loose(reverse(a), bwd_side)
    for c in loose_fwd:
        for d in loose_bwd:
            path = candidate_reach(a, c, d)
            if path is not None:
                return CheckResult(False, "Sep2", (c, d, path))
    return CheckResult(True)


def _crossing(a: OCA, fwd_side: _Values, bwd_side: _Values) -> _Step | None:
    """The least step from ``fwd_side`` into ``bwd_side`` by (source
    state index, source value, transition index), or None: per state and
    transition, one and of the shifted values with the other side, whose
    least value crosses first."""
    order = a.state_index
    crossing = None
    for state, found in fwd_side.items():
        for i, dst, update, targets in batch_steps(a, state, found):
            hit = inter(targets, bwd_side.get(dst, ()))
            if hit:
                w = least(hit)
                step = (order[state], w - update, i, dst, w)
                if crossing is None or step < crossing:
                    crossing = step
    if crossing is None:
        return None
    rank, v, i, dst, w = crossing
    return Config(a.states[rank], v), i, Config(dst, w)


def _loose(a: OCA, side: _Values) -> list[Config]:
    """The locally unbounded members of ``side``, by (state index, value).
    A state whose component has no climbing cycle is skipped unasked."""
    at = locally_bounded(a)
    loose = []
    for state in sorted(side, key=a.state_index.__getitem__):
        keep = at(state)
        if keep is not None:
            loose.extend(Config(state, v) for v in iterate(side[state]) if not keep(v))
    return loose


def check_ap_domain(a: OCA, p: Progression) -> CheckResult:
    """One progression's domain obligations: valid members, the least
    member pumpable, and every member locally bounded.

    A progression of two or more members that lies on one chain
    (:func:`~ocareach.analysis.spans_one_chain`) is checked per chain:
    its members are valid, and each is reached from the least by valid
    laps inside the least one's component.  Everything a locally bounded
    configuration reaches there is locally bounded, so only the least
    member is asked, and a failure names it, as the member-by-member
    check that every other progression runs would."""
    values = p.values()
    if not values or p.state not in a.state_index:
        return CheckResult(False, "malformed", p)
    if len(values) > 1 and spans_one_chain(a, p.state, p.period, values[0], values[-1]):
        values = values[:1]
    members = [Config(p.state, v) for v in values]
    for c in members:
        if not a.is_valid(c):
            return CheckResult(False, "invalid-member", c)
    if not in_pumpable_region(a, members[0]):
        return CheckResult(False, "outside-pumpable", members[0])
    loose = next((c for c in members if not is_locally_bounded(a, c)), None)
    if loose is not None:
        return CheckResult(False, "locally-unbounded", loose)
    return CheckResult(True)


def _value_bound(a: OCA) -> int:
    return 2 * len(a.states) * a.max_update * a.max_test


def verify_witness(a: OCA, src: Config, trg: Config, w: NonReachabilityWitness) -> WitnessReport:
    """Full witness check; verified means the target is unreachable.

    Refutation reasons, in checking order: trivial (equal endpoints),
    domain (an endpoint not valid), size, value-bound, domain (a
    progression failing :func:`check_ap_domain`), src-membership /
    trg-membership, inductive (:func:`check_inductive`), separator
    (:func:`check_separator`).
    After value-bound, a side of over :data:`MEMBER_CAP` members raises ResourceExceeded.
    """
    _reject_equality_tests(a, "witnesses")
    if src == trg:
        return WitnessReport(False, "trivial", src)
    if not a.is_valid(src) or not a.is_valid(trg):
        return WitnessReport(False, "domain", (src, trg))
    limit = 2 * len(a.states) ** 2 + 1
    for side, aps in (("I", w.fwd), ("J", w.bwd)):
        if len(aps.progressions) > limit:
            return WitnessReport(False, "size", side)
    bound = _value_bound(a)
    for side, aps, pivot in (("I", w.fwd, src), ("J", w.bwd, trg)):
        for p in aps.progressions:
            top = p.max_value()
            if top is None:
                return WitnessReport(False, "malformed", (side, p))
            if top > bound and not (p.min_value() == top == pivot.value and p.state == pivot.state):
                return WitnessReport(False, "value-bound", (side, p))
    for aps in (w.fwd, w.bwd):
        if sum(len(p.values()) for p in aps.progressions) > MEMBER_CAP:
            raise ResourceExceeded(
                f"progression set describes more than {MEMBER_CAP} configurations"
            )
    for side, aps, machine in (("I", w.fwd, a), ("J", w.bwd, reverse(a))):
        for p in aps.progressions:
            res = check_ap_domain(machine, p)
            if not res:
                return WitnessReport(False, "domain", (side, p, res))
    if not w.fwd.contains(src):
        return WitnessReport(False, "src-membership", src)
    if not w.bwd.contains(trg):
        return WitnessReport(False, "trg-membership", trg)
    res, induced = check_inductive(a, w)
    if not res:
        return WitnessReport(False, "inductive", (res.condition, res.detail))
    res = check_separator(a, *induced)
    if not res:
        return WitnessReport(False, "separator", (res.condition, res.detail))
    return WitnessReport(True)


def synthesize_witness(a: OCA, src: Config, trg: Config) -> NonReachabilityWitness | None:
    """Perfect cores if they verify, else nothing.

    With normalized endpoints the outcome is decisive: a witness comes
    back exactly when the target is unreachable.  The forward core's
    closure follows valid steps only, so when it holds the target the
    target is reachable and no witness can verify: the answer is None at
    once, before the backward core, compression or verification.
    """
    rev = _endpoints(a, src, trg)
    fwd = _core(a, src, avoid=trg)
    if fwd is None:
        return None
    w = NonReachabilityWitness(fwd, _core(rev, trg))
    if verify_witness(a, src, trg, w):
        return w
    return None


def _fresh_state(taken: set[str], base: str) -> str:
    name = base + "'"
    while name in taken:
        name += "'"
    return name


def normalize_endpoints(a: OCA, src: Config, trg: Config) -> tuple[OCA, Config, Config]:
    """Extend ``a`` with fenced endpoint states; reachability is unchanged.

    This is the gadget a WITNESS file's ``normalized yes`` line names:
    such a witness is stated over this automaton and these endpoints.
    The new source gets a +1 self-loop and the new target a -1
    self-loop, each fenced by a disequality test one above the endpoint
    value.  The fences block the loops at the endpoints themselves, so
    both new configurations are locally bounded while still owning a
    climbing cycle, which is exactly what the invariant engine needs.
    The only way out of the new source is a zero-effect step onto the
    old one, and the only way into the new target at its own value is a
    zero-effect step off the old one, so runs correspond one to one.

    The gadget is ``a`` :func:`~ocareach.automaton.extend`-ed by the two
    fenced states, each a component of its own.  So the gadget and its
    reversal share ``a``'s components, and theirs: for ``a``'s states,
    their boundedness labels and climbing cycles are the ones earlier
    queries on ``a`` filled.  The fenced states are read off their
    self-loops (:func:`~ocareach.analysis.lone_loops`): their cycles and
    local boundedness build no sub-automaton and run no search or probe.
    """
    require_valid(a, src, trg)
    taken = set(a.states)
    sp = _fresh_state(taken, src.state)
    taken.add(sp)
    tp = _fresh_state(taken, trg.state)
    transitions = (
        Transition(sp, 0, src.state),
        Transition(sp, 1, sp),
        Transition(trg.state, 0, tp),
        Transition(tp, -1, tp),
    )
    guards = {sp: Guard("ne", src.value + 1), tp: Guard("ne", trg.value + 1)}
    n = extend(a, (sp, tp), transitions, guards)
    src2 = Config(sp, src.value)
    trg2 = Config(tp, trg.value)
    if not (in_pumpable_region(n, src2) and is_locally_bounded(n, src2)):
        raise InternalError(f"normalized source {src2} is not a fenced pump")
    rev = reverse(n)
    if not (in_pumpable_region(rev, trg2) and is_locally_bounded(rev, trg2)):
        raise InternalError(f"normalized target {trg2} is not a fenced pump")
    return n, src2, trg2


def format_witness(w: NonReachabilityWitness, normalized: bool = False) -> str:
    lines = ["WITNESS", f"normalized {'yes' if normalized else 'no'}"]
    for tag, aps in (("I", w.fwd), ("J", w.bwd)):
        for p in aps.progressions:
            lines.append(f"{tag} {p.state} {p.period} {p.start} {p.low} {p.high}")
    return "\n".join(lines) + "\n"


def parse_witness(text: str) -> tuple[NonReachabilityWitness, bool]:
    lines = [line for _, line in content_lines(text)]
    if not lines or lines[0] != "WITNESS":
        raise ValueError("witness files start with a WITNESS line")
    normalized = False
    body = lines[1:]
    if body and body[0].startswith("normalized"):
        tokens = body[0].split()
        if len(tokens) != 2 or tokens[1] not in ("yes", "no"):
            raise ValueError("expected: normalized yes|no")
        normalized = tokens[1] == "yes"
        body = body[1:]
    sides: dict[str, list[Progression]] = {"I": [], "J": []}
    for line in body:
        tokens = line.split()
        if len(tokens) != 6 or tokens[0] not in sides:
            raise ValueError(f"expected 'I|J state period start low high', got {line!r}")
        state, period, start, low, high = tokens[1], *map(int, tokens[2:])
        sides[tokens[0]].append(Progression(state, start, period, low, high))
    witness = NonReachabilityWitness(APSet(tuple(sides["I"])), APSet(tuple(sides["J"])))
    return witness, normalized
