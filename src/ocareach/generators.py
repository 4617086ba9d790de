"""Instance generators: seeded fuzz families and the subset-sum gadget."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .automaton import OCA, Config, Guard, Transition

_MASK = (1 << 64) - 1


def _mix(seed: int, index: int) -> int:
    """Stable 64-bit stream split: one independent seed per instance."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


@dataclass(frozen=True)
class FuzzSpec:
    """Shape of a fuzz family; identical specs generate identical instances."""

    num_states: int = 4
    max_update: int = 3
    max_guard: int = 8
    guard_density: float = 0.5
    equality_fraction: float = 0.0
    count: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_states < 1 or self.max_update < 1:
            raise ValueError("num_states and max_update must be positive")
        if self.max_guard < 0:
            raise ValueError("max_guard must be nonnegative")
        for frac in (self.guard_density, self.equality_fraction):
            if not 0.0 <= frac <= 1.0:
                raise ValueError(f"fraction {frac} outside [0, 1]")
        if self.count < 0:
            raise ValueError("count must be nonnegative")


def _walk_values(states, transitions, rng: random.Random, start: Config) -> list[int]:
    """Counter values a few guard-free walks from ``start`` pass through."""
    out = {start.value}
    by_src: dict[str, list[Transition]] = {q: [] for q in states}
    for t in transitions:
        by_src[t.src].append(t)
    for _ in range(3):
        state, value = start.state, start.value
        for _ in range(4 * len(states)):
            options = by_src[state]
            if not options:
                break
            t = rng.choice(options)
            value = max(0, value + t.update)
            state = t.dst
            out.add(value)
    return sorted(out)


def _settle(a: OCA, state: str, value: int) -> Config:
    """Nearest valid configuration at ``state`` with counter >= value."""
    g = a.guards.get(state)
    if g is not None and g.kind == "eq":
        return Config(state, g.value)
    c = Config(state, max(0, value))
    while not a.is_valid(c):
        c = Config(state, c.value + 1)
    return c


def random_instance(spec: FuzzSpec, index: int) -> tuple[OCA, Config, Config]:
    """Instance ``index`` of the family, with valid endpoints.

    Guard values are drawn near counter values that short walks from the
    source actually visit, so tests sit where runs can hit them instead
    of being dead letters.
    """
    rng = random.Random(_mix(spec.seed, index))
    states = tuple(f"q{i}" for i in range(spec.num_states))
    transitions = tuple(
        Transition(
            rng.choice(states),
            rng.randint(-spec.max_update, spec.max_update),
            rng.choice(states),
        )
        for _ in range(rng.randint(spec.num_states, 2 * spec.num_states))
    )
    src_seed = Config(rng.choice(states), rng.randint(0, spec.max_guard))
    seen = _walk_values(states, transitions, rng, src_seed)
    guards: dict[str, Guard] = {}
    for q in states:
        if rng.random() < spec.guard_density:
            kind = "eq" if rng.random() < spec.equality_fraction else "ne"
            anchor = rng.choice(seen) + rng.randint(-2, 2)
            guards[q] = Guard(kind, min(spec.max_guard, max(0, anchor)))
    a = OCA(states, transitions, guards)
    src = _settle(a, src_seed.state, src_seed.value)
    trg = _settle(a, rng.choice(states), rng.choice(seen) + rng.randint(-2, 2))
    return a, src, trg


def instances(spec: FuzzSpec):
    """All instances of the family, in index order."""
    for index in range(spec.count):
        yield index, random_instance(spec, index)


def gen_subset_sum(values: tuple[int, ...], target: int) -> tuple[OCA, Config, Config]:
    """Reachability instance equivalent to a subset-sum question.

    One diamond per value: the upper path adds it, the lower path skips
    it, both in two steps.  A final edge subtracts the target, so the
    sink is hit at counter zero exactly when some subset sums to it.
    """
    if target < 0 or any(v < 0 for v in values):
        raise ValueError("subset-sum instances take nonnegative numbers")
    states = []
    transitions = []
    for i, v in enumerate(values):
        spine, take, skip = f"s{i}", f"take{i}", f"skip{i}"
        states += [spine, take, skip]
        transitions += [
            Transition(spine, v, take),
            Transition(take, 0, f"s{i + 1}"),
            Transition(spine, 0, skip),
            Transition(skip, 0, f"s{i + 1}"),
        ]
    last = f"s{len(values)}"
    states += [last, "t"]
    transitions.append(Transition(last, -target, "t"))
    a = OCA(tuple(states), tuple(transitions), {})
    return a, Config("s0", 0), Config("t", 0)
