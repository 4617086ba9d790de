from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ocareach.automaton import OCA, Config, Guard, Transition, parse_oca

# Three states on a positive loop, one disequality test each.  The
# running example for most golden expectations in this suite.
FIG_LOOP = """
states: q r s
guard q != 5
guard r != 30
guard s != 15
trans q +2 r
trans r +1 s
trans s +2 q
"""


@pytest.fixture
def loop3() -> OCA:
    return parse_oca(FIG_LOOP)


def random_oca(
    rng: random.Random,
    num_states: int = 4,
    max_update: int = 3,
    max_guard: int = 8,
    guard_density: float = 0.5,
    equality_fraction: float = 0.0,
    num_transitions: int | None = None,
) -> OCA:
    states = tuple(f"q{i}" for i in range(num_states))
    if num_transitions is None:
        num_transitions = rng.randint(num_states, 2 * num_states)
    transitions = tuple(
        Transition(
            rng.choice(states),
            rng.randint(-max_update, max_update),
            rng.choice(states),
        )
        for _ in range(num_transitions)
    )
    guards = {}
    for q in states:
        if rng.random() < guard_density:
            kind = "eq" if rng.random() < equality_fraction else "ne"
            guards[q] = Guard(kind, rng.randint(0, max_guard))
    return OCA(states, transitions, guards)


def scaled(a: OCA, src: Config, trg: Config, c: int) -> tuple[OCA, Config, Config]:
    """The instance with every update, test value and endpoint value
    times ``c``: reachability and the shape of every run are unchanged."""
    guards = {q: g if g.value is None else Guard(g.kind, g.value * c) for q, g in a.guards.items()}
    transitions = tuple(Transition(t.src, t.update * c, t.dst) for t in a.transitions)
    return (
        OCA(a.states, transitions, guards),
        Config(src.state, src.value * c),
        Config(trg.state, trg.value * c),
    )


def random_walk(a: OCA, rng: random.Random, length: int, start: str | None = None):
    """A random transition-index walk; returns (start_state, path).

    May stop early at a dead end.  Ignores counter values entirely.
    """
    state = start if start is not None else rng.choice(a.states)
    origin = state
    path = []
    for _ in range(length):
        options = [i for i, t in enumerate(a.transitions) if t.src == state]
        if not options:
            break
        i = rng.choice(options)
        path.append(i)
        state = a.transitions[i].dst
    return origin, tuple(path)
