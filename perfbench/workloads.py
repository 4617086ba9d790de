"""The two workloads, each two instance families: seeded queries plus
their independent ground truth.

``build`` runs inside the timed set-up (it may call ``ocareach``
generators); ``truth`` runs after timing and never touches ``ocareach``.
Why each family is shaped the way it is, and which seed-driven choices
are kept narrow so that costs stay comparable across seeds, is written
down in ``perfbench/README.md``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from truth import Model, bounded_reach, monotone_reach, parse_endpoint, subset_sums

WORKLOADS = {
    "loop": ("loop-witness", "loop-lift"),
    "paths": ("subset-sum", "fuzz-mixed"),
}
# Families whose queries share one worker process: many small decisions,
# the way a library caller would make them. Every other query gets a
# process of its own.
SHARED_PROCESS = ("fuzz-mixed",)

LOOP_WITNESS_KS = (50, 100, 200)
LOOP_LIFT_KS = (1, 2, 3)
SUBSET_SUM_NS = (8, 12, 15)
SUBSET_SUM_MAX_VALUE = 1000
FUZZ_COUNT = 200
FUZZ_FAMILY_SEED = 0
# Naive closures for fuzz ground truth stop here; rows they cannot
# settle are reported as inconclusive, never guessed.
FUZZ_TRUTH_BOUND = 400


@dataclass(frozen=True)
class Query:
    family: str
    label: str
    text: str
    src: str
    trg: str
    truth: object = None  # workload-specific facts the ground truth needs


def _rng(seed: int, *salt) -> random.Random:
    return random.Random(repr((seed,) + salt))


def _loop_text(k: int, lift: bool) -> str:
    """The README loop with its three tests scaled by k."""
    lines = [
        "states: q r s",
        f"guard q != {5 * k}",
        f"guard r != {30 * k}",
        f"guard s != {15 * k}",
        "trans q +2 r",
        "trans r +1 s",
        "trans s +2 q",
    ]
    if lift:
        lines.append("trans q -3 q")
    return "\n".join(lines) + "\n"


def _loop_witness(ocareach, seed: int) -> list[Query]:
    # Sources sit in the first three laps of the orbit through q:0, which
    # the test q != 5k stops; the target is the first q past that stop.
    # Every query is unreachable and the closures the solver builds span
    # the whole orbit below 5k, so the cost follows k, not the draw.
    out = []
    for k in LOOP_WITNESS_KS:
        lap, pos = divmod(_rng(seed, "loop-witness", k).randrange(9), 3)
        src = f"{('q', 'r', 's')[pos]}:{5 * lap + (0, 2, 3)[pos]}"
        out.append(
            Query("loop-witness", f"k={k}", _loop_text(k, lift=False), src, f"q:{5 * k + 5}")
        )
    return out


def _loop_lift(ocareach, seed: int) -> list[Query]:
    return [
        Query("loop-lift", f"k={k}", _loop_text(k, lift=True), f"q:{5 * k + 1}", "q:1")
        for k in LOOP_LIFT_KS
    ]


def _subset_values(rng: random.Random, n: int) -> tuple[int, ...]:
    """n values up to the maximum whose sum is within 2% of the mean sum,
    so the counter range the closures cover is set by n alone."""
    mean = n * (SUBSET_SUM_MAX_VALUE + 1) / 2
    while True:
        values = tuple(rng.randint(1, SUBSET_SUM_MAX_VALUE) for _ in range(n))
        if abs(sum(values) - mean) <= 0.02 * mean:
            return values


def _subset_sum(ocareach, seed: int) -> list[Query]:
    # Per n, one reachable target (the subset sum nearest half the
    # total) and one unreachable one (the largest non-sum below half the
    # total). Both sit at the same relative height on every draw.
    out = []
    for n in SUBSET_SUM_NS:
        values = _subset_values(_rng(seed, "subset-sum", n), n)
        sums = subset_sums(values)
        half = sum(values) // 2
        hit = min(sums, key=lambda s: (abs(s - half), s))
        miss = max(x for x in range(half + 1) if x not in sums)
        for tag, target in (("reach", hit), ("unreach", miss)):
            a, src, trg = ocareach.gen_subset_sum(values, target)
            out.append(
                Query(
                    "subset-sum",
                    f"n={n} {tag}",
                    ocareach.format_oca(a),
                    str(src),
                    str(trg),
                    truth=target in sums,
                )
            )
    return out


def _fuzz_mixed(ocareach, seed: int) -> list[Query]:
    # A fixed corpus, decided in index order: its decide time is
    # dominated by a few long lifted runs, and a corpus drawn per seed
    # spreads the totals by more than any usable bound.
    spec = ocareach.FuzzSpec(
        num_states=8,
        max_update=4,
        max_guard=12,
        equality_fraction=0.25,
        count=FUZZ_COUNT,
        seed=FUZZ_FAMILY_SEED,
    )
    return [
        Query("fuzz-mixed", f"#{index}", ocareach.format_oca(a), str(src), str(trg))
        for index, (a, src, trg) in ocareach.instances(spec)
    ]


_FAMILIES = {
    "loop-witness": _loop_witness,
    "loop-lift": _loop_lift,
    "subset-sum": _subset_sum,
    "fuzz-mixed": _fuzz_mixed,
}


_COUNTS = {
    "loop-witness": len(LOOP_WITNESS_KS),
    "loop-lift": len(LOOP_LIFT_KS),
    "subset-sum": 2 * len(SUBSET_SUM_NS),
    "fuzz-mixed": FUZZ_COUNT,
}


def groups(name: str) -> list[list[int]]:
    """Indices into ``build``'s queries, one list per worker process."""
    out: list[list[int]] = []
    start = 0
    for family in WORKLOADS[name]:
        indices = list(range(start, start + _COUNTS[family]))
        out += [indices] if family in SHARED_PROCESS else [[i] for i in indices]
        start += _COUNTS[family]
    return out


def build(name: str, ocareach, seed: int) -> list[Query]:
    """The workload's queries, family by family, in a fixed order."""
    return [q for family in WORKLOADS[name] for q in _FAMILIES[family](ocareach, seed)]


def truth(query: Query) -> bool | None:
    """Expected reachability; None when the naive search is inconclusive."""
    model = Model(query.text)
    src, trg = parse_endpoint(query.src), parse_endpoint(query.trg)
    if query.family == "loop-witness":
        return monotone_reach(model, src, trg)
    if query.family == "subset-sum":
        return query.truth
    if query.family == "loop-lift":
        k = (src[1] - 1) // 5
        return bounded_reach(model, src, trg, 2 * (30 * k + 10))
    return bounded_reach(model, src, trg, FUZZ_TRUTH_BOUND)
