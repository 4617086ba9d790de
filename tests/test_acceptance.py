"""Acceptance gate: one test per advertised guarantee, at fixed scale.

Each test is self-contained, seeds its own randomness, and checks one
end-to-end property of the decision pipeline against independent ground
truth (exhaustive enumeration, the exploration oracle, or replay).
Counts and time budgets are part of the contract; loosening them is a
behavior change, not a cleanup.
"""

import itertools
import random
import time
from collections import Counter

from ocareach.analysis import chains_at, climbing_cycles, structure_report
from ocareach.automaton import (
    Config,
    apply_path,
    parse_oca,
    path_effect_drop,
    path_states,
    reverse,
)
from ocareach.exploration import (
    ResourceExceeded,
    candidate_reach,
    is_locally_bounded,
    reach_oracle,
)
from ocareach.flows import (
    check_flow,
    flow_has_positive_cycle,
    flow_of_path,
    path_from_flow,
)
from ocareach.generators import gen_subset_sum
from ocareach.invariants import (
    APSet,
    NonReachabilityWitness,
    Progression,
    perfect_cores,
    synthesize_witness,
    verify_witness,
)
from ocareach.pessimistic import (
    PessimisticCertificate,
    decide_pessimistic_reach,
    make_certificate,
    pessimistic_post_star,
    verify_pessimistic_certificate,
)
from ocareach.solver import (
    REACHABLE,
    UNREACHABLE,
    decide_full,
    lift_candidate_run,
    normalize_endpoints,
)

from _oracles import ap_members, rotate_to_zero_drop
from conftest import FIG_LOOP, random_oca, random_walk


def test_criterion_01_structure_golden():
    started = time.perf_counter()
    a = parse_oca(FIG_LOOP)
    cycles = climbing_cycles(a)
    assert set(cycles) == {"q", "r", "s"}
    assert all(c.effect == 5 and c.drop == 0 for c in cycles.values())
    report = structure_report(a)
    for q in "qrs":
        assert f"{q}: cycle " in report and "effect +5  drop 0" in report

    bounded = [c for c in chains_at(a, "q") if c.last is not None]
    got = {
        frozenset(Config("q", v) for v in range(c.first, c.last + 1, c.period))
        for c in bounded
    }
    want = {
        frozenset({Config("q", 0)}),
        frozenset({Config("q", 5)}),
        frozenset(Config("q", v) for v in range(3, 29, 5)),
        frozenset({Config("q", 2), Config("q", 7), Config("q", 12)}),
    }
    assert got == want
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"criterion 1: PASS (4 bounded chains at q, {elapsed:.3f}s)")


def test_criterion_02_subset_sum_equivalence():
    rng = random.Random(9003)
    started = time.perf_counter()
    for _ in range(200):
        n = rng.randint(1, 8)
        values = tuple(rng.randint(0, 20) for _ in range(n))
        target = rng.randint(0, sum(values) + 3)
        a, src, trg = gen_subset_sum(values, target)
        want = any(
            sum(pick) == target
            for r in range(n + 1)
            for pick in itertools.combinations(values, r)
        )
        got = decide_full(a, src, trg).kind == REACHABLE
        assert got == want, (values, target)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"criterion 2: PASS (200 subset-sum instances, {elapsed:.1f}s)")


def test_criterion_03_flow_laws():
    rng = random.Random(9010)
    for _ in range(10_000):
        a = random_oca(rng, num_states=rng.randint(1, 5))
        start, path = random_walk(a, rng, rng.randint(0, 12))
        f = flow_of_path(a, start, path)
        check_flow(a, f)
        assert flow_of_path(a, f.start, path_from_flow(a, f)) == f

    rng = random.Random(9011)
    found = 0
    while found < 1000:
        a = random_oca(
            rng,
            num_states=rng.randint(1, 4),
            max_update=3,
            max_guard=8,
            equality_fraction=0.15,
        )
        src = Config(rng.choice(a.states), rng.randint(0, 6))
        trg = Config(rng.choice(a.states), rng.randint(0, 8))
        if not (a.is_valid(src) and a.is_valid(trg)):
            continue
        run = decide_pessimistic_reach(a, src, trg)
        if run is None:
            continue
        assert not flow_has_positive_cycle(a, flow_of_path(a, src.state, run))
        found += 1
    print("criterion 3: PASS (10000 path round trips, 1000 descent flows)")


def test_criterion_04_cycle_rotation():
    rng = random.Random(9006)
    done = 0
    while done < 1000:
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
    print("criterion 4: PASS (1000 positive cycles rotated to drop 0)")


def test_criterion_05_pessimistic_value_bound():
    rng = random.Random(9012)
    checked = 0
    while checked < 300:
        a = random_oca(rng, num_states=rng.randint(1, 5), max_update=3, max_guard=8)
        c = Config(rng.choice(a.states), rng.randint(0, 6))
        if not a.is_valid(c):
            continue
        ceiling = c.value + (len(a.states) - 1) * a.max_update
        for d in pessimistic_post_star(a, [c]):
            assert d.value <= ceiling, (a.transitions, c, d)
        checked += 1
    print("criterion 5: PASS (300 closures under the value ceiling)")


def test_criterion_06_witness_soundness_and_completeness():
    rng = random.Random(9002)
    started = time.perf_counter()
    done = unreachable = cross_probes = 0
    stash: dict[tuple[str, ...], NonReachabilityWitness] = {}
    while done < 1000:
        a = random_oca(
            rng,
            num_states=rng.randint(2, 6),
            max_update=rng.randint(2, 8),
            max_guard=20,
            guard_density=0.6,
        )
        states = list(a.states)
        src = Config(rng.choice(states), rng.randrange(10))
        trg = Config(rng.choice(states), rng.randrange(12))
        if not (a.is_valid(src) and a.is_valid(trg)) or src == trg:
            continue
        try:
            want = reach_oracle(a, src, trg)
        except ResourceExceeded:
            continue
        b, s2, t2 = normalize_endpoints(a, src, trg)
        w = synthesize_witness(b, s2, t2)
        assert (w is not None) == (want is None), (a.transitions, src, trg)
        if w is not None:
            assert verify_witness(b, s2, t2, w).verified
            stash[b.states] = w
            unreachable += 1
        else:
            foreign = stash.get(b.states)
            if foreign is not None:
                assert not verify_witness(b, s2, t2, foreign).verified
                cross_probes += 1
        done += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    assert unreachable >= 100 and done - unreachable >= 100
    assert cross_probes >= 1
    print(
        f"criterion 6: PASS (1000 decisive instances, {unreachable} witnessed, "
        f"{cross_probes} cross probes, {elapsed:.1f}s)"
    )


def test_criterion_07_perfect_core_minimality():
    rng = random.Random(9007)
    done = verified_mutants = 0
    while done < 100:
        a = random_oca(rng, num_states=rng.randint(1, 4), max_update=3, max_guard=10)
        src = Config(rng.choice(a.states), rng.randint(0, 5))
        trg = Config(rng.choice(a.states), rng.randint(0, 8))
        if not (a.is_valid(src) and a.is_valid(trg)) or src == trg:
            continue
        try:
            run = reach_oracle(a, src, trg)
        except ResourceExceeded:
            continue
        if run is not None:
            continue
        b, s2, t2 = normalize_endpoints(a, src, trg)
        w = synthesize_witness(b, s2, t2)
        assert w is not None
        fwd_core, bwd_core = perfect_cores(b, s2, t2)
        fneed, bneed = set(ap_members(fwd_core)), set(ap_members(bwd_core))
        assert fneed <= set(ap_members(w.fwd))
        assert bneed <= set(ap_members(w.bwd))

        st = rng.choice(b.states)
        lo = rng.randint(0, 10)
        extra = Progression(st, lo, rng.randint(1, 4), lo, lo + rng.randint(0, 6))
        mutants = [
            NonReachabilityWitness(APSet(w.fwd.progressions + (extra,)), w.bwd),
            NonReachabilityWitness(w.fwd, APSet(w.bwd.progressions + (extra,))),
        ]
        if len(w.fwd.progressions) > 1:
            k = rng.randrange(len(w.fwd.progressions))
            kept = w.fwd.progressions[:k] + w.fwd.progressions[k + 1 :]
            mutants.append(NonReachabilityWitness(APSet(kept), w.bwd))
        for m in mutants:
            if verify_witness(b, s2, t2, m).verified:
                verified_mutants += 1
                assert fneed <= set(ap_members(m.fwd)), (a.transitions, src, trg)
                assert bneed <= set(ap_members(m.bwd)), (a.transitions, src, trg)
        done += 1
    assert verified_mutants >= 1
    print(
        f"criterion 7: PASS (100 cores, {verified_mutants} verified mutants "
        "all contain them)"
    )


def test_criterion_08_lifting_equivalence():
    rng = random.Random(9001)
    hits = lifted = 0
    attempts = 0
    while hits < 200:
        attempts += 1
        assert attempts < 20_000, "generation stopped hitting unbounded endpoints"
        a = random_oca(rng, num_states=3, max_update=4, max_guard=6, guard_density=0.3)
        states = list(a.states)
        src = Config(rng.choice(states), rng.randrange(6))
        trg = Config(rng.choice(states), rng.randrange(6))
        if not (a.is_valid(src) and a.is_valid(trg)):
            continue
        if is_locally_bounded(a, src) or is_locally_bounded(reverse(a), trg):
            continue
        try:
            want = reach_oracle(a, src, trg)
        except ResourceExceeded:
            continue
        p = candidate_reach(a, src, trg)
        assert (p is None) == (want is None), (a.transitions, src, trg)
        if p is not None:
            run = lift_candidate_run(a, src, trg, p)
            assert apply_path(a, src, run) == trg
            lifted += 1
        hits += 1
    assert lifted >= 50
    print(f"criterion 8: PASS (200 unbounded pairs, {lifted} lifted runs replay)")


def test_criterion_10_equality_wrapper_matches_oracle():
    rng = random.Random(9013)
    done = 0
    while done < 200:
        a = random_oca(
            rng,
            num_states=rng.randint(1, 4),
            max_update=3,
            max_guard=8,
            equality_fraction=0.4,
        )
        src = Config(rng.choice(a.states), rng.randint(0, 6))
        trg = Config(rng.choice(a.states), rng.randint(0, 8))
        if not (a.is_valid(src) and a.is_valid(trg)):
            continue
        try:
            mine = decide_full(a, src, trg).kind
            want = reach_oracle(a, src, trg)
        except ResourceExceeded:
            continue
        assert mine == (REACHABLE if want is not None else UNREACHABLE), (
            a.transitions,
            src,
            trg,
        )
        done += 1
    print("criterion 10: PASS (200 mixed-test instances match the oracle)")


def test_criterion_11_pessimistic_certificates():
    rng = random.Random(9008)
    cases = verified_mutants = 0
    while cases < 500:
        a = random_oca(
            rng,
            num_states=rng.randint(1, 4),
            max_update=3,
            max_guard=8,
            equality_fraction=0.15,
        )
        src = Config(rng.choice(a.states), rng.randint(0, 6))
        trg = Config(rng.choice(a.states), rng.randint(0, 8))
        if not (a.is_valid(src) and a.is_valid(trg)):
            continue
        run = decide_pessimistic_reach(a, src, trg)
        if run is None:
            continue
        cert = make_certificate(a, src, run)
        assert verify_pessimistic_certificate(a, src, trg, cert).verified
        cases += 1

        mutants = []
        if run:
            wp = list(cert.waypoints)
            k = rng.randrange(len(wp))
            wp[k] = Config(wp[k].state, wp[k].value + 1)
            mutants.append(
                PessimisticCertificate(
                    cert.flow, cert.decomposition, tuple(wp), cert.crossings
                )
            )
        if cert.crossings:
            mutants.append(
                PessimisticCertificate(cert.flow, cert.decomposition, cert.waypoints, ())
            )
        if cert.decomposition:
            mutants.append(
                PessimisticCertificate(
                    cert.flow, cert.decomposition[:-1], cert.waypoints, cert.crossings
                )
            )
        # splitting one segment at its first transition usually leaves a
        # sound certificate, so the verified branch below is exercised
        if not cert.crossings and len(cert.waypoints) + 1 <= 4 * len(a.states) + 2:
            for k, seg in enumerate(cert.decomposition):
                p = path_from_flow(a, seg)
                if len(p) < 2:
                    continue
                mid = apply_path(a, cert.waypoints[k], (p[0],))
                seg_a = flow_of_path(a, cert.waypoints[k].state, p[:1])
                seg_b = flow_of_path(a, mid.state, p[1:])
                mutants.append(
                    PessimisticCertificate(
                        cert.flow,
                        cert.decomposition[:k]
                        + (seg_a, seg_b)
                        + cert.decomposition[k + 1 :],
                        cert.waypoints[: k + 1] + (mid,) + cert.waypoints[k + 1 :],
                        (),
                    )
                )
                break

        for m in mutants:
            if m == cert:
                continue
            res = verify_pessimistic_certificate(a, src, trg, m)
            if res.verified:
                assert apply_path(a, src, res.run) == trg
                assert reach_oracle(a, src, trg) is not None
                verified_mutants += 1
    assert verified_mutants >= 1
    print(
        f"criterion 11: PASS (500 certified runs, {verified_mutants} verified "
        "mutants all reachable)"
    )
