from __future__ import annotations

import hashlib
import re
import sys
from dataclasses import replace

import pytest

from conftest import random_oca, scaled
from ocareach.automaton import Config, parse_oca
from ocareach.exploration import ResourceExceeded
from ocareach.generators import FuzzSpec, gen_subset_sum, instances
from ocareach.evidence import (
    EvidenceReport,
    evidence_kind,
    format_run,
    parse_run,
    verify_evidence,
)
from ocareach.invariants import format_witness, parse_witness, synthesize_witness, verify_witness
from ocareach.pessimistic import decide_pessimistic_reach, format_certificate, make_certificate
from ocareach.solver import decide_disequality, decide_full, normalize_endpoints


def test_run_round_trip_with_chunking(loop3):
    src, trg = Config("q", 1), Config("q", 36)
    run = (0, 1, 2) * 7
    text = format_run(src, trg, run * 4)  # 84 indices forces several lines
    assert text.count("path") > 1
    assert parse_run(text) == (src, trg, run * 4)
    empty = format_run(src, src, ())
    assert parse_run(empty) == (src, src, ())


def test_parse_run_rejects_garbage():
    with pytest.raises(ValueError):
        parse_run("WALK\nsrc q:0\ntrg q:1\n")
    with pytest.raises(ValueError):
        parse_run("RUN\ntrg q:1\npath 0\n")  # no src
    with pytest.raises(ValueError):
        parse_run("RUN\nsrc q:0\ntrg q:1\nsteps 3\n")


def test_evidence_kind_dispatch():
    assert evidence_kind("# emitted\n\nRUN\nsrc q:0\n") == "RUN"
    assert evidence_kind("WITNESS\nnormalized no\n") == "WITNESS"
    assert evidence_kind("CERT\nsrc a:0\n") == "CERT"
    with pytest.raises(ValueError):
        evidence_kind("PROOF\n")
    with pytest.raises(ValueError):
        evidence_kind("# only a comment\n")


def test_verify_run_evidence(loop3):
    src, trg = Config("q", 1), Config("q", 36)
    good = format_run(src, trg, (0, 1, 2) * 7)
    assert verify_evidence(loop3, src, trg, good)
    wrong_pair = verify_evidence(loop3, src, Config("q", 31), good)
    assert not wrong_pair and wrong_pair.condition == "endpoints"
    stalls = format_run(src, trg, (0, 1, 2) * 6)
    report = verify_evidence(loop3, src, trg, stalls)
    assert not report and report.condition == "endpoint"
    breaks = format_run(src, trg, (0, 0, 1) + (0, 1, 2) * 6)
    report = verify_evidence(loop3, src, trg, breaks)
    assert not report and report.condition.startswith("replay")


def test_verify_witness_evidence_normalized(loop3):
    src, trg = Config("q", 0), Config("q", 10)
    w = synthesize_witness(*normalize_endpoints(loop3, src, trg))
    text = format_witness(w, normalized=True)
    assert verify_evidence(loop3, src, trg, text)
    # the same progressions read as a raw witness no longer fit the
    # un-normalized endpoints, so the flag is load-bearing
    raw = format_witness(w, normalized=False)
    assert not verify_evidence(loop3, src, trg, raw)


def test_verify_witness_evidence_tampered(loop3):
    src, trg = Config("q", 0), Config("q", 10)
    w = synthesize_witness(*normalize_endpoints(loop3, src, trg))
    lifted = format_witness(w, normalized=True).replace("I q 5 0 0 0", "I q 5 0 0 5000")
    report = verify_evidence(loop3, src, trg, lifted)
    assert not report and report.condition


def test_verify_certificate_evidence():
    a = parse_oca("states: a b\nguard a != 3\ntrans a -2 a\ntrans a +0 b\n")
    src, trg = Config("a", 6), Config("b", 0)
    run = decide_pessimistic_reach(a, src, trg)
    assert run is not None
    text = format_certificate(src, trg, make_certificate(a, src, run))
    assert verify_evidence(a, src, trg, text)
    report = verify_evidence(a, src, Config("b", 2), text)
    assert not report and report.condition == "endpoints"
    bent = text.replace("0:3", "0:2")
    assert bent != text
    report = verify_evidence(a, src, trg, bent)
    assert not report and report.condition


def _commented(text: str) -> str:
    """``text`` with a trailing comment on every line, and a comment line first."""
    return "# emitted\n" + "".join(f"{line}  # note {n}\n" for n, line in enumerate(text.splitlines()))


def test_every_evidence_format_ignores_trailing_comments(loop3):
    a = parse_oca("states: a b\nguard a != 3\ntrans a -2 a\ntrans a +0 b\n")
    src, trg = Config("a", 6), Config("b", 0)
    cert = format_certificate(src, trg, make_certificate(a, src, decide_pessimistic_reach(a, src, trg)))
    assert verify_evidence(a, src, trg, _commented(cert))
    src, trg = Config("q", 1), Config("q", 36)
    run = format_run(src, trg, (0, 1, 2) * 7)
    assert verify_evidence(loop3, src, trg, _commented(run))
    src, trg = Config("q", 0), Config("q", 10)
    verdict = decide_full(loop3, src, trg)
    witness = format_witness(verdict.witness, normalized=True)
    assert verify_evidence(loop3, src, trg, _commented(witness))


def test_solver_witnesses_verify_as_evidence_corpus():
    import random

    rng = random.Random(31337)
    checked = 0
    for _ in range(80):
        a = random_oca(rng)
        states = list(a.states)
        src = Config(rng.choice(states), rng.randrange(8))
        trg = Config(rng.choice(states), rng.randrange(8))
        if not (a.is_valid(src) and a.is_valid(trg)):
            continue
        v = decide_disequality(a, src, trg)
        if v.witness is None:
            continue
        text = format_witness(v.witness, normalized=True)
        assert verify_evidence(a, src, trg, text), (src, trg)
        checked += 1
    assert checked > 20


# ---------------------------------------------------------------- stability

# Subset-sum values and targets (reachable, unreachable) per n.
_SUBSET_SUM = {
    8: ((44, 957, 593, 549, 86, 342, 708, 694), (1980, 1986)),
    12: ((785, 736, 905, 152, 3, 49, 135, 760, 962, 977, 312, 274), (3025, 3024)),
}
_FUZZ_MIXED = FuzzSpec(num_states=8, max_update=4, max_guard=12, equality_fraction=0.25, count=60)


def _evidence_digest(queries) -> str:
    """SHA-256 over each query's verdict and formatted evidence: the run,
    the witness, or the witnesses of the equality wrapper's parts."""
    h = hashlib.sha256()
    for a, src, trg in queries:
        try:
            verdict = decide_full(a, src, trg)
        except ResourceExceeded:
            h.update(f"{src} {trg} resource-exceeded\n".encode())
            continue
        h.update(f"{src} {trg} {verdict.kind}\n".encode())
        if verdict.run is not None:
            h.update(format_run(src, trg, verdict.run).encode())
        if verdict.witness is not None:
            h.update(format_witness(verdict.witness, normalized=True).encode())
        for e, x, part in verdict.parts:
            if part.witness is not None:
                h.update(f"part {e} {x}\n{format_witness(part.witness, normalized=True)}".encode())
    return h.hexdigest()


def _scaled_loop(k: int, lift: bool):
    """The README loop with its three tests scaled by k, and with the
    self-loop ``q -3 q`` that a lifted run descends by when ``lift``."""
    return parse_oca(
        f"states: q r s\nguard q != {5 * k}\nguard r != {30 * k}\nguard s != {15 * k}\n"
        "trans q +2 r\ntrans r +1 s\ntrans s +2 q\n" + ("trans q -3 q\n" if lift else "")
    )


def test_evidence_is_stable():
    """Runs and witnesses are byte-identical to those of earlier releases:
    the same parent choices in every closure, the same core compression."""
    subset = [gen_subset_sum(values, x) for values, xs in _SUBSET_SUM.values() for x in xs]
    fuzz = [instance for _, instance in instances(_FUZZ_MIXED)]
    loop = [(_scaled_loop(k, False), Config("q", 0), Config("q", 5 * k + 5)) for k in (50, 100, 200)]
    loop += [(_scaled_loop(k, True), Config("q", 5 * k + 1), Config("q", 1)) for k in (1, 2, 3)]
    assert _evidence_digest(subset) == (
        "62565462993477a3265881388b8d7eeac070e3d15de21392ad2a7c7e767b3fb3"
    )
    # Each part is one refused set query, instance #4's run comes from
    # the oracle, not from a lift, and lifted runs climb by laps of the
    # cycles on unbounded chains.
    assert _evidence_digest(fuzz) == (
        "864582cf6202d1f25717cd887e5045abeceb274d581a6907da2e0e010cc7b249"
    )
    # The loop's witnesses, whose cores closures take by laps at once,
    # and its lifted runs.
    assert _evidence_digest(loop) == (
        "d14f0cdc611cfaa045911b9c42927e548e8d7d3e7586dc690140966361667226"
    )


def _witness_texts(verdict) -> list[str]:
    parts = [part.witness for _, _, part in verdict.parts]
    return [
        format_witness(w, normalized=True) for w in (verdict.witness, *parts) if w is not None
    ]


def test_scaled_instances_keep_verdicts_and_evidence():
    """Every update, test value and endpoint times 1,000: reachability is
    unchanged, the scaled evidence verifies, and each witness grows by
    at most the 3 digits per number that the scaling adds."""
    for index, (a, src, trg) in instances(_FUZZ_MIXED):
        verdict = decide_full(a, src, trg)
        b, bsrc, btrg = scaled(a, src, trg, 1000)
        big = decide_full(b, bsrc, btrg)
        assert big.kind == verdict.kind, index
        if big.run is not None:
            assert verify_evidence(b, bsrc, btrg, format_run(bsrc, btrg, big.run)), index
        if big.witness is not None:
            assert verify_evidence(b, bsrc, btrg, format_witness(big.witness, normalized=True)), index
        for _, _, part in big.parts:
            if part.witness is not None:
                assert verify_witness(*part.certified, part.witness).verified, index
        small, large = _witness_texts(verdict), _witness_texts(big)
        assert len(small) == len(large), index
        for x, y in zip(small, large):
            assert len(y) - len(x) <= 3 * len(re.findall(r"-?\d+", x)), index


# ------------------------------------------------------------ trusted base

_SYNTHESIS = {"perfect_cores", "_core", "_compress_core", "synthesize_witness"}


def _evidence_corpus(loop3):
    """``(automaton, src, trg, evidence)`` for the README loop's witness and
    a run, the n = 8 subset-sum pair, the first 30 mixed fuzz instances
    with a run or witness, and one descent certificate."""
    queries = [(loop3, Config("q", 0), Config("q", 10)), (loop3, Config("q", 1), Config("q", 36))]
    values, targets = _SUBSET_SUM[8]
    queries += [gen_subset_sum(values, x) for x in targets]
    queries += [instance for _, instance in instances(replace(_FUZZ_MIXED, count=30))]
    corpus = []
    for a, src, trg in queries:
        verdict = decide_full(a, src, trg)
        if verdict.run is not None:
            corpus.append((a, src, trg, format_run(src, trg, verdict.run)))
        elif verdict.witness is not None:
            corpus.append((a, src, trg, format_witness(verdict.witness, normalized=True)))
    a = parse_oca("states: a b\nguard a != 3\ntrans a -2 a\ntrans a +0 b\n")
    src, trg = Config("a", 6), Config("b", 0)
    cert = make_certificate(a, src, decide_pessimistic_reach(a, src, trg))
    corpus.append((a, src, trg, format_certificate(src, trg, cert)))
    return corpus


def test_verify_runs_no_solver_code(loop3):
    """The checker's trusted base: verifying runs, witnesses and
    certificates calls nothing in the solver and no witness synthesis."""
    corpus = _evidence_corpus(loop3)
    called: set[tuple[str, str]] = set()

    def on_call(frame, event, arg):
        called.add((frame.f_globals.get("__name__", ""), frame.f_code.co_name))

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        reports = [verify_evidence(*item) for item in corpus]
    finally:
        sys.settrace(previous)
    assert all(reports)
    assert {r.kind for r in reports} == {"RUN", "WITNESS", "CERT"}
    assert ("ocareach.evidence", "verify_evidence") in called
    assert not {name for module, name in called if module == "ocareach.solver"}
    assert not {name for module, name in called if module == "ocareach.invariants"} & _SYNTHESIS
