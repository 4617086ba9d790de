"""Exercise every subcommand through main() and pin the exit contract."""

import shlex
from dataclasses import fields
from pathlib import Path

import pytest

import ocareach.cli as cli
import ocareach.solver as solver
from ocareach.automaton import InternalError
from ocareach.cli import main
from ocareach.exploration import ResourceExceeded
from ocareach.generators import FuzzSpec

LOOP = (
    "states: q r s\n"
    "guard q != 5\n"
    "guard r != 30\n"
    "guard s != 15\n"
    "trans q +2 r\n"
    "trans r +1 s\n"
    "trans s +2 q\n"
)


@pytest.fixture()
def loop_file(tmp_path):
    p = tmp_path / "loop.oca"
    p.write_text(LOOP)
    return str(p)


def test_decide_reachable_then_verify_run(loop_file, tmp_path, capsys):
    ev = tmp_path / "run.ev"
    code = main(
        ["decide", loop_file, "--src", "q:1", "--trg", "q:36", "--emit", str(ev)]
    )
    assert code == 0
    assert "reachable: run of 21 transitions" in capsys.readouterr().out
    assert main(["verify", loop_file, "--src", "q:1", "--trg", "q:36", str(ev)]) == 0
    assert "verified: RUN" in capsys.readouterr().out


def test_decide_unreachable_then_verify_witness(loop_file, tmp_path, capsys):
    ev = tmp_path / "wit.ev"
    code = main(
        ["decide", loop_file, "--src", "q:0", "--trg", "q:10", "--emit", str(ev)]
    )
    assert code == 1
    assert "unreachable: invariant witness found" in capsys.readouterr().out
    assert main(["verify", loop_file, "--src", "q:0", "--trg", "q:10", str(ev)]) == 0
    assert "verified: WITNESS" in capsys.readouterr().out


# A wrong step, an index past the last transition, and a negative index
# (which Python would wrap around to a real transition).
@pytest.mark.parametrize("tampered", ["path 0 1 1", "path 0 1 3", "path -3 1 2"])
def test_verify_refutes_a_tampered_run(loop_file, tmp_path, capsys, tampered):
    ev = tmp_path / "run.ev"
    main(["decide", loop_file, "--src", "q:1", "--trg", "q:36", "--emit", str(ev)])
    capsys.readouterr()
    text = ev.read_text()
    assert "path 0 1 2" in text
    ev.write_text(text.replace("path 0 1 2", tampered, 1))
    assert main(["verify", loop_file, "--src", "q:1", "--trg", "q:36", str(ev)]) == 1
    assert "refuted: RUN (replay:" in capsys.readouterr().out


def test_verify_refutes_a_tampered_witness(loop_file, tmp_path, capsys):
    ev = tmp_path / "wit.ev"
    main(["decide", loop_file, "--src", "q:0", "--trg", "q:10", "--emit", str(ev)])
    capsys.readouterr()
    text = ev.read_text()
    assert "I q 5 0 0 0" in text
    ev.write_text(text.replace("I q 5 0 0 0", "I q 5 0 0 5000"))
    assert main(["verify", loop_file, "--src", "q:0", "--trg", "q:10", str(ev)]) == 1
    assert "refuted: WITNESS" in capsys.readouterr().out


def test_decide_equal_endpoints_round_trip(loop_file, tmp_path, capsys):
    ev = tmp_path / "empty.ev"
    code = main(
        ["decide", loop_file, "--src", "q:7", "--trg", "q:7", "--emit", str(ev)]
    )
    assert code == 0
    assert "run of 0 transitions" in capsys.readouterr().out
    assert main(["verify", loop_file, "--src", "q:7", "--trg", "q:7", str(ev)]) == 0


def test_malformed_automaton_file(tmp_path, capsys):
    p = tmp_path / "bad.oca"
    p.write_text("states q\n")
    assert main(["decide", str(p), "--src", "q:0", "--trg", "q:1"]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command", ["decide", "verify", "pessimistic"])
@pytest.mark.parametrize("src, trg", [("q", "q:3"), ("zz:0", "q:3"), ("q:0", "zz:0")])
def test_bad_endpoint_literal(loop_file, tmp_path, capsys, command, src, trg):
    # A malformed literal, or a state the automaton does not declare.
    argv = [command, loop_file, "--src", src, "--trg", trg]
    if command == "verify":
        ev = tmp_path / "run.ev"
        ev.write_text("RUN\nsrc q:1\ntrg q:6\npath 0 1 2\n")
        argv.append(str(ev))
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command", ["decide", "pessimistic"])
@pytest.mark.parametrize("src, trg", [("q:0", "q:5"), ("q:5", "q:0")])
def test_endpoint_failing_its_test_is_an_error(loop_file, capsys, command, src, trg):
    # q != 5 forbids q:5, so no answer exists to print.
    assert main([command, loop_file, "--src", src, "--trg", trg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_readme_command_examples(tmp_path, monkeypatch, capsys):
    """Each decide/verify/pessimistic line of the README's command-line
    block prints the comment under it, on the automata the block
    describes; the evidence each emits, the pessimistic CERT included,
    verifies."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    monkeypatch.chdir(tmp_path)
    (tmp_path / "loop.oca").write_text(LOOP)
    (tmp_path / "descent.oca").write_text("states: a b\nguard a != 3\ntrans a -2 a\ntrans a +0 b\n")
    ran = []
    for line, comment in zip(lines, lines[1:]):
        argv = shlex.split(line, comments=True)
        if argv[:1] != ["ocareach"] or argv[1] not in ("decide", "verify", "pessimistic"):
            continue
        main(argv[1:])
        assert capsys.readouterr().out.splitlines()[0] == comment.removeprefix("# ")
        ran.append(argv[1])
        if "--emit" in argv:
            evidence = argv[argv.index("--emit") + 1]
            assert main(["verify", *argv[2:argv.index("--emit")], evidence]) == 0
            assert capsys.readouterr().out.startswith("verified:")
    assert ran == ["decide", "verify", "decide", "pessimistic", "verify"]


def test_missing_evidence_file(loop_file, tmp_path, capsys):
    gone = tmp_path / "nope.ev"
    assert main(["verify", loop_file, "--src", "q:0", "--trg", "q:1", str(gone)]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_truncated_evidence_is_an_error(loop_file, tmp_path, capsys):
    ev = tmp_path / "trunc.ev"
    ev.write_text("RUN\npath 0\n")
    assert main(["verify", loop_file, "--src", "q:0", "--trg", "q:1", str(ev)]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "exc, code, prefix",
    [
        (InternalError("run does not replay"), 3, "internal error:"),
        (RecursionError(), 3, "internal error:"),
        (MemoryError(), 3, "internal error:"),
        (KeyError("zz"), 3, "internal error:"),
        (IndexError(), 3, "internal error:"),
        # A cap that ran out is no verdict either, but no crash: exit 2.
        (ResourceExceeded("post_star exceeded 1 configurations"), 2, "resource exceeded:"),
    ],
    ids=[f"exc{k}" for k in range(6)],
)
def test_internal_errors_never_read_as_verdicts(
    loop_file, monkeypatch, capsys, exc, code, prefix
):
    def crash(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "decide_full", crash)
    assert main(["decide", loop_file, "--src", "q:1", "--trg", "q:36"]) == code
    assert capsys.readouterr().err.startswith(prefix)


def test_verify_oversized_witness_exceeds_resources(tmp_path, capsys):
    # The loop with tests scaled by a million: a witness naming a million
    # members is refused by its size cap at once, not checked member by
    # member.
    scaled = LOOP.replace("!= 5\n", "!= 5000000\n").replace("!= 30\n", "!= 30000000\n")
    scaled = scaled.replace("!= 15\n", "!= 15000000\n")
    big = tmp_path / "big.oca"
    big.write_text(scaled)
    ev = tmp_path / "wit.ev"
    ev.write_text("WITNESS\nI q 5 0 0 4999995\nJ q 5 0 5000005 5000005\n")
    code = main(["verify", str(big), "--src", "q:0", "--trg", "q:5000005", str(ev)])
    assert code == 2
    assert capsys.readouterr().err.startswith("resource exceeded:")


def test_verify_refuses_evidence_that_is_not_utf8(loop_file, tmp_path, capsys):
    ev = tmp_path / "bad.ev"
    ev.write_bytes(b"RUN\n\xff\n")
    assert main(["verify", loop_file, "--src", "q:0", "--trg", "q:3", str(ev)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {ev}:")


def test_analyze_is_deterministic(loop_file, capsys):
    assert main(["analyze", loop_file]) == 0
    first = capsys.readouterr().out
    assert main(["analyze", loop_file]) == 0
    assert capsys.readouterr().out == first
    assert "effect +5" in first
    assert "forbidden anchor" in first


def test_pessimistic_round_trip(tmp_path, capsys):
    p = tmp_path / "descent.oca"
    p.write_text("states: a b\nguard a != 3\ntrans a -2 a\ntrans a +0 b\n")
    ev = tmp_path / "cert.ev"
    code = main(
        ["pessimistic", str(p), "--src", "a:6", "--trg", "b:0", "--emit", str(ev)]
    )
    assert code == 0
    assert "pessimistic run of" in capsys.readouterr().out
    assert main(["verify", str(p), "--src", "a:6", "--trg", "b:0", str(ev)]) == 0
    assert "verified: CERT" in capsys.readouterr().out


def test_verify_refutes_a_crossing_at_an_undeclared_state(tmp_path, capsys):
    p = tmp_path / "descent.oca"
    p.write_text("states: a b\nguard a != 3\ntrans a -2 a\ntrans a +0 b\n")
    ev = tmp_path / "cert.ev"
    main(["pessimistic", str(p), "--src", "a:6", "--trg", "b:0", "--emit", str(ev)])
    capsys.readouterr()
    ev.write_text(ev.read_text() + "crossing zz 0 1\n")
    assert main(["verify", str(p), "--src", "a:6", "--trg", "b:0", str(ev)]) == 1
    assert "crossing-malformed" in capsys.readouterr().out


def test_pessimistic_declines_climbs(loop_file, capsys):
    assert main(["pessimistic", loop_file, "--src", "q:7", "--trg", "s:10"]) == 1
    assert "no pessimistic run" in capsys.readouterr().out


def test_gen_subset_sum_decide_round_trip(tmp_path, capsys):
    inst = tmp_path / "ss.oca"
    code = main(["gen-subset-sum", "2", "3", "--sum", "5", "--emit", str(inst)])
    assert code == 0
    out = capsys.readouterr().out
    assert "src s0:0" in out and "trg t:0" in out
    assert main(["decide", str(inst), "--src", "s0:0", "--trg", "t:0"]) == 0
    capsys.readouterr()

    main(["gen-subset-sum", "2", "4", "--sum", "5", "--emit", str(inst)])
    capsys.readouterr()
    assert main(["decide", str(inst), "--src", "s0:0", "--trg", "t:0"]) == 1


def test_gen_subset_sum_rejects_negatives(capsys):
    assert main(["gen-subset-sum", "2", "-3", "--sum", "5"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_fuzz_emit_is_deterministic(tmp_path, capsys):
    one, two = tmp_path / "one.txt", tmp_path / "two.txt"
    assert main(["fuzz", "--seed", "3", "--count", "15", "--emit", str(one)]) == 0
    assert "campaign finished" in capsys.readouterr().err
    assert main(["fuzz", "--seed", "3", "--count", "15", "--emit", str(two)]) == 0
    capsys.readouterr()
    assert one.read_text() == two.read_text()
    assert one.read_text().splitlines()[0] == "CAMPAIGN"


def test_fuzz_flags_are_the_spec_fields():
    parser = cli._parser()
    defaults = parser.parse_args(["fuzz"])
    for f in fields(FuzzSpec):
        assert getattr(defaults, f.name) == f.default, f.name
    flags = ["--num-states", "--max-update", "--max-guard", "--guard-density"]
    flags += ["--equality-fraction", "--count", "--seed"]
    for flag, f in zip(flags, fields(FuzzSpec), strict=True):
        assert getattr(parser.parse_args(["fuzz", flag, "1"]), f.name) == 1


@pytest.mark.parametrize("flag, value", [("--count", "-1"), ("--guard-density", "2")])
def test_fuzz_rejects_an_invalid_spec(capsys, flag, value):
    assert main(["fuzz", flag, value]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_fuzz_names_the_invalid_field(capsys):
    assert main(["fuzz", "--max-guard", "-1"]) == 2
    assert "max_guard" in capsys.readouterr().err


def test_decide_reports_the_lift_leg_refusal(tmp_path, monkeypatch, capsys):
    # Both endpoints locally unbounded, no odd path, and no witness.
    p = tmp_path / "even.oca"
    p.write_text("states: q r\ntrans q +2 q\ntrans q +0 r\ntrans r -2 r\n")

    def exhausted(*args):
        raise ResourceExceeded("forced")

    monkeypatch.setattr(solver, "synthesize_witness", exhausted)
    assert main(["decide", str(p), "--src", "q:0", "--trg", "r:1"]) == 1
    assert capsys.readouterr().out == "unreachable: no candidate run over the integers\n"
