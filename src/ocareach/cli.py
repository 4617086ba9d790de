"""Command line front end.

Exit codes follow one contract everywhere: 0 when the answer is
reachable or the evidence verified, 1 when unreachable or refuted, 2 on
malformed input (an endpoint at an undeclared state included) or a
search that exceeded its node cap, 3 on an internal error (a failed
soundness check, exhausted recursion or memory, any other unexpected
exception), so that a crash never reads as an answer.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path as FsPath

from .analysis import structure_report
from .automaton import OCA, Config, parse_config, parse_oca, format_oca
from .campaign import format_report, run_campaign
from .evidence import format_run, verify_evidence
from .exploration import ResourceExceeded
from .generators import FuzzSpec, gen_subset_sum
from .invariants import format_witness
from .pessimistic import decide_pessimistic_reach, format_certificate, make_certificate
from .solver import REACHABLE, decide_full


class CliError(Exception):
    """Anything that should end the process with exit code 2."""


def _read(path: str) -> str:
    """The text of an input file; one that cannot be read or decoded is
    a usage error, never an internal one."""
    try:
        return FsPath(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from None


def _load_oca(path: str) -> OCA:
    text = _read(path)
    try:
        return parse_oca(text)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from None


def _endpoints(a: OCA, args: argparse.Namespace) -> tuple[Config, Config]:
    """``--src`` and ``--trg``, each at a state ``a`` declares."""
    try:
        src, trg = parse_config(args.src), parse_config(args.trg)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    for c in (src, trg):
        if c.state not in a.state_index:
            raise CliError(f"endpoint {c} is at an undeclared state")
    return src, trg


def _emit(path: str | None, text: str) -> None:
    if path is None:
        return
    try:
        FsPath(path).write_text(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from None


def cmd_decide(args: argparse.Namespace) -> int:
    a = _load_oca(args.file)
    src, trg = _endpoints(a, args)
    try:
        verdict = decide_full(a, src, trg)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    if verdict.kind == REACHABLE:
        print(f"reachable: run of {len(verdict.run)} transitions")
        _emit(args.emit, format_run(src, trg, verdict.run))
        return 0
    if verdict.witness is not None:
        print("unreachable: invariant witness found")
        _emit(args.emit, format_witness(verdict.witness, normalized=True))
    else:
        print(f"unreachable: {verdict.note}")
        if args.emit:
            print("no standalone evidence format for this verdict", file=sys.stderr)
    return 1


def cmd_verify(args: argparse.Namespace) -> int:
    a = _load_oca(args.file)
    src, trg = _endpoints(a, args)
    text = _read(args.evidence)
    try:
        report = verify_evidence(a, src, trg, text)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    if report.verified:
        print(f"verified: {report.kind}")
        return 0
    print(f"refuted: {report.kind} ({report.condition})")
    return 1


def cmd_analyze(args: argparse.Namespace) -> int:
    print(structure_report(_load_oca(args.file)), end="")
    return 0


def cmd_pessimistic(args: argparse.Namespace) -> int:
    a = _load_oca(args.file)
    src, trg = _endpoints(a, args)
    try:
        run = decide_pessimistic_reach(a, src, trg)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    if run is None:
        print("no pessimistic run")
        return 1
    print(f"pessimistic run of {len(run)} transitions")
    _emit(args.emit, format_certificate(src, trg, make_certificate(a, src, run)))
    return 0


def cmd_gen_subset_sum(args: argparse.Namespace) -> int:
    try:
        a, src, trg = gen_subset_sum(tuple(args.values), args.sum)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    text = format_oca(a)
    if args.emit:
        _emit(args.emit, text)
        hints = sys.stdout
    else:
        # Keep stdout a parseable automaton so `> file` round-trips.
        print(text, end="")
        hints = sys.stderr
    print(f"src {src}", file=hints)
    print(f"trg {trg}", file=hints)
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    try:
        spec = FuzzSpec(**{f.name: getattr(args, f.name) for f in fields(FuzzSpec)})
    except ValueError as exc:
        raise CliError(str(exc)) from None
    report = run_campaign(spec)
    text = format_report(report)
    if args.emit:
        _emit(args.emit, text)
    else:
        print(text, end="")
    print(f"campaign finished in {report.seconds:.1f}s", file=sys.stderr)
    return 0 if report.clean() else 1


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="ocareach",
        description="reachability in one-counter automata with counter tests",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def endpoints(p: argparse.ArgumentParser) -> None:
        p.add_argument("--src", required=True, help="source, e.g. q:0")
        p.add_argument("--trg", required=True, help="target, e.g. q:10")

    decide = sub.add_parser("decide", help="decide reachability")
    decide.add_argument("file")
    endpoints(decide)
    decide.add_argument("--emit", help="write the run or witness here")
    decide.set_defaults(fn=cmd_decide)

    verify = sub.add_parser("verify", help="check an evidence file")
    verify.add_argument("file")
    endpoints(verify)
    verify.add_argument("evidence")
    verify.set_defaults(fn=cmd_verify)

    analyze = sub.add_parser("analyze", help="structural report")
    analyze.add_argument("file")
    analyze.set_defaults(fn=cmd_analyze)

    pess = sub.add_parser("pessimistic", help="descent-only reachability")
    pess.add_argument("file")
    endpoints(pess)
    pess.add_argument("--emit", help="write the certificate here")
    pess.set_defaults(fn=cmd_pessimistic)

    gen = sub.add_parser("gen-subset-sum", help="emit a subset-sum instance")
    gen.add_argument("values", nargs="*", type=int)
    gen.add_argument("--sum", type=int, required=True)
    gen.add_argument("--emit", help="write the instance here")
    gen.set_defaults(fn=cmd_gen_subset_sum)

    fuzz = sub.add_parser("fuzz", help="differential campaign against the oracle")
    for f in fields(FuzzSpec):  # one flag per field, typed by its default
        fuzz.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default)
    fuzz.add_argument("--emit", help="write the report here")
    fuzz.set_defaults(fn=cmd_fuzz)

    return top


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceExceeded as exc:
        print(f"resource exceeded: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # InternalError, RecursionError, MemoryError, bugs
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
