"""Evidence files and their verification dispatch.

One file holds one piece of evidence and opens with a tag naming its
kind: RUN, WITNESS, or CERT.  Verification never trusts the tag beyond
picking the checker; each checker re-derives everything it accepts.
Nothing here imports the decision procedures; ``decide`` certifies its
runs through :func:`check_run`, the same RUN check ``verify`` applies.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automaton import OCA, Config, Path, ReplayError, apply_path, content_lines, parse_config
from .invariants import normalize_endpoints, parse_witness, verify_witness
from .pessimistic import parse_certificate, verify_pessimistic_certificate

_CHUNK = 40  # path indices per line; keeps long runs diffable


def format_run(src: Config, trg: Config, run: Path) -> str:
    lines = ["RUN", f"src {src}", f"trg {trg}"]
    for at in range(0, len(run), _CHUNK):
        lines.append("path " + " ".join(str(i) for i in run[at : at + _CHUNK]))
    return "\n".join(lines) + "\n"


def parse_run(text: str) -> tuple[Config, Config, Path]:
    src = trg = None
    path: list[int] = []
    lines = [line for _, line in content_lines(text)]
    if not lines or lines[0] != "RUN":
        raise ValueError("run files start with a RUN line")
    for line in lines[1:]:
        tag, _, rest = line.partition(" ")
        if tag == "src":
            src = parse_config(rest.strip())
        elif tag == "trg":
            trg = parse_config(rest.strip())
        elif tag == "path":
            path.extend(int(tok) for tok in rest.split())
        else:
            raise ValueError(f"unknown line {line!r} in run file")
    if src is None or trg is None:
        raise ValueError("run file lacks src or trg")
    return src, trg, tuple(path)


def check_run(a: OCA, src: Config, trg: Config, run: Path) -> str:
    """The RUN check: ``""`` when ``run`` replays from ``src`` under valid
    semantics and ends at ``trg``, else the failing condition,
    ``replay: ...`` or ``endpoint``."""
    try:
        end = apply_path(a, src, run)
    except ReplayError as exc:
        return f"replay: {exc}"
    return "" if end == trg else "endpoint"


def evidence_kind(text: str) -> str:
    for _, line in content_lines(text):
        word = line.split()[0]
        if word in ("RUN", "WITNESS", "CERT"):
            return word
        raise ValueError(f"unknown evidence tag {word!r}")
    raise ValueError("empty evidence file")


@dataclass(frozen=True)
class EvidenceReport:
    verified: bool
    kind: str
    condition: str = ""

    def __bool__(self) -> bool:
        return self.verified


def verify_evidence(a: OCA, src: Config, trg: Config, text: str) -> EvidenceReport:
    """Check a piece of evidence against the claimed instance.

    Malformed files raise ValueError; a well-formed file that fails its
    check comes back refuted with the failing condition named.
    """
    kind = evidence_kind(text)
    if kind == "RUN":
        fsrc, ftrg, run = parse_run(text)
        if (fsrc, ftrg) != (src, trg):
            return EvidenceReport(False, kind, "endpoints")
        failed = check_run(a, src, trg, run)
        return EvidenceReport(not failed, kind, failed)
    if kind == "WITNESS":
        w, normalized = parse_witness(text)
        if normalized:
            a, src, trg = normalize_endpoints(a, src, trg)
        report = verify_witness(a, src, trg, w)
        return EvidenceReport(report.verified, kind, report.reason or "")
    fsrc, ftrg, cert = parse_certificate(text)
    if (fsrc, ftrg) != (src, trg):
        return EvidenceReport(False, kind, "endpoints")
    result = verify_pessimistic_certificate(a, src, trg, cert)
    return EvidenceReport(result.verified, kind, result.condition or "")
