"""Reachability for one-counter automata with counter tests.

The package decides whether one configuration of a one-counter automaton
can reach another, and backs every verdict with checkable evidence: a
replayable run when reachable, a verifiable invariant-pair witness when
not.
"""

from ocareach.analysis import chains_at, climbing_cycles, structure_report
from ocareach.automaton import Config, InternalError, format_oca, parse_config, parse_oca
from ocareach.evidence import format_run, verify_evidence
from ocareach.exploration import ResourceExceeded, candidate_reach, reach_oracle
from ocareach.generators import FuzzSpec, gen_subset_sum, instances
from ocareach.invariants import format_witness, verify_witness
from ocareach.pessimistic import (
    decide_pessimistic_reach,
    make_certificate,
    verify_pessimistic_certificate,
)
from ocareach.solver import REACHABLE, Verdict, decide_disequality, decide_full, lift_candidate_run

__all__ = [
    "Config",
    "FuzzSpec",
    "InternalError",
    "REACHABLE",
    "ResourceExceeded",
    "Verdict",
    "candidate_reach",
    "chains_at",
    "climbing_cycles",
    "decide_disequality",
    "decide_full",
    "decide_pessimistic_reach",
    "format_oca",
    "format_run",
    "format_witness",
    "gen_subset_sum",
    "instances",
    "lift_candidate_run",
    "make_certificate",
    "parse_config",
    "parse_oca",
    "reach_oracle",
    "structure_report",
    "verify_evidence",
    "verify_pessimistic_certificate",
    "verify_witness",
]
