"""Campaign loop accounting, report determinism, shrinker mechanics."""

import pytest

from ocareach.automaton import Config, Transition, parse_oca
from ocareach.campaign import format_report, run_campaign, shrink
from ocareach.generators import FuzzSpec


def test_clean_campaign_accounts_for_every_instance():
    spec = FuzzSpec(count=40, seed=3)
    report = run_campaign(spec)
    assert report.clean()
    assert len(report.rows) + len(report.skipped) == 40
    assert [i for i, _ in report.rows] == sorted(
        set(range(40)) - set(report.skipped)
    )
    assert report.seconds > 0


def test_campaign_handles_equality_guards():
    spec = FuzzSpec(count=30, seed=11, equality_fraction=0.4)
    report = run_campaign(spec)
    assert report.clean()
    assert len(report.rows) + len(report.skipped) == 30


def test_report_is_byte_identical_across_runs():
    spec = FuzzSpec(count=25, seed=9)
    first = format_report(run_campaign(spec))
    second = format_report(run_campaign(spec))
    assert first == second


def test_report_layout():
    spec = FuzzSpec(count=25, seed=9)
    report = run_campaign(spec)
    lines = format_report(report).splitlines()
    assert lines[0] == "CAMPAIGN"
    assert lines[1] == "seed 9  count 25"
    assert lines[-1] == "disagreements 0"
    assert f"skipped {len(report.skipped)}" in lines


# ----------------------------------------------------------------- shrinker

# the default predicate is the pipeline/oracle disagreement, which a
# healthy build cannot manufacture; a synthetic predicate exercises the
# same reduction passes

SHRINK_FIXTURE = (
    "states: a b c d\n"
    "guard c != 7\n"
    "trans a +3 c\n"
    "trans c +4 d\n"
    "trans b +1 b\n"
    "trans d -2 a\n"
)


def _has_big_step(a, src, trg):
    return any(t.update >= 2 for t in a.transitions)


def test_shrink_reduces_to_a_minimal_witness_of_the_predicate():
    a = parse_oca(SHRINK_FIXTURE)
    small = shrink(a, Config("a", 0), Config("b", 0), keeps=_has_big_step)
    assert small.states == ("a", "b", "c")
    assert small.transitions == (Transition("a", 2, "c"),)
    assert all(g.kind == "true" for g in small.guards.values())
    assert _has_big_step(small, None, None)


def test_shrink_keeps_endpoint_states():
    a = parse_oca(SHRINK_FIXTURE)
    small = shrink(a, Config("b", 0), Config("d", 0), keeps=_has_big_step)
    assert "b" in small.states and "d" in small.states


def test_shrink_rejects_a_dead_property():
    a = parse_oca(SHRINK_FIXTURE)
    with pytest.raises(ValueError):
        shrink(a, Config("a", 0), Config("b", 0), keeps=lambda *_: False)
