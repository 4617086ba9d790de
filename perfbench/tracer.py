"""Outside-in tracing of ``ocareach`` layers.

The tracer replaces module-global bindings of chosen functions with
wrappers. Modules import each other's functions by name, so one
function object can be bound in several modules; every ``ocareach.*``
binding of the same object is replaced, which catches the call whichever
module makes it. A target that a refactor removed is reported as absent.

Spans form a tree through their parent. A span's self time is its
duration minus the durations of its direct children, so for every root
call the self times of the spans below it plus the root's own self time
(the untraced remainder) add up to the root's duration.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, function, layer): timed spans. Layers name per-layer metrics.
TIMED = (
    ("ocareach.solver", "decide_full", "root"),
    ("ocareach.evidence", "verify_evidence", "root"),
    ("ocareach.exploration", "is_bounded", "exploration.bounded"),
    ("ocareach.exploration", "is_locally_bounded", "exploration.bounded"),
    ("ocareach.exploration", "post_star", "exploration.post_star"),
    ("ocareach.exploration", "candidate_reach", "exploration.candidate"),
    ("ocareach.exploration", "reach_oracle", "exploration.oracle"),
    ("ocareach.flows", "path_from_flow", "flows.realize"),
    ("ocareach.pessimistic", "pessimistic_post_star", "pessimistic.closure"),
    ("ocareach.invariants", "perfect_cores", "invariants.cores"),
    ("ocareach.invariants", "verify_witness", "invariants.verify"),
    ("ocareach.invariants", "check_ap_domain", "invariants.domain"),
    ("ocareach.invariants", "check_inductive", "invariants.inductive"),
    ("ocareach.invariants", "check_separator", "invariants.separator"),
    ("ocareach.solver", "lift_candidate_run", "solver.lift"),
    ("ocareach.solver", "normalize_endpoints", "solver.normalize"),
    ("ocareach.automaton", "apply_path", "automaton.replay"),
    ("ocareach.automaton", "parse_oca", "automaton.parse"),
    ("ocareach.analysis", "climbing_cycles", "analysis.cycles"),
    ("ocareach.analysis", "chains_at", "analysis.chains"),
    ("ocareach.analysis", "chain_of", "analysis.chains"),
    ("ocareach.evidence", "format_run", "evidence.format"),
    ("ocareach.invariants", "format_witness", "evidence.format"),
    ("ocareach.evidence", "parse_run", "evidence.parse"),
    ("ocareach.invariants", "parse_witness", "evidence.parse"),
)

# Counted, never timed: what the leg attribution and the query counts
# read. They are called a few times per query, so untraced rounds carry
# them too without measurable cost.
PROBES = (
    ("ocareach.solver", "lift_candidate_run"),
    ("ocareach.exploration", "reach_oracle"),
    ("ocareach.solver", "decide_disequality"),
    ("ocareach.invariants", "synthesize_witness"),
)

# Functions whose cache hit ratio is read from ``cache_info()`` deltas.
CACHED = (("ocareach.exploration", "is_bounded"), ("ocareach.exploration", "is_locally_bounded"))


class _Span:
    __slots__ = ("layer", "parent", "child_time", "in_root")

    def __init__(self, layer: str, parent: "_Span | None"):
        self.layer = layer
        self.parent = parent
        self.child_time = 0.0
        self.in_root = layer == "root" or (parent is not None and parent.in_root)


class Tracer:
    """Spans folded into per-(phase, layer) totals, plus work counters.

    The caller sets ``phase`` to the operation in progress, ``decide``
    or ``verify``; a root call and everything it calls are charged to
    it, and so are the parses and evidence formatting the caller does
    for that operation. Spans are folded as they close, so memory stays
    flat however many calls a worker makes. With ``timed`` false only the
    probes are installed.
    """

    def __init__(self, timed: bool):
        self.timed = timed
        self.phase = "decide"
        self.stack: list[_Span] = []
        self.self_time: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.edges: dict[tuple[str, str, str], list] = defaultdict(lambda: [0, 0.0])
        self.root_time: dict[str, float] = defaultdict(float)
        self.root_self: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.query: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._automaton = None
        self._cached: list = []
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        targets: dict[tuple[str, str], str | None] = {}
        if self.timed:
            for module_name, name, layer in TIMED:
                targets[(module_name, name)] = layer
        for key in PROBES:
            targets.setdefault(key, None)
        for (module_name, name), layer in targets.items():
            fn = getattr(sys.modules.get(module_name), name, None)
            if fn is None:
                self.absent.append(f"{module_name}.{name}")
                continue
            if (module_name, name) in CACHED:
                self._cached.append(fn)
            wrapper = self._timed(fn, name, layer) if layer else self._probe(fn, name)
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "ocareach" and not mod_name.startswith("ocareach."):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._restore.append((module, attr, fn))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def cache_totals(self) -> tuple[int, int]:
        """(hits, lookups) summed over the cached boundedness functions."""
        hits = lookups = 0
        for fn in self._cached:
            info = getattr(fn, "cache_info", None)
            if info is not None:
                got = info()
                hits += got.hits
                lookups += got.hits + got.misses
        return hits, lookups

    def begin_query(self, automaton) -> None:
        """Start the per-query observations the leg attribution reads;
        ``automaton`` is the one the root call receives."""
        self.query.clear()
        self._automaton = automaton

    # ------------------------------------------------------------ wrappers

    def _probe(self, fn, name: str):
        count = self._count

        def probe(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(name, args, kwargs, result)
            return result

        return probe

    def _timed(self, fn, name: str, layer: str):
        stack = self.stack
        clock = time.perf_counter
        close = self._close
        count = self._count

        def timed(*args, **kwargs):
            span = _Span(layer, stack[-1] if stack else None)
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                close(span, duration)
            count(name, args, kwargs, result)
            return result

        return timed

    def _close(self, span: _Span, duration: float) -> None:
        phase = self.phase
        own = duration - span.child_time
        self.self_time[(phase, span.layer)] += own
        self.calls[(phase, span.layer)] += 1
        parent = span.parent
        edge = self.edges[(phase, parent.layer if parent else "-", span.layer)]
        edge[0] += 1
        edge[1] += duration
        if parent is not None:
            parent.child_time += duration
        if span.in_root:
            self.root_self[phase] += own
            if span.layer == "root":
                self.root_time[phase] += duration

    def _count(self, name: str, args, kwargs, result) -> None:
        """Work counters read off arguments and results of successful calls."""
        phase = self.phase
        c = self.counts
        if name == "post_star":
            c[f"{phase}.exploration.post_star_configs"] += len(getattr(result, "configs", ()))
        elif name == "pessimistic_post_star":
            c[f"{phase}.pessimistic.closure_configs"] += len(result)
        elif name == "apply_path":
            c[f"{phase}.automaton.replay_steps"] += len(args[2] if len(args) > 2 else kwargs["path"])
        elif name == "lift_candidate_run":
            c[f"{phase}.solver.lift_run_steps"] += len(result)
            self.query["lift"] += 1
        elif name == "reach_oracle":
            if result is not None:
                self.query["oracle_run"] += 1
        elif name == "decide_disequality":
            if (args[0] if args else kwargs["a"]) is not self._automaton:
                c[f"{phase}.solver.segment_queries"] += 1
        elif name == "synthesize_witness":
            c[f"{phase}.invariants.synth_calls"] += 1
            if result is not None:
                c[f"{phase}.invariants.synth_witnesses"] += 1

    # ------------------------------------------------------------ report

    def identity_gap(self) -> float:
        """Largest gap, over phases, between the summed root durations and
        the self times of all spans under roots (the roots' own self time
        being the untraced remainder)."""
        return max(
            (abs(self.root_time[p] - self.root_self[p]) for p in self.root_time),
            default=0.0,
        )

    def span_tree(self) -> list[str]:
        """Aggregated spans as 'phase parent > layer: calls, total s' lines."""
        lines = []
        for (phase, parent, layer), (calls, total) in sorted(self.edges.items()):
            lines.append(f"{phase:6s} {parent:>22s} > {layer:22s} {calls:9d} calls {total:9.4f} s")
        return lines
