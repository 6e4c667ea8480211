"""Spans and counts taken from outside the package.

A ``Tracer`` wraps each public function the ops call (``LAYER_FUNCTIONS``)
and records one span per call and one per op: name, start, end, parent span
and op id.  Spans stay in memory until the run writes them out.  Counts are
read from each call's arguments and result after its span has closed, so
counting costs no layer any busy time.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from types import SimpleNamespace

from workloads import LAYER_FUNCTIONS, count_rule, tree_size

OP = "op"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    error: bool = False


def _counters(api) -> dict:
    """What each wrapped call adds to the counts, from its arguments and result."""

    def run(c, args, result):
        c["minsky.steps"] += len(result.trace)

    def prove(c, args, result):
        c["prover.nodes"] += result.stats.nodes
        c["prover.rounds"] += result.stats.rounds
        if isinstance(result, api.Proved):
            c["prover.proof_nodes"] += tree_size(result.proof)
        else:
            c["prover.node_cap_hits"] += result.hit_node_cap

    def check_focused(c, args, result):
        c["focusing.proof_nodes"] += tree_size(args[2])

    def check_unfocused(c, args, result):
        c["unfocused.proof_nodes"] += tree_size(args[2])
        c["unfocused.contractions"] += count_rule(args[2], api.CONTR)

    def search(c, args, result):
        c["unfocused.search_unfocused.found"] += result is not None

    def printed(layer):
        def count(c, args, result):
            c[f"{layer}.bytes"] += len(result.encode())

        return count

    return {
        "minsky.run": run,
        "prover.prove_focused": prove,
        "focusing.check_focused": check_focused,
        "unfocused.check_unfocused": check_unfocused,
        "unfocused.search_unfocused": search,
        "certificates.print_focused_proof": printed("certificates"),
        "certificates.print_unfocused_proof": printed("certificates"),
        "parsing.print_sequent": printed("parsing"),
        "parsing.print_signature": printed("parsing"),
    }


class Tracer:
    def __init__(self, api):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.rows: list[dict] = []
        self._stack: list[int] = []
        self._op = -1
        counters = _counters(api)
        self.api = SimpleNamespace(**vars(api))
        for module, names in LAYER_FUNCTIONS.items():
            for name in names:
                qualified = f"{module}.{name}"
                wrapped = self._wrap(qualified, getattr(api, name), counters.get(qualified))
                setattr(self.api, name, wrapped)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        span = Span(name, 0.0, 0.0, parent, self._op)
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span, error: bool) -> None:
        span.end = time.perf_counter()
        span.error = error
        self._stack.pop()

    def _wrap(self, name: str, fn, count):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(span, True)
                raise
            self._close(span, False)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def run_op(self, op_id: int, op, item) -> dict:
        """Run one op under an op span and record its size row; re-raises
        whatever the op raises."""
        self._op = op_id
        before = dict(self.counts)
        span = self._open(OP)
        error = True
        try:
            size = op(self.api, item)
            error = False
            return size
        finally:
            self._close(span, error)
            row = {"op": op_id, "input": item.label, "ok": not error,
                   "seconds": span.end - span.start}
            if not error:
                row.update(size)
            row.update((k, v - before.get(k, 0)) for k, v in self.counts.items()
                       if v != before.get(k, 0))
            self.rows.append(row)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, less the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: Counter = Counter()
        for s, c in zip(self.spans, child):
            out[s.name] += s.end - s.start - c
        return dict(out)


def mean_self_times(tracers: list[Tracer]) -> dict[str, float]:
    """Self time per span name, averaged over the traced passes."""
    total: Counter = Counter()
    for t in tracers:
        total.update(t.self_times())
    return {name: sec / len(tracers) for name, sec in total.items()}


def layer_metrics(tracers: list[Tracer], untraced_s: float, traced_s: float) -> dict:
    """Per-layer metrics of the traced passes, each pass's figures averaged.

    Every pass runs the same inputs, so the counts of all passes agree; the
    caller checks that they do.
    """
    passes = len(tracers)
    counts = tracers[0].counts
    busy: Counter = Counter()
    calls: Counter = Counter()
    errors: Counter = Counter()
    for t in tracers:
        for s in t.spans:
            busy[s.name] += s.end - s.start
            calls[s.name] += 1
            errors[s.name] += s.error
    self_s: Counter = Counter()
    for name, sec in mean_self_times(tracers).items():
        self_s[name.split(".")[0]] += sec
    m: dict[str, tuple[float, str]] = {}
    for module, names in LAYER_FUNCTIONS.items():
        for name in names:
            q = f"{module}.{name}"
            m[f"{q}.busy_s"] = (busy[q] / passes, "s")
            m[f"{q}.calls"] = (calls[q] // passes, "count")
            m[f"{q}.errors"] = (errors[q] // passes, "count")
        m[f"{module}.self_s"] = (self_s[module], "s")
    m["op.self_s"] = (self_s[OP], "s")

    def ratio(a, b):
        return a / b if b else 0.0

    prover_busy = busy["prover.prove_focused"] / passes
    print_busy = (busy["certificates.print_focused_proof"]
                  + busy["certificates.print_unfocused_proof"]) / passes
    searches = calls["unfocused.search_unfocused"] // passes
    for key in ("minsky.steps", "parsing.bytes", "prover.nodes", "prover.rounds",
                "prover.node_cap_hits", "focusing.proof_nodes", "unfocused.proof_nodes",
                "unfocused.contractions", "certificates.bytes"):
        m[key] = (counts[key], "count" if "bytes" not in key else "B")
    m["prover.nodes_per_s"] = (ratio(counts["prover.nodes"], prover_busy), "1/s")
    m["prover.yield"] = (ratio(counts["prover.proof_nodes"], counts["prover.nodes"]), "ratio")
    m["unfocused.search_unfocused.found_frac"] = (
        ratio(counts["unfocused.search_unfocused.found"], searches), "ratio")
    m["certificates.print_bytes_per_s"] = (ratio(counts["certificates.bytes"], print_busy), "B/s")
    m["trace.ops"] = (len(tracers[0].rows), "count")
    m["trace.overhead"] = (ratio(traced_s - untraced_s, untraced_s), "ratio")
    return m
