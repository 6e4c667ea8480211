"""Run one workload of the selogic benchmark and print its metrics.

    python3 bench/run.py --workload halting-prove --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout: it imports the package from ``src/``
there and from nowhere else, and fails without printing a result when that
is missing.  One client runs ops in a closed loop, in one process and one
thread, over passes of the seeded inputs until ``--seconds`` have gone by;
the latency metrics are taken over each input's upper-quartile time.  Every
op's output is checked; an op that gives a wrong answer, an undecided one,
or raises (``RecursionError`` included) counts as failed and the run goes
on.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced pass with a traced one, reports the per-layer metrics and the
tracing overhead, and writes spans, self times and one size row per op to
``.bench_trace/<workload>-seed<seed>.json``.  The last line of standard
output is always the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import workloads
from tracing import Tracer, layer_metrics, mean_self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_trace"


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "commit": git_commit(ROOT),
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
    }


class Failures:
    def __init__(self):
        self.kinds: Counter = Counter()
        self.examples: list[str] = []

    def add(self, label: str, exc: Exception) -> None:
        self.kinds[type(exc).__name__] += 1
        if len(self.examples) < 5:
            self.examples.append(f"{label}: {type(exc).__name__}: {str(exc)[:200]}")

    @property
    def count(self) -> int:
        return sum(self.kinds.values())


def run_pass(api, op, inputs, failures: Failures, times: dict, deadline: float = float("inf")) -> int:
    """Run the inputs in order until ``deadline``, appending each op's
    seconds to ``times[label]``.  Returns the number of ops run."""
    done = 0
    for item in inputs:
        if time.perf_counter() >= deadline:
            break
        t0 = time.perf_counter()
        try:
            op(api, item)
        except Exception as exc:  # every failure is counted, none ends the run
            failures.add(item.label, exc)
        times.setdefault(item.label, []).append(time.perf_counter() - t0)
        done += 1
    return done


def upper_quartile(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def run_traced_pass(tracer: Tracer, op, inputs, failures: Failures) -> float:
    start = time.perf_counter()
    for k, item in enumerate(inputs):
        try:
            tracer.run_op(k, op, item)
        except Exception as exc:
            failures.add(item.label, exc)
    return time.perf_counter() - start


def setup(workload: str, seed: int):
    """Import the package afresh and generate the inputs; returns both and
    the seconds it took."""
    t0 = time.perf_counter()
    api = workloads.load_api()
    inputs = workloads.make_inputs(api, workload, seed)
    return api, inputs, time.perf_counter() - t0


def timed(workload: str, seed: int, api, inputs, setup_s: float, seconds: float):
    """The end-to-end metrics, from each input's upper-quartile time over
    the run's passes.

    Passes over the inputs repeat until ``seconds`` have gone by; the first
    pass always runs to its end, so every input has a time, and the last
    one stops at the deadline.  On a shared host the machine's speed
    switches between a fast mode and a slow one about 1.6x slower, each
    lasting seconds, with the slow one taking most of the time.  An input's
    upper-quartile time is its slow-mode time, which every run reaches;
    its minimum or median depends on how much of the run was fast.  Set-up
    runs again after every pass, the next pass uses that fresh set-up, and
    ``setup_s`` is the upper quartile of those set-ups.
    """
    op = workloads.OPS[workload]
    failures = Failures()
    times: dict[str, list[float]] = {}
    setups = [setup_s]
    deadline = time.perf_counter() + seconds
    attempted = run_pass(api, op, inputs, failures, times)
    passes = 1
    while time.perf_counter() < deadline:
        api, inputs, setup_s = setup(workload, seed)
        setups.append(setup_s)
        gc.collect()  # the previous set-up's modules, outside any timed op
        attempted += run_pass(api, op, inputs, failures, times, deadline)
        passes += 1
    per_input = sorted(upper_quartile(v) for v in times.values())
    metrics = {
        "setup_s": (upper_quartile(setups), "s"),
        "ops_per_s": (len(per_input) / sum(per_input), "1/s"),
        "op_p50_ms": (statistics.median(per_input) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(per_input, n=10)[8] * 1e3, "ms"),
        "ok_frac": ((attempted - failures.count) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, attempted, failures, {"passes": passes, "setups": len(setups)}


def traced(api, op, inputs, seconds: float, report: dict) -> tuple[dict, int, Failures, bool]:
    failures = Failures()
    tracers: list[Tracer] = []
    untraced_s = traced_s = 0.0
    while not tracers or untraced_s + traced_s < seconds:
        t0 = time.perf_counter()
        run_pass(api, op, inputs, failures, {})
        untraced_s += time.perf_counter() - t0
        tracer = Tracer(api)
        traced_s += run_traced_pass(tracer, op, inputs, failures)
        tracers.append(tracer)
    # identical passes must count identically; anything else is nondeterminism
    steady = all(t.counts == tracers[0].counts for t in tracers)
    metrics = layer_metrics(tracers, untraced_s, traced_s)
    spans = [[s.name, s.start, s.end, s.parent, s.op, s.error] for t in tracers for s in t.spans]
    TRACE_DIR.mkdir(exist_ok=True)
    out = TRACE_DIR / f"{report['workload']}-seed{report['provenance']['seed']}.json"
    out.write_text(json.dumps({
        **report,
        "passes": len(tracers),
        "metrics": {k: v for k, (v, _unit) in metrics.items()},
        "self_s": mean_self_times(tracers),
        "rows": tracers[0].rows,
        "span_fields": ["name", "start", "end", "parent", "op", "error"],
        "spans": spans,
    }))
    print(f"trace: {out.relative_to(ROOT)} ({len(spans)} spans, {len(tracers)} traced passes)")
    return metrics, 2 * len(tracers) * len(inputs), failures, steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "selogic" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'selogic'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    api, inputs, setup_s = setup(args.workload, args.seed)
    loaded = Path(sys.modules["selogic"].__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        print(f"error: imported selogic from {loaded}, not from {SRC}", file=sys.stderr)
        return 2

    report = {"workload": args.workload, "provenance": provenance(args.seed)}
    if args.trace:
        op = workloads.OPS[args.workload]
        metrics, attempted, failures, steady = traced(api, op, inputs, args.seconds, report)
        runs = {}
    else:
        metrics, attempted, failures, runs = timed(args.workload, args.seed, api, inputs,
                                                   setup_s, args.seconds)
        steady = True

    print("report: " + json.dumps({
        **report,
        "inputs_per_pass": len(inputs),
        **runs,
        "samples": attempted,
        "fail_frac": failures.count / attempted,
        "failures": dict(failures.kinds),
        "failure_examples": failures.examples,
    }))
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(f"fail_frac: {failures.count / attempted:.6g} ratio ({attempted} samples)")
    result = {
        "correct": failures.count == 0 and steady,
        "attempted": attempted,
        "failed": failures.count,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
