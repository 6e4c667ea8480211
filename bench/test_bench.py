"""Tests of the benchmark itself: seeded inputs, exact counts, and the gate.

    python3 -m pytest -q -p no:cacheprovider bench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
import workloads
from tracing import Tracer

sys.path.insert(0, str(run.SRC))

COUNTS = ("prover.nodes", "certificates.bytes", "unfocused.proof_nodes", "minsky.steps")


def _cheap(workload: str, items: list) -> list:
    """A fast slice of one pass: small machines, or the first oracle draws."""
    if workload == "oracle-crosscheck":
        return items[:60]
    small = ("random#", "@0", "@1", "@2", "@3", "@4", "halt_only", "stuck", "loop")
    return [i for i in items if any(s in i.label for s in small)]


def _describe(item) -> list:
    """An input as plain data whose text does not depend on hash order."""
    if isinstance(item, workloads.OracleInput):
        sig = item.signature
        return [item.label, sorted(sig.labels), sorted(sig.unbounded), sorted(sig.order),
                repr(item.context)]
    m = item.machine
    return [item.label, sorted(m.states), m.halting, repr(m.entries), repr(item.init),
            item.exhaust_budget]


def fingerprint(workload: str, seed: int) -> dict:
    """The inputs of one pass and the counts of a traced pass over its cheap slice."""
    api = workloads.load_api()
    inputs = workloads.make_inputs(api, workload, seed)
    tracer = Tracer(api)
    failures = run.Failures()
    run.run_traced_pass(tracer, workloads.OPS[workload], _cheap(workload, inputs), failures)
    assert failures.count == 0, failures.examples
    counts = {k: tracer.counts.get(k, 0) for k in COUNTS}
    return {"inputs": [_describe(i) for i in inputs], "counts": counts}


def _fingerprint_in_new_process(workload: str, seed: int, hash_seed: str) -> dict:
    code = f"import json, test_bench; print(json.dumps(test_bench.fingerprint({workload!r}, {seed})))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=Path(__file__).parent,
        env={**os.environ, "PYTHONHASHSEED": hash_seed},
        capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_and_counts_in_every_process(workload):
    first, again = (_fingerprint_in_new_process(workload, 3, h) for h in ("1", "2"))
    assert first == again
    assert sum(first["counts"].values()) > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_another_seed_gives_other_inputs(workload):
    api = workloads.load_api()
    assert workloads.make_inputs(api, workload, 7) != workloads.make_inputs(api, workload, 8)


def _machine(api, name: str):
    m, init = api.load_corpus(name)
    return workloads.MachineInput(name, m, init)


def _failures(api, op, item) -> run.Failures:
    failures = run.Failures()
    run.run_pass(api, op, [item, item], failures, {})
    return failures


def test_gate_passes_correct_outputs():
    api = workloads.load_api()
    for op in (workloads.op_halting_prove, workloads.op_certify_roundtrip):
        assert _failures(api, op, _machine(api, "incra_halt")).count == 0


def _overflow(*args):
    raise RecursionError("maximum recursion depth exceeded")


def _exhausted(api):
    prover = sys.modules["selogic.prover"]

    def prove(*args, **kwargs):
        return prover.Exhausted(prover.SearchStats(), complete=True)

    return prove


@pytest.mark.parametrize(
    "op, name, swap",
    [
        # a proved goal reported as unprovable
        (workloads.op_halting_prove, "incra_halt", lambda api: {"prove_focused": _exhausted(api)}),
        # the simulator's verdict and the prover's disagree
        (workloads.op_halting_prove, "loop",
         lambda api: {"run": lambda m, c, fuel: api.Halted(("incra", "halt"))}),
        # a wrong trace read back from a certificate
        (workloads.op_halting_prove, "incra_halt",
         lambda api: {"trace_from_proof": lambda bundle, proof: ("incrb", "halt")}),
        (workloads.op_certify_roundtrip, "incra_halt",
         lambda api: {"trace_from_proof": lambda bundle, proof: ("halt",)}),
        # a certificate that changes in print -> parse
        (workloads.op_certify_roundtrip, "incra_halt",
         lambda api: {"parse_focused_proof": lambda text: replace(
             api.parse_focused_proof(text), principal=99)}),
        # a layer that runs out of stack
        (workloads.op_certify_roundtrip, "incra_halt",
         lambda api: {"print_unfocused_proof": _overflow}),
    ],
)
def test_gate_counts_wrong_outputs_as_failures(op, name, swap):
    api = workloads.load_api()
    broken = SimpleNamespace(**{**vars(api), **swap(api)})
    failures = _failures(broken, op, _machine(api, name))
    assert failures.count == 2  # both ops failed and the pass went on


def test_oracle_gate_needs_a_focused_proof_for_every_unfocused_one():
    api = workloads.load_api()
    found = next(
        i for i in workloads.make_inputs(api, "oracle-crosscheck", 1)
        if api.search_unfocused(i.signature, api.Sequent(i.context),
                                max_rules=workloads.ORACLE_RULES,
                                max_contractions=workloads.ORACLE_CONTRACTIONS) is not None
    )
    assert _failures(api, workloads.op_oracle_crosscheck, found).count == 0
    broken = SimpleNamespace(**{**vars(api), "prove_focused": _exhausted(api)})
    assert _failures(broken, workloads.op_oracle_crosscheck, found).count == 2
