"""The benchmark's three workloads: seeded inputs, one op per input, and the
gate that checks every op's output against a reference other than the code
under test.

Ops reach the package only through an ``Api`` namespace holding the public
functions listed in ``LAYER_FUNCTIONS``, so the traced run can swap each
one for a timed wrapper without touching the package.
"""

from __future__ import annotations

import importlib
import random
import sys
from dataclasses import dataclass, fields
from types import SimpleNamespace

# The public functions the ops call, by module.  Tracing wraps exactly these;
# ``formulas`` and ``signatures`` have no entry point on these paths, so their
# cost shows inside the layers that call them.
LAYER_FUNCTIONS = {
    "minsky": ("run",),
    "reduction": ("encode_halting", "proof_from_trace", "trace_from_proof"),
    "prover": ("prove_focused",),
    "focusing": ("check_focused", "defocus"),
    "unfocused": ("check_unfocused", "search_unfocused"),
    "certificates": (
        "print_focused_proof",
        "parse_focused_proof",
        "print_unfocused_proof",
        "parse_unfocused_proof",
    ),
    "parsing": ("print_sequent", "parse_sequent", "print_signature", "parse_signature"),
}

# --- halting-prove ----------------------------------------------------------
FUEL = 200
# Acceptance criterion 1's decide budget for goals whose machine does not halt.
NON_HALTING_BUDGET = 12
# Random draws loop or get stuck about a third of the time.  At criterion 1's
# budget of 12 some of those exhaust only after seconds or hit the node cap,
# and the prover's cost grows about 2.6x per register unit, so the draws start
# from empty registers and their non-halting goals get a budget of 4.
RANDOM_NON_HALTING_BUDGET = 4
PROVE_NODE_CAP = 200_000
RANDOM_MACHINES = 26
# Register ladders of the bundled families; these replace the families'
# bundled starts (drain_a at a = 3 is one of them).  drain_b at b = 3 and
# transfer_ab at a = 2 took about 1 s each, a third of a pass together, and
# a run steadies only with many passes; drain_a@3 keeps one input of that size.
LADDER = (("drain_a", range(4)), ("drain_b", range(3)), ("transfer_ab", range(2)))

# --- certify-roundtrip ------------------------------------------------------
# Under the default recursion limit the unfocused certificate printer raises
# RecursionError from 66 steps on the transfer families and from 106 on the
# drain families (the focused printer from about 102 and 142, and
# trace_from_proof from about 200).  Runs here stay at or below three
# quarters of that: 50 and 82 steps.  Longer runs wait until the tree walks
# stop recursing.  Register values per family.  The two families of a kind
# cost the same at equal values, so they take turns on one ladder: the
# printers are quadratic, and a pass of both full ladders took 8.5 s, too
# long for a run to hold many passes.
LADDERS = {
    "drain_a": (2, 6, 10, 16, 24, 40, 64),
    "drain_b": (4, 8, 12, 20, 30, 50, 80),
    "transfer_ab": (1, 3, 5, 7, 10, 15),
    "transfer_ba": (2, 4, 6, 8, 12, 19, 24),
}
TRANSFER_BA = """\
states: q0 q1 qz qh
halting: qh
init: q0 a=0 b=2
q0 decrb q1
q0 iszb qz
q1 incra q0
qz halt
"""

# --- oracle-crosscheck ------------------------------------------------------
# Unfocused search is exponential in its budget: at criterion 4's (40, 6)
# single sequents run past 20 s and at (20, 3) one took 150 s, so the oracle
# runs at (12, 2).  Even there, unfiltered selftest draws took up to 23 s
# each, so contexts keep at most 5 connectives, the way criterion 4 keeps
# at most 6.  At selftest's 6 decides the prover hit its node cap on about
# one draw in 4000; at 5 it did not.  When only the unfocused search finds
# a proof, the prover retries at criterion 4's 8 before the gate calls it.
ORACLE_RULES = 12
ORACLE_CONTRACTIONS = 2
ORACLE_DECIDES = 5
ORACLE_RETRY_DECIDES = 8
ORACLE_NODE_CAP = 40_000
ORACLE_MAX_CONNECTIVES = 5
# Passes of 1250 draws took 5.5 s; at 400 a run holds about 20 passes.
ORACLE_DRAWS = 400


class GateFailure(Exception):
    """An op's output disagrees with its reference."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise GateFailure(message)


def load_api() -> SimpleNamespace:
    """Import the package afresh and collect what the ops use.

    Dropping the cached modules first makes every call pay the full import,
    so repeated set-ups each measure the same work.
    """
    for name in [m for m in sys.modules if m == "selogic" or m.startswith("selogic.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"selogic.{m}") for m in LAYER_FUNCTIONS}
    corpus = importlib.import_module("selogic.corpus")
    gen = importlib.import_module("selogic.generators")
    fm = importlib.import_module("selogic.formulas")
    api = SimpleNamespace(
        Halted=mods["minsky"].Halted,
        Configuration=mods["minsky"].Configuration,
        Entry=mods["minsky"].Entry,
        Machine=mods["minsky"].Machine,
        parse_machine=mods["minsky"].parse_machine,
        Proved=mods["prover"].Proved,
        FSequent=mods["focusing"].FSequent,
        Sequent=fm.Sequent,
        CONTR=mods["unfocused"].CONTR,
        corpus_names=corpus.corpus_names,
        load_corpus=corpus.load_corpus,
        random_machine=gen.random_machine,
        random_signature=gen.random_signature,
        random_context=gen.random_context,
    )
    for module, names in LAYER_FUNCTIONS.items():
        for name in names:
            setattr(api, name, getattr(mods[module], name))
    return api


@dataclass(frozen=True)
class MachineInput:
    label: str
    machine: object
    init: object
    # decide budget when the simulator says the machine does not halt
    exhaust_budget: int = NON_HALTING_BUDGET


@dataclass(frozen=True)
class OracleInput:
    label: str
    signature: object
    context: tuple


def make_inputs(api, workload: str, seed: int) -> list:
    """One pass of the workload: the same seed always gives the same list.

    Random draws come from a pool with a fixed seed of its own.  The run's
    seed gives every machine state or atom a fresh name, shuffles the
    entries of the certify-roundtrip machines, and shuffles the op order.
    None of that changes what an op costs, so runs with different seeds
    differ only by the machine's own noise.  On a 2-core x86-64 machine,
    fresh random machines and contexts per seed moved the medians between
    seeds by more than that noise.
    """
    rng = random.Random(f"{workload}/{seed}")
    items = _INPUTS[workload](api, rng)
    rng.shuffle(items)
    return items


def _fresh_names(rng, count: int) -> list[str]:
    """``count`` distinct two-letter identifiers, the length of ``q0``."""
    letters = "abcdefghijklmnopqrstuvwxyz"
    names: list[str] = []
    while len(names) < count:
        name = rng.choice(letters) + rng.choice(letters + "0123456789")
        if name not in names:
            names.append(name)
    return names


def _variant(api, rng, machine, init, a: int, b: int, shuffle_entries: bool = False):
    """The machine with fresh state names, started with registers ``a``, ``b``."""
    states = sorted(machine.states)
    rename = dict(zip(states, _fresh_names(rng, len(states))))
    entries = [api.Entry(rename[e.source], e.instruction, rename[e.target]) for e in machine.entries]
    if shuffle_entries:
        rng.shuffle(entries)
    renamed = api.Machine(frozenset(rename.values()), rename[machine.halting], tuple(entries))
    return renamed, api.Configuration(rename[init.state], a, b)


def _halting_inputs(api, rng) -> list:
    # Entry order steers the prover's search, so only names change here.
    items = []
    families = {name for name, _values in LADDER}
    for name in api.corpus_names():
        if name not in families:
            m, init = api.load_corpus(name)
            items.append(MachineInput(name, *_variant(api, rng, m, init, init.a, init.b)))
    for name, values in LADDER:
        m, init = api.load_corpus(name)
        for k in values:
            a, b = (0, k) if name == "drain_b" else (k, 0)
            items.append(MachineInput(f"{name}@{k}", *_variant(api, rng, m, init, a, b)))
    pool = random.Random("halting-prove/pool")
    for k in range(RANDOM_MACHINES):
        m, init = api.random_machine(pool)
        variant = _variant(api, rng, m, init, 0, 0)
        items.append(MachineInput(f"random#{k}", *variant, RANDOM_NON_HALTING_BUDGET))
    return items


def _roundtrip_families(api) -> dict:
    """Halting machine families that together use all seven instructions:
    name -> (machine, initial configuration, the register the ladder fills)."""
    transfer_ba = api.parse_machine(TRANSFER_BA, "transfer_ba")
    return {
        "drain_a": (*api.load_corpus("drain_a"), "a"),
        "drain_b": (*api.load_corpus("drain_b"), "b"),
        "transfer_ab": (*api.load_corpus("transfer_ab"), "a"),
        "transfer_ba": (*transfer_ba, "b"),
    }


def _roundtrip_inputs(api, rng) -> list:
    items = []
    for name, (m, init, register) in _roundtrip_families(api).items():
        for n in LADDERS[name]:
            a, b = (n, 0) if register == "a" else (0, n)
            variant = _variant(api, rng, m, init, a, b, shuffle_entries=True)
            items.append(MachineInput(f"{name}@{n}", *variant))
    return items


def connectives(f) -> int:
    count, stack = 0, [f]
    while stack:
        g = stack.pop()
        parts = [getattr(g, name) for name in ("left", "right", "body") if hasattr(g, name)]
        count += bool(parts)
        stack.extend(parts)
    return count


def _oracle_inputs(api, rng) -> list:
    atoms = tuple(rng.sample("abcdefghijklmnopqrstuvwxyz", 3))
    pool = random.Random("oracle-crosscheck/pool")
    items = []
    while len(items) < ORACLE_DRAWS:
        sig = api.random_signature(pool)
        ctx = api.random_context(pool, sig, atoms=atoms)
        if sum(connectives(f) for f in ctx) <= ORACLE_MAX_CONNECTIVES:
            items.append(OracleInput(f"draw#{len(items)}", sig, ctx))
    return items


# --- ops --------------------------------------------------------------------


def decide_budget(init, trace) -> int:
    """Criterion 1's budget for a halting run: steps plus the register units
    still held when the final halt fires, plus three."""
    a, b = init.a, init.b
    for instr in trace[:-1]:
        a += {"incra": 1, "decra": -1}.get(instr, 0)
        b += {"incrb": 1, "decrb": -1}.get(instr, 0)
    return len(trace) + a + b + 3


# The package's own size and rule counters recurse; these walk with a stack,
# so counting never fails on a certificate the layers themselves accept.
def tree_size(proof) -> int:
    size, stack = 0, [proof]
    while stack:
        node = stack.pop()
        size += 1
        stack.extend(node.premises)
    return size


def count_rule(proof, rule: str) -> int:
    count, stack = 0, [proof]
    while stack:
        node = stack.pop()
        count += node.rule == rule
        stack.extend(node.premises)
    return count


def same_tree(a, b) -> bool:
    """Structural equality of two certificates without recursing."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if type(x) is not type(y) or len(x.premises) != len(y.premises):
            return False
        for f in fields(x):
            if f.name != "premises" and getattr(x, f.name) != getattr(y, f.name):
                return False
        stack.extend(zip(x.premises, y.premises))
    return True


def _check_both(api, sig, context, proof) -> None:
    """Both checkers on one focused certificate; either raises CheckError."""
    goal = api.FSequent(context)
    api.check_focused(sig, goal, proof)
    api.check_unfocused(sig, api.Sequent(context), api.defocus(proof, sig, goal))


def _round_trips(api, proof, printer, parser, what: str) -> None:
    back = parser(printer(proof))
    expect(same_tree(back, proof), f"{what} certificate changed in print->parse")


def op_halting_prove(api, item: MachineInput) -> dict:
    m, init = item.machine, item.init
    result = api.run(m, init, FUEL)
    # The simulator is the reference.  A run that starts in the halting
    # configuration halts with the empty trace, which the encoding documents
    # as unprovable, so only a non-empty halting trace predicts a proof.
    halts = isinstance(result, api.Halted) and bool(result.trace)
    budget = decide_budget(init, result.trace) if halts else item.exhaust_budget
    bundle = api.encode_halting(m, init)
    out = api.prove_focused(
        bundle.signature, api.FSequent(bundle.goal), max_decides=budget, max_nodes=PROVE_NODE_CAP
    )
    proved = isinstance(out, api.Proved)
    expect(proved or not out.hit_node_cap, "undecided: the prover hit its node cap")
    expect(proved == halts, f"verdict {'proved' if proved else 'exhausted'}, simulator says "
           f"{'halts' if halts else 'does not halt'}")
    if proved:
        _check_both(api, bundle.signature, bundle.goal, out.proof)
        trace = api.trace_from_proof(bundle, out.proof)
        expect(trace == result.trace, "trace read from the proof differs from the simulator's")
    return {"steps": len(result.trace), "regsum": init.a + init.b, "ctx_len": len(bundle.goal)}


def op_certify_roundtrip(api, item: MachineInput) -> dict:
    m, init = item.machine, item.init
    result = api.run(m, init, FUEL)
    expect(isinstance(result, api.Halted) and bool(result.trace), "machine did not halt")
    bundle = api.encode_halting(m, init)
    sig, goal = bundle.signature, api.FSequent(bundle.goal)
    proof = api.proof_from_trace(bundle, result.trace)
    api.check_focused(sig, goal, proof)
    unfocused = api.defocus(proof, sig, goal)
    seq = api.Sequent(bundle.goal)
    api.check_unfocused(sig, seq, unfocused)
    expect(api.trace_from_proof(bundle, proof) == result.trace,
           "trace read from the certificate differs from the simulator's")
    _round_trips(api, proof, api.print_focused_proof, api.parse_focused_proof, "focused")
    _round_trips(api, unfocused, api.print_unfocused_proof, api.parse_unfocused_proof, "unfocused")
    expect(api.parse_sequent(api.print_sequent(seq)) == seq, "goal changed in print->parse")
    expect(api.parse_signature(api.print_signature(sig)) == sig, "signature changed in print->parse")
    return {"steps": len(result.trace), "regsum": init.a + init.b, "ctx_len": len(bundle.goal)}


def op_oracle_crosscheck(api, item: OracleInput) -> dict:
    sig, ctx = item.signature, item.context
    uproof = api.search_unfocused(
        sig, api.Sequent(ctx), max_rules=ORACLE_RULES, max_contractions=ORACLE_CONTRACTIONS
    )
    out = api.prove_focused(
        sig, api.FSequent(ctx), max_decides=ORACLE_DECIDES, max_nodes=ORACLE_NODE_CAP
    )
    if uproof is not None and not isinstance(out, api.Proved) and not out.complete:
        out = api.prove_focused(
            sig, api.FSequent(ctx), max_decides=ORACLE_RETRY_DECIDES, max_nodes=ORACLE_NODE_CAP
        )
    proved = isinstance(out, api.Proved)
    expect(proved or not out.hit_node_cap, "undecided: the prover hit its node cap")
    if uproof is not None:
        api.check_unfocused(sig, api.Sequent(ctx), uproof)
        _round_trips(api, uproof, api.print_unfocused_proof, api.parse_unfocused_proof, "unfocused")
        # acceptance criterion 4: unfocused derivability implies focused
        expect(proved, "unfocused proof found but the focused search exhausted")
    if proved:
        _check_both(api, sig, ctx, out.proof)
        _round_trips(api, out.proof, api.print_focused_proof, api.parse_focused_proof, "focused")
    return {"steps": 0, "regsum": 0, "ctx_len": len(ctx)}


OPS = {
    "halting-prove": op_halting_prove,
    "certify-roundtrip": op_certify_roundtrip,
    "oracle-crosscheck": op_oracle_crosscheck,
}
WORKLOADS = tuple(OPS)
_INPUTS = {
    "halting-prove": _halting_inputs,
    "certify-roundtrip": _roundtrip_inputs,
    "oracle-crosscheck": _oracle_inputs,
}
