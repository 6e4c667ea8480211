"""Command line front end.

Reports are ``key: value`` lines on stdout.  Exit status 0 means the
requested outcome holds (machine halted, proof found, certificate
accepted, traces agree); 1 is the honest negative; 2 is a problem with the
input itself.  Machine arguments take a file path or the name of a
bundled example machine.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from .certificates import (
    parse_focused_proof,
    parse_unfocused_proof,
    print_focused_proof,
    print_unfocused_proof,
)
from .corpus import corpus_names, load_corpus
from .errors import CheckError, MalformedCertificate, TraceMismatch
from .focusing import check_focused, count_decides, defocus
from .formulas import Sequent
from .generators import random_context, random_signature
from .minsky import Halted, OutOfFuel, Stuck, load_machine, print_trace, run
from .parsing import parse_sequent, parse_signature, print_sequent, print_signature
from .prover import Proved, prove_focused
from .reduction import encode_halting, proof_from_trace, trace_from_proof
from .unfocused import CONTR, check_unfocused, count_rule, proof_size


def _machine(arg: str):
    p = Path(arg)
    if p.exists():
        return load_machine(p)
    if arg in corpus_names():
        return load_corpus(arg)
    raise FileNotFoundError(f"no machine file or bundled machine named {arg!r}")


def _write(path: str, text: str, label: str):
    Path(path).write_text(text)
    print(f"{label}: {path}")


def cmd_simulate(args) -> int:
    m, init = _machine(args.machine)
    result = run(m, init, args.fuel)
    match result:
        case Halted():
            print("outcome: halted")
            code = 0
        case Stuck():
            print("outcome: stuck")
            code = 1
        case OutOfFuel():
            print("outcome: out-of-fuel")
            code = 1
    print(f"steps: {len(result.trace)}")
    print("trace: " + (" ".join(result.trace) if result.trace else "(empty)"))
    if not isinstance(result, Halted):
        c = result.config
        print(f"state: {c.state}")
        print(f"a: {c.a}")
        print(f"b: {c.b}")
    if args.trace_out and isinstance(result, Halted):
        _write(args.trace_out, print_trace(result.trace), "trace-file")
    return code


def cmd_encode(args) -> int:
    m, init = _machine(args.machine)
    bundle = encode_halting(m, init)
    sig_text = print_signature(bundle.signature)
    goal_text = print_sequent(Sequent(bundle.goal))
    if args.signature_out or args.goal_out:
        print(f"elements: {len(bundle.table)}")
        print(f"context-size: {len(bundle.goal)}")
        if args.signature_out:
            _write(args.signature_out, sig_text, "signature-file")
        if args.goal_out:
            _write(args.goal_out, goal_text, "goal-file")
    else:
        print(sig_text)
        print(goal_text, end="")
    return 0


def cmd_prove(args) -> int:
    m, init = _machine(args.machine)
    bundle = encode_halting(m, init)
    sig, goal = bundle.signature, Sequent(bundle.goal)
    result = prove_focused(sig, goal, max_decides=args.max_decides, max_nodes=args.max_nodes)
    if isinstance(result, Proved):
        print("outcome: proved")
        print(f"proof-decides: {count_decides(result.proof)}")
        print(f"proof-size: {proof_size(result.proof)}")
        print(f"nodes: {result.stats.nodes}")
        print(f"rounds: {result.stats.rounds}")
        if args.proof_out:
            _write(args.proof_out, print_focused_proof(result.proof), "proof-file")
        return 0
    print("outcome: exhausted")
    if result.hit_node_cap:
        reason = "node-budget"
    elif result.complete:
        reason = "unprovable"
    else:
        reason = "decide-budget"
    print(f"reason: {reason}")
    print(f"nodes: {result.stats.nodes}")
    print(f"rounds: {result.stats.rounds}")
    return 1


def cmd_check(args) -> int:
    sig = parse_signature(Path(args.signature).read_text(), args.signature)
    seq = parse_sequent(Path(args.sequent).read_text(), args.sequent)
    text = Path(args.proof).read_text()
    try:
        if args.calculus == "focused":
            fproof = parse_focused_proof(text, args.proof)
            check_focused(sig, seq, fproof)
            size = proof_size(fproof)
        else:
            uproof = parse_unfocused_proof(text, args.proof)
            check_unfocused(sig, seq, uproof)
            size = proof_size(uproof)
    except CheckError as e:
        print("outcome: rejected")
        print(f"reason: {e.reason.value}")
        print("path: " + (".".join(map(str, e.path)) if e.path else "(root)"))
        print(f"detail: {e.message}")
        return 1
    print("outcome: accepted")
    print(f"proof-size: {size}")
    return 0


def cmd_extract(args) -> int:
    m, init = _machine(args.machine)
    bundle = encode_halting(m, init)
    proof = parse_focused_proof(Path(args.proof).read_text(), args.proof)
    try:
        trace = trace_from_proof(bundle, proof)
    except MalformedCertificate as e:
        raise e.__cause__ or e from None  # a rejected check reads as the checker's error
    print("outcome: extracted")
    print(f"steps: {len(trace)}")
    print("trace: " + " ".join(trace))
    if args.trace_out:
        _write(args.trace_out, print_trace(trace), "trace-file")
    return 0


def _halting_trace(args):
    """Shared preamble of synthesize and roundtrip."""
    m, init = _machine(args.machine)
    result = run(m, init, args.fuel)
    if isinstance(result, Stuck):
        print("outcome: stuck")
        return None, None, 1
    if isinstance(result, OutOfFuel):
        print("outcome: out-of-fuel")
        return None, None, 1
    if not result.trace:
        print("outcome: empty-trace")
        print("reason: the machine starts in the halting configuration; no certificate exists")
        return None, None, 1
    return (m, init), result.trace, 0


def cmd_synthesize(args) -> int:
    loaded, trace, code = _halting_trace(args)
    if loaded is None:
        return code
    bundle = encode_halting(*loaded)
    proof = proof_from_trace(bundle, trace)
    check_focused(bundle.signature, Sequent(bundle.goal), proof)
    print("outcome: synthesized")
    print(f"steps: {len(trace)}")
    print(f"proof-decides: {count_decides(proof)}")
    print(f"proof-size: {proof_size(proof)}")
    if args.proof_out:
        _write(args.proof_out, print_focused_proof(proof), "proof-file")
    return 0


def cmd_roundtrip(args) -> int:
    loaded, trace, code = _halting_trace(args)
    if loaded is None:
        return code
    bundle = encode_halting(*loaded)
    goal = Sequent(bundle.goal)
    proof = proof_from_trace(bundle, trace)
    unfocused = defocus(proof, bundle.signature, goal)
    check_unfocused(bundle.signature, goal, unfocused)
    back = trace_from_proof(bundle, proof)
    print("outcome: halted")
    print(f"steps: {len(trace)}")
    print(f"proof-decides: {count_decides(proof)}")
    print(f"unfocused-rules: {proof_size(unfocused)}")
    print(f"contractions: {count_rule(unfocused, CONTR)}")
    print(f"agreement: {'yes' if back == trace else 'no'}")
    return 0 if back == trace else 1


def cmd_selftest(args) -> int:
    rng = random.Random(args.seed)
    proved = 0
    for _ in range(args.count):
        sig = random_signature(rng)
        goal = Sequent(random_context(rng, sig))
        res = prove_focused(sig, goal, max_decides=6, max_nodes=40_000)
        if isinstance(res, Proved):
            u = defocus(res.proof, sig, goal)
            check_unfocused(sig, goal, u)
            proved += 1
    machines = agreed = 0
    for name in corpus_names():
        m, init = load_corpus(name)
        result = run(m, init, 500)
        if not (isinstance(result, Halted) and result.trace):
            continue
        machines += 1
        bundle = encode_halting(m, init)
        proof = proof_from_trace(bundle, result.trace)
        if trace_from_proof(bundle, proof) == result.trace:
            agreed += 1
    print(f"sequents: {args.count}")
    print(f"proved: {proved}")
    print(f"machines: {machines}")
    print(f"agreed: {agreed}")
    if agreed != machines:
        print("outcome: mismatch")
        return 1
    print("outcome: ok")
    return 0


def _at_least(low: int):
    """An argparse type for integers no smaller than ``low``."""

    def integer(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selogic",
        description="Sequent calculi with subexponentials, proof search, "
        "and two-register machine encodings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def machine_cmd(name, help_text, func, fuel=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("machine", help="machine file or bundled machine name")
        if fuel:
            p.add_argument("--fuel", type=_at_least(0), default=10_000, help="step limit")
        p.set_defaults(func=func)
        return p

    p = machine_cmd("simulate", "run a machine and report its trace", cmd_simulate, fuel=True)
    p.add_argument("--trace-out", help="write the halting trace to a file")

    p = machine_cmd("encode", "turn a machine into a signature and goal sequent", cmd_encode)
    p.add_argument("--signature-out")
    p.add_argument("--goal-out")

    p = machine_cmd("prove", "search for a focused proof of the encoded goal", cmd_prove)
    p.add_argument("--max-decides", type=_at_least(0), default=12, help="per-branch decide cap")
    p.add_argument("--max-nodes", type=_at_least(1), default=500_000, help="total node cap")
    p.add_argument("--proof-out", help="write the found certificate to a file")

    p = sub.add_parser("check", help="check a certificate against a signature and sequent")
    p.add_argument("--signature", required=True)
    p.add_argument("--sequent", required=True)
    p.add_argument("--proof", required=True)
    p.add_argument("--calculus", choices=("focused", "unfocused"), default="focused")
    p.set_defaults(func=cmd_check)

    p = machine_cmd("extract", "read a halting trace out of a checked certificate", cmd_extract)
    p.add_argument("--proof", required=True)
    p.add_argument("--trace-out")

    p = machine_cmd("synthesize", "build a certificate from the machine's own run", cmd_synthesize, fuel=True)
    p.add_argument("--proof-out")

    machine_cmd(
        "roundtrip",
        "simulate, certify, defocus, re-check and re-extract one machine",
        cmd_roundtrip,
        fuel=True,
    )

    p = sub.add_parser("selftest", help="random and bundled end-to-end consistency checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_at_least(0), default=60)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CheckError, TraceMismatch, MalformedCertificate) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
