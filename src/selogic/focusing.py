"""The focused sequent calculus, its checker, and defocusing.

A focused sequent carries an ordinary context plus at most one formula under
focus.  Positive principals are only ever decomposed under focus; the
negative connectives par/bot/with/top are decomposed eagerly in unfocused
mode, and a context is *neutral* — ready for a decide — once only positives,
negated atoms and question-marked formulas remain.

Decide flavours:

    decide    moves a positive context formula into focus (and out of the context)
    ldecide   focuses the body of ?u A for bounded u, consuming the formula
    udecide   focuses the body of ?u A for unbounded u, keeping the formula

Focused leaves fold weakening in: finit and f1 allow any number of
unbounded question-marked bystanders, and fbang discards unbounded
question-marked formulas it does not keep.  There are no weakening or
contraction nodes; contraction happens implicitly at udecide and at
ftensor, whose ``kept`` positions are copied into both premises.

:func:`defocus` translates a checkable focused certificate into an
unfocused one for the same underlying sequent, making all the implicit
structural steps explicit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CheckError, Reason
from .formulas import (
    Atom,
    Bang,
    Bot,
    Context,
    Formula,
    NegAtom,
    One,
    Par,
    Plus,
    Polarity,
    Qm,
    Tensor,
    Top,
    With,
    polarity,
)
from .signatures import Signature, is_unbounded, leq
from . import unfocused as uf
from .unfocused import UProof, validate_labels

DECIDE = "decide"
LDECIDE = "ldecide"
UDECIDE = "udecide"
BLUR = "blur"
FINIT = "finit"
FTENSOR = "ftensor"
FONE = "f1"
FPLUS1 = "fplus1"
FPLUS2 = "fplus2"
FBANG = "fbang"

DECIDE_RULES = (DECIDE, LDECIDE, UDECIDE)

@dataclass(frozen=True, slots=True)
class FSequent:
    context: Context
    focus: Formula | None = None


@dataclass(frozen=True, slots=True)
class FProof:
    """One node of a focused certificate.

    ``principal`` addresses the context for decide flavours, finit and the
    shared negative rules; rules that decompose the focus leave it unset.
    ``kept`` lists retained positions for fbang and copied-to-both positions
    for ftensor; ``split`` lists ftensor's only-left positions.
    """

    rule: str
    principal: int | None = None
    split: tuple[int, ...] | None = None
    kept: tuple[int, ...] | None = None
    premises: tuple["FProof", ...] = ()


#: The negative connectives other than negated atoms and ``?``: the ones the
#: unfocused phase decomposes.  Every other formula type is neutral.
ASYNC = frozenset({Par, Bot, With, Top})


def is_neutral_formula(f: Formula) -> bool:
    return type(f) not in ASYNC


def is_neutral(ctx: Context) -> bool:
    """No negative non-atom, non-question-marked formula remains."""
    return ASYNC.isdisjoint(map(type, ctx))


def _fail(reason: Reason, message: str):
    raise CheckError(reason, message)


# Focused premise plans reuse the unfocused source encoding and add two
# focus-relative sources: ("focus",) is the focus itself, ("fpart", k) one of
# its immediate subformulas.  Each premise is (context plan, focus source).
FPlan = tuple[list, tuple | None]


def _fresolve(fseq: FSequent, src: tuple) -> Formula:
    match src[0]:
        case "focus":
            assert fseq.focus is not None
            return fseq.focus
        case "fpart":
            assert fseq.focus is not None
            return uf._part(fseq.focus, src[1])
        case "part":
            return uf._part(fseq.context[src[1]], src[2])
        case _:
            return fseq.context[src[1]]


def fmaterialize(fseq: FSequent, plan: FPlan) -> FSequent:
    ctx_plan, focus_src = plan
    ctx = tuple(_fresolve(fseq, src) for src in ctx_plan)
    focus = None if focus_src is None else _fresolve(fseq, focus_src)
    return FSequent(ctx, focus)


def fpremise_plans(sig: Signature, fseq: FSequent, node: FProof) -> list[FPlan]:
    """Validate one focused rule application; raises :class:`CheckError`."""
    ctx = fseq.context
    focus = fseq.focus
    n = len(ctx)
    rule = node.rule

    def principal() -> Formula:
        p = node.principal
        if p is None or not 0 <= p < n:
            _fail(Reason.CONTEXT_MISMATCH, f"position {p} out of range for context of {n}")
        return ctx[p]

    def require_no_focus():
        if focus is not None:
            _fail(Reason.CONTEXT_MISMATCH, f"{rule} applies only without a focus")

    def require_focus() -> Formula:
        if focus is None:
            _fail(Reason.CONTEXT_MISMATCH, f"{rule} decomposes the focus, but nothing is focused")
        return focus

    def bystander_unbounded(indices, context_of: str):
        for i in indices:
            g = ctx[i]
            if not (isinstance(g, Qm) and is_unbounded(sig, g.label)):
                _fail(
                    Reason.LINGERING_LINEAR,
                    f"{context_of} would discard a formula that is not an "
                    "unbounded question-marked formula",
                )

    keeps = lambda it: [("keep", i) for i in it]

    match rule:
        case "decide" | "ldecide" | "udecide":
            require_no_focus()
            if not is_neutral(ctx):
                _fail(Reason.NOT_NEUTRAL, "decide requires a neutral context")
            f = principal()
            p = node.principal
            if rule == "decide":
                if polarity(f) is not Polarity.POSITIVE:
                    _fail(Reason.FOCUS_ON_NEGATIVE, "decide needs a positive formula")
                return [(keeps(i for i in range(n) if i != p), ("keep", p))]
            if not isinstance(f, Qm):
                _fail(Reason.CONTEXT_MISMATCH, f"{rule} needs a question-marked formula")
            if rule == "ldecide":
                if is_unbounded(sig, f.label):
                    _fail(
                        Reason.WRONG_DECIDE_FLAVOR,
                        f"label {f.label!r} is unbounded; use udecide",
                    )
                return [(keeps(i for i in range(n) if i != p), ("part", p, 0))]
            if not is_unbounded(sig, f.label):
                _fail(Reason.WRONG_DECIDE_FLAVOR, f"label {f.label!r} is bounded; use ldecide")
            return [(keeps(range(n)), ("part", p, 0))]
        case "blur":
            f = require_focus()
            if polarity(f) is not Polarity.NEGATIVE:
                _fail(Reason.BLUR_ON_POSITIVE, "blur releases only a negative focus")
            return [(keeps(range(n)) + [("focus",)], None)]
        case "finit":
            f = require_focus()
            if not isinstance(f, Atom):
                _fail(Reason.CONTEXT_MISMATCH, "finit needs an atom under focus")
            g = principal()
            if not (isinstance(g, NegAtom) and g.name == f.name):
                _fail(Reason.CONTEXT_MISMATCH, "finit needs the focused atom's negation")
            bystander_unbounded((i for i in range(n) if i != node.principal), "finit")
            return []
        case "f1":
            f = require_focus()
            if not isinstance(f, One):
                _fail(Reason.CONTEXT_MISMATCH, "f1 needs the unit under focus")
            bystander_unbounded(range(n), "f1")
            return []
        case "fplus1" | "fplus2":
            f = require_focus()
            if not isinstance(f, Plus):
                _fail(Reason.CONTEXT_MISMATCH, "focus is not a plus")
            return [(keeps(range(n)), ("fpart", 0 if rule == "fplus1" else 1))]
        case "ftensor":
            f = require_focus()
            if not isinstance(f, Tensor):
                _fail(Reason.CONTEXT_MISMATCH, "focus is not a tensor")
            if node.kept is None or node.split is None:
                _fail(Reason.CONTEXT_MISMATCH, "ftensor needs kept and left position lists")
            kept, split = set(node.kept), set(node.split)
            if len(kept) != len(node.kept) or len(split) != len(node.split):
                _fail(Reason.CONTEXT_MISMATCH, "ftensor position lists repeat a position")
            if not kept <= set(range(n)) or not split <= set(range(n)):
                _fail(Reason.CONTEXT_MISMATCH, "ftensor positions out of range")
            if kept & split:
                _fail(Reason.CONTEXT_MISMATCH, "a position cannot be both copied and sent left")
            for i in kept:
                g = ctx[i]
                if not (isinstance(g, Qm) and is_unbounded(sig, g.label)):
                    _fail(
                        Reason.COPIED_BOUNDED,
                        "only unbounded question-marked formulas can be copied to both premises",
                    )
            rest = set(range(n)) - kept - split
            left = keeps(sorted(kept | split))
            right = keeps(sorted(kept | rest))
            return [(left, ("fpart", 0)), (right, ("fpart", 1))]
        case "fbang":
            f = require_focus()
            if not isinstance(f, Bang):
                _fail(Reason.CONTEXT_MISMATCH, "focus is not banged")
            if node.kept is None:
                _fail(Reason.CONTEXT_MISMATCH, "fbang needs a kept position list")
            kept = set(node.kept)
            if len(kept) != len(node.kept) or not kept <= set(range(n)):
                _fail(Reason.CONTEXT_MISMATCH, "fbang kept positions out of range")
            for i in kept:
                g = ctx[i]
                if not (isinstance(g, Qm) and leq(sig, f.label, g.label)):
                    _fail(
                        Reason.PROMOTION_BLOCKED,
                        f"promotion of !{f.label} can keep only question-marked formulas "
                        f"at labels above {f.label!r}",
                    )
            bystander_unbounded((i for i in range(n) if i not in kept), "fbang")
            return [(keeps(sorted(kept)) + [("fpart", 0)], None)]
        case "par" | "bot" | "with" | "top":
            require_no_focus()
            plans = uf.premise_plans(sig, ctx, UProof(rule, principal=node.principal))
            return [(plan, None) for plan in plans]
        case _:
            _fail(Reason.CONTEXT_MISMATCH, f"unknown rule tag {rule!r}")


def fpremises_of(sig: Signature, fseq: FSequent, node: FProof) -> tuple[FSequent, ...]:
    return tuple(fmaterialize(fseq, plan) for plan in fpremise_plans(sig, fseq, node))


def check_focused(sig: Signature, goal: FSequent, proof: FProof) -> None:
    """Accept or reject a focused certificate; raises :class:`CheckError`."""
    validate_labels(sig, goal.context)
    if goal.focus is not None:
        validate_labels(sig, (goal.focus,))
    for _ in checked_nodes(sig, goal, proof):
        pass


def checked_nodes(sig: Signature, goal: FSequent, proof: FProof):
    """:func:`~selogic.unfocused.checked_nodes` over the focused rules."""
    return uf.checked_nodes(sig, fpremise_plans, fmaterialize, goal, proof)


def count_decides(proof: FProof) -> int:
    return sum(1 for node in uf.proof_nodes(proof) if node.rule in DECIDE_RULES)


# --- defocusing -------------------------------------------------------------
#
# The translation tracks, for the current focused sequent, where each of its
# formulas sits inside the unfocused context being proved: ``slots`` is a
# list parallel to the unfocused context whose entries are ("c", i) for the
# focused context formula i, ("d", i) for a transient contraction copy of it,
# and ("f",) for the focus.  Every emitted unfocused node recomputes the
# premise context through the unfocused premise plans, so the result checks
# by construction.
#
# One pass of the checking walk visits the focused nodes in pre-order with
# their sequents.  At each node :func:`_defocus` emits a chain of unfocused
# rule heads, the last of which takes the translated premises, and the
# (unfocused context, slots) pair of each premise; those pairs sit on a
# stack that the walk pops in the same order.  The unfocused tree is then
# assembled bottom-up in reverse pre-order, so nothing recurses.

def defocus(proof: FProof, sig: Signature, goal: FSequent) -> UProof:
    """Translate a checkable focused certificate into an unfocused one.

    The underlying unfocused sequent is the goal context with the focus, if
    any, appended.  Decides vanish or become contraction/dereliction pairs,
    and the weakenings folded into finit/f1/fbang/ftensor become explicit
    weakening chains.  The focused certificate is checked on the way;
    a rejected one raises :class:`CheckError`.
    """
    u_ctx = goal.context + ((goal.focus,) if goal.focus is not None else ())
    slots = [("c", i) for i in range(len(goal.context))]
    if goal.focus is not None:
        slots.append(("f",))
    states = [(u_ctx, slots)]
    order = []
    for node, fseq, _ in checked_nodes(sig, goal, proof):
        chain, premise_states = _defocus(sig, fseq, node, *states.pop())
        order.append((chain, len(premise_states)))
        states.extend(reversed(premise_states))
    return uf.assemble(order)


def _slot_pos(slots: list, tag: tuple) -> int:
    return slots.index(tag)


def _apply(sig: Signature, u_ctx: Context, head: UProof) -> Context:
    (prem,) = uf.premises_of(sig, u_ctx, head)
    return prem


def _defocus(
    sig: Signature,
    fseq: FSequent,
    node: FProof,
    u_ctx: Context,
    slots: list,
) -> tuple[list[UProof], list[tuple[Context, list]]]:
    """Translate one focused node: its unfocused heads and premise states.

    An empty chain passes the single premise's translation through.
    """
    assert len(u_ctx) == len(slots)
    for j, tag in enumerate(slots):
        if tag[0] == "f":
            assert u_ctx[j] is fseq.focus
        else:
            assert u_ctx[j] is fseq.context[tag[1]]

    ctx = fseq.context
    n = len(ctx)
    rule = node.rule

    def renumber(tag, removed: int):
        """Context index shift after dropping focused-context position ``removed``."""
        if tag[0] == "f" or tag[1] < removed:
            return tag
        return (tag[0], tag[1] - 1)

    match rule:
        case "decide":
            i = node.principal
            sub_slots = [("f",) if t == ("c", i) else renumber(t, i) for t in slots]
            return [], [(u_ctx, sub_slots)]
        case "ldecide":
            i = node.principal
            head = UProof(uf.QM, principal=_slot_pos(slots, ("c", i)))
            sub_slots = [("f",) if t == ("c", i) else renumber(t, i) for t in slots]
            return [head], [(_apply(sig, u_ctx, head), sub_slots)]
        case "udecide":
            p = _slot_pos(slots, ("c", node.principal))
            contr = UProof(uf.CONTR, principal=p)
            qm = UProof(uf.QM, principal=p + 1)
            after_qm = _apply(sig, _apply(sig, u_ctx, contr), qm)
            return [contr, qm], [(after_qm, slots[: p + 1] + [("f",)] + slots[p + 1 :])]
        case "blur":
            return [], [(u_ctx, [("c", n) if t == ("f",) else t for t in slots])]
        case "finit":
            keep_tags = {("f",), ("c", node.principal)}
            chain, _, final_slots = _weak_away(sig, u_ctx, slots, keep_tags)
            atom_pos = _slot_pos(final_slots, ("f",))
            neg_pos = _slot_pos(final_slots, ("c", node.principal))
            return chain + [UProof(uf.INIT, pair=(atom_pos, neg_pos))], []
        case "f1":
            chain, _, _ = _weak_away(sig, u_ctx, slots, {("f",)})
            return chain + [UProof(uf.ONE_RULE)], []
        case "fplus1" | "fplus2":
            p = _slot_pos(slots, ("f",))
            head = UProof(uf.PLUS1 if rule == "fplus1" else uf.PLUS2, principal=p)
            return [head], [(_apply(sig, u_ctx, head), slots)]
        case "fbang":
            kept = sorted(node.kept)
            keep_tags = {("f",)} | {("c", i) for i in kept}
            chain, cur_ctx, cur_slots = _weak_away(sig, u_ctx, slots, keep_tags)
            head = UProof(uf.BANG, principal=_slot_pos(cur_slots, ("f",)))
            rank = {i: r for r, i in enumerate(kept)}
            sub_slots = [
                ("c", len(kept)) if t == ("f",) else ("c", rank[t[1]]) for t in cur_slots
            ]
            return chain + [head], [(_apply(sig, cur_ctx, head), sub_slots)]
        case "ftensor":
            kept = sorted(node.kept)
            split = set(node.split)
            rest = set(range(n)) - set(kept) - split
            # one explicit contraction per copied formula, highest position first
            chain: list[UProof] = []
            cur_ctx, cur_slots = u_ctx, list(slots)
            for i in sorted(kept, key=lambda i: -_slot_pos(cur_slots, ("c", i))):
                p = _slot_pos(cur_slots, ("c", i))
                contr = UProof(uf.CONTR, principal=p)
                cur_ctx = _apply(sig, cur_ctx, contr)
                cur_slots = cur_slots[: p + 1] + [("d", i)] + cur_slots[p + 1 :]
                chain.append(contr)
            fpos = _slot_pos(cur_slots, ("f",))
            left_tags = {("c", i) for i in kept} | {("c", j) for j in split}
            left_positions = tuple(
                sorted(j for j, t in enumerate(cur_slots) if t in left_tags)
            )
            head = UProof(uf.TENSOR, principal=fpos, split=left_positions)
            plans = uf.premise_plans(sig, cur_ctx, head)
            sides = []
            for k, members in enumerate((sorted(set(kept) | split), sorted(set(kept) | rest))):
                rank = {i: r for r, i in enumerate(members)}
                side_slots = []
                for src in plans[k]:
                    if src[0] == "part":
                        side_slots.append(("f",))
                    else:
                        t = cur_slots[src[1]]
                        side_slots.append(("c", rank[t[1]]))
                sides.append((uf.materialize(cur_ctx, plans[k]), side_slots))
            return chain + [head], sides
        case "par" | "bot" | "with" | "top":
            i = node.principal
            head = UProof(rule, principal=_slot_pos(slots, ("c", i)))
            sides = []
            for plan in uf.premise_plans(sig, u_ctx, head):
                sub_slots = []
                for src in plan:
                    if src[0] == "part":
                        # par introduces two context formulas at i and i + 1
                        if rule == "par":
                            sub_slots.append(("c", i + src[2]))
                        else:
                            sub_slots.append(("c", i))
                    else:
                        t = slots[src[1]]
                        if rule == "par" and t[0] == "c" and t[1] > i:
                            sub_slots.append(("c", t[1] + 1))
                        elif rule == "bot" and t[0] == "c" and t[1] > i:
                            sub_slots.append(("c", t[1] - 1))
                        else:
                            sub_slots.append(t)
                sides.append((uf.materialize(u_ctx, plan), sub_slots))
            return [head], sides
    raise AssertionError(f"unhandled rule {rule!r}")


def _weak_away(
    sig: Signature, u_ctx: Context, slots: list, keep_tags: set
) -> tuple[list[UProof], Context, list]:
    """Delete every slot not in ``keep_tags`` with weakening, highest first."""
    chain: list[UProof] = []
    cur_ctx, cur_slots = u_ctx, list(slots)
    for p in sorted((j for j, t in enumerate(cur_slots) if t not in keep_tags), reverse=True):
        head = UProof(uf.WEAK, principal=p)
        cur_ctx = _apply(sig, cur_ctx, head)
        del cur_slots[p]
        chain.append(head)
    return chain, cur_ctx, cur_slots

