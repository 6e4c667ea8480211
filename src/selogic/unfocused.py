"""The unfocused one-sided sequent calculus and its certificate checker.

A certificate is a tree of rule applications that addresses the conclusion
context positionally, so checking is deterministic: every node determines
its premise contexts exactly.  The premise computation is the kernel
that both calculi share: :func:`premise_plans` validates a rule and lays
out each premise as a plan, a short list of segments over the conclusion
(runs and picks of kept positions plus the few new formulas), and
:func:`materialize` joins those segments into the premise at C speed.
The same plans drive the checking walk, the bounded proof search used as
a test oracle and, in the focused calculus, the prover and defocusing.

Rule tags::

    init      closes exactly  |- a, ~a
    one       closes exactly  |- 1
    top       closes any context at a top occurrence
    tensor    splits the rest of the context between the two subformulas
    plus1/2   picks a disjunct
    par       replaces (A | B) by A, B
    bot       deletes a bot
    with      duplicates the context into both premises
    qm        strips one question-mark prefix (any label)
    bang      promotion: every other formula must be ?v with u <= v
    weak      deletes ?u A, only for unbounded u
    contr     duplicates ?u A (copy inserted adjacently), only for unbounded u
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator

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
    Qm,
    Sequent,
    Tensor,
    Top,
    With,
    context_key,
    intern_table,
)
from .records import ProofNode, setfield
from .signatures import Signature, check_goal, is_unbounded, leq

INIT = "init"
TENSOR = "tensor"
ONE_RULE = "one"
PLUS1 = "plus1"
PLUS2 = "plus2"
PAR = "par"
BOT_RULE = "bot"
WITH = "with"
TOP_RULE = "top"
QM = "qm"
BANG = "bang"
WEAK = "weak"
CONTR = "contr"

@dataclass(slots=True, eq=False, repr=False, init=False)
class UProof(ProofNode):
    """One node of an unfocused certificate.

    ``principal`` is the context position the rule acts on; ``init`` instead
    records ``pair = (atom position, negated-atom position)``; ``tensor``
    additionally records ``split``, the positions sent to the left premise.
    """

    rule: str
    principal: int | None
    pair: tuple[int, int] | None
    split: tuple[int, ...] | None
    premises: tuple[UProof, ...]

    def __init__(self, rule, principal=None, pair=None, split=None, premises=()):
        setfield(self, "rule", rule)
        setfield(self, "principal", principal)
        setfield(self, "pair", pair)
        setfield(self, "split", split)
        setfield(self, "premises", premises)


# A premise plan is a pair of segment tuples over the conclusion: the
# premise's context, then its focus (empty, or one segment for one formula).
#   ("run", lo, hi)     positions lo..hi-1 of the context, unchanged
#   ("pick", (i, ...))  the formulas at scattered positions, in that order
#   ("part", i, k)      immediate subformula k of the formula at i (0=left/body)
#   ("copy", i)         a contraction duplicate of the formula at i
#   ("focus",)          the conclusion's focus
#   ("fpart", k)        immediate subformula k of the focus
Plan = tuple[tuple[tuple, ...], tuple[tuple, ...]]
NO_FOCUS = ()


def materialize(plan: Plan, seq: Sequent) -> Sequent:
    """The premise that ``plan`` lays out over the conclusion ``seq``.

    Runs and picks copy at C speed, and each new formula is one step, so a
    rule that changes one position of a long context costs about one tuple
    copy.  Entries need only know their parts, so plans move
    :class:`Occurrence` stand-ins exactly as they move formulas.
    """
    ctx, focus = seq.context, seq.focus
    out = []
    for segments in plan:
        if len(segments) == 1 and segments[0][0] == "run":
            out.append(ctx[segments[0][1] : segments[0][2]])
            continue
        joined: list = []
        for seg in segments:
            kind = seg[0]
            if kind == "run":
                joined += ctx[seg[1] : seg[2]]
            elif kind == "pick":
                joined += map(ctx.__getitem__, seg[1])
            elif kind == "part":
                joined.append(ctx[seg[1]].part(seg[2]))
            elif kind == "copy":
                joined.append(ctx[seg[1]])
            elif kind == "focus":
                joined.append(focus)
            else:
                joined.append(focus.part(seg[1]))
        out.append(joined)
    new_ctx, new_focus = out
    return Sequent(new_ctx, new_focus[0] if new_focus else None)


class Occurrence:
    """A stand-in for one occurrence of ``formula``, so plans can move positions.

    Plans move occurrences as they move formulas.  Each part of an
    occurrence is made once, over the formula's part, so two plans that
    take the same occurrence apart agree on its parts.  Occurrences compare
    by identity, which keeps ``tuple.index`` over them at C speed.
    """

    __slots__ = ("formula", "parts")

    def __init__(self, formula: Formula):
        self.formula = formula
        self.parts: dict[int, Occurrence] = {}

    def part(self, k: int) -> "Occurrence":
        p = self.parts.get(k)
        if p is None:
            p = self.parts[k] = Occurrence(self.formula.part(k))
        return p


def around(n: int, p: int, *new: tuple) -> tuple:
    """Context segments that replace position ``p`` of ``n`` by the ``new`` sources."""
    return ("run", 0, p), *new, ("run", p + 1, n)


def runs(lo: int, hi: int, gone) -> list[tuple]:
    """Run segments over positions lo..hi-1 that skip the sorted ``gone``."""
    segments = []
    for g in gone:
        if lo < g:
            segments.append(("run", lo, g))
        lo = g + 1
    if lo < hi:
        segments.append(("run", lo, hi))
    return segments


def _fail(reason: Reason, message: str):
    raise CheckError(reason, message)


def _principal(ctx: Context, p: int | None) -> Formula:
    if p is None or not 0 <= p < len(ctx):
        _fail(Reason.CONTEXT_MISMATCH, f"position {p} out of range for context of {len(ctx)}")
    return ctx[p]


def _in_range(positions, n: int) -> bool:
    return not positions or (0 <= min(positions) and max(positions) < n)


def premise_plans(sig: Signature, seq: Sequent, node: UProof) -> list[Plan]:
    """Validate one rule application and lay out its premises.

    Raises :class:`CheckError` (with an empty path; :func:`checked_nodes`
    fills it in) when the node does not apply to ``seq``.
    """
    ctx = seq.context
    n = len(ctx)
    rule = node.rule
    p = node.principal

    match rule:
        case "init":
            if node.pair is None:
                _fail(Reason.CONTEXT_MISMATCH, "init needs an (atom, negation) position pair")
            i, j = node.pair
            if n != 2 or {i, j} != {0, 1}:
                _fail(Reason.CONTEXT_MISMATCH, "init closes exactly a two-formula context")
            a, b = ctx[i], ctx[j]
            if not (isinstance(a, Atom) and isinstance(b, NegAtom) and a.name == b.name):
                _fail(Reason.CONTEXT_MISMATCH, "init needs an atom facing its negation")
            return []
        case "one":
            if n != 1 or type(ctx[0]) is not One:
                _fail(Reason.CONTEXT_MISMATCH, "the unit rule closes exactly |- 1")
            return []
        case "top":
            if not isinstance(_principal(ctx, p), Top):
                _fail(Reason.CONTEXT_MISMATCH, "principal formula is not top")
            return []
        case "par":
            if not isinstance(_principal(ctx, p), Par):
                _fail(Reason.CONTEXT_MISMATCH, "principal formula is not a par")
            return [(around(n, p, ("part", p, 0), ("part", p, 1)), NO_FOCUS)]
        case "bot":
            if not isinstance(_principal(ctx, p), Bot):
                _fail(Reason.CONTEXT_MISMATCH, "principal formula is not bot")
            return [(around(n, p), NO_FOCUS)]
        case "with":
            if not isinstance(_principal(ctx, p), With):
                _fail(Reason.CONTEXT_MISMATCH, "principal formula is not a with")
            left, right = around(n, p, ("part", p, 0)), around(n, p, ("part", p, 1))
            return [(left, NO_FOCUS), (right, NO_FOCUS)]
        case "plus1" | "plus2":
            if not isinstance(_principal(ctx, p), Plus):
                _fail(Reason.CONTEXT_MISMATCH, "principal formula is not a plus")
            k = 0 if rule == "plus1" else 1
            return [(around(n, p, ("part", p, k)), NO_FOCUS)]
        case "qm":
            if not isinstance(_principal(ctx, p), Qm):
                _fail(Reason.CONTEXT_MISMATCH, "principal formula is not question-marked")
            return [(around(n, p, ("part", p, 0)), NO_FOCUS)]
        case "bang":
            f = _principal(ctx, p)
            if not isinstance(f, Bang):
                _fail(Reason.CONTEXT_MISMATCH, "principal formula is not banged")
            for i in range(n):
                if i == p:
                    continue
                g = ctx[i]
                if not isinstance(g, Qm) or not leq(sig, f.label, g.label):
                    _fail(
                        Reason.PROMOTION_BLOCKED,
                        f"promotion of !{f.label} over a context formula that is not "
                        f"question-marked at a label above {f.label!r}",
                    )
            return [(around(n, p, ("part", p, 0)), NO_FOCUS)]
        case "weak":
            f = _principal(ctx, p)
            if not isinstance(f, Qm):
                _fail(Reason.CONTEXT_MISMATCH, "weakening needs a question-marked formula")
            if not is_unbounded(sig, f.label):
                _fail(Reason.STRUCTURAL_ON_BOUNDED, f"label {f.label!r} does not admit weakening")
            return [(around(n, p), NO_FOCUS)]
        case "contr":
            f = _principal(ctx, p)
            if not isinstance(f, Qm):
                _fail(Reason.CONTEXT_MISMATCH, "contraction needs a question-marked formula")
            if not is_unbounded(sig, f.label):
                _fail(Reason.STRUCTURAL_ON_BOUNDED, f"label {f.label!r} does not admit contraction")
            return [((("run", 0, p + 1), ("copy", p), ("run", p + 1, n)), NO_FOCUS)]
        case "tensor":
            f = _principal(ctx, p)
            if not isinstance(f, Tensor):
                _fail(Reason.CONTEXT_MISMATCH, "principal formula is not a tensor")
            if node.split is None:
                _fail(Reason.CONTEXT_MISMATCH, "tensor needs a split")
            split = set(node.split)
            if len(split) != len(node.split):
                _fail(Reason.CONTEXT_MISMATCH, "tensor split repeats a position")
            if not _in_range(split, n) or p in split:
                _fail(Reason.CONTEXT_MISMATCH, "tensor split positions out of range")
            left = sorted(split)
            cut = bisect(left, p)
            below, above = left[:cut], left[cut:]
            return [
                ((("pick", tuple(below)), ("part", p, 0), ("pick", tuple(above))), NO_FOCUS),
                ((*runs(0, p, below), ("part", p, 1), *runs(p + 1, n, above)), NO_FOCUS),
            ]
        case _:
            _fail(Reason.CONTEXT_MISMATCH, f"unknown rule tag {rule!r}")


def check_unfocused(sig: Signature, goal: Sequent, proof: UProof) -> None:
    """Accept or reject a certificate; raises :class:`CheckError` to reject."""
    check_goal(sig, goal, focused=False)
    for _ in checked_nodes(sig, premise_plans, goal, proof):
        pass


def checked_nodes(sig: Signature, plans_of, goal: Sequent, proof):
    """Check a certificate node by node, yielding ``(node, sequent, plans, parent)``.

    The one walk behind both checkers, defocusing and trace extraction:
    ``plans_of`` is :func:`premise_plans` or the focused
    ``fpremise_plans``, and ``plans`` are the node's premise plans.  Nodes
    come in pre-order, left premise first, each after its rule and arity
    have been validated; ``parent`` is the pre-order index of the parent
    node, -1 at the root.  The first invalid node in that order raises
    :class:`CheckError` with its path from the root.

    An explicit stack keeps depth free of the recursion limit.  A premise
    is materialized when its turn comes, and a path is rebuilt from the
    parent links only when a node fails.
    """
    parents: list[int] = []
    branch: list[int] = []  # which premise of its parent each node is
    pending = [(-1, 0, goal, None, proof)]
    i = -1
    while pending:
        parent, k, seq, plan, node = pending.pop()
        if plan is not None:
            seq = materialize(plan, seq)
        i += 1
        parents.append(parent)
        branch.append(k)
        try:
            plans = plans_of(sig, seq, node)
            if len(node.premises) != len(plans):
                raise CheckError(
                    Reason.ARITY_MISMATCH,
                    f"{node.rule} expects {len(plans)} premise(s), "
                    f"certificate has {len(node.premises)}",
                )
        except CheckError as e:
            path = []
            while i > 0:
                path.append(branch[i])
                i = parents[i]
            raise CheckError(e.reason, e.message, tuple(reversed(path))) from None
        yield node, seq, plans, parent
        for k in range(len(plans) - 1, -1, -1):
            pending.append((i, k, seq, plans[k], node.premises[k]))


# --- proof statistics -------------------------------------------------------

def proof_nodes(proof):
    """Every node of a focused or unfocused proof tree, in pre-order.

    Walks with an explicit stack, so tree depth is not bounded by the
    recursion limit.  A premise object shared by several parents is
    yielded once per occurrence, as in the tree the text prints.
    """
    pending = [proof]
    while pending:
        node = pending.pop()
        yield node
        pending.extend(reversed(node.premises))


def assemble(order: list[tuple[list[tuple], int]]) -> UProof:
    """Build an unfocused proof bottom-up from one ``(chain, arity)`` pair
    per node, in pre-order: ``chain`` lists rule heads as ``(rule,
    principal, pair, split)`` tuples, each the single premise's parent of
    the next, the last taking the node's ``arity`` premises; an empty chain
    passes its one premise through.  Each node is constructed once, with
    its premises.  In reverse pre-order every node follows its descendants,
    its left premise's proof on top."""
    built: list = []
    for chain, arity in reversed(order):
        subs = ()  # by concatenation: a generator costs one more object per node
        for _ in range(arity):
            subs += (built.pop(),)
        for head in reversed(chain):
            subs = (UProof(*head, subs),)
        built.append(subs[0])
    return built[0]


def proof_size(proof: UProof) -> int:
    return sum(1 for _ in proof_nodes(proof))


def count_rule(proof: UProof, rule: str) -> int:
    return sum(1 for node in proof_nodes(proof) if node.rule == rule)


# --- bounded search (test oracle) ------------------------------------------

def search_unfocused(
    sig: Signature,
    goal: Sequent,
    *,
    max_rules: int,
    max_contractions: int,
) -> UProof | None:
    """Exhaustive bounded search over the unfocused rules.

    The budget counts total rule applications in the emitted tree, with a
    separate global cap on contractions.  Returning ``None`` means no proof
    exists within the budget — not that the sequent is unprovable.  This is
    a test oracle: the search enumerates every applicable rule (tensor
    splits once per multiset, see :func:`tensor_splits`) and only prunes
    branches that provably cannot matter: repeated states known to fail at
    an equal or larger budget, moves whose premises coincide with an
    already-tried move of the same rule, and branches that revisit an
    ancestor's context — budgets only shrink on the way down, so any proof
    below such a repeat has a smaller cycle-free counterpart that the
    enumeration reaches anyway.

    The contraction cap is explored in tiers 0, 1, ..., ``max_contractions``:
    a proof using c contractions is found at tier c, so the set of goals with
    some proof inside the budget is unchanged, but goals with thrifty proofs
    never pay for the contraction-heavy part of the space.  Failure records
    carry the budget they were established at, so one cache serves all tiers.

    Contexts are keyed as multisets of class numbers from
    :func:`~selogic.formulas.intern_table`, built once from the goal.  That
    is sound because every rule only takes formulas apart, keeps them or
    copies them, so each formula the search meets is a sub-object of the
    goal, and the goal stays alive for the whole call.
    """
    check_goal(sig, goal, focused=False)
    table = intern_table(*goal.context)
    fails: dict = {}
    for cap in range(max_contractions + 1):
        for proof, _rules, _contr in _derivations(
            sig, table, goal, max_rules, cap, fails, {}, 0, [_FAR]
        ):
            return proof
    return None


#: Rules on one principal formula of a type, in the order the oracle tries them.
_LOGICAL_MOVES = (
    (Top, (TOP_RULE,)), (Bot, (BOT_RULE,)), (Par, (PAR,)), (With, (WITH,)), (Plus, (PLUS1, PLUS2)), (Qm, (QM,)),
)


def _moves(
    sig: Signature, table: dict[int, int], ctx: Context, contr_left: int
) -> Iterator[tuple[UProof, int]]:
    """All rule applications at ``ctx``, deterministically ordered."""
    n = len(ctx)
    if n == 2:
        for i, j in ((0, 1), (1, 0)):
            a, b = ctx[i], ctx[j]
            if isinstance(a, Atom) and isinstance(b, NegAtom) and a.name == b.name:
                yield UProof(INIT, pair=(i, j)), 0
    if n == 1 and type(ctx[0]) is One:
        yield UProof(ONE_RULE), 0
    for kind, rules in _LOGICAL_MOVES:
        for p, f in enumerate(ctx):
            if isinstance(f, kind):
                for rule in rules:
                    yield UProof(rule, principal=p), 0
    for p, f in enumerate(ctx):
        if isinstance(f, Bang) and all(
            isinstance(g, Qm) and leq(sig, f.label, g.label)
            for i, g in enumerate(ctx)
            if i != p
        ):
            yield UProof(BANG, principal=p), 0
    for p, f in enumerate(ctx):
        if isinstance(f, Tensor):
            others = [i for i in range(n) if i != p]
            for split in tensor_splits(others, [table[id(ctx[i])] for i in others]):
                yield UProof(TENSOR, principal=p, split=split), 0
    # structural moves come last so the first derivation found is one that
    # did not duplicate or discard anything it could avoid touching
    if contr_left > 0:
        for p, f in enumerate(ctx):
            if isinstance(f, Qm) and is_unbounded(sig, f.label):
                yield UProof(CONTR, principal=p), 1
    for p, f in enumerate(ctx):
        if isinstance(f, Qm) and is_unbounded(sig, f.label):
            yield UProof(WEAK, principal=p), 0


def tensor_splits(rest: list[int], classes: list[int]) -> list[tuple[int, ...]]:
    """The left-premise position sets a tensor tries, one per multiset.

    ``classes[b]`` is the equality class of the formula at ``rest[b]``.  Of
    the positions in one class only a prefix goes left, so k equal formulas
    give k + 1 choices instead of 2^k.  The splits come in the ascending
    order of their subset masks over ``rest``.  Every subset has such a
    representative, whose premises are permutations of its own and whose
    mask is no larger, so the first representative that succeeds is the
    first subset the full 2^n enumeration would find succeeding.
    """
    bits: dict[int, list[int]] = {}
    for b, c in enumerate(classes):
        bits.setdefault(c, []).append(1 << b)
    masks = [0]
    for group in bits.values():
        prefixes = list(accumulate(group, initial=0))
        masks = [m + p for m in masks for p in prefixes]
    masks.sort()
    return [tuple(i for b, i in enumerate(rest) if mask >> b & 1) for mask in masks]


def _record_fail(fails: dict, key, rules_left: int, contr_left: int) -> None:
    entries = fails.setdefault(key, [])
    for rl, cl in entries:
        if rules_left <= rl and contr_left <= cl:
            return
    entries[:] = [(rl, cl) for rl, cl in entries if not (rl <= rules_left and cl <= contr_left)]
    entries.append((rules_left, contr_left))


_FAR = 10**9  # deeper than any path can reach


def _derivations(
    sig: Signature,
    table: dict[int, int],
    seq: Sequent,
    rules_left: int,
    contr_left: int,
    fails: dict,
    path: dict,
    depth: int,
    low: list,
) -> Iterator[tuple[UProof, int, int]]:
    """Yield (proof, rules used, contractions used) for every cycle-free
    derivation of ``seq`` within the budget, in deterministic order.

    ``path`` maps each ancestor context of this premise to its depth.
    Meeting one again is pruned: budgets only shrink downward, so any
    derivation through the repeat has a smaller repeat-free counterpart
    that the enumeration reaches anyway.  It must not be one shared mutable
    mapping — sibling premises are enumerated while this generator sits
    suspended at a yield, and they may legitimately share a context with us.

    ``low`` is the caller's accumulator for the shallowest ancestor any
    cycle prune pointed at.  An exhausted subtree may cache its failure
    only when every prune inside it pointed at this node or deeper: such
    cycles close within the subtree, where the shortening argument applies,
    so the exhaustion is genuine.  A prune aimed above this node means some
    branch was cut for a reason that holds only on this particular path,
    and the verdict cannot be reused elsewhere.
    """
    mylow = [_FAR]
    try:
        if rules_left <= 0:
            return
        key = context_key(table, seq.context)
        for rl, cl in fails.get(key, ()):
            if rules_left <= rl and contr_left <= cl:
                return
        seen_at = path.get(key)
        if seen_at is not None:
            mylow[0] = seen_at
            return
        below = {**path, key: depth}
        yielded = False
        seen: set = set()
        for head, ccost in _moves(sig, table, seq.context, contr_left):
            prems = [materialize(plan, seq) for plan in premise_plans(sig, seq, head)]
            dedup = (head.rule, tuple(context_key(table, p.context) for p in prems))
            if dedup in seen:
                continue
            seen.add(dedup)
            own = head.rule, head.principal, head.pair, head.split
            if not prems:
                yielded = True
                yield head, 1, ccost
            elif len(prems) == 1:
                for sub, r, c in _derivations(
                    sig, table, prems[0], rules_left - 1, contr_left - ccost,
                    fails, below, depth + 1, mylow,
                ):
                    yielded = True
                    yield UProof(*own, (sub,)), 1 + r, ccost + c
            else:
                # the right premise has the most budget when the left is
                # smallest; if even that fails, skip the whole product
                probe = _derivations(
                    sig, table, prems[1], rules_left - 2, contr_left - ccost,
                    fails, below, depth + 1, mylow,
                )
                if next(probe, None) is None:
                    continue
                probe.close()
                for s1, r1, c1 in _derivations(
                    sig, table, prems[0], rules_left - 2, contr_left - ccost,
                    fails, below, depth + 1, mylow,
                ):
                    for s2, r2, c2 in _derivations(
                        sig,
                        table,
                        prems[1],
                        rules_left - 1 - r1,
                        contr_left - ccost - c1,
                        fails,
                        below,
                        depth + 1,
                        mylow,
                    ):
                        yielded = True
                        yield UProof(*own, (s1, s2)), 1 + r1 + r2, ccost + c1 + c2
        if not yielded and mylow[0] >= depth:
            _record_fail(fails, key, rules_left, contr_left)
    finally:
        # fold into the caller even when abandoned mid-way: our prunes
        # happened inside the caller's subtree too
        if mylow[0] < low[0]:
            low[0] = mylow[0]
