"""Bounded proof search in the focused calculus.

The search runs the focusing discipline directly: with no focus it applies
the leftmost invertible rule (those never need backtracking), and once the
context is neutral it tries each decide flavour in a fixed order — ldecide,
then udecide, then decide, positions left to right.  Under focus the rules
are forced except for plus (two candidates) and tensor, which copies every
unbounded question-marked formula to both premises and splits the remaining
formulas between them.

The split is lazy, after the input/output model of Hodas & Miller (*Logic
Programming in a Fragment of Intuitionistic Linear Logic*, I&C 1994) and
Cervesato, Hodas & Pfenning (*Efficient Resource Management for Linear
Logic Proof Search*, TCS 2000): the left premise consumes what it needs and
the right premise gets the leftovers.  The left focus is taken apart by a
generator that yields each proof with the positions it consumed: an atom
consumes one matching negated atom, 1 nothing, plus tries both sides, and
a nested tensor hands its own leftovers from left to right.  Only fbang and
blur, whose premises are searched strictly, must fix their context up
front; they try one context per multiset of the formulas they may take,
since equal formulas are interchangeable (of k equal ones, the first j, for
each j from 0 to k).  The right premise is then searched on the copied
formulas plus the leftovers, once per consumed multiset.  Each ftensor
still lists its copied and left positions explicitly, relative to its own
context, so certificates check as before.

Decides are offered only where the focus could close, reading focusing as
backchaining after Andreoli (*Logic Programming with Focusing Proofs in
Linear Logic*, JLC 1992) and Liang & Miller (*Focusing and Polarization in
Linear, Intuitionistic, and Classical Logics*, TCS 2009).  The atoms of a
focus's tensor skeleton, those reached through tensors alone, can each
close only by finit against a bare negated atom of the context, and the
tensors split the context, so each needs one of its own.  No negated atom
appears under focus (``?u ~x`` becomes ``~x`` only after a blur), so a
decide whose skeleton atoms are not contained, as a multiset, in the
context's negated atoms can never succeed and is not tried.  A neutral
sequent with no decide left fails outright, not at the decide cap.

Because udecide keeps its formula, proofs can regress forever; the search
is made terminating by a per-branch cap on decides, deepened iteratively
from zero so the first proof found uses as few decides along any branch as
possible.  A failure memo keyed on sequents as multisets makes the repeated
rounds cheap; :func:`~selogic.formulas.intern_table` numbers the goal's
formulas once per search, so its keys are small int tuples.  Everything is
deterministic: the same call yields the same certificate.
"""

from __future__ import annotations

from bisect import bisect
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, replace

from .errors import CheckError
from .focusing import (
    BLUR,
    DECIDE,
    FBANG,
    FINIT,
    FONE,
    FPLUS1,
    FPLUS2,
    FTENSOR,
    LDECIDE,
    UDECIDE,
    FProof,
    FSequent,
    fpremise_plans,
    is_neutral,
    is_neutral_formula,
)
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
    Tensor,
    Top,
    With,
    Zero,
    context_key,
    intern_table,
)
from .signatures import Signature, is_unbounded, leq
from .unfocused import BOT_RULE, PAR, TOP_RULE, WITH, materialize, tensor_splits, validate_labels


@dataclass(slots=True)
class SearchStats:
    nodes: int = 0
    deepest_decides: int = 0
    rounds: int = 0
    splits: int = 0  # left tensor outcomes handed to a right premise
    memo_hits: int = 0
    filtered: int = 0  # decide candidates dropped because their focus cannot close


@dataclass(frozen=True, slots=True)
class Proved:
    proof: FProof
    stats: SearchStats


@dataclass(frozen=True, slots=True)
class Exhausted:
    """No proof within budget.

    ``complete`` means every branch failed outright, so no budget increase
    could help; otherwise the decide cap or the node cap stopped the search.
    """

    stats: SearchStats
    complete: bool
    hit_node_cap: bool = False


SearchResult = Proved | Exhausted


class _NodeCap(Exception):
    pass


def prove_focused(
    sig: Signature,
    goal: FSequent,
    *,
    max_decides: int,
    max_nodes: int = 500_000,
    use_memo: bool = True,
) -> SearchResult:
    validate_labels(sig, goal.context)
    if goal.focus is not None:
        validate_labels(sig, (goal.focus,))
    stats = SearchStats()
    table = intern_table(*goal.context, *([] if goal.focus is None else [goal.focus]))
    searcher = _Searcher(sig, stats, max_nodes, use_memo, table)
    try:
        for cap in range(max_decides + 1):
            stats.rounds += 1
            proof, cutoff = searcher.search(goal, cap, 0)
            if proof is not None:
                return Proved(proof, stats)
            if not cutoff:
                return Exhausted(stats, complete=True)
        return Exhausted(stats, complete=False)
    except _NodeCap:
        return Exhausted(stats, complete=False, hit_node_cap=True)


class _Searcher:
    def __init__(
        self,
        sig: Signature,
        stats: SearchStats,
        max_nodes: int,
        use_memo: bool,
        table: dict[int, int],
    ):
        self.sig = sig
        self.stats = stats
        self.max_nodes = max_nodes
        # formula object id -> class number, over the goal's sub-objects
        self.table = table
        # formula object id -> its tensor skeleton's atoms, see _skeleton
        self.skeletons: dict[int, tuple[tuple[str, int], ...]] = {}
        # (context key, focus class or -1) -> (largest decide budget that
        # failed, whether a budget cutoff occurred inside that failed search)
        self.failed: dict | None = {} if use_memo else None

    def _key(self, fseq: FSequent) -> tuple[tuple[int, ...], int]:
        focus = -1 if fseq.focus is None else self.table[id(fseq.focus)]
        return context_key(self.table, fseq.context), focus

    def search(self, fseq: FSequent, budget: int, used: int) -> tuple[FProof | None, bool]:
        self._count()
        if used > self.stats.deepest_decides:
            self.stats.deepest_decides = used

        key = None
        if self.failed is not None and (fseq.focus is not None or is_neutral(fseq.context)):
            key = self._key(fseq)
            hit = self.failed.get(key)
            if hit is not None and budget <= hit[0]:
                self.stats.memo_hits += 1
                return None, hit[1]

        if fseq.focus is None:
            proof, cutoff = self._unfocused(fseq, budget, used)
        else:
            proof, cutoff = self._focused(fseq, budget, used)

        if proof is None and key is not None:
            hit = self.failed.get(key)
            if hit is None or hit[0] < budget:
                self.failed[key] = (budget, cutoff)
        return proof, cutoff

    def _expand(
        self, fseq: FSequent, head: FProof, budget: int, used: int
    ) -> tuple[FProof | None, bool]:
        """Search every premise of one rule application.

        A premise is built only once the ones before it are proved.
        """
        subs = []
        for plan in fpremise_plans(self.sig, fseq, head):
            sub, cutoff = self.search(materialize(plan, fseq), budget, used)
            if sub is None:
                return None, cutoff
            subs.append(sub)
        return replace(head, premises=tuple(subs)), False

    def _unfocused(self, fseq: FSequent, budget: int, used: int) -> tuple[FProof | None, bool]:
        ctx = fseq.context
        for i, f in enumerate(ctx):
            if is_neutral_formula(f):
                continue
            match f:
                case Top():
                    return FProof(TOP_RULE, principal=i), False
                case Par():
                    return self._expand(fseq, FProof(PAR, principal=i), budget, used)
                case Bot():
                    return self._expand(fseq, FProof(BOT_RULE, principal=i), budget, used)
                case With():
                    return self._expand(fseq, FProof(WITH, principal=i), budget, used)
            raise AssertionError(f"non-neutral formula unhandled: {f!r}")

        # neutral: decide, spending one unit of budget
        cands = self._decide_candidates(ctx)
        if not cands:
            return None, False
        if budget == 0:
            return None, True
        any_cutoff = False
        for head in cands:
            proof, cutoff = self._expand(fseq, head, budget - 1, used + 1)
            if proof is not None:
                return proof, False
            any_cutoff = any_cutoff or cutoff
        return None, any_cutoff

    def _decide_candidates(self, ctx: Context) -> list[FProof]:
        """Decides on a neutral context whose focus could still close:
        ldecides, then udecides, then decides, each left to right."""
        negs = Counter(g.name for g in ctx if type(g) is NegAtom)
        flavours: dict[str, list[FProof]] = {LDECIDE: [], UDECIDE: [], DECIDE: []}
        for i, f in enumerate(ctx):
            if type(f) is Qm:
                rule = UDECIDE if is_unbounded(self.sig, f.label) else LDECIDE
                focus = f.body
            elif type(f) is NegAtom or type(f) is Zero:
                continue  # negated atoms are not decided; nothing acts on a focused zero
            else:
                rule, focus = DECIDE, f
            if all(negs[name] >= k for name, k in self._skeleton(focus)):
                flavours[rule].append(FProof(rule, principal=i))
            else:
                self.stats.filtered += 1
        return [*flavours[LDECIDE], *flavours[UDECIDE], *flavours[DECIDE]]

    def _skeleton(self, f: Formula) -> tuple[tuple[str, int], ...]:
        """The atoms reached from ``f`` through tensors only, with multiplicities."""
        skeleton = self.skeletons.get(id(f))
        if skeleton is None:
            names: Counter[str] = Counter()
            pending = [f]
            while pending:
                g = pending.pop()
                if type(g) is Tensor:
                    pending += (g.left, g.right)
                elif type(g) is Atom:
                    names[g.name] += 1
            skeleton = self.skeletons[id(f)] = tuple(names.items())
        return skeleton

    def _focused(self, fseq: FSequent, budget: int, used: int) -> tuple[FProof | None, bool]:
        ctx = fseq.context
        match fseq.focus:
            case Atom(name=name):
                for i, g in enumerate(ctx):
                    if isinstance(g, NegAtom) and g.name == name:
                        head = FProof(FINIT, principal=i)
                        if self._valid(fseq, head):
                            return head, False
                return None, False
            case One():
                head = FProof(FONE)
                return (head, False) if self._valid(fseq, head) else (None, False)
            case Zero():
                return None, False
            case Plus():
                any_cutoff = False
                for rule in (FPLUS1, FPLUS2):
                    proof, cutoff = self._expand(fseq, FProof(rule), budget, used)
                    if proof is not None:
                        return proof, False
                    any_cutoff = any_cutoff or cutoff
                return None, any_cutoff
            case Tensor(left=first, right=second):
                kept = tuple(
                    i
                    for i, g in enumerate(ctx)
                    if isinstance(g, Qm) and is_unbounded(self.sig, g.label)
                )
                avail = [i for i in range(len(ctx)) if i not in kept]
                cut = [False]
                tried = set()
                for left, taken in self._synchronous(ctx, kept, avail, first, budget, used, cut):
                    key = context_key(self.table, [ctx[i] for i in taken])
                    if key in tried:
                        continue
                    tried.add(key)
                    self.stats.splits += 1
                    rest = tuple(g for i, g in enumerate(ctx) if i not in taken)
                    right, cutoff = self.search(FSequent(rest, second), budget, used)
                    if right is not None:
                        split = tuple(sorted(taken))
                        return FProof(FTENSOR, split=split, kept=kept, premises=(left, right)), False
                    cut[0] = cut[0] or cutoff
                return None, cut[0]
            case Bang(label=label):
                kept = tuple(
                    i
                    for i, g in enumerate(ctx)
                    if isinstance(g, Qm) and leq(self.sig, label, g.label)
                )
                head = FProof(FBANG, kept=kept)
                if not self._valid(fseq, head):
                    return None, False
                return self._expand(fseq, head, budget, used)
            case _:
                # negative focus: release it and resume the invertible phase
                return self._expand(fseq, FProof(BLUR), budget, used)

    def _synchronous(
        self,
        ctx: Context,
        kept: tuple[int, ...],
        avail: list[int],
        focus: Formula,
        budget: int,
        used: int,
        cut: list[bool],
    ) -> Iterator[tuple[FProof, tuple[int, ...]]]:
        """Proofs of ``focus`` that take from ``avail`` what they need.

        Yields ``(proof, taken)``: ``proof`` proves ``focus`` over the
        positions ``kept`` and ``taken`` of ``ctx``, in context order, and
        ``taken`` lists the positions of ``avail`` it consumed.  Synchronous
        connectives take formulas lazily; only fbang and blur, whose
        premises are searched strictly, try one premise context per
        multiset of the formulas they may take.  A strict premise that
        failed at a budget cutoff sets ``cut[0]``.
        """
        self._count()
        match focus:
            case Atom(name=name):
                for i in avail:
                    g = ctx[i]
                    if isinstance(g, NegAtom) and g.name == name:
                        yield FProof(FINIT, principal=bisect(kept, i)), (i,)
                        return
            case One():
                yield FProof(FONE), ()
            case Zero():
                return
            case Plus(left=a, right=b):
                for rule, part in ((FPLUS1, a), (FPLUS2, b)):
                    for proof, taken in self._synchronous(ctx, kept, avail, part, budget, used, cut):
                        yield FProof(rule, premises=(proof,)), taken
            case Tensor(left=a, right=b):
                for left, taken_a in self._synchronous(ctx, kept, avail, a, budget, used, cut):
                    rest = [i for i in avail if i not in taken_a]
                    for right, taken_b in self._synchronous(ctx, kept, rest, b, budget, used, cut):
                        taken = taken_a + taken_b
                        rank = {p: r for r, p in enumerate(sorted(kept + taken))}
                        head = FProof(
                            FTENSOR,
                            split=tuple(sorted(rank[i] for i in taken_a)),
                            kept=tuple(rank[i] for i in kept),
                            premises=(left, right),
                        )
                        yield head, taken
            case Bang(label=label, body=body):
                above = lambda i: isinstance(ctx[i], Qm) and leq(self.sig, label, ctx[i].label)
                promoted = [i for i in kept if above(i)]
                cands = [i for i in avail if above(i)]
                classes = [self.table[id(ctx[i])] for i in cands]
                for taken in tensor_splits(cands, classes):
                    inner = sorted(promoted + list(taken))
                    premise = FSequent(tuple(ctx[i] for i in inner) + (body,))
                    proof, cutoff = self.search(premise, budget, used)
                    if proof is None:
                        cut[0] = cut[0] or cutoff
                        continue
                    rank = {p: r for r, p in enumerate(sorted(kept + taken))}
                    yield FProof(FBANG, kept=tuple(rank[i] for i in inner), premises=(proof,)), taken
            case _:
                # negative: blur and search the rest of the premise strictly
                classes = [self.table[id(ctx[i])] for i in avail]
                for taken in tensor_splits(avail, classes):
                    sub = tuple(ctx[i] for i in sorted(kept + taken))
                    proof, cutoff = self.search(FSequent(sub + (focus,)), budget, used)
                    if proof is None:
                        cut[0] = cut[0] or cutoff
                        continue
                    yield FProof(BLUR, premises=(proof,)), taken

    def _count(self) -> None:
        self.stats.nodes += 1
        if self.stats.nodes > self.max_nodes:
            raise _NodeCap

    def _valid(self, fseq: FSequent, head: FProof) -> bool:
        try:
            fpremise_plans(self.sig, fseq, head)
        except CheckError:
            return False
        return True

