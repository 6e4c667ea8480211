"""Bounded proof search in the focused calculus.

The search runs the focusing discipline directly.  Each kind of sequent
yields the rule heads that can apply, and one loop tries them in order:
with no focus, the leftmost invertible rule (those never need
backtracking); on a neutral context, the decides — ldecide, then udecide,
then decide, positions left to right; under focus, the forced rule (finit
at each matching negated atom, f1, fbang or blur, none for zero) or plus's
two.  The one exception is tensor, which copies every unbounded
question-marked formula to both premises and splits the rest between them.

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
context's negated atoms can never succeed and is not tried.  A bare negated
atom ~x is consumed only by finit, against a focused x, or by a top; an
fbang premise holds only question-marked formulas and the body, so no x and
no top under a bang can reach it.  So a neutral sequent with a bare ~x, but
no x and no top outside every bang, is dead; that test runs after the
relevance filter.  A neutral sequent that is dead or has no decide left
fails outright, not at the decide cap.

Equal formulas give premises that are equal multisets, with one memo key,
so a decide is offered only at the first formula of each equality class
(:func:`~selogic.formulas.class_firsts`): a decide on a later one would
only be a memo hit that returns the first one's cutoff.

Because udecide keeps its formula, proofs can regress forever; the search
is made terminating by a per-branch cap on decides, deepened iteratively
from zero so the first proof found uses as few decides along any branch as
possible; a branch has spent the round's cap minus its budget.  A failure
memo keyed on sequents as multisets makes the repeated rounds cheap;
:func:`~selogic.formulas.intern_table` numbers the goal's formulas once per
search, so its keys are small int tuples.  A failure that met a budget
cutoff holds at any budget no larger than the one it was found at.  A
failure that met none holds at every budget, so later rounds never search
it again.  That is sound because a rule fails only through a premise that
fails, and a larger budget can add a left outcome of a lazy tensor split
only where a strict premise was cut off.  ``SearchStats.round_nodes`` shows
what each round still searches.  The decide candidates of a context depend
only on its formulas in order, so they are worked out once per ordered
context.  Everything is deterministic: the same call yields the same
certificate.
"""

from __future__ import annotations

from bisect import bisect
from collections import Counter
from collections.abc import Iterable, Iterator

from .errors import CheckError
from .focusing import (
    ASYNC,
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
    copyable,
    fpremise_plans,
    is_neutral,
)
from .formulas import (
    Atom,
    Bang,
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
    Zero,
    class_firsts,
    context_key,
    intern_table,
)
from .records import Record, fill
from .signatures import Signature, check_goal, is_unbounded
from .unfocused import materialize, promotes, tensor_splits


class SearchStats(Record):
    __slots__ = __match_args__ = (
        "nodes", "deepest_decides", "rounds", "splits", "memo_hits", "filtered", "round_nodes",
    )
    # mutable, and so unhashable: the prover counts in place
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self, nodes: int = 0, deepest_decides: int = 0, rounds: int = 0,
        splits: int = 0,  # left tensor outcomes handed to a right premise
        memo_hits: int = 0,
        filtered: int = 0,  # decide candidates dropped because their focus cannot close
        round_nodes: list[int] | None = None,  # nodes of each deepening round
    ):
        round_nodes = [] if round_nodes is None else round_nodes
        fill(self, nodes, deepest_decides, rounds, splits, memo_hits, filtered, round_nodes)


class Proved(Record):
    __slots__ = __match_args__ = ("proof", "stats")

    def __init__(self, proof: FProof, stats: SearchStats):
        fill(self, proof, stats)


class Exhausted(Record):
    """No proof within budget.

    ``complete`` means every branch failed outright, so no budget increase
    could help; otherwise the decide cap or the node cap stopped the search.
    """

    __slots__ = __match_args__ = ("stats", "complete", "hit_node_cap")

    def __init__(self, stats: SearchStats, complete: bool, hit_node_cap: bool = False):
        fill(self, stats, complete, hit_node_cap)


SearchResult = Proved | Exhausted


class _NodeCap(Exception):
    pass


def prove_focused(
    sig: Signature,
    goal: Sequent,
    *,
    max_decides: int,
    max_nodes: int = 500_000,
    use_memo: bool = True,
) -> SearchResult:
    check_goal(sig, goal, focused=True)
    stats = SearchStats()
    table = intern_table(*goal.context, *([] if goal.focus is None else [goal.focus]))
    searcher = _Searcher(sig, stats, max_nodes, use_memo, table)
    try:
        for cap in range(max_decides + 1):
            stats.rounds += 1
            start = stats.nodes
            try:
                searcher.cap = cap
                proof, cutoff = searcher.search(goal, cap)
            finally:
                stats.round_nodes.append(stats.nodes - start)
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
        self.cap = 0  # the decide budget of the current round
        # formula object id -> class number, over the goal's sub-objects
        self.table = table
        # formula class -> (its decide flavour and tensor skeleton; the
        # atoms and top outside every bang), see _decide
        self.decides: dict[int, tuple] = {}
        # ordered context classes -> (decide candidates, how many were filtered)
        self.candidates: dict[tuple[int, ...], tuple[list[FProof], int]] = {}
        # (context key, focus class or -1) -> (largest decide budget that
        # failed, whether a budget cutoff occurred inside that failed
        # search); a failure without a cutoff holds at every budget
        self.failed: dict | None = {} if use_memo else None

    def search(self, fseq: Sequent, budget: int) -> tuple[FProof | None, bool]:
        self._count()
        if self.cap - budget > self.stats.deepest_decides:
            self.stats.deepest_decides = self.cap - budget
        ctx, focus = fseq.context, fseq.focus
        if focus is None and not is_neutral(ctx):
            # the leftmost invertible rule; top has no premise and closes
            i = next(i for i, f in enumerate(ctx) if type(f) in ASYNC)
            return self._expand(fseq, (FProof(ASYNC[type(ctx[i])], principal=i),), budget)

        key = None
        if self.failed is not None:
            key = context_key(self.table, ctx), -1 if focus is None else self.table[id(focus)]
            hit = self.failed.get(key)
            if hit is not None and (budget <= hit[0] or not hit[1]):
                self.stats.memo_hits += 1
                return None, hit[1]

        if focus is None:
            # neutral: decide, spending one unit of budget
            heads = self._decide_candidates(ctx)
            if heads and budget == 0:
                proof, cutoff = None, True
            else:
                proof, cutoff = self._expand(fseq, heads, budget - 1)
        elif type(focus) is Tensor:
            proof, cutoff = self._tensor(ctx, focus, budget)
        else:
            proof, cutoff = self._expand(fseq, self._heads(ctx, focus), budget)

        if proof is None and key is not None:
            hit = self.failed.get(key)
            if hit is None or (hit[1] and hit[0] < budget):
                self.failed[key] = (budget, cutoff)
        return proof, cutoff

    def _expand(
        self, fseq: Sequent, heads: Iterable[FProof], budget: int
    ) -> tuple[FProof | None, bool]:
        """Try each head in turn: the first proof, or none and whether a
        cutoff was met.

        A head that does not apply fails outright, with no cutoff.  A
        premise is built only once the ones before it are proved.
        """
        any_cutoff = False
        for head in heads:
            try:
                plans = fpremise_plans(self.sig, fseq, head)
            except CheckError:
                continue
            subs = []
            for plan in plans:
                sub, cutoff = self.search(materialize(plan, fseq), budget)
                if sub is None:
                    any_cutoff = any_cutoff or cutoff
                    break
                subs.append(sub)
            else:
                return FProof(head.rule, head.principal, head.split, head.kept, tuple(subs)), False
        return None, any_cutoff

    def _decide_candidates(self, ctx: Context) -> list[FProof]:
        """Decides on a neutral context whose focus could still close:
        ldecides, then udecides, then decides, each left to right."""
        order = tuple(map(self.table.__getitem__, map(id, ctx)))
        cached = self.candidates.get(order)
        if cached is None:
            cached = self.candidates[order] = self._filter_decides(ctx, order)
        cands, filtered = cached
        self.stats.filtered += filtered
        return cands

    def _filter_decides(self, ctx: Context, order: tuple[int, ...]) -> tuple[list[FProof], int]:
        filtered = 0
        negs = Counter(g.name for g in ctx if type(g) is NegAtom)
        flavours: dict[str, list[FProof]] = {LDECIDE: [], UDECIDE: [], DECIDE: []}
        reach: set = set()
        for i in class_firsts(self.table, ctx):
            known = self.decides.get(order[i])
            if known is None:
                known = self.decides[order[i]] = self._decide(ctx[i])
            decide, atoms = known
            reach |= atoms
            if not decide:
                continue
            rule, skeleton = decide
            for name, k in skeleton:
                if negs[name] < k:
                    filtered += 1
                    break
            else:
                flavours[rule].append(FProof(rule, principal=i))
        if Top not in reach and not reach.issuperset(negs):
            return [], filtered  # a bare negated atom that nothing can close
        return [*flavours[LDECIDE], *flavours[UDECIDE], *flavours[DECIDE]], filtered

    def _decide(self, f: Formula) -> tuple[tuple, frozenset]:
        """One walk over ``f``: the decide flavour that focuses it with the
        atoms reached from its focus through tensors only, with
        multiplicities, or empty when ``f`` is not decided; and the names of
        the atoms in ``f`` outside every bang, with ``Top`` if a top is."""
        t = type(f)
        if t is Qm:
            rule = UDECIDE if is_unbounded(self.sig, f.label) else LDECIDE
        elif t is NegAtom or t is Zero:
            rule = None  # negated atoms are not decided; nothing acts on a focused zero
        else:
            rule = DECIDE
        names: Counter[str] = Counter()
        reach = set()
        # (subformula, whether tensors alone lead to it from the focus)
        pending = [(f, rule == DECIDE)]
        while pending:
            g, skeleton = pending.pop()
            t = type(g)
            if t is Atom:
                reach.add(g.name)
                if skeleton:
                    names[g.name] += 1
            elif t is Top:
                reach.add(Top)
            elif t is Qm:
                pending.append((g.body, g is f))
            elif t is Tensor:
                pending += ((g.left, skeleton), (g.right, skeleton))
            elif t is Par or t is Plus or t is With:
                pending += ((g.left, False), (g.right, False))
        return ((rule, tuple(names.items())) if rule else ()), frozenset(reach)

    def _heads(self, ctx: Context, focus: Formula) -> Iterable[FProof]:
        """The rules that can take apart a focus other than a tensor."""
        match focus:
            case Atom(name=name):
                return (
                    FProof(FINIT, principal=i)
                    for i, g in enumerate(ctx)
                    if isinstance(g, NegAtom) and g.name == name
                )
            case One():
                return (FProof(FONE),)
            case Zero():
                return ()
            case Plus():
                return (FProof(FPLUS1), FProof(FPLUS2))
            case Bang(label=label):
                kept = tuple(i for i, g in enumerate(ctx) if promotes(self.sig, label, (g,)))
                return (FProof(FBANG, kept=kept),)
            case _:
                # negative focus: release it and resume the invertible phase
                return (FProof(BLUR),)

    def _tensor(self, ctx: Context, focus: Tensor, budget: int) -> tuple[FProof | None, bool]:
        """The lazy split: the right premise gets what each left proof of
        ``focus.left`` leaves, once per consumed multiset."""
        kept = tuple(i for i, g in enumerate(ctx) if copyable(self.sig, g))
        avail = [i for i in range(len(ctx)) if i not in kept]
        cut = [False]
        tried = set()
        for left, taken in self._synchronous(ctx, kept, avail, focus.left, budget, cut):
            key = context_key(self.table, [ctx[i] for i in taken])
            if key in tried:
                continue
            tried.add(key)
            self.stats.splits += 1
            rest = tuple(g for i, g in enumerate(ctx) if i not in taken)
            right, cutoff = self.search(Sequent(rest, focus.right), budget)
            if right is not None:
                split = tuple(sorted(taken))
                return FProof(FTENSOR, None, split, kept, (left, right)), False
            cut[0] = cut[0] or cutoff
        return None, cut[0]

    def _synchronous(
        self,
        ctx: Context,
        kept: tuple[int, ...],
        avail: list[int],
        focus: Formula,
        budget: int,
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
                        yield FProof(FINIT, bisect(kept, i)), (i,)
                        return
            case One():
                yield FProof(FONE), ()
            case Zero():
                return
            case Plus(left=a, right=b):
                for rule, part in ((FPLUS1, a), (FPLUS2, b)):
                    for proof, taken in self._synchronous(ctx, kept, avail, part, budget, cut):
                        yield FProof(rule, premises=(proof,)), taken
            case Tensor(left=a, right=b):
                for left, taken_a in self._synchronous(ctx, kept, avail, a, budget, cut):
                    rest = [i for i in avail if i not in taken_a]
                    for right, taken_b in self._synchronous(ctx, kept, rest, b, budget, cut):
                        taken = taken_a + taken_b
                        yield _ftensor(kept, taken, taken_a, left, right), taken
            case Bang(label=label, body=body):
                above = lambda i: promotes(self.sig, label, (ctx[i],))
                promoted = [i for i in kept if above(i)]
                cands = [i for i in avail if above(i)]
                classes = [self.table[id(ctx[i])] for i in cands]
                for taken in tensor_splits(cands, classes):
                    inner = sorted(promoted + list(taken))
                    premise = Sequent(tuple(ctx[i] for i in inner) + (body,))
                    proof, cutoff = self.search(premise, budget)
                    if proof is None:
                        cut[0] = cut[0] or cutoff
                        continue
                    yield _fbang(kept, taken, inner, proof), taken
            case _:
                # negative: blur and search the rest of the premise strictly
                classes = [self.table[id(ctx[i])] for i in avail]
                for taken in tensor_splits(avail, classes):
                    sub = tuple(ctx[i] for i in sorted(kept + taken))
                    proof, cutoff = self.search(Sequent(sub + (focus,)), budget)
                    if proof is None:
                        cut[0] = cut[0] or cutoff
                        continue
                    yield FProof(BLUR, premises=(proof,)), taken

    def _count(self) -> None:
        self.stats.nodes += 1
        if self.stats.nodes > self.max_nodes:
            raise _NodeCap


# The nodes of a synchronous outcome, whose context is the positions
# ``kept + taken``: its position lists give their ranks.


def _ftensor(kept, taken, taken_a, left, right) -> FProof:
    rank = {p: r for r, p in enumerate(sorted(kept + taken))}
    split = tuple(sorted(rank[i] for i in taken_a))
    return FProof(FTENSOR, None, split, tuple(rank[i] for i in kept), (left, right))


def _fbang(kept, taken, inner, proof) -> FProof:
    rank = {p: r for r, p in enumerate(sorted(kept + taken))}
    return FProof(FBANG, kept=tuple(rank[i] for i in inner), premises=(proof,))
