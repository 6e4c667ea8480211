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
formulas once per search, so its keys are small int tuples.  A failure that
met a budget cutoff holds at any budget no larger than the one it was found
at.  A failure that met none holds at every budget, so later rounds never
search it again.  That is sound because a rule fails only through a premise
that fails, and a larger budget can add a left outcome of a lazy tensor
split only where a strict premise was cut off.  ``SearchStats.round_nodes``
shows what each round still searches.  The decide candidates of a context
depend only on its formulas in order, so they are worked out once per
ordered context.  Everything is deterministic: the same call yields the
same certificate.
"""

from __future__ import annotations

from bisect import bisect
from collections import Counter
from collections.abc import Callable, Iterator
from functools import partial

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
    fpremise_plans,
    is_neutral,
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
    Sequent,
    Tensor,
    Top,
    With,
    Zero,
    context_key,
    intern_table,
)
from .records import Record, fill
from .signatures import Signature, check_goal, is_unbounded, leq
from .unfocused import BOT_RULE, PAR, TOP_RULE, WITH, materialize, tensor_splits


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


#: The rule of each connective the invertible phase takes apart.
_INVERTIBLE = {Par: PAR, Bot: BOT_RULE, With: WITH, Top: TOP_RULE}

#: Heads that take no position, shared by every search.
_BLUR_HEAD = FProof(BLUR)
_PLUS_HEADS = (FProof(FPLUS1), FProof(FPLUS2))


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
                proof, cutoff = searcher.search(goal, cap, 0)
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
        # formula object id -> class number, over the goal's sub-objects
        self.table = table
        # formula class -> its decide flavour and tensor skeleton, see _decide
        self.decides: dict[int, tuple] = {}
        # ordered context classes -> (decide candidates, how many were filtered)
        self.candidates: dict[tuple[int, ...], tuple[list[FProof], int]] = {}
        # (context key, focus class or -1) -> (largest decide budget that
        # failed, whether a budget cutoff occurred inside that failed
        # search); a failure without a cutoff holds at every budget
        self.failed: dict | None = {} if use_memo else None

    def _key(self, fseq: Sequent) -> tuple[tuple[int, ...], int]:
        focus = -1 if fseq.focus is None else self.table[id(fseq.focus)]
        return context_key(self.table, fseq.context), focus

    def search(self, fseq: Sequent, budget: int, used: int) -> tuple[FProof | None, bool]:
        self._count()
        if used > self.stats.deepest_decides:
            self.stats.deepest_decides = used

        key = None
        if self.failed is not None and (fseq.focus is not None or is_neutral(fseq.context)):
            key = self._key(fseq)
            hit = self.failed.get(key)
            if hit is not None and (budget <= hit[0] or not hit[1]):
                self.stats.memo_hits += 1
                return None, hit[1]

        if fseq.focus is None:
            proof, cutoff = self._unfocused(fseq, budget, used)
        else:
            proof, cutoff = self._focused(fseq, budget, used)

        if proof is None and key is not None:
            hit = self.failed.get(key)
            if hit is None or (hit[1] and hit[0] < budget):
                self.failed[key] = (budget, cutoff)
        return proof, cutoff

    def _expand(
        self, fseq: Sequent, head: FProof, budget: int, used: int
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
        return FProof(head.rule, head.principal, head.split, head.kept, tuple(subs)), False

    def _unfocused(self, fseq: Sequent, budget: int, used: int) -> tuple[FProof | None, bool]:
        ctx = fseq.context
        if not is_neutral(ctx):
            # the leftmost invertible rule; top has no premise and closes
            i = next(i for i, f in enumerate(ctx) if type(f) in _INVERTIBLE)
            head = FProof(_INVERTIBLE[type(ctx[i])], principal=i)
            return self._expand(fseq, head, budget, used)

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
        for i, c in enumerate(order):
            decide = self.decides.get(c)
            if decide is None:
                decide = self.decides[c] = self._decide(ctx[i])
            if not decide:
                continue
            rule, skeleton = decide
            for name, k in skeleton:
                if negs[name] < k:
                    filtered += 1
                    break
            else:
                flavours[rule].append(FProof(rule, principal=i))
        return [*flavours[LDECIDE], *flavours[UDECIDE], *flavours[DECIDE]], filtered

    def _decide(self, f: Formula) -> tuple:
        """The decide flavour that focuses ``f`` and the atoms reached from
        its focus through tensors only, with multiplicities; empty when
        ``f`` is not decided."""
        if type(f) is Qm:
            rule = UDECIDE if is_unbounded(self.sig, f.label) else LDECIDE
            focus = f.body
        elif type(f) is NegAtom or type(f) is Zero:
            return ()  # negated atoms are not decided; nothing acts on a focused zero
        else:
            rule, focus = DECIDE, f
        names: Counter[str] = Counter()
        pending = [focus]
        while pending:
            g = pending.pop()
            if type(g) is Tensor:
                pending += (g.left, g.right)
            elif type(g) is Atom:
                names[g.name] += 1
        return rule, tuple(names.items())

    def _focused(self, fseq: Sequent, budget: int, used: int) -> tuple[FProof | None, bool]:
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
                for head in _PLUS_HEADS:
                    proof, cutoff = self._expand(fseq, head, budget, used)
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
                for make_left, taken in self._synchronous(ctx, kept, avail, first, budget, used, cut):
                    key = context_key(self.table, [ctx[i] for i in taken])
                    if key in tried:
                        continue
                    tried.add(key)
                    self.stats.splits += 1
                    rest = tuple(g for i, g in enumerate(ctx) if i not in taken)
                    right, cutoff = self.search(Sequent(rest, second), budget, used)
                    if right is not None:
                        split = tuple(sorted(taken))
                        return FProof(FTENSOR, None, split, kept, (make_left(), right)), False
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
                return self._expand(fseq, _BLUR_HEAD, budget, used)

    def _synchronous(
        self,
        ctx: Context,
        kept: tuple[int, ...],
        avail: list[int],
        focus: Formula,
        budget: int,
        used: int,
        cut: list[bool],
    ) -> Iterator[tuple[Callable[[], FProof], tuple[int, ...]]]:
        """Proofs of ``focus`` that take from ``avail`` what they need.

        Yields ``(make, taken)``: ``make()`` builds a proof of ``focus`` over
        the positions ``kept`` and ``taken`` of ``ctx``, in context order,
        and ``taken`` lists the positions of ``avail`` it consumed.  Most
        outcomes are dropped, as tried already or for a failing right
        premise, so only the returned one is built.  Synchronous
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
                        yield partial(FProof, FINIT, bisect(kept, i)), (i,)
                        return
            case One():
                yield partial(FProof, FONE), ()
            case Zero():
                return
            case Plus(left=a, right=b):
                for rule, part in ((FPLUS1, a), (FPLUS2, b)):
                    for make, taken in self._synchronous(ctx, kept, avail, part, budget, used, cut):
                        yield partial(_one_premise, rule, make), taken
            case Tensor(left=a, right=b):
                for left, taken_a in self._synchronous(ctx, kept, avail, a, budget, used, cut):
                    rest = [i for i in avail if i not in taken_a]
                    for right, taken_b in self._synchronous(ctx, kept, rest, b, budget, used, cut):
                        taken = taken_a + taken_b
                        yield partial(_ftensor, kept, taken, taken_a, left, right), taken
            case Bang(label=label, body=body):
                above = lambda i: isinstance(ctx[i], Qm) and leq(self.sig, label, ctx[i].label)
                promoted = [i for i in kept if above(i)]
                cands = [i for i in avail if above(i)]
                classes = [self.table[id(ctx[i])] for i in cands]
                for taken in tensor_splits(cands, classes):
                    inner = sorted(promoted + list(taken))
                    premise = Sequent(tuple(ctx[i] for i in inner) + (body,))
                    proof, cutoff = self.search(premise, budget, used)
                    if proof is None:
                        cut[0] = cut[0] or cutoff
                        continue
                    yield partial(_fbang, kept, taken, inner, proof), taken
            case _:
                # negative: blur and search the rest of the premise strictly
                classes = [self.table[id(ctx[i])] for i in avail]
                for taken in tensor_splits(avail, classes):
                    sub = tuple(ctx[i] for i in sorted(kept + taken))
                    proof, cutoff = self.search(Sequent(sub + (focus,)), budget, used)
                    if proof is None:
                        cut[0] = cut[0] or cutoff
                        continue
                    yield partial(FProof, BLUR, None, None, None, (proof,)), taken

    def _count(self) -> None:
        self.stats.nodes += 1
        if self.stats.nodes > self.max_nodes:
            raise _NodeCap

    def _valid(self, fseq: Sequent, head: FProof) -> bool:
        try:
            fpremise_plans(self.sig, fseq, head)
        except CheckError:
            return False
        return True


# The nodes of a returned synchronous outcome, whose context is the
# positions ``kept + taken``: its position lists give their ranks.


def _one_premise(rule: str, make: Callable[[], FProof]) -> FProof:
    return FProof(rule, premises=(make(),))


def _ftensor(kept, taken, taken_a, left, right) -> FProof:
    rank = {p: r for r, p in enumerate(sorted(kept + taken))}
    split = tuple(sorted(rank[i] for i in taken_a))
    return FProof(FTENSOR, None, split, tuple(rank[i] for i in kept), (left(), right()))


def _fbang(kept, taken, inner, proof) -> FProof:
    rank = {p: r for r, p in enumerate(sorted(kept + taken))}
    return FProof(FBANG, kept=tuple(rank[i] for i in inner), premises=(proof,))
