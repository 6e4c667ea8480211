"""Encoding two-register machines as derivability problems.

A configuration becomes a context: one question-marked register token per
unit in each register (``?a ~__ra`` for register a, ``?b ~__rb`` for b) plus
the negated atom of the current state.  Each machine entry becomes one
positive *instruction element*; the whole table is placed in the context
under ``?inf`` so it can be reused ad libitum, and firing an entry is one
udecide on its element.  The element shapes make the machine's guards
structural:

* increments emit a fresh register token through a par,
* decrements demand one token via a ``!``-promotion at the register's label,
* zero tests promote at the *other* register's label, which succeeds only
  when no token of the tested register is around to block it,
* halting trades the state atom for a halt token ``~__h``, after which three
  shared helper elements drain leftover tokens and finally close the proof
  with ``!inf 1``.

The goal context is derivable exactly when the machine halts from the given
configuration — except for a start that is already the halting
configuration, where the run is trivially complete but the goal is not
derivable; :func:`proof_from_trace` refuses that empty trace.

:func:`proof_from_trace` turns a verified halting trace into a focused
certificate, and :func:`trace_from_proof` reads the trace back out of any
checked certificate for the goal.
"""

from __future__ import annotations

from typing import Sequence

from .errors import AtomClash, CheckError, MalformedCertificate, TraceMismatch, UnknownState
from .focusing import (
    BLUR,
    DECIDE,
    FBANG,
    FINIT,
    FONE,
    FTENSOR,
    LDECIDE,
    UDECIDE,
    FProof,
    checked_nodes,
    fpremise_plans,
)
from .formulas import ONE, Atom, Bang, Context, Formula, NegAtom, Par, Qm, Sequent, Tensor
from .minsky import (
    DECRA,
    HALT,
    Configuration,
    Entry,
    Machine,
    fired_entry,
    halting_config,
    step,
    validate_machine,
)
from .records import Record, fill
from .signatures import Signature, close_signature
from .unfocused import PAR, materialize

LABEL_INF = "inf"
LABEL_A = "a"
LABEL_B = "b"

HALT_ATOM = "__h"
TOKEN_A = "__ra"
TOKEN_B = "__rb"
RESERVED_ATOMS = frozenset({HALT_ATOM, TOKEN_A, TOKEN_B})

A_TOKEN = Qm(LABEL_A, NegAtom(TOKEN_A))
B_TOKEN = Qm(LABEL_B, NegAtom(TOKEN_B))

_DRAIN_A = Tensor(Tensor(Atom(HALT_ATOM), Bang(LABEL_A, Atom(TOKEN_A))), NegAtom(HALT_ATOM))
_DRAIN_B = Tensor(Tensor(Atom(HALT_ATOM), Bang(LABEL_B, Atom(TOKEN_B))), NegAtom(HALT_ATOM))
_FINISHER = Tensor(Atom(HALT_ATOM), Bang(LABEL_INF, ONE))


def encoding_signature() -> Signature:
    """Three labels: both register labels sit below the unbounded ``inf``."""
    return close_signature(
        labels=(LABEL_INF, LABEL_A, LABEL_B),
        unbounded=(LABEL_INF,),
        order=((LABEL_A, LABEL_INF), (LABEL_B, LABEL_INF)),
    )


def encode_config(c: Configuration) -> Context:
    """Register tokens for a, then for b, then the negated state atom."""
    return (A_TOKEN,) * c.a + (B_TOKEN,) * c.b + (NegAtom(c.state),)


def entry_element(e: Entry) -> Formula:
    src = Atom(e.source)
    match e.instruction:
        case "halt":
            return Tensor(src, NegAtom(HALT_ATOM))
        case "incra":
            return Tensor(src, Par(NegAtom(e.target), A_TOKEN))
        case "incrb":
            return Tensor(src, Par(NegAtom(e.target), B_TOKEN))
        case "decra":
            return Tensor(Tensor(src, Bang(LABEL_A, Atom(TOKEN_A))), NegAtom(e.target))
        case "decrb":
            return Tensor(Tensor(src, Bang(LABEL_B, Atom(TOKEN_B))), NegAtom(e.target))
        case "isza":
            return Tensor(src, Bang(LABEL_B, NegAtom(e.target)))
        case "iszb":
            return Tensor(src, Bang(LABEL_A, NegAtom(e.target)))
    raise AssertionError(f"unknown instruction {e.instruction!r}")


class ReductionBundle(Record):
    """Everything the translations need about one encoded machine."""

    __slots__ = __match_args__ = (
        "signature", "machine", "init", "table", "goal", "entry_elements", "drain_a", "drain_b", "finisher",
    )

    def __init__(
        self, signature: Signature, machine: Machine, init: Configuration, table: tuple[Formula, ...],
        goal: Context, entry_elements: tuple[int, ...], drain_a: int | None, drain_b: int | None,
        finisher: int | None,
    ):
        fill(self, signature, machine, init, table, goal, entry_elements, drain_a, drain_b, finisher)


def encode_halting(m: Machine, init: Configuration) -> ReductionBundle:
    """Build the goal whose derivability matches halting from ``init``."""
    validate_machine(m)
    for name in sorted(m.states & RESERVED_ATOMS):
        raise AtomClash(f"state name {name!r} is reserved for the encoding")
    if init.state not in m.states:
        raise UnknownState(f"initial state {init.state!r} is not declared")
    if init.a < 0 or init.b < 0:
        raise ValueError("registers cannot be negative")
    table = [entry_element(e) for e in m.entries]
    entry_positions = tuple(range(len(table)))
    if any(e.instruction == HALT for e in m.entries):
        drain_a, drain_b, finisher = len(table), len(table) + 1, len(table) + 2
        table += [_DRAIN_A, _DRAIN_B, _FINISHER]
    else:
        drain_a = drain_b = finisher = None
    goal = tuple(Qm(LABEL_INF, f) for f in table) + encode_config(init)
    return ReductionBundle(
        signature=encoding_signature(),
        machine=m,
        init=init,
        table=tuple(table),
        goal=goal,
        entry_elements=entry_positions,
        drain_a=drain_a,
        drain_b=drain_b,
        finisher=finisher,
    )


#: The promotion side of a decrement: the focused bang keeps the lone
#: register token, whose negated atom then meets the body.
_CONSUME_TOKEN = FProof(FBANG, kept=(0,), premises=(FProof(LDECIDE, principal=0, premises=(
    FProof(BLUR, premises=(FProof(DECIDE, principal=0, premises=(FProof(FINIT, principal=0),)),)),
)),))


class _Builder:
    """Builds the canonical certificate for a replayed halting run.

    Every spine sequent is recomputed through the checker's premise plans,
    so a construction bug cannot produce an ill-formed certificate — it
    fails loudly instead — and positions are read off the sequent itself:
    after the table the context holds only register tokens and one negated
    atom, the current state's or, once halt fired, the halt token's.

    The certificate is one spine: every node on it continues the run in its
    last premise, and only closed side branches hang off to the left.  The
    steps append their spine nodes in order, and :meth:`certificate` folds
    them from the closing leaf upward, so run length does not meet the
    recursion limit.
    """

    def __init__(self, bundle: ReductionBundle):
        self.bundle = bundle
        self.sig = bundle.signature
        self.k = len(bundle.table)
        self.element_at = {e: bundle.entry_elements[i] for i, e in enumerate(bundle.machine.entries)}
        # (node, closed left premises) from the root down
        self.spine: list[tuple[FProof, tuple[FProof, ...]]] = []

    def _push(self, fseq: Sequent, head: FProof, *left: FProof) -> Sequent:
        """Put ``head`` on the spine; the sequent of its last premise."""
        self.spine.append((head, left))
        return materialize(fpremise_plans(self.sig, fseq, head)[-1], fseq)

    # Both lookups compare at C speed, by type or by identity; formula ``==``
    # would walk every formula it passes in Python.

    def _anchor(self, fseq: Sequent) -> int:
        """Position of the context's one negated atom."""
        return [*map(type, fseq.context)].index(NegAtom, self.k)

    def _token(self, fseq: Sequent, tok: Formula) -> int:
        """Position of the first register token ``tok``, or -1 when none is left."""
        try:
            return [*map(id, fseq.context)].index(id(tok), self.k)
        except ValueError:
            return -1

    def certificate(self, fired: Sequence[Entry]) -> FProof:
        fseq = Sequent(self.bundle.goal)
        for e in fired:
            fseq = self._fire(fseq, e)
        # burn leftover register tokens after the halt element fired
        for tok, element in ((A_TOKEN, self.bundle.drain_a), (B_TOKEN, self.bundle.drain_b)):
            while (t_pos := self._token(fseq, tok)) >= 0:
                fseq = self._push(fseq, FProof(UDECIDE, principal=element))
                fseq = self._spend(fseq, t_pos)
        fseq = self._push(fseq, FProof(UDECIDE, principal=self.bundle.finisher))
        t = FProof(FTENSOR, kept=(), split=(self._anchor(fseq),))
        fseq = self._push(fseq, t, FProof(FINIT, principal=0))
        fseq = self._push(fseq, FProof(FBANG, kept=()))
        self._push(fseq, FProof(DECIDE, principal=0))
        proof = FProof(FONE)
        for head, left in reversed(self.spine):
            proof = FProof(head.rule, head.principal, head.split, head.kept, (*left, proof))
        return proof

    def _fire(self, fseq: Sequent, e: Entry) -> Sequent:
        fseq = self._push(fseq, FProof(UDECIDE, principal=self.element_at[e]))
        if e.instruction in ("decra", "decrb"):
            return self._spend(fseq, self._token(fseq, A_TOKEN if e.instruction == DECRA else B_TOKEN))
        t = FProof(FTENSOR, kept=(), split=(self._anchor(fseq),))
        rf = self._push(fseq, t, FProof(FINIT, principal=0))
        match e.instruction:
            case "incra" | "incrb":
                rf = self._push(rf, FProof(BLUR))
                return self._push(rf, FProof(PAR, principal=len(rf.context) - 1))
            case "isza" | "iszb":
                return self._push(rf, FProof(FBANG, kept=tuple(range(len(rf.context)))))
            case "halt":
                return self._push(rf, FProof(BLUR))
        raise AssertionError(f"unknown instruction {e.instruction!r}")

    def _spend(self, fseq: Sequent, t_pos: int) -> Sequent:
        """Shared shape of decrements and drains: a nested tensor consumes
        the register token at ``t_pos`` plus the anchor atom's negation, and
        the right branch resumes with a fresh anchor negation appended."""
        a_pos = self._anchor(fseq)
        outer = FProof(FTENSOR, kept=(), split=tuple(sorted((a_pos, t_pos))))
        # the left premise holds the anchor and the token in context order
        split = (int(t_pos < a_pos),)
        left = FProof(FTENSOR, None, split, (), (FProof(FINIT, principal=0), _CONSUME_TOKEN))
        return self._push(self._push(fseq, outer, left), FProof(BLUR))


def proof_from_trace(bundle: ReductionBundle, trace: Sequence[str]) -> FProof:
    """Certify a halting run as a focused proof of the goal.

    The trace must list exactly the instructions of the machine's complete
    run from the bundle's initial configuration; any deviation raises
    :class:`TraceMismatch`.  An empty trace — the machine starting in the
    halting configuration — is rejected with :class:`ValueError`, because
    that one halting case has no derivable goal: the proof must fire at
    least the halt element.
    """
    if not trace:
        raise ValueError("cannot certify an empty trace")
    m = bundle.machine
    target = halting_config(m)
    fired: list[Entry] = []
    c = bundle.init
    for i, name in enumerate(trace):
        if c == target:
            raise TraceMismatch(f"trace continues past the halting configuration at step {i}")
        e = fired_entry(m, c)
        if e is None:
            raise TraceMismatch(f"machine is stuck before step {i}, but the trace continues")
        if e.instruction != name:
            raise TraceMismatch(f"step {i} fires {e.instruction!r}, trace says {name!r}")
        fired.append(e)
        _, c = step(m, c)
    if c != target:
        raise TraceMismatch("trace stops before the halting configuration")
    return _Builder(bundle).certificate(fired)


def trace_from_proof(bundle: ReductionBundle, proof: FProof) -> tuple[str, ...]:
    """Read the instruction sequence back out of a checked certificate.

    Every udecide in a certificate for an encoded goal focuses some table
    element; those carrying machine entries yield their mnemonics, the
    three draining helpers are bookkeeping and yield nothing.  The steps of
    a run cannot spread over parallel branches — each one consumes the
    unique state atom — so the mnemonics concatenate along a single spine.
    """
    sig = bundle.signature
    # a checked certificate's contexts share the goal's own table elements,
    # found by identity; equal elements fire the same instruction
    element_ids = [*map(id, bundle.goal[: len(bundle.table)])]
    names: list[str | None] = [e.instruction for e in bundle.machine.entries]
    names += [None] * (len(bundle.table) - len(names))

    # per node, the pre-order index of its nearest ancestor-or-self that
    # carries a mnemonic (-1 for none); the mnemonics lie on one spine
    # exactly when each one's nearest such ancestor is the previous one
    nearest: list[int] = []
    last = -1
    out: list[str] = []
    try:
        walk = checked_nodes(sig, Sequent(bundle.goal), proof)
        for i, (node, fseq, _, parent) in enumerate(walk):
            here = nearest[parent] if parent >= 0 else -1
            if node.rule == UDECIDE:
                f = fseq.context[node.principal]
                if id(f) in element_ids:
                    j = element_ids.index(id(f))
                elif f in (wrapped := [Qm(LABEL_INF, g) for g in bundle.table]):
                    j = wrapped.index(f)
                else:
                    raise MalformedCertificate(
                        "udecide focuses a formula outside the instruction table"
                    )
                if names[j] is not None:
                    if here != last:
                        raise MalformedCertificate(
                            "instruction steps spread across parallel branches"
                        )
                    out.append(names[j])
                    here = last = i
            nearest.append(here)
    except CheckError as e:
        raise MalformedCertificate(f"not a certificate for this goal: {e}") from None
    if not out or out[-1] != HALT:
        raise MalformedCertificate("certificate never fires a halt instruction")
    return tuple(out)
