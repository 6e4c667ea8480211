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
* halting trades the state atom for a halt token ``~__h``, after which two
  drains, the elements of a ``decra`` and a ``decrb`` entry from the halt
  token to itself, burn leftover tokens, and a finisher closes the proof
  with ``!inf 1``.

The goal context is derivable exactly when the machine halts from the given
configuration — except for a start that is already the halting
configuration, where the run is trivially complete but the goal is not
derivable; :func:`proof_from_trace` refuses that empty trace.

:func:`proof_from_trace` turns a verified halting trace into a focused
certificate, and :func:`trace_from_proof` checks any certificate for the
goal and reads the trace back out of it.
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
from .formulas import ONE, Atom, Bang, Context, Formula, NegAtom, Par, Qm, Sequent, Tensor, dual
from .minsky import (
    DECRA,
    DECRB,
    HALT,
    Configuration,
    Entry,
    Machine,
    apply_entry,
    fired_entry,
    halting_config,
    instruction_row,
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
#: Each register's token, by the name the machine's guards use.
_TOKENS = {"a": A_TOKEN, "b": B_TOKEN}

#: After a halt, the drains follow the entries' elements, then the finisher.
_DRAINS = (Entry(HALT_ATOM, DECRA, HALT_ATOM), Entry(HALT_ATOM, DECRB, HALT_ATOM))
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
    """The element of ``e``, shaped by its instruction's guard and register change."""
    guard, da, db = instruction_row(e.instruction)
    src = Atom(e.source)
    if e.instruction == HALT:
        return Tensor(src, NegAtom(HALT_ATOM))
    dest = NegAtom(e.target)
    if guard is None:  # an increment emits a fresh token
        return Tensor(src, Par(dest, A_TOKEN if da else B_TOKEN))
    register, zero = guard
    if zero:  # a zero test promotes at the other register's label
        other = _TOKENS["b" if register == "a" else "a"]
        return Tensor(src, Bang(other.label, dest))
    return Tensor(Tensor(src, dual(_TOKENS[register])), dest)  # a decrement demands a token


class ReductionBundle(Record):
    """Everything the translations need about one encoded machine.  The
    table is the entries' elements in order, then, if one halts, the
    elements of :data:`_DRAINS` and the finisher."""

    __slots__ = __match_args__ = ("signature", "machine", "init", "table", "goal")

    def __init__(
        self, signature: Signature, machine: Machine, init: Configuration, table: tuple[Formula, ...],
        goal: Context,
    ):
        fill(self, signature, machine, init, table, goal)


def encode_halting(m: Machine, init: Configuration) -> ReductionBundle:
    """Build the goal whose derivability matches halting from ``init``."""
    validate_machine(m)
    for name in sorted(m.states & RESERVED_ATOMS):
        raise AtomClash(f"state name {name!r} is reserved for the encoding")
    if init.state not in m.states:
        raise UnknownState(f"initial state {init.state!r} is not declared")
    if init.a < 0 or init.b < 0:
        raise ValueError("registers cannot be negative")
    table = tuple(map(entry_element, m.entries))
    if any(e.instruction == HALT for e in m.entries):
        table += (*map(entry_element, _DRAINS), _FINISHER)
    goal = tuple(Qm(LABEL_INF, f) for f in table) + encode_config(init)
    return ReductionBundle(encoding_signature(), m, init, table, goal)


#: The promotion side of a decrement: the focused bang keeps the lone
#: register token, whose negated atom then meets the body.
_CONSUME_TOKEN = FProof(FBANG, kept=(0,), premises=(FProof(LDECIDE, principal=0, premises=(
    FProof(BLUR, premises=(FProof(DECIDE, principal=0, premises=(FProof(FINIT, principal=0),)),)),
)),))


class _Builder:
    """Builds the canonical certificate for a replayed halting run.

    Every spine sequent is recomputed through the checker's premise plans,
    so a spine head that does not apply fails loudly, and positions are
    read off the sequent itself: after the table the context holds only
    register tokens and one negated atom, the current state's or, once
    halt fired, the halt token's.  The closed side branches (``finit``,
    the inner ``ftensor`` and ``_CONSUME_TOKEN``) are not validated here:
    only :func:`~selogic.focusing.check_focused` catches a bug in them,
    which is why ``selogic synthesize`` checks what it builds.

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
        self.element_at = {e: i for i, e in enumerate(bundle.machine.entries + _DRAINS)}
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
        ids = [*map(id, fseq.context)]
        for drain, tok in zip(_DRAINS, (A_TOKEN, B_TOKEN)):
            for _ in range(ids.count(id(tok))):
                fseq = self._fire(fseq, drain)
        fseq = self._push(fseq, FProof(UDECIDE, principal=self.k - 1))  # the finisher
        t = FProof(FTENSOR, kept=(), split=(self._anchor(fseq),))
        fseq = self._push(fseq, t, FProof(FINIT, principal=0))
        fseq = self._push(fseq, FProof(FBANG, kept=()))
        self._push(fseq, FProof(DECIDE, principal=0))
        proof = FProof(FONE)
        for head, left in reversed(self.spine):
            proof = FProof(head.rule, head.principal, head.split, head.kept, (*left, proof))
        return proof

    def _fire(self, fseq: Sequent, e: Entry) -> Sequent:
        """Put the steps of firing ``e``'s element on the spine, shaped by
        its instruction's guard and register change."""
        guard = instruction_row(e.instruction)[0]
        fseq = self._push(fseq, FProof(UDECIDE, principal=self.element_at[e]))
        if guard is not None and not guard[1]:
            # a decrement: a nested tensor consumes the register's first
            # token plus the anchor atom's negation, and the right branch
            # resumes with a fresh anchor negation appended
            t_pos, a_pos = self._token(fseq, _TOKENS[guard[0]]), self._anchor(fseq)
            outer = FProof(FTENSOR, kept=(), split=tuple(sorted((a_pos, t_pos))))
            # the left premise holds the anchor and the token in context order
            split = (int(t_pos < a_pos),)
            left = FProof(FTENSOR, None, split, (), (FProof(FINIT, principal=0), _CONSUME_TOKEN))
            return self._push(self._push(fseq, outer, left), FProof(BLUR))
        t = FProof(FTENSOR, kept=(), split=(self._anchor(fseq),))
        rf = self._push(fseq, t, FProof(FINIT, principal=0))
        if guard is not None:  # a zero test
            return self._push(rf, FProof(FBANG, kept=tuple(range(len(rf.context)))))
        rf = self._push(rf, FProof(BLUR))
        if e.instruction == HALT:
            return rf
        return self._push(rf, FProof(PAR, principal=len(rf.context) - 1))  # an increment


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
        c = apply_entry(m, e, c)
    if c != target:
        raise TraceMismatch("trace stops before the halting configuration")
    return _Builder(bundle).certificate(fired)


def trace_from_proof(bundle: ReductionBundle, proof: FProof) -> tuple[str, ...]:
    """Check a certificate and read the instruction sequence back out of it.

    Every udecide in a certificate for an encoded goal focuses some table
    element; those carrying machine entries yield their mnemonics, the
    drains and the finisher are bookkeeping and yield nothing.  The steps of
    a run cannot spread over parallel branches — each one consumes the
    unique state atom — so the mnemonics concatenate along a single spine.
    The check is :func:`~selogic.focusing.check_focused`'s walk.  A
    certificate it rejects raises :class:`MalformedCertificate` caused by
    the :class:`CheckError`, never a complaint about its steps: the branch
    of a step fired off the spine, which no state atom reaches, never
    checks in full.
    """
    sig = bundle.signature
    # a checked walk's contexts hold only the goal's own objects and their
    # parts; inf is the only unbounded label and no table element contains
    # a ?inf, so every udecide principal is a goal element, found by identity
    element_ids = [*map(id, bundle.goal[: len(bundle.table)])]
    names = [e.instruction for e in bundle.machine.entries]

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
                if id(f) not in element_ids:
                    raise MalformedCertificate(
                        "udecide focuses a formula outside the instruction table"
                    )
                j = element_ids.index(id(f))
                if j < len(names):  # an entry's element, not a drain or the finisher
                    if here != last:
                        raise MalformedCertificate(
                            "instruction steps spread across parallel branches"
                        )
                    out.append(names[j])
                    here = last = i
            nearest.append(here)
    except CheckError as e:
        raise MalformedCertificate(f"not a certificate for this goal: {e}") from e
    if not out or out[-1] != HALT:
        raise MalformedCertificate("certificate never fires a halt instruction")
    return tuple(out)
