"""Re-indexing an unfocused proof under a permutation of its context.

Only tests use it: criterion 3 moves lawful mutants onto the reversed
context, and two unit tests check that derivability depends only on the
multiset.  It runs on the same premise plans as the checker.
"""

from selogic.formulas import Context, Sequent
from selogic.signatures import Signature
from selogic.unfocused import NO_FOCUS, Occurrence, UProof, assemble, materialize, premise_plans


def permute_proof(sig: Signature, ctx: Context, proof: UProof, perm: tuple[int, ...]) -> UProof:
    """Re-index ``proof`` so it checks against the permuted context
    ``tuple(ctx[p] for p in perm)``.

    ``perm`` lists, for each new position, the old position it draws from.
    Each premise's induced permutation is read off by moving one
    :class:`Occurrence` per conclusion position through the old and the new
    node's plans; a contraction's original and copy share an occurrence and
    keep their order.  One explicit-stack pass visits the nodes in
    pre-order, each with its old sequent and permutation, and
    :func:`assemble` builds the result.
    """
    order: list[tuple[list, int]] = []
    pending = [(Sequent(ctx), proof, perm)]
    while pending:
        seq, proof, perm = pending.pop()
        inv = [0] * len(perm)
        for new, old in enumerate(perm):
            inv[old] = new
        new_head = (
            proof.rule,
            None if proof.principal is None else inv[proof.principal],
            None if proof.pair is None else (inv[proof.pair[0]], inv[proof.pair[1]]),
            None if proof.split is None else tuple(sorted(inv[i] for i in proof.split)),
        )
        permuted = ((("pick", perm),), NO_FOCUS)
        old_plans = premise_plans(sig, seq, proof)
        new_plans = premise_plans(sig, materialize(permuted, seq), UProof(*new_head))
        tags = Sequent(tuple(map(Occurrence, seq.context)))
        new_tags = materialize(permuted, tags)
        order.append(([new_head], len(proof.premises)))
        for k in range(len(proof.premises) - 1, -1, -1):
            slots: dict[Occurrence, list[int]] = {}
            for j, tag in enumerate(materialize(old_plans[k], tags).context):
                slots.setdefault(tag, []).append(j)
            sub_perm = tuple(slots[tag].pop(0) for tag in materialize(new_plans[k], new_tags).context)
            pending.append((materialize(old_plans[k], seq), proof.premises[k], sub_perm))
    return assemble(order)
