"""Desequentialization as a walk of the proof tree alone, as it was before
the package built nets through one builder that both the tree walk and the
text reader feed; kept as the reference of that builder: both must give
the same net, with the same ids in the same dict orders.

It also gives the scope of each bot rule, which the package does not keep.
Node and arc ids are allocated premises first, so the ids allocated while
a bot rule's premise sub-proof was built form a range that starts at the
id current at the bot's '(' and ends at the bot node: its ids that are
still nodes are the nodes built from the premise sub-proof.  The
jump-aware relation between proofs and jump-total structures
(`proof_permutations.deseq_relation_holds`) checks jump targets against
those scopes.
"""

from proofnets.formulas import BOT as BOT_F, ONE as ONE_F, Formula
from proofnets.sequent import (AX_RULE, BOT_RULE, EX_RULE, ONE_RULE, PAR_RULE, TENSOR_RULE,
                               SequentProof)
from proofnets.structure import AX, BOT, CUT, DOT, ONE, PAR, TENSOR, ProofStructure


def desequentialize(proof: SequentProof) -> tuple[ProofStructure, dict[int, range]]:
    """The typed structure of a proof and the scope of each of its bot
    rules, by the bot node's id."""
    next_id = 0
    nodes: dict[int, str] = {}
    arcs: dict[int, tuple[int, int]] = {}
    premise_order: dict[int, tuple[int, int]] = {}
    types: dict[int, Formula] = {}
    bot_scopes: dict[int, range] = {}

    def fresh():
        nonlocal next_id
        next_id += 1
        return next_id - 1

    def conclude(node, dot_node, f) -> int:
        a = fresh()
        nodes[dot_node] = DOT
        arcs[a] = (node, dot_node)
        types[a] = f
        return a

    def plug(arc, node):
        """Re-head a conclusion arc from its dot onto `node`."""
        tail, dot = arcs[arc]
        del nodes[dot]
        arcs[arc] = (tail, node)

    # A rule with premises is visited twice on an explicit stack: before
    # them, to note where a bot rule's scope starts, and after them, to add
    # its own nodes.  Ids are thus allocated premises first.  A run of
    # exchanges is one list of swaps, applied in place once the premise of
    # the run is built.
    built: list[list[int]] = []  # conclusions of the finished subproofs
    stack: list = [(proof, None)]  # (p, next_id when p's premises began or None)
    while stack:
        top = stack.pop()
        if type(top) is list:  # the swaps of a run, the innermost last
            c = built[-1]
            for i in reversed(top):
                c[i], c[i + 1] = c[i + 1], c[i]
            continue
        p, start = top
        if p.rule == EX_RULE:
            swaps = []
            while p.rule == EX_RULE:
                swaps.append(p.arg)
                p = p.premises[0]
            stack += (swaps, (p, None))
            continue
        if start is None and p.premises:
            stack.append((p, next_id))
            stack.extend([(q, None) for q in reversed(p.premises)])
            continue
        if p.rule == AX_RULE:
            ax, d1, d2 = fresh(), fresh(), fresh()
            nodes[ax] = AX
            built.append([conclude(ax, d1, p.conclusion[0]),
                          conclude(ax, d2, p.conclusion[1])])
        elif p.rule == ONE_RULE:
            one, d = fresh(), fresh()
            nodes[one] = ONE
            built.append([conclude(one, d, ONE_F)])
        elif p.rule == BOT_RULE:
            b, d = fresh(), fresh()
            nodes[b] = BOT
            bot_scopes[b] = range(start, b)
            built[-1].append(conclude(b, d, BOT_F))
        elif p.rule == PAR_RULE:
            c1 = built[-1]
            right, left = c1.pop(), c1.pop()
            node, d = fresh(), fresh()
            for arc in (left, right):
                plug(arc, node)
            nodes[node] = PAR
            premise_order[node] = (left, right)
            c1.append(conclude(node, d, p.conclusion[-1]))
        else:  # binary rules joining two structures
            c2 = built.pop()
            c1 = built[-1]
            left, right = c1.pop(), c2[0]
            node = fresh()
            for arc in (left, right):
                plug(arc, node)
            if p.rule == TENSOR_RULE:
                d = fresh()
                nodes[node] = TENSOR
                premise_order[node] = (left, right)
                c1.append(conclude(node, d, p.conclusion[p.premises[0].length - 1]))
            else:
                nodes[node] = CUT
            c1 += c2[1:]

    conclusions = tuple(built.pop())
    ps = ProofStructure._adopt(nodes, arcs, premise_order, conclusions, types, {})
    return ps, bot_scopes
