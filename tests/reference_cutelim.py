"""Cut classification as it was before it walked descent chains, kept as
the reference of `cutelim._classify`: both must give the same redex, or
None, on every cut of a valid structure or reducer net.

This one takes the premises through `premises_of` and decides the axiom
test with `precedes`, the general depth-first search, so it leans on
neither fact the fast one does: that the nodes below a non-ax node form
one chain, and that the incidence lists are what they claim.
`descent_chain` lists that chain, for the tests that compare the two.
"""

from proofnets.cutelim import AXIOM_CUT, MULTIPLICATIVE_CUT, UNIT_CUT, Redex
from proofnets.structure import AX, BOT, ONE, PAR, TENSOR


def precedes(ps, n, m):
    """True iff a non-empty directed path runs from n down to m.  Only
    `arcs` and the out-arcs of `incidence()` are read, so cut elimination's
    private net answers it too."""
    outgoing, arcs = ps.incidence()[1], ps.arcs
    seen = set()
    stack = [n]
    while stack:
        cur = stack.pop()
        for a in outgoing.get(cur, ()):
            h = arcs[a][1]
            if h == m:
                return True
            if h not in seen:
                seen.add(h)
                stack.append(h)
    return False


def descent_chain(ps, n):
    """Nodes strictly below n, in order, for nodes with at most one
    conclusion arc all the way down (holds below any non-ax node)."""
    chain = []
    cur = n
    while True:
        out = ps.conclusions_of(cur)
        if not out:
            return chain
        if len(out) > 1:
            raise ValueError(f"node {cur} has several conclusions; descent is not a chain")
        cur = ps.head(out[0])
        chain.append(cur)


def classify(ps, cut):
    """The redex at a cut node, or None when the cut is a clash."""
    sources = [(ps.tail(a), a) for a in ps.premises_of(cut)]
    labels = {ps.nodes[n] for n, _ in sources}
    outgoing = ps.incidence()[1]
    ax_sides = []
    for n, a in sources:
        if ps.nodes[n] == AX:
            # the ax's other conclusion may neither feed the cut nor reach it
            below = next(ps.arcs[b][1] for b in outgoing[n] if b != a)
            if below != cut and not precedes(ps, below, cut):
                ax_sides.append((n, a))
    if ax_sides:
        ax_node, shared = min(ax_sides)
        other = next(n for n, a in sources if a != shared)
        return Redex(cut, AXIOM_CUT, (ax_node, other))
    if labels == {ONE, BOT}:
        one_node = next(n for n, _ in sources if ps.nodes[n] == ONE)
        bot_node = next(n for n, _ in sources if ps.nodes[n] == BOT)
        return Redex(cut, UNIT_CUT, (one_node, bot_node))
    if labels == {TENSOR, PAR}:
        tensor_node = next(n for n, _ in sources if ps.nodes[n] == TENSOR)
        par_node = next(n for n, _ in sources if ps.nodes[n] == PAR)
        return Redex(cut, MULTIPLICATIVE_CUT, (tensor_node, par_node))
    return None
