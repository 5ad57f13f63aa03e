"""Cut elimination as graph rewriting.

Three step shapes exist.  An axiom step erases an ax/cut pair and splices
the two outer arcs into one; it requires the shared arc to be the only
directed path between the two nodes, which rules out the closed loop where
both ax conclusions feed the same cut.  A unit step erases a one/bot/cut
triple.  A multiplicative step replaces a tensor/par/cut triple by two cuts
pairing the premises sidewise.  Every step removes exactly two arcs, which
makes the rewriting terminating; cut nodes matching none of the shapes are
clashes and simply stay.

Jump maps do not survive rewriting in any principled way, so reduction
works on the jump-stripped structure and normal forms come back jump-free.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from .errors import RedexError
from .formulas import negate
from .structure import (AX, BOT, CUT, ONE, PAR, TENSOR, ProofStructure,
                        ensure_valid)

AXIOM_CUT = "axiom"
UNIT_CUT = "unit"
MULTIPLICATIVE_CUT = "multiplicative"


@dataclass(frozen=True)
class Redex:
    cut_node: int
    kind: str
    participants: tuple[int, ...]  # premise-source nodes, displayed one first


def _unique_descent_path(ps: ProofStructure, ax: int, cut: int, shared: int) -> bool:
    """True when the shared arc is the only directed path from ax to cut."""
    outgoing = ps.incidence()[1]
    seen = set()
    stack = [ps.head(a) for a in outgoing[ax] if a != shared]
    while stack:
        n = stack.pop()
        if n == cut:
            return False
        if n in seen:
            continue
        seen.add(n)
        stack.extend(ps.head(a) for a in outgoing[n])
    return True


def _classify(ps: ProofStructure, cut: int) -> Redex | None:
    """The redex at a cut node, or None when the cut is a clash."""
    sources = [(ps.tail(a), a) for a in ps.premises_of(cut)]
    labels = {ps.nodes[n] for n, _ in sources}
    ax_sides = [(n, a) for n, a in sources
                if ps.nodes[n] == AX and _unique_descent_path(ps, n, cut, a)]
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


def find_redexes(ps: ProofStructure) -> tuple[list[Redex], list[int]]:
    """Classify every cut node as one redex or a clash."""
    redexes: list[Redex] = []
    clashes: list[int] = []
    for cut in ps.nodes_with_label(CUT):
        redex = _classify(ps, cut)
        if redex is None:
            clashes.append(cut)
        else:
            redexes.append(redex)
    return redexes, clashes


def reduce_step(ps: ProofStructure, redex: Redex) -> ProofStructure:
    """Apply one step; raises RedexError when the redex is stale."""
    if ps.nodes.get(redex.cut_node) != CUT or _classify(ps, redex.cut_node) != redex:
        raise RedexError(f"redex {redex} is not present")
    nodes, arcs, premise_order = dict(ps.nodes), dict(ps.arcs), dict(ps.premise_order)
    types = dict(ps.types) if ps.types is not None else None
    cut = redex.cut_node
    prem = ps.premises_of(cut)

    if redex.kind == AXIOM_CUT:
        ax_node = redex.participants[0]
        shared = next(a for a in prem if ps.tail(a) == ax_node)
        other_prem = next(a for a in prem if a != shared)
        outer = next(a for a in ps.conclusions_of(ax_node) if a != shared)
        if types is not None and types[outer] is not types[other_prem]:
            raise RedexError("axiom step would splice arcs of different types")
        # keep the outer arc (whose head survives); re-tail it
        arcs[outer] = (ps.tail(other_prem), ps.head(outer))
        removed_arcs, removed_nodes = (shared, other_prem), (ax_node, cut)
    elif redex.kind == UNIT_CUT:
        removed_arcs, removed_nodes = prem, (cut, *redex.participants)
    else:
        tensor_node, par_node = redex.participants
        t_left, t_right = premise_order[tensor_node]
        p_left, p_right = premise_order[par_node]
        if types is not None and types[p_left] is not negate(types[t_left]):
            raise RedexError("multiplicative step would cut non-dual premises")
        cut_a = ps.fresh_node_id()
        cut_b = cut_a + 1
        nodes[cut_a] = CUT
        nodes[cut_b] = CUT
        for arc, new_cut in ((t_left, cut_a), (p_left, cut_a),
                             (t_right, cut_b), (p_right, cut_b)):
            arcs[arc] = (ps.tail(arc), new_cut)
        removed_arcs, removed_nodes = prem, (cut, tensor_node, par_node)
    for a in removed_arcs:
        del arcs[a]
        if types is not None:
            del types[a]
    for n in removed_nodes:
        del nodes[n]
        premise_order.pop(n, None)

    out = ProofStructure(nodes, arcs, premise_order, ps.conclusions, types)
    ensure_valid(out)
    return out


@dataclass
class ReductionTrace:
    steps: list[tuple[str, int]]
    normal_form: ProofStructure

    def to_json_lines(self) -> str:
        return "\n".join(json.dumps({"kind": k, "cutNode": n}) for k, n in self.steps)


def normalize(ps: ProofStructure, seed: int | None = None) -> ReductionTrace:
    """Reduce until no redex remains (clashes may stay).

    The default strategy always picks the redex at the smallest cut node;
    a seed switches to reproducible random choices.
    """
    ensure_valid(ps)
    rng = random.Random(seed) if seed is not None else None
    current = ps.without_jumps()
    steps: list[tuple[str, int]] = []
    while True:
        redexes, _ = find_redexes(current)
        if not redexes:
            return ReductionTrace(steps, current)
        if rng is None:
            chosen = min(redexes, key=lambda r: r.cut_node)
        else:
            chosen = rng.choice(sorted(redexes, key=lambda r: r.cut_node))
        steps.append((chosen.kind, chosen.cut_node))
        current = reduce_step(current, chosen)


def replay(ps: ProofStructure, steps) -> ProofStructure:
    """Re-run a recorded trace; raises RedexError if it no longer applies."""
    current = ps.without_jumps()
    for kind, cut_node in steps:
        redexes, _ = find_redexes(current)
        match = [r for r in redexes if r.cut_node == cut_node and r.kind == kind]
        if not match:
            raise RedexError(f"recorded step ({kind}, {cut_node}) is not available")
        current = reduce_step(current, match[0])
    return current
