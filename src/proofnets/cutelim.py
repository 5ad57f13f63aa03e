"""Cut elimination as graph rewriting.

Three step shapes exist.  An axiom step erases an ax/cut pair and splices
the two outer arcs into one; it requires the shared arc to be the only
directed path between the two nodes: the ax's other conclusion may neither
feed the cut nor reach it (`structure.precedes`), which rules out the
closed loop where both ax conclusions feed the same cut.  A unit step
erases a one/bot/cut triple.  A multiplicative step replaces a
tensor/par/cut triple by two cuts pairing the premises sidewise.  Every
step removes exactly two arcs, which makes the rewriting terminating; cut
nodes matching none of the shapes are clashes and simply stay.

All steps run on one `_Net`: a private mutable copy of a structure with
in- and out-arc lists kept sorted by arc id.  `normalize` validates its
input, reduces on one net, and builds and validates one `ProofStructure`
at the end; `reduce_step` and `replay` run on the same reducer, and
`reduce_step` and `find_redexes` validate their input too.

`normalize` keeps a worklist: the redex (or None, for a clash) of every
cut, and the sorted list of cuts that are redexes.  After a step only the
cuts that step can change are classified again:

- a unit step erases an isolated one/bot/cut triple and changes no other
  cut;
- a multiplicative step re-heads the premises of a tensor and a par,
  whose only way down led to the erased cut, onto two new cuts: no other
  cut changes, and the two new cuts are classified;
- an axiom step re-tails the outer arc ax -> Y to X -> Y, where X is the
  tail of the cut's other premise.  Paths that met the ax or the cut met a
  dead end or a deleted node, so no path is lost, and the only new paths
  run from X into Y.  A cut's class depends on its premise sources and on
  which nodes reach it, so only cuts below Y can change.  Y has a premise,
  so it is not an ax; every non-ax node has at most one conclusion, so the
  nodes below Y form one chain, and the one cut that can change is the
  node ending that chain, if it is a cut.

So a step costs O(depth) instead of O(size); `find_redexes`, the full
scan, stays as the oracle the worklist is tested against.

Jump maps do not survive rewriting in any principled way, so reduction
works on the jump-stripped structure and normal forms come back jump-free.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass

from .errors import RedexError
from .formulas import negate
from .structure import (AX, BOT, CUT, ONE, PAR, TENSOR, ProofStructure,
                        descent_chain, ensure_valid, precedes)

AXIOM_CUT = "axiom"
UNIT_CUT = "unit"
MULTIPLICATIVE_CUT = "multiplicative"


@dataclass(frozen=True)
class Redex:
    cut_node: int
    kind: str
    participants: tuple[int, ...]  # premise-source nodes, displayed one first


class _Net:
    """A mutable, jump-free copy of a structure that reduction rewrites in
    place.  It answers the queries `_classify` and `precedes` make of a
    structure."""

    def __init__(self, ps: ProofStructure):
        self.nodes = dict(ps.nodes)
        self.arcs = dict(ps.arcs)
        self.premise_order = dict(ps.premise_order)
        self.conclusions = ps.conclusions
        self.types = dict(ps.types) if ps.types is not None else None
        ins, outs = ps.incidence()
        self._ins = {n: list(arcs) for n, arcs in ins.items()}
        self._outs = {n: list(arcs) for n, arcs in outs.items()}
        self._ids = sorted(self.nodes)  # ascending; dead ids leave lazily

    def incidence(self):
        return self._ins, self._outs

    def premises_of(self, node: int) -> list[int]:
        if node in self.premise_order:
            return list(self.premise_order[node])
        return list(self._ins[node])

    def conclusions_of(self, node: int) -> list[int]:
        return list(self._outs[node])

    def tail(self, arc: int) -> int:
        return self.arcs[arc][0]

    def head(self, arc: int) -> int:
        return self.arcs[arc][1]

    def fresh_node_id(self) -> int:
        """The largest live node id plus one, as ProofStructure counts it."""
        ids = self._ids
        while ids and ids[-1] not in self.nodes:
            ids.pop()
        return ids[-1] + 1 if ids else 0

    def add_node(self, n: int, label: str) -> None:
        self.nodes[n] = label
        self._ins[n], self._outs[n] = [], []
        self._ids.append(n)  # callers add ids above every live one

    def move_arc(self, arc: int, tail: int, head: int) -> None:
        old_tail, old_head = self.arcs[arc]
        self.arcs[arc] = (tail, head)
        if tail != old_tail:
            self._outs[old_tail].remove(arc)
            bisect.insort(self._outs[tail], arc)
        if head != old_head:
            self._ins[old_head].remove(arc)
            bisect.insort(self._ins[head], arc)

    def remove_arc(self, arc: int) -> None:
        tail, head = self.arcs.pop(arc)
        self._outs[tail].remove(arc)
        self._ins[head].remove(arc)
        if self.types is not None:
            del self.types[arc]

    def remove_node(self, n: int) -> None:
        del self.nodes[n], self._ins[n], self._outs[n]
        self.premise_order.pop(n, None)

    def freeze(self) -> ProofStructure:
        """The structure the net now holds, validated.  The net hands its
        dicts over, so it must not be rewritten afterwards."""
        out = ProofStructure._adopt(self.nodes, self.arcs, self.premise_order,
                                    self.conclusions, self.types, {})
        ensure_valid(out)
        return out


def _classify(ps, cut: int) -> Redex | None:
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


def find_redexes(ps: ProofStructure) -> tuple[list[Redex], list[int]]:
    """Classify every cut node of a valid structure as one redex or a clash;
    raises ValidationError on an invalid one."""
    ensure_valid(ps)
    redexes: list[Redex] = []
    clashes: list[int] = []
    for cut in ps.nodes_with_label(CUT):
        redex = _classify(ps, cut)
        if redex is None:
            clashes.append(cut)
        else:
            redexes.append(redex)
    return redexes, clashes


def _apply(net: _Net, redex: Redex) -> list[int]:
    """Rewrite one current redex in place and return the other cuts whose
    class the step may have changed (see the module docstring).  Raises
    RedexError, leaving the net as it was, when types forbid the step."""
    types = net.types
    cut = redex.cut_node
    prem = net.premises_of(cut)

    if redex.kind == AXIOM_CUT:
        ax_node = redex.participants[0]
        shared = next(a for a in prem if net.tail(a) == ax_node)
        other_prem = next(a for a in prem if a != shared)
        outer = next(a for a in net.conclusions_of(ax_node) if a != shared)
        if types is not None and types[outer] is not types[other_prem]:
            raise RedexError("axiom step would splice arcs of different types")
        # keep the outer arc (whose head survives); re-tail it
        net.move_arc(outer, net.tail(other_prem), net.head(outer))
        removed_arcs, removed_nodes = (shared, other_prem), (ax_node, cut)
        head = net.head(outer)
        end = ([head] + descent_chain(net, head))[-1]
        touched = [end] if net.nodes[end] == CUT else []
    elif redex.kind == UNIT_CUT:
        removed_arcs, removed_nodes = prem, (cut, *redex.participants)
        touched = []
    else:
        tensor_node, par_node = redex.participants
        t_left, t_right = net.premise_order[tensor_node]
        p_left, p_right = net.premise_order[par_node]
        if types is not None and types[p_left] is not negate(types[t_left]):
            raise RedexError("multiplicative step would cut non-dual premises")
        cut_a = net.fresh_node_id()
        cut_b = cut_a + 1
        net.add_node(cut_a, CUT)
        net.add_node(cut_b, CUT)
        for arc, new_cut in ((t_left, cut_a), (p_left, cut_a),
                             (t_right, cut_b), (p_right, cut_b)):
            net.move_arc(arc, net.tail(arc), new_cut)
        removed_arcs, removed_nodes = prem, (cut, tensor_node, par_node)
        touched = [cut_a, cut_b]
    for a in removed_arcs:
        net.remove_arc(a)
    for n in removed_nodes:
        net.remove_node(n)
    return touched


def reduce_step(ps: ProofStructure, redex: Redex) -> ProofStructure:
    """Apply one step to a valid structure; raises ValidationError on an
    invalid one and RedexError when the redex is stale."""
    ensure_valid(ps)
    if ps.nodes.get(redex.cut_node) != CUT or _classify(ps, redex.cut_node) != redex:
        raise RedexError(f"redex {redex} is not present")
    net = _Net(ps)
    _apply(net, redex)
    return net.freeze()


@dataclass
class ReductionTrace:
    steps: list[tuple[str, int]]
    normal_form: ProofStructure

    def to_json_lines(self) -> str:
        """One `json.dumps({"kind": ..., "cutNode": ...})` text per step;
        kinds are plain ASCII and cut nodes are ints, so a template gives
        the same bytes."""
        return "\n".join([f'{{"kind": "{k}", "cutNode": {n}}}' for k, n in self.steps])


def normalize(ps: ProofStructure, seed: int | None = None) -> ReductionTrace:
    """Reduce until no redex remains (clashes may stay).

    The default strategy always picks the redex at the smallest cut node;
    a seed switches to reproducible random choices among the redex cuts in
    ascending order.
    """
    ensure_valid(ps)
    rng = random.Random(seed) if seed is not None else None
    net = _Net(ps)
    redex_at = {cut: _classify(net, cut) for cut in ps.nodes_with_label(CUT)}
    pending = [cut for cut, redex in redex_at.items() if redex is not None]
    steps: list[tuple[str, int]] = []
    while pending:
        cut = pending[0] if rng is None else rng.choice(pending)
        pending.remove(cut)
        redex = redex_at.pop(cut)
        steps.append((redex.kind, cut))
        for other in _apply(net, redex):
            if redex_at.get(other) is not None:
                pending.remove(other)
            redex_at[other] = _classify(net, other)
            if redex_at[other] is not None:
                bisect.insort(pending, other)
    return ReductionTrace(steps, net.freeze())


def replay(ps: ProofStructure, steps) -> ProofStructure:
    """Re-run a recorded trace; raises RedexError if it no longer applies."""
    ensure_valid(ps)
    net = _Net(ps)
    for kind, cut_node in steps:
        redex = _classify(net, cut_node) if net.nodes.get(cut_node) == CUT else None
        if redex is None or redex.kind != kind:
            raise RedexError(f"recorded step ({kind}, {cut_node}) is not available")
        _apply(net, redex)
    return net.freeze()
