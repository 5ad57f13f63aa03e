"""Cut elimination as graph rewriting.

Three step shapes exist.  An axiom step erases an ax/cut pair and splices
the two outer arcs into one; it requires the shared arc to be the only
directed path between the two nodes: the ax's other conclusion may neither
feed the cut nor reach it, which rules out the closed loop where both ax
conclusions feed the same cut.  A unit step erases a one/bot/cut triple.
A multiplicative step replaces a tensor/par/cut triple by two cuts pairing
the premises sidewise.  Every step removes exactly two arcs, which makes
the rewriting terminating; cut nodes matching none of the shapes are
clashes and simply stay.

All steps run on one `_Net`: a private mutable copy of a structure with
in- and out-arc lists kept sorted by arc id, which starts from the input's
own lists and replaces, never writes into, the lists a step changes.
`normalize` validates its input, reduces on one net, and builds and
validates one `ProofStructure` at the end; that structure adopts the net's
lists as its incidence index, so the final validation reads the reducer's
own bookkeeping.
`reduce_step` and `replay` run on the same reducer, and `reduce_step` and
`find_redexes` validate their input too.

Every query reads `arcs`, `nodes` and the incidence index directly, on a
net as on a structure.  In a valid structure every non-ax node has at most
one conclusion, so the nodes below a non-ax node form one chain, and a
directed path runs from it to a node m exactly when m lies on that chain,
so no general path search is needed.  The axiom test walks the chain
below the ax's other conclusion: a cut has no conclusion, so the walk ends
at the cut exactly when that conclusion feeds or reaches it.

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
from .structure import AX, BOT, CUT, ONE, PAR, TENSOR, ProofStructure, ensure_valid

AXIOM_CUT = "axiom"
UNIT_CUT = "unit"
MULTIPLICATIVE_CUT = "multiplicative"


class Redex:
    """A cut one step can reduce: its node, the step kind, and the
    premise-source nodes, displayed one first.  An immutable value: equal
    fields give equal redexes and equal hashes."""

    __slots__ = ("cut_node", "kind", "participants")

    cut_node: int
    kind: str
    participants: tuple[int, ...]

    def __init__(self, cut_node: int, kind: str, participants: tuple[int, ...]):
        _set_cut_node(self, cut_node)
        _set_kind(self, kind)
        _set_participants(self, participants)

    def __setattr__(self, name, value):
        raise AttributeError(f"Redex is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Redex is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not Redex:
            return NotImplemented
        return (self.cut_node == other.cut_node and self.kind == other.kind
                and self.participants == other.participants)

    def __hash__(self):
        return hash((self.cut_node, self.kind, self.participants))

    def __reduce__(self):
        return Redex, (self.cut_node, self.kind, self.participants)

    def __repr__(self):
        return (f"Redex(cut_node={self.cut_node!r}, kind={self.kind!r}, "
                f"participants={self.participants!r})")


# the slot setters, which bypass the immutable __setattr__
_set_cut_node, _set_kind, _set_participants = (
    Redex.__dict__[slot].__set__ for slot in Redex.__slots__)


class _Net:
    """A mutable, jump-free copy of a structure that reduction rewrites in
    place.  Like a structure, it has `nodes`, `arcs`, `incidence()`,
    `premises_of`, `tail` and `head`, so `_classify` and the other
    structure queries read it as they read a structure.

    The in- and out-lists start as the input's own lists, which callers
    keep.  A rewrite never writes into a list: it replaces each list it
    changes by a new one, so only the lists of touched nodes are copied."""

    def __init__(self, ps: ProofStructure):
        self.nodes = dict(ps.nodes)
        self.arcs = dict(ps.arcs)
        self.premise_order = dict(ps.premise_order)
        self.conclusions = ps.conclusions
        self.types = dict(ps.types) if ps.types is not None else None
        ins, outs = ps.incidence()
        self._ins, self._outs = dict(ins), dict(outs)
        self._ids = sorted(self.nodes)  # ascending; dead ids leave lazily

    def incidence(self):
        return self._ins, self._outs

    def premises_of(self, node: int) -> list[int]:
        if node in self.premise_order:
            return list(self.premise_order[node])
        return list(self._ins[node])

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
            _replace(self._outs, old_tail, arc, None)
            _replace(self._outs, tail, None, arc)
        if head != old_head:
            _replace(self._ins, old_head, arc, None)
            _replace(self._ins, head, None, arc)

    def remove_arc(self, arc: int) -> None:
        tail, head = self.arcs.pop(arc)
        _replace(self._outs, tail, arc, None)
        _replace(self._ins, head, arc, None)
        if self.types is not None:
            del self.types[arc]

    def remove_node(self, n: int) -> None:
        del self.nodes[n], self._ins[n], self._outs[n]
        self.premise_order.pop(n, None)

    def freeze(self) -> ProofStructure:
        """The structure the net now holds, validated.  The net hands its
        dicts and its in- and out-lists over, the lists as the structure's
        incidence index: they hold exactly the live nodes, each list sorted
        by arc id.  So the net must not be rewritten afterwards."""
        out = ProofStructure._adopt(self.nodes, self.arcs, self.premise_order,
                                    self.conclusions, self.types, {})
        out._index = (self._ins, self._outs)
        ensure_valid(out)
        return out


def _replace(lists: dict[int, list[int]], n: int, old: int | None, new: int | None) -> None:
    """Give node n, unless it is erased, a new arc list: its old one less
    `old`, plus `new` in arc order, where None stands for no arc."""
    if n not in lists:
        return
    arcs = [a for a in lists[n] if a != old]
    if new is not None:
        bisect.insort(arcs, new)
    lists[n] = arcs


def _chain_end(arcs, outgoing, n: int) -> int:
    """The last node of the descent chain from a non-ax node n of a valid
    structure: n itself when it has no conclusion."""
    out = outgoing[n]
    while out:
        n = arcs[out[0]][1]
        out = outgoing[n]
    return n


def _classify(ps, cut: int) -> Redex | None:
    """The redex at a cut node of a valid structure or net, or None when
    the cut is a clash.

    An ax side qualifies when the chain below the ax's other conclusion
    does not end at the cut (see the module docstring); of two qualifying
    sides, the one with the smaller (node, arc) pair is taken.
    """
    arcs, nodes = ps.arcs, ps.nodes
    ins, outs = ps.incidence()
    a, b = ins[cut]
    m, n = arcs[a][0], arcs[b][0]
    if n < m:  # sides in (node, arc) order; equal nodes come in arc order
        m, n, a, b = n, m, b, a
    lm, ln = nodes[m], nodes[n]
    for side, shared, other in ((m, a, n), (n, b, m)):
        if nodes[side] == AX:
            c, d = outs[side]
            below = arcs[d if c == shared else c][1]
            if _chain_end(arcs, outs, below) != cut:
                return Redex(cut, AXIOM_CUT, (side, other))
    if lm == ONE and ln == BOT:
        return Redex(cut, UNIT_CUT, (m, n))
    if lm == BOT and ln == ONE:
        return Redex(cut, UNIT_CUT, (n, m))
    if lm == TENSOR and ln == PAR:
        return Redex(cut, MULTIPLICATIVE_CUT, (m, n))
    if lm == PAR and ln == TENSOR:
        return Redex(cut, MULTIPLICATIVE_CUT, (n, m))
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
    RedexError, leaving the net as it was, when types forbid the step.

    On a net copied from a valid structure types never forbid a step: an
    ax's two conclusions are dual, and so are a cut's premises and, by the
    connective typing, a cut tensor's and par's premises side by side.
    The checks guard a net copied from an invalid structure."""
    types, arcs = net.types, net.arcs
    cut = redex.cut_node
    prem = net._ins[cut]
    moves = []  # (arc, new tail, new head)

    if redex.kind == AXIOM_CUT:
        ax_node = redex.participants[0]
        # the other premise comes from another node: an ax whose conclusions
        # both feed the cut is a clash
        shared, other_prem = prem if arcs[prem[0]][0] == ax_node else reversed(prem)
        c, d = net._outs[ax_node]
        outer = d if c == shared else c
        if types is not None and types[outer] is not types[other_prem]:
            raise RedexError("axiom step would splice arcs of different types")
        # keep the outer arc (whose head survives); re-tail it
        head = arcs[outer][1]
        moves.append((outer, arcs[other_prem][0], head))
        removed_arcs, removed_nodes = (shared, other_prem), (ax_node, cut)
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
            moves.append((arc, arcs[arc][0], new_cut))
        removed_arcs, removed_nodes = prem, (cut, tensor_node, par_node)
        touched = [cut_a, cut_b]
    # the erased nodes go first, so that only the lists of surviving nodes
    # are rewritten
    for n in removed_nodes:
        net.remove_node(n)
    for move in moves:
        net.move_arc(*move)
    for a in removed_arcs:
        net.remove_arc(a)
    if redex.kind == AXIOM_CUT:
        end = _chain_end(arcs, net._outs, head)
        touched = [end] if net.nodes[end] == CUT else []
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
