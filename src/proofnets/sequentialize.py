"""Sequentialization: from structures back to sequent proofs.

One skeleton, `_sequentialize`, serves all three modes.  It peels a terminal
bot or par node or splits at a terminal cut or tensor node; each mode's plan
checks the structure and passes the policy that picks the node.  At each move
it hands the move's rules to a sink in print order: the exchanges that
restore the part's conclusion order, outermost first, then the rule at the
node, named by its label and checked by `sequent`'s one rule check; the
rules of the node's parts follow.  One table, `_MODES`, gives each mode its
plan and its proof header, and one runner, `_run`, serves the entry points
with one of two sinks: the text writer of `sequent`, through which
`sequentialize_text` (the CLI's path, in all three modes) prints a proof
file with no proof tree, and the proof sink behind the public
`sequentialize_*` functions.  `sequentialize_wten` takes any structure, typed
or not, that is erasing-safe and passes the acyclicity-plus-count
criterion.  `sequentialize_btenll` peels terminal erasing nodes first, so
that the proof of a bottom-restricted structure realizes its canonical
jumps; `sequentialize_icomll` lets polarity (one `arc_polarities` map)
choose in the constant-only intuitionistic fragment.  Both pass one fragment
gate, `_require`, and return the proof and the jumped structure, whose
canonical jumps one bottom-up pass, `_jump_bots`, attaches, so their cost is
linear in the nesting depth.  `nets_equivalent` decides proof equivalence on
two desequentialized nets, for `proofs_equivalent` and the CLI alike;
`rewiring_equivalent` decides jump rewiring equivalence of `jump_correct`
structures.  `split_parts` cuts out the two sub-structures of a split as
copies; no sequentializer calls it.  The exhaustive decomposition oracle,
which does, is a test oracle outside the package.

The skeleton only reads the structure it is given, through its one
incidence index.  A part of the recursion is a `_Part`: a set of non-dot
nodes, a tuple of conclusion arcs and the set of terminal nodes.  Parts
are closed: every premise of a node in a part comes from the part, and
the conclusions of a part are exactly the arcs leaving it, since a peel
removes one terminal node and a split keeps whole components of the
part less the split node.  So a node is terminal exactly when no
conclusion arc of it ends in the part, and a move changes that only for
the tails of the arcs it turns into conclusions: a peeled par's two
premises, a split node's premise on each side.  Every other node keeps
its status.  For the same reason a part keeps every node above each of
its nodes, so a node's erasing status, which depends only on the nodes
above it, is the same in every part as in the whole structure, and the
bottom-restricted policy computes the erasing set once.

No move searches a whole part.  The nodes next to a terminal cut, tensor
or par node n in its part are the tails of its two premises, so the
component of n less n falls into one or two components, each holding a
tail.  `_lockstep` searches from both tails, one node each in turn (the
decremental connectivity search of S. Even and Y. Shiloach, JACM 28(1),
1981): when the two searches meet, n's component stays whole; when one
closes first, it has found a whole component, and the rest of n's
component is the other one.  The closed side has at most one node more
than the other, so along any sequence of splits a node is searched
O(log n) times (compare S. Guerrini's linear-time MLL sequentialization,
TCS 412(20), 2011).  Each part counts its components: a terminal bot is a component of
its own, so its peel lowers the count by one; a par's peel raises it by
one when the search from its premise tails closes a side; a split keeps
the count of the rest and gives the closed side one.  A split is
determined only when the part less n has exactly two components holding
one tail each, so in a part of several components no split is determined
and none is searched for; there, an icomll input tensor whose input side
closes first searches its output side alone, as it is only one component
of the rest.  The closed side leaves the part as a new part; the rest of
the part is trimmed in place and keeps its terminal heaps, one per policy
class, where the nodes that left the part are dropped as they surface.
"""

from __future__ import annotations

import functools
import heapq
from collections import deque
from dataclasses import dataclass, field

from .canonical import iso
from .errors import (FragmentError, SequentializationError, TypeInferenceError)
from .formulas import (ATOM, BOT as BOT_F, Formula, Fragment, ONE as ONE_F, atom,
                       negate)
from .structure import (AX, BOT, CUT, DOT, ONE, PAR, TENSOR, ProofStructure,
                        arc_polarities, ensure_valid, erasing_nodes,
                        induced_components, is_wten, jump_free, jump_total,
                        restrict, topological_order, validate)
from .sequent import (AX_RULE, TENSOR_RULE, DeseqResult, SequentProof,
                      _check_rule, _proof_sink, desequentialize, exchange_positions,
                      proof_file, text_writer)
from .switching import check


# -- type inference for untyped structures -----------------------------------


def infer_types(ps: ProofStructure) -> ProofStructure:
    """Assign formulas to every arc of an untyped structure.

    Each ax pair introduces a type variable and its dual; connectives and
    units determine everything else; cuts impose duality constraints solved
    by unification.  Left-over variables become fresh atoms.  Raises
    TypeInferenceError when no typing exists (clashing cuts, ax loops).

    Every atom the inference makes is a `?` variable, so two atoms that
    meet in unification are never both concrete, and no pair of distinct
    atoms needs to be rejected.  A type that would have to equal its own
    dual arises only on an invalid structure, such as a par whose premise
    order names one arc twice.
    """
    subst: dict[str, Formula] = {}

    def resolve(f: Formula) -> Formula:
        while f.kind == ATOM and f.name.startswith("?") and f.name in subst:
            bound = subst[f.name]
            f = negate(bound) if f.dual else bound
        return f

    def occurs(name: str, f: Formula) -> bool:
        stack = [f]
        while stack:
            g = resolve(stack.pop())
            if g.kind == ATOM and g.name == name:
                return True
            if g.left is not None:
                stack += (g.right, g.left)
        return False

    def unify(f: Formula, g: Formula) -> None:
        # pairs wait on an explicit stack, left sides above right sides, so
        # they are solved in the order of a recursive descent
        pairs = [(f, g)]
        while pairs:
            f, g = map(resolve, pairs.pop())
            if f is g:  # formulas are interned: the same tree is the same object
                continue
            if f.kind == ATOM and f.name.startswith("?"):
                if g is negate(f):
                    raise TypeInferenceError("a type would have to equal its own dual")
                target = negate(g) if f.dual else g
                if occurs(f.name, target):
                    raise TypeInferenceError("cyclic type constraint")
                subst[f.name] = target
            elif g.kind == ATOM and g.name.startswith("?"):
                pairs.append((g, f))
            elif f.kind != g.kind:
                raise TypeInferenceError("incompatible connectives at a cut")
            elif f.left is not None:
                pairs += ((f.right, g.right), (f.left, g.left))

    ty: dict[int, Formula] = {}
    var_count = 0
    for n in topological_order(ps):
        lab = ps.nodes[n]
        if lab == AX:
            first, second = sorted(ps.conclusions_of(n))
            var_count += 1
            ty[first] = atom(f"?{var_count}")
            ty[second] = atom(f"?{var_count}", dual=True)
        elif lab == ONE:
            ty[ps.conclusions_of(n)[0]] = ONE_F
        elif lab == BOT:
            ty[ps.conclusions_of(n)[0]] = BOT_F
        elif lab in (TENSOR, PAR):
            left, right = ps.premise_order[n]
            ty[ps.conclusions_of(n)[0]] = Formula(
                "tensor" if lab == TENSOR else "par", left=ty[left], right=ty[right])
    for n in ps.nodes_with_label(CUT):
        a, b = ps.premises_of(n)
        unify(ty[a], negate(ty[b]))

    fresh_names: dict[str, Formula] = {}
    concrete: dict[Formula, Formula] = {}  # every formula concretized so far

    def concretize(f: Formula) -> Formula:
        # left sides are finished before right sides, so variables are named
        # in the order of a recursive descent
        stack = [f]
        while stack:
            g = stack.pop()
            if g in concrete:
                continue
            r = resolve(g)
            if r.kind == ATOM and r.name.startswith("?"):
                if r.name not in fresh_names:
                    fresh_names[r.name] = atom(f"X{len(fresh_names) + 1}")
                base = fresh_names[r.name]
                concrete[g] = negate(base) if r.dual else base
            elif r.left is None:
                concrete[g] = r
            elif r.left in concrete and r.right in concrete:
                concrete[g] = Formula(r.kind, left=concrete[r.left], right=concrete[r.right])
            else:
                stack += (g, r.right, r.left)
        return concrete[f]

    typed = ps.copy()
    typed.types = {a: concretize(f) for a, f in ty.items()}
    return typed


# -- split parts ----------------------------------------------------------------


@dataclass(frozen=True)
class SplitAssignment:
    node: int
    left_nodes: frozenset[int]
    right_nodes: frozenset[int]


def split_parts(ps: ProofStructure, assignment: SplitAssignment
                ) -> tuple[ProofStructure, ProofStructure]:
    """Extract the two sub-structures of a split.

    The left part receives the first premise as its last conclusion, the
    right part receives the second premise as its first conclusion; the
    remaining conclusions keep their relative order.  Jumps are dropped.
    """
    first, second = ps.premises_of(assignment.node)
    left, right = assignment.left_nodes, assignment.right_nodes
    inherited = [tuple(c for c in ps.conclusions if ps.head(c) in side)
                 for side in (left, right)]
    base = ps.without_jumps()
    return (restrict(base, left, inherited[0] + (first,)),
            restrict(base, right, (second,) + inherited[1]))


# -- the in-place peel/split skeleton -------------------------------------------


@dataclass(slots=True)
class _Part:
    """One part of the recursion, over the structure being sequentialized:
    its non-dot nodes, its ordered conclusion arcs and its terminal nodes.
    `pieces` counts the connected components of its nodes; `fresh` lists
    the terminal nodes that no policy has sorted into `heaps` yet, and
    `heaps` holds a policy's min-heaps of terminal nodes, one per class,
    where a node that has left `terminal` is dropped when it surfaces."""

    nodes: set[int]
    conclusions: tuple[int, ...]
    terminal: set[int]
    pieces: int
    fresh: list[int] = field(default_factory=list)
    heaps: dict = field(default_factory=dict)


def _leaves_part(ps: ProofStructure, nodes: set[int], m: int) -> bool:
    """True when every conclusion arc of m leaves `nodes`, that is, when m
    is terminal in the part with that node set."""
    arcs = ps.arcs
    return all(arcs[a][1] not in nodes for a in ps.incidence()[1][m])


def _lockstep(ps: ProofStructure, nodes: set[int], n: int, *starts: int):
    """Breadth-first searches of `nodes` less n, one from each start, one
    node each in turn.  Returns the node sets the searches reached and the
    index of the one that closed first, or None when two of them met; a
    single search runs to its end."""
    arcs = ps.arcs
    incoming, outgoing = ps.incidence()
    found = tuple({s} for s in starts)
    if len(found) == 2 and starts[0] == starts[1]:
        return found, None
    others = found[::-1] if len(found) == 2 else (set(),)
    queues = [deque([s]) for s in starts]
    while True:
        for i, queue in enumerate(queues):
            if not queue:
                return found, i
            own, other, m = found[i], others[i], queue.popleft()
            for a in incoming[m] + outgoing[m]:
                t, h = arcs[a]
                x = h if t == m else t
                if x in own or x == n or x not in nodes:
                    continue
                if x in other:
                    return found, None
                own.add(x)
                queue.append(x)


def _add_terminal(ps: ProofStructure, part: _Part, m: int) -> None:
    """Record m as terminal in the part when its conclusions now leave it."""
    if m not in part.terminal and _leaves_part(ps, part.nodes, m):
        part.terminal.add(m)
        part.fresh.append(m)


def _peel_part(ps: ProofStructure, part: _Part, n: int) -> int:
    """Peel the terminal bot or par node n off the part, in place, and
    return the index its conclusion had; a par's two premises become the
    last conclusions.

    A terminal bot is a component of its own, so its peel lowers the
    component count by one.  A par's component less the par falls into
    the components of its two premise tails, one or two, and the lockstep
    search from both tails tells which."""
    part.nodes.discard(n)
    part.terminal.discard(n)
    conclusions = part.conclusions
    i = conclusions.index(ps.incidence()[1][n][0])
    conclusions = conclusions[:i] + conclusions[i + 1:]
    if ps.nodes[n] == PAR:
        premises = ps.premise_order[n]
        conclusions += premises
        tails = [ps.arcs[a][0] for a in premises]
        if _lockstep(ps, part.nodes, n, *tails)[1] is not None:
            part.pieces += 1
        for tail in tails:
            _add_terminal(ps, part, tail)
    else:
        part.pieces -= 1
    part.conclusions = conclusions
    return i


def _determined_sides(ps: ProofStructure, part: _Part, n: int):
    """The node set of one side of the split at the cut or tensor node n,
    when the part less n has exactly two components and the premises of n
    come from different ones; else None.

    In a connected part that is the side the lockstep search from the two
    premise tails closes before they meet.  A part of several components
    less n has another component besides the one or two that hold the
    tails, so no split of it is determined, and none is searched for."""
    first, second = ps.premises_of(n)
    if part.pieces != 1:
        return None
    found, side = _lockstep(ps, part.nodes, n, ps.arcs[first][0], ps.arcs[second][0])
    return None if side is None else found[side]


def _split_part(ps: ProofStructure, part: _Part, n: int,
                closed: set[int]) -> tuple[_Part, _Part]:
    """The two parts of the split at n, one with the node set `closed`,
    which is a component of the part less n, the other the rest of the
    part, trimmed in place.  The left one receives the first premise as its
    last conclusion, the right one the second premise as its first; the
    inherited conclusions keep their relative order."""
    arcs, outgoing = ps.arcs, ps.incidence()[1]
    first, second = ps.premises_of(n)
    closed_left = arcs[first][0] in closed
    closed_arc, rest_arc = (first, second) if closed_left else (second, first)
    # the closed side's conclusions are its arcs that leave it, but for the
    # one into n; they leave the part too
    index = part.conclusions.index
    inherited = sorted((a for m in closed for a in outgoing[m]
                        if a != closed_arc and arcs[a][1] not in closed), key=index)
    rest = list(part.conclusions)
    for i in sorted(map(index, inherited + outgoing[n]), reverse=True):
        del rest[i]
    terminal = {m for m in closed if m in part.terminal}
    side = _Part(closed, tuple(inherited), terminal, 1, list(terminal))
    part.nodes -= closed
    part.nodes.discard(n)
    part.terminal -= terminal
    part.terminal.discard(n)
    part.conclusions = tuple(rest)
    for p, arc, last in ((side, closed_arc, closed_left), (part, rest_arc, not closed_left)):
        p.conclusions = p.conclusions + (arc,) if last else (arc,) + p.conclusions
        _add_terminal(ps, p, arcs[arc][0])
    return (side, part) if closed_left else (part, side)


def _sorted_terminals(part: _Part, classify) -> dict:
    """The part's heaps, after sorting each fresh terminal node into the
    heap of its class `classify(m)`, unless that is None."""
    heaps = part.heaps
    for m in part.fresh:
        c = classify(m)
        if c is not None:
            heapq.heappush(heaps.setdefault(c, []), m)
    part.fresh.clear()
    return heaps


def _least(part: _Part, heap) -> int | None:
    """The least node of a heap that is still terminal in the part."""
    while heap and heap[0] not in part.terminal:
        heapq.heappop(heap)
    return heap[0] if heap else None


def _base_case(ps: ProofStructure, part: _Part) -> tuple[str, Formula | None]:
    """The ax or one rule of a part that is a single ax or one node: the
    rule is the node's label."""
    labels = [ps.nodes[n] for n in part.nodes]
    if labels not in ([AX], [ONE]):
        raise SequentializationError(
            "structure is neither splittable nor a single axiom or one node")
    rule = labels[0]
    return rule, ps.types[part.conclusions[0]] if rule == AX_RULE else None


def _split_move(ps: ProofStructure, part: _Part, n: int):
    """The move splitting at n, which must leave no free component."""
    side = _determined_sides(ps, part, n)
    if side is None:
        raise SequentializationError(
            f"node {n} does not split the structure into two determined parts")
    return n, side


def _sequentialize(ps: ProofStructure, choose, sink):
    """The peel/split skeleton shared by the three sequentializers.

    `ps` is typed and jump-free, and is only read.  `choose(ps, part)`
    returns None when the part must be a single ax or one node,
    `(n, None)` to peel the terminal bot or par node n, or `(n, side)` to
    split at the cut or tensor node n into the node set `side`, a component
    of the part less n, and the rest of the part.  The parts wait on an
    explicit stack, left first, so the depth is bounded by memory only.

    Each move hands its rules to the sink `(add, exchange, finish)` of
    `text_writer` or `_proof_sink` in print order, and the result is
    `finish()`.  All of a move's rules are known when it is made: first
    the exchanges that move the rule's conclusions into the order of the
    part, outermost first, then the rule at n; then come the rules of its
    parts, and a base case's ax or one.  A peeled rule's conclusion moves
    from the end to the index i it had, by the run i, ..., L - 2 over the
    part's L conclusions; a split's run comes from the two side tuples
    that `_split_part` returns, read before the sides are expanded.  A
    rule is its node's label, checked by the constructor's own check on the
    part's conclusions and the types of the sides' boundary arcs.

    An exchange needs no check: each position lies in [0, L - 2].  A
    peel's run starts at the index `_peel_part` finds among the L
    conclusions.  A split's composed order holds the same L conclusions,
    since `_split_part` cuts the sides out of them, and `exchange_positions`
    moves the item at j to i with the positions j - 1, ..., i, for
    i < j < L.
    """
    add, exchange, finish = sink
    outs, types = ps.incidence()[1], ps.types
    nodes = {m for m, lab in ps.nodes.items() if lab != DOT}
    terminal = set(ps.terminal_nodes())
    root = _Part(nodes, ps.conclusions, terminal, len(induced_components(ps, nodes)),
                 sorted(terminal))
    stack = [root]
    while stack:
        part = stack.pop()
        move = choose(ps, part)
        if move is None:
            add(*_base_case(ps, part))
            continue
        n, side = move
        rule, conclusions, arg = ps.nodes[n], part.conclusions, None
        if side is None:
            run = range(_peel_part(ps, part, n), len(conclusions) - 1)
            _check_rule(rule, arg, len(part.conclusions))
            stack.append(part)
        else:
            left, right = _split_part(ps, part, n, side)
            lc, rc = left.conclusions, right.conclusions
            if rule == TENSOR_RULE:
                current = lc[:-1] + tuple(outs[n]) + rc[1:]
            else:
                arg = types[ps.premises_of(n)[0]]
                current = lc[:-1] + rc[1:]
            _check_rule(rule, arg, len(lc), types[lc[-1]], types[rc[0]])
            run = () if current == conclusions else (
                exchange_positions(list(current), conclusions)[::-1])
            stack += [right, left]
        if run:
            exchange(run)
        add(rule, arg)
    return finish()


# -- untyped / general sequentialization ---------------------------------------


def sequentialize_wten(ps: ProofStructure) -> SequentProof:
    """Sequentialize an erasing-safe structure passing the count criterion.

    Untyped structures are typed first by inference.  The round trip
    `desequentialize(result)` is isomorphic to the input (ignoring types
    when the input is untyped).
    """
    return _run("wten", ps, None, _proof_sink())[0]


def _wten_plan(ps: ProofStructure, m: int | None):
    """The checks of `sequentialize_wten`, then the structure and the policy
    its skeleton runs, and that structure again, as it has no jumps."""
    ensure_valid(ps)
    ok, witness = is_wten(ps)
    if not ok:
        raise SequentializationError(
            f"premise {witness[1]} of node {witness[0]} comes from an erasing node",
            witness)
    verdict = check(ps, "accw")
    if not verdict.holds:
        raise SequentializationError("structure fails the accw criterion", verdict)
    typed = (ps if ps.types is not None else infer_types(ps)).without_jumps()
    return typed, _general_move, typed


_GENERAL_CLASSES = {BOT: 0, PAR: 0, CUT: 1, TENSOR: 1}


def _general_move(ps: ProofStructure, part: _Part):
    """Peel the least terminal bot or par node, else split at the first
    terminal cut or tensor node that leaves no free component."""
    heaps = _sorted_terminals(part, lambda m: _GENERAL_CLASSES.get(ps.nodes[m]))
    n = _least(part, heaps.get(0))
    if n is not None:
        return n, None
    splitters = heaps.get(1)
    if _least(part, splitters) is None:
        return None
    tried = []  # the splitters tried so far, in order, popped off their heap
    try:
        while (n := _least(part, splitters)) is not None:
            side = _determined_sides(ps, part, n)
            if side is not None:
                return n, side
            tried.append(heapq.heappop(splitters))
    finally:
        for m in tried:
            heapq.heappush(splitters, m)
    raise SequentializationError("no splitting cut or tensor node found")


# -- canonical jumps ------------------------------------------------------------


def jump_correct(ps: ProofStructure) -> bool:
    """Jump-total and passing acc: the structures rewiring relates.  The
    commands that attach jumps print only the jumps and never ask."""
    return jump_total(ps) and check(ps, "acc").holds


def _require(ps: ProofStructure, frag: Fragment) -> None:
    """A valid structure typed in `frag`, and in icomll no ax or cut node."""
    report = validate(ps, frag)
    if not report.ok:
        raise FragmentError(f"not a valid {frag.value} structure", report)
    if frag is Fragment.ICOMLL:
        for lab in (AX, CUT):
            if ps.nodes_with_label(lab):
                raise FragmentError(f"{lab} nodes are not available in icomll")


def _jump_bots(ps: ProofStructure, qualifies, target) -> ProofStructure:
    """Jump every bot node, in `bottom_nodes()` order, to `target(q)`, where
    q is the first node below it that `qualifies`, or None.  One bottom-up
    pass finds q for every node with one conclusion arc."""
    outs = ps.incidence()[1]
    first: dict[int, int | None] = {}
    for n in reversed(topological_order(ps)):
        if len(outs[n]) == 1:
            below = ps.arcs[outs[n][0]][1]
            first[n] = below if qualifies(below) else first.get(below)
    return ps.with_jumps({n: target(first[n]) for n in ps.bottom_nodes()})


def canonical_jumps_btenll(ps: ProofStructure, m: int) -> ProofStructure:
    """Jump every bot node under the least non-erasing par above it to that
    par's non-erasing premise source; jump the others to the given node.

    That par has exactly one non-erasing premise source, as the btenll
    typing that `_require` checks forces.  Erasing nodes have kind E: a bot
    has it, and so has a par of two E premises.  Going down from a bot, the
    first node r that is not erasing is entered by an arc of kind E from
    an erasing node.  A tensor takes only premises of kind A, and a cut or
    a dot ends the way down, so the par the bot jumps under, when there is
    one, is r.  Its premise on the way is erasing and, as r is not, its
    other premise is not.
    """
    _require(ps, Fragment.BTENLL)
    erasing = erasing_nodes(ps)
    if m not in ps.nodes or m in erasing or ps.nodes[m] == DOT:
        raise SequentializationError(f"node {m} is not a non-erasing node")

    def source(par):
        if par is None:
            return m
        return next(t for t in map(ps.tail, ps.premises_of(par)) if t not in erasing)

    return _jump_bots(ps, lambda n: ps.nodes[n] == PAR and n not in erasing, source)


def _output_anchor(ps: ProofStructure, node: int, polarities, anchors) -> int:
    """Climb through output premises of output par nodes up to the unique
    one node or output tensor node that starts the output spine.  Every
    node climbed through is recorded in `anchors` with its anchor, so a
    later climb stops where an earlier one passed.

    On a valid icomll structure and its `arc_polarities`, both errors are
    out of reach: an output par has one output and one input premise, and
    with no ax node, the only nodes with an output conclusion are one
    nodes, output tensors and output pars.  They guard a call with another
    polarity map."""
    path = []
    while node not in anchors:
        lab, concl = ps.nodes[node], ps.conclusions_of(node)
        out_node = concl and polarities[concl[0]] == "O"
        if lab == ONE or (lab == TENSOR and out_node):
            anchors[node] = node
        elif lab != PAR or not out_node:
            raise SequentializationError(f"node {node} is not on an output spine")
        else:
            outputs = [a for a in ps.premise_order[node] if polarities[a] == "O"]
            if len(outputs) != 1:
                raise SequentializationError("an output par has exactly one output premise")
            path.append(node)
            node = ps.tail(outputs[0])
    anchors.update(dict.fromkeys(path, anchors[node]))
    return anchors[node]


def canonical_jumps_icomll(ps: ProofStructure) -> ProofStructure:
    """Jump every bot node to the anchor of the least output par above it,
    or to the anchor of the unique output conclusion when none exists."""
    _require(ps, Fragment.ICOMLL)
    polarities = arc_polarities(ps)
    out_arcs = [a for a in ps.conclusions if polarities[a] == "O"]
    if len(out_arcs) != 1:
        raise SequentializationError(
            f"structure has {len(out_arcs)} output conclusions, expected 1")
    output_owner = ps.tail(out_arcs[0])
    anchors: dict[int, int] = {}
    return _jump_bots(
        ps, lambda n: ps.nodes[n] == PAR and polarities[ps.conclusions_of(n)[0]] == "O",
        lambda par: _output_anchor(ps, output_owner if par is None else par,
                                   polarities, anchors))


# -- refined sequentializers -----------------------------------------------------


def sequentialize_btenll(ps: ProofStructure,
                         m: int) -> tuple[SequentProof, ProofStructure]:
    """Sequentialize a jump-free cut-free structure of the bottom-restricted
    fragment; the proof is returned with the jumped structure it realizes,
    the canonical jump assignment rooted at m."""
    return _run("btenll", ps, m, _proof_sink())[:2]


def _btenll_plan(ps: ProofStructure, m: int):
    """The checks of `sequentialize_btenll`, then the structure and the
    policy its skeleton runs, and the canonical jumps."""
    if not jump_free(ps):
        raise SequentializationError("expected a jump-free structure")
    if ps.nodes_with_label(CUT):
        raise SequentializationError("cut-free structure expected")
    jumped = canonical_jumps_btenll(ps, m)
    verdict = check(ps, "accw")
    if not verdict.holds:
        raise SequentializationError("structure fails the accw criterion", verdict)
    # a part's erasing nodes are the structure's (see the module docstring)
    return ps, functools.partial(_bten_move, erasing=erasing_nodes(ps)), jumped


_BTEN_CLASSES = {PAR: 1, TENSOR: 2}


def _bten_move(ps: ProofStructure, part: _Part, erasing: set[int]):
    """Peel the least terminal erasing node, else the least terminal par,
    else split at the least terminal tensor."""
    heaps = _sorted_terminals(
        part, lambda m: 0 if m in erasing else _BTEN_CLASSES.get(ps.nodes[m]))
    for c in (0, 1):
        n = _least(part, heaps.get(c))
        if n is not None:
            return n, None
    n = _least(part, heaps.get(2))
    return None if n is None else _split_move(ps, part, n)


def sequentialize_icomll(ps: ProofStructure) -> tuple[SequentProof, ProofStructure]:
    """Sequentialize a jump-free structure of the constant-only
    intuitionistic fragment, with exactly one output conclusion; the proof
    is returned with the canonical jumped structure."""
    return _run("icomll", ps, None, _proof_sink())[:2]


def _icomll_plan(ps: ProofStructure, m: int | None):
    """The checks of `sequentialize_icomll`, then the structure and the
    policy its skeleton runs, and the canonical jumps."""
    if not jump_free(ps):
        raise SequentializationError("expected a jump-free structure")
    jumped = canonical_jumps_icomll(ps)
    return ps, functools.partial(_icomll_move, polarities=arc_polarities(ps)), jumped


def _icomll_move(ps: ProofStructure, part: _Part, polarities: dict[int, str | None]):
    """Peel or split at the least terminal input node; with none left,
    the one conclusion's node is a one, a par to peel or a tensor to split.

    An input tensor of a valid icomll structure has one output and one
    input premise, by `arc_polarities`; the check of that guards a call
    with another polarity map."""
    outs = ps.incidence()[1]
    heaps = _sorted_terminals(part, lambda m: 0 if polarities[outs[m][0]] == "I" else None)
    n = _least(part, heaps.get(0))
    if n is not None:
        if ps.nodes[n] in (BOT, PAR):
            return n, None
        # input tensor: the output-premise side is one whole component
        prem = ps.premise_order[n]
        out_side = [a for a in prem if polarities[a] == "O"]
        if len(out_side) != 1:
            raise SequentializationError("an input tensor has exactly one output premise")
        out_tail = ps.tail(out_side[0])
        in_tail = ps.tail(next(a for a in prem if a not in out_side))
        found, side = _lockstep(ps, part.nodes, n, out_tail, in_tail)
        if side is None:
            raise SequentializationError(
                f"input tensor {n} does not split the structure")
        if side == 1 and part.pieces > 1:
            # the input side closed first, and the rest holds other
            # components besides the output side: search that side alone
            found, side = _lockstep(ps, part.nodes, n, out_tail)
        return n, found[side]
    # all terminal nodes output: there is exactly one conclusion
    if len(part.conclusions) != 1:
        raise SequentializationError(
            "every terminal node is an output but several conclusions remain")
    n = ps.tail(part.conclusions[0])
    if ps.nodes[n] == ONE:
        return None
    if ps.nodes[n] == PAR:
        return n, None
    return _split_move(ps, part, n)


# -- the mode table ---------------------------------------------------------------


# each mode's plan `(ps, m)`, m being btenll's anchor, and its proof header;
# a plan checks ps and returns what the skeleton runs and the jumped structure
_MODES = {"wten": (_wten_plan, Fragment.MLLU),
          "btenll": (_btenll_plan, Fragment.BTENLL),
          "icomll": (_icomll_plan, Fragment.ICOMLL)}


def _run(mode: str, ps: ProofStructure, m: int | None, sink):
    """The sink's result of the skeleton's run in `mode`, the structure
    whose jumps the mode prints and the mode's proof header."""
    if mode not in _MODES:
        raise ValueError(f"unknown sequentialization mode {mode!r}")
    plan, header = _MODES[mode]
    target, choose, jumped = plan(ps, m)
    return _sequentialize(target, choose, sink), jumped, header


def sequentialize_text(ps: ProofStructure, mode: str,
                       m: int | None = None) -> tuple[str, dict[int, int]]:
    """The proof file of `sequentialize_<mode>(ps)` and the jump map of its
    canonical jumps ({} in wten mode), printed straight from the skeleton
    with no proof tree: the text is `format_proof` of that proof under the
    mode's header, mllu in wten mode.  `m` is btenll mode's anchor."""
    text, jumped, header = _run(mode, ps, m, text_writer())
    return proof_file(text, header), jumped.jumps


# -- equivalence decisions --------------------------------------------------------


def nets_equivalent(n1: DeseqResult, n2: DeseqResult) -> bool:
    """Permutation equivalence of the proofs two nets were built from,
    decided as equality of the nets in the bottom-restricted fragment; a
    proof outside it is an error carrying its fragment report."""
    for net in (n1, n2):
        report = net.report(Fragment.BTENLL)
        if not report.ok:
            raise FragmentError("proof outside btenll", report)
    return iso(n1.ps, n2.ps)


def proofs_equivalent(p1: SequentProof, p2: SequentProof) -> bool:
    """Permutation equivalence of two proofs in the bottom-restricted
    fragment, decided on their desequentializations."""
    return nets_equivalent(*(desequentialize(p, verify=False) for p in (p1, p2)))


def rewiring_equivalent(r1: ProofStructure, r2: ProofStructure) -> bool:
    """Equivalence of jump-correct structures under single-jump redirection,
    decided by comparing jump-stripped structures."""
    if not all(map(jump_correct, (r1, r2))):
        raise SequentializationError("rewiring equivalence needs jump-correct inputs")
    return iso(r1.without_jumps(), r2.without_jumps())

