"""Sequentialization: from structures back to sequent proofs.

One skeleton, `_sequentialize`, serves all three entry points.  It peels a
terminal bot or par node or splits at a terminal cut or tensor node,
composes the rule and restores the conclusion order with exchange rules;
each entry point passes the policy that picks the node.
`sequentialize_wten` takes any structure, typed or not, that is erasing-safe
and passes the acyclicity-plus-count criterion.  `sequentialize_btenll`
peels terminal erasing nodes first, so that the proof of a bottom-restricted
structure realizes its canonical jumps; `sequentialize_icomll` lets polarity
choose in the constant-only intuitionistic fragment.  A brute-force
decomposition oracle decides plain sequentiality exactly on small
structures, and the desequentialization comparisons decide proof
equivalence and jump rewiring equivalence.

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
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations

from .canonical import canonical_form, iso, isomorphisms
from .errors import (FragmentError, SequentializationError, TypeInferenceError)
from .formulas import (ATOM, BOT as BOT_F, Formula, Fragment, ONE as ONE_F, atom,
                       negate, polarity)
from .structure import (AX, BOT, CUT, DOT, ONE, PAR, TENSOR, ProofStructure,
                        descent_chain, ensure_valid, erasing_nodes,
                        induced_components, is_wten, jump_free, jump_total,
                        restrict, strip, topological_order, validate)
from .sequent import (SequentProof, ax_rule, bot_rule, check_proof, cut_rule,
                      desequentialize, exchange_to, one_rule, par_rule, tensor_rule)
from .switching import check


# -- type inference for untyped structures -----------------------------------


def infer_types(ps: ProofStructure) -> ProofStructure:
    """Assign formulas to every arc of an untyped structure.

    Each ax pair introduces a type variable and its dual; connectives and
    units determine everything else; cuts impose duality constraints solved
    by unification.  Left-over variables become fresh atoms.  Raises
    TypeInferenceError when no typing exists (clashing cuts, ax loops).
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
            elif f.kind == ATOM:
                raise TypeInferenceError("mismatched atoms at a cut")
            elif f.left is not None:
                pairs += ((f.right, g.right), (f.left, g.left))

    ty: dict[int, Formula] = {}
    var_count = 0
    for n in topological_order(ps.nodes, ps.arcs):
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


# -- peeling and splitting ------------------------------------------------------


def _peel(ps: ProofStructure, n: int) -> ProofStructure:
    """ps less the terminal bot or par node n, its conclusion arc and that
    arc's dot; a par's two premises become the last conclusions, each
    capped by a fresh dot."""
    arc = ps.conclusions_of(n)[0]
    conclusions = tuple(c for c in ps.conclusions if c != arc)
    return restrict(ps, set(ps.nodes) - {n, ps.head(arc)},
                    conclusions + ps.premise_order.get(n, ()))


@dataclass(frozen=True)
class SplitAssignment:
    node: int
    left_nodes: frozenset[int]
    right_nodes: frozenset[int]


def _raw_split_assignments(ps: ProofStructure, n: int):
    """Distributions of the components of ps minus n over the two sides,
    generated one at a time: the first puts every free component right."""
    prem = ps.premises_of(n)
    removed = {n}
    for c in ps.conclusions_of(n):
        removed.add(ps.head(c))
    comps = induced_components(ps, (m for m in ps.nodes if m not in removed))
    left_tail, right_tail = ps.tail(prem[0]), ps.tail(prem[1])
    base_left = next(c for c in comps if left_tail in c)
    base_right = next(c for c in comps if right_tail in c)
    if base_left is base_right:
        return
    free = [c for c in comps if c is not base_left and c is not base_right]
    for k in range(len(free) + 1):
        for chosen in combinations(range(len(free)), k):
            left = set(base_left)
            right = set(base_right)
            for i, c in enumerate(free):
                (left if i in chosen else right).update(c)
            yield SplitAssignment(n, frozenset(left), frozenset(right))


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


def splitting_candidates(ps: ProofStructure) -> list[SplitAssignment]:
    """Every way a terminal cut or tensor node splits the structure.

    Free components (touching neither premise) may go to either side;
    distributions whose two parts coincide up to isomorphism with those of
    an earlier one are reported once.
    """
    ensure_valid(ps)
    base = strip(ps)
    out = []
    for n in base.terminal_nodes():
        if base.nodes[n] not in (CUT, TENSOR):
            continue
        seen_keys = set()
        for asn in _raw_split_assignments(base, n):
            left, right = split_parts(base, asn)
            key = (canonical_form(left), canonical_form(right))
            if key in seen_keys:
                continue
            seen_keys.add(key)
            out.append(asn)
    return out


# -- the brute-force sequentiality oracle -------------------------------------


_MISSING = object()


def is_sequential_oracle(ps: ProofStructure) -> tuple[bool, dict | None]:
    """Exact, exponential decision of the recursive decomposition.

    Tries every terminal node and every component distribution, memoized
    on canonical forms.  Types, jumps and the conclusion order are
    irrelevant to the decomposition and are ignored.
    """
    ensure_valid(ps)
    memo: dict[bytes, dict | None] = {}

    def seq(s: ProofStructure):
        key = canonical_form(s)
        cached = memo.get(key, _MISSING)
        if cached is not _MISSING:
            return cached
        result = None
        non_dots = [m for m, lab in s.nodes.items() if lab != DOT]
        if len(non_dots) == 1 and s.nodes[non_dots[0]] in (AX, ONE):
            result = {"node": non_dots[0], "kind": s.nodes[non_dots[0]]}
        if result is None:
            for n in s.terminal_nodes():
                lab = s.nodes[n]
                if lab in (BOT, PAR):
                    sub = seq(_peel(s, n))
                    if sub is not None:
                        result = {"node": n, "kind": lab, "parts": [sub]}
                elif lab in (CUT, TENSOR):
                    for asn in _raw_split_assignments(s, n):
                        left, right = split_parts(s, asn)
                        sub_l = seq(left)
                        if sub_l is None:
                            continue
                        sub_r = seq(right)
                        if sub_r is not None:
                            result = {"node": n, "kind": lab,
                                      "parts": [sub_l, sub_r]}
                            break
                if result is not None:
                    break
        memo[key] = result
        return result

    decomposition = seq(strip(ps))
    return decomposition is not None, decomposition


# -- the in-place peel/split skeleton -------------------------------------------


@dataclass(slots=True)
class _Part:
    """One part of the recursion, over the structure being sequentialized:
    its non-dot nodes, its ordered conclusion arcs and its terminal nodes."""

    nodes: set[int]
    conclusions: tuple[int, ...]
    terminal: set[int]


def _leaves_part(ps: ProofStructure, nodes: set[int], m: int) -> bool:
    """True when every conclusion arc of m leaves `nodes`, that is, when m
    is terminal in the part with that node set."""
    arcs = ps.arcs
    return all(arcs[a][1] not in nodes for a in ps.incidence()[1][m])


def _peel_part(ps: ProofStructure, part: _Part, n: int) -> None:
    """Peel the terminal bot or par node n off the part, in place; a par's
    two premises become the last conclusions."""
    part.nodes.discard(n)
    part.terminal.discard(n)
    arc = ps.incidence()[1][n][0]
    conclusions = tuple(c for c in part.conclusions if c != arc)
    if ps.nodes[n] == PAR:
        premises = ps.premise_order[n]
        conclusions += premises
        for a in premises:
            tail = ps.arcs[a][0]
            if _leaves_part(ps, part.nodes, tail):
                part.terminal.add(tail)
    part.conclusions = conclusions


def _determined_sides(ps: ProofStructure, part: _Part, n: int):
    """The node sets (left, right) of the split at the cut or tensor node
    n, when the part less n has exactly two components and the premises of
    n come from different ones; else None."""
    first, second = ps.premises_of(n)
    comps = induced_components(ps, part.nodes - {n})
    if len(comps) != 2:
        return None
    left = next(c for c in comps if ps.arcs[first][0] in c)
    right = next(c for c in comps if ps.arcs[second][0] in c)
    return None if left is right else (left, right)


def _split_part(ps: ProofStructure, part: _Part, n: int,
                left: set[int], right: set[int]) -> tuple[_Part, _Part]:
    """The two parts of the split at n: the left one receives the first
    premise as its last conclusion, the right one the second premise as its
    first; the inherited conclusions keep their relative order."""
    first, second = ps.premises_of(n)
    parts = []
    for side, arc, last in ((left, first, True), (right, second, False)):
        inherited = tuple(c for c in part.conclusions if ps.arcs[c][0] in side)
        terminal = {m for m in part.terminal if m in side}
        tail = ps.arcs[arc][0]
        if _leaves_part(ps, side, tail):
            terminal.add(tail)
        conclusions = inherited + (arc,) if last else (arc,) + inherited
        parts.append(_Part(side, conclusions, terminal))
    return parts[0], parts[1]


def _base_case(ps: ProofStructure, part: _Part) -> SequentProof:
    labels = [ps.nodes[n] for n in part.nodes]
    if labels not in ([AX], [ONE]):
        raise SequentializationError(
            "structure is neither splittable nor a single axiom or one node")
    if labels == [ONE]:
        return one_rule()
    return ax_rule(ps.types[part.conclusions[0]])


def _split_move(ps: ProofStructure, part: _Part, n: int):
    """The move splitting at n, which must leave no free component."""
    sides = _determined_sides(ps, part, n)
    if sides is None:
        raise SequentializationError(
            f"node {n} does not split the structure into two determined parts")
    return n, sides


def _sequentialize(ps: ProofStructure, choose) -> SequentProof:
    """The peel/split skeleton shared by the three sequentializers.

    `ps` is typed and jump-free, and is only read.  `choose(ps, part)`
    returns None when the part must be a single ax or one node,
    `(n, None)` to peel the terminal bot or par node n, or
    `(n, (left, right))` to split at the cut or tensor node n into those
    node sets.  The parts are sequentialized left first, and each rule is
    composed as soon as its premises are, on an explicit stack, so the work
    happens in the order of a recursive descent while the depth is bounded
    by memory only.
    """
    outs = ps.incidence()[1]
    root = _Part({m for m, lab in ps.nodes.items() if lab != DOT},
                 ps.conclusions, set(ps.terminal_nodes()))
    proofs: list[SequentProof] = []
    stack: list = [root]  # parts to expand, (conclusions, n, sides) rules to compose
    while stack:
        top = stack.pop()
        if isinstance(top, _Part):
            move = choose(ps, top)
            if move is None:
                proofs.append(_base_case(ps, top))
                continue
            n, sides = move
            conclusions = top.conclusions
            if sides is None:
                _peel_part(ps, top, n)
                stack += [(conclusions, n, None), top]
            else:
                left, right = _split_part(ps, top, n, *sides)
                stack += [(conclusions, n, (left.conclusions, right.conclusions)),
                          right, left]
            continue
        # compose the rule at n, then exchange its conclusions into the
        # order of the part it was chosen in
        conclusions, n, sides = top
        if sides is None:
            arc = outs[n][0]
            joined = (bot_rule if ps.nodes[n] == BOT else par_rule)(proofs.pop())
            current = [c for c in conclusions if c != arc] + [arc]
        else:
            left, right = sides
            proof_right, proof_left = proofs.pop(), proofs.pop()
            if ps.nodes[n] == TENSOR:
                joined = tensor_rule(proof_left, proof_right)
                middle = list(outs[n])
            else:
                joined = cut_rule(ps.types[ps.premises_of(n)[0]], proof_left, proof_right)
                middle = []
            current = list(left[:-1]) + middle + list(right[1:])
        position = {c: i for i, c in enumerate(current)}
        proofs.append(exchange_to(joined, [position[c] for c in conclusions]))
    return proofs.pop()


# -- untyped / general sequentialization ---------------------------------------


def sequentialize_wten(ps: ProofStructure) -> SequentProof:
    """Sequentialize an erasing-safe structure passing the count criterion.

    Untyped structures are typed first by inference.  The round trip
    `desequentialize(result)` is isomorphic to the input (ignoring types
    when the input is untyped).
    """
    ensure_valid(ps)
    ok, witness = is_wten(ps)
    if not ok:
        raise SequentializationError(
            f"premise {witness[1]} of node {witness[0]} comes from an erasing node",
            witness)
    verdict = check(ps, "accw")
    if not verdict.holds:
        raise SequentializationError("structure fails the accw criterion", verdict)
    typed = ps if ps.types is not None else infer_types(ps)
    return _sequentialize(typed.without_jumps(), _general_move)


def _general_move(ps: ProofStructure, part: _Part):
    """Peel the least terminal bot or par node, else split at the first
    terminal cut or tensor node that leaves no free component."""
    unary = [n for n in part.terminal if ps.nodes[n] in (BOT, PAR)]
    if unary:
        return min(unary), None
    splitters = sorted(n for n in part.terminal if ps.nodes[n] in (CUT, TENSOR))
    if not splitters:
        return None
    for n in splitters:
        sides = _determined_sides(ps, part, n)
        if sides is not None:
            return n, sides
    raise SequentializationError("no splitting cut or tensor node found")


# -- canonical jumps ------------------------------------------------------------


@dataclass
class JumpedStructure:
    ps: ProofStructure
    jump_free: bool
    jump_total: bool
    jump_correct: bool


def classify_jumps(ps: ProofStructure) -> JumpedStructure:
    total = jump_total(ps)
    correct = total and check(ps, "acc").holds
    return JumpedStructure(ps, jump_free(ps), total, correct)


def canonical_jumps_btenll(ps: ProofStructure, m: int) -> JumpedStructure:
    """Jump every bot node under the least non-erasing par above it to that
    par's non-erasing premise source; jump the others to the given node."""
    report = validate(ps, Fragment.BTENLL)
    if not report.ok:
        raise FragmentError(f"not a valid btenll structure: {report}")
    erasing = erasing_nodes(ps)
    if m not in ps.nodes or m in erasing or ps.nodes[m] == DOT:
        raise SequentializationError(f"node {m} is not a non-erasing node")
    jumps = {}
    for n in ps.bottom_nodes():
        anchor_par = None
        for below in descent_chain(ps, n):
            if ps.nodes[below] == PAR and below not in erasing:
                anchor_par = below
                break
        if anchor_par is None:
            jumps[n] = m
        else:
            sources = [ps.tail(a) for a in ps.premises_of(anchor_par)
                       if ps.tail(a) not in erasing]
            if len(sources) != 1:
                raise SequentializationError(
                    "a least non-erasing par must have exactly one non-erasing premise")
            jumps[n] = sources[0]
    jumped = ps.copy()
    jumped.jumps = jumps
    return classify_jumps(jumped)


def _output_anchor(ps: ProofStructure, node: int) -> int:
    """Climb through output premises of output par nodes up to the unique
    one node or output tensor node that starts the output spine."""
    current = node
    while True:
        lab = ps.nodes[current]
        concl = ps.conclusions_of(current)
        out_node = concl and polarity(ps.types[concl[0]]) == "O"
        if lab == ONE or (lab == TENSOR and out_node):
            return current
        if lab != PAR or not out_node:
            raise SequentializationError(
                f"node {current} is not on an output spine")
        outputs = [a for a in ps.premise_order[current]
                   if polarity(ps.types[a]) == "O"]
        if len(outputs) != 1:
            raise SequentializationError("an output par has exactly one output premise")
        current = ps.tail(outputs[0])


def canonical_jumps_icomll(ps: ProofStructure) -> JumpedStructure:
    """Jump every bot node to the anchor of the least output par above it,
    or to the anchor of the unique output conclusion when none exists."""
    _require_icomll(ps)
    out_arcs = [a for a in ps.conclusions if polarity(ps.types[a]) == "O"]
    if len(out_arcs) != 1:
        raise SequentializationError(
            f"structure has {len(out_arcs)} output conclusions, expected 1")
    output_owner = ps.tail(out_arcs[0])
    jumps = {}
    for n in ps.bottom_nodes():
        anchor_par = None
        for below in descent_chain(ps, n):
            concl = ps.conclusions_of(below)
            if (ps.nodes[below] == PAR and concl
                    and polarity(ps.types[concl[0]]) == "O"):
                anchor_par = below
                break
        target_node = anchor_par if anchor_par is not None else output_owner
        jumps[n] = _output_anchor(ps, target_node)
    jumped = ps.copy()
    jumped.jumps = jumps
    return classify_jumps(jumped)


def _require_icomll(ps: ProofStructure) -> None:
    report = validate(ps, Fragment.ICOMLL)
    if not report.ok:
        raise FragmentError(f"not a valid icomll structure: {report}")
    for lab in (AX, CUT):
        if ps.nodes_with_label(lab):
            raise FragmentError(f"{lab} nodes are not available in icomll")


# -- refined sequentializers -----------------------------------------------------


def sequentialize_btenll(ps: ProofStructure,
                         m: int) -> tuple[SequentProof, JumpedStructure]:
    """Sequentialize a jump-free cut-free structure of the bottom-restricted
    fragment; the proof realizes the canonical jump assignment rooted at m."""
    if not jump_free(ps):
        raise SequentializationError("expected a jump-free structure")
    if ps.nodes_with_label(CUT):
        raise SequentializationError("cut-free structure expected")
    jumped = canonical_jumps_btenll(ps, m)
    verdict = check(ps, "accw")
    if not verdict.holds:
        raise SequentializationError("structure fails the accw criterion", verdict)
    # a part's erasing nodes are the structure's (see the module docstring)
    proof = _sequentialize(ps, functools.partial(_bten_move, erasing=erasing_nodes(ps)))
    return proof, jumped


def _bten_move(ps: ProofStructure, part: _Part, erasing: set[int]):
    """Peel the least terminal erasing node, else the least terminal par,
    else split at the least terminal tensor."""
    terminal = part.terminal
    unary = ([n for n in terminal if n in erasing]
             or [n for n in terminal if ps.nodes[n] == PAR])
    if unary:
        return min(unary), None
    tensors = [n for n in terminal if ps.nodes[n] == TENSOR]
    return _split_move(ps, part, min(tensors)) if tensors else None


def sequentialize_icomll(ps: ProofStructure) -> tuple[SequentProof, JumpedStructure]:
    """Sequentialize a jump-free structure of the constant-only
    intuitionistic fragment; requires exactly one output conclusion."""
    if not jump_free(ps):
        raise SequentializationError("expected a jump-free structure")
    jumped = canonical_jumps_icomll(ps)
    proof = _sequentialize(ps, _icomll_move)
    return proof, jumped


def _icomll_move(ps: ProofStructure, part: _Part):
    """Peel or split at the least terminal input node; with none left,
    the one conclusion's node is a one, a par to peel or a tensor to split."""
    def arc_pol(a):
        return polarity(ps.types[a])

    outs = ps.incidence()[1]
    inputs = [n for n in part.terminal if arc_pol(outs[n][0]) == "I"]
    if inputs:
        n = min(inputs)
        if ps.nodes[n] in (BOT, PAR):
            return n, None
        # input tensor: the output-premise side is one whole component
        prem = ps.premise_order[n]
        out_side = [a for a in prem if arc_pol(a) == "O"]
        if len(out_side) != 1:
            raise SequentializationError("an input tensor has exactly one output premise")
        out_tail = ps.tail(out_side[0])
        out_comp = next(c for c in induced_components(ps, part.nodes - {n}) if out_tail in c)
        in_side = next(a for a in prem if a not in out_side)
        if ps.tail(in_side) in out_comp:
            raise SequentializationError(
                f"input tensor {n} does not split the structure")
        rest = part.nodes - out_comp - {n}
        if ps.tail(prem[0]) in out_comp:
            return n, (out_comp, rest)
        return n, (rest, out_comp)
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


# -- equivalence decisions --------------------------------------------------------


def proofs_equivalent(p1: SequentProof, p2: SequentProof) -> bool:
    """Permutation equivalence of two proofs in the bottom-restricted
    fragment, decided as equality of desequentializations."""
    for p in (p1, p2):
        report = check_proof(p, Fragment.BTENLL)
        if not report.ok:
            raise FragmentError(f"proof outside btenll: {report}")
    a = desequentialize(p1, verify=False).ps
    b = desequentialize(p2, verify=False).ps
    return iso(a, b)


def rewiring_equivalent(r1: ProofStructure, r2: ProofStructure) -> bool:
    """Equivalence of jump-correct structures under single-jump redirection,
    decided by comparing jump-stripped structures."""
    for r in (r1, r2):
        status = classify_jumps(r)
        if not status.jump_correct:
            raise SequentializationError("rewiring equivalence needs jump-correct inputs")
    return iso(r1.without_jumps(), r2.without_jumps())


def rewiring_reachable(r1: ProofStructure, r2: ProofStructure, *,
                       max_states: int = 50_000) -> bool:
    """Breadth-first oracle over single-jump redirections, each intermediate
    structure re-checked jump-correct.  Exact but exponential; meant for
    small instances."""
    for r in (r1, r2):
        status = classify_jumps(r)
        if not status.jump_correct:
            raise SequentializationError("rewiring oracle needs jump-correct inputs")
    base1, base2 = r1.without_jumps(), r2.without_jumps()
    goals = set()
    for sigma in isomorphisms(base2, base1):
        goals.add(frozenset((sigma[s], sigma[t]) for s, t in r2.jumps.items()))
    if not goals:
        return False

    def jump_correct_map(jump_map):
        candidate = r1.copy()
        candidate.jumps = dict(jump_map)
        return check(candidate, "acc").holds

    start = frozenset(r1.jumps.items())
    if start in goals:
        return True
    frontier = [start]
    seen = {start}
    while frontier:
        state = frontier.pop(0)
        current = dict(state)
        for src in current:
            for tgt in r1.nodes:
                if tgt in (src, current[src]):
                    continue
                new_map = dict(current)
                new_map[src] = tgt
                key = frozenset(new_map.items())
                if key in seen:
                    continue
                seen.add(key)
                if len(seen) > max_states:
                    raise SequentializationError("rewiring search exceeded its budget")
                if not jump_correct_map(new_map):
                    continue
                if key in goals:
                    return True
                frontier.append(key)
    return False
