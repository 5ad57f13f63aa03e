"""Canonical forms and isomorphism of proof-structures.

Structure identity ignores node and arc ids and respects labels, premise
orders, the conclusion order, arc types and jump maps.  One engine decides
it.  A structure first falls into parts.  Each component of its arcs plus
its jump arcs (so a jump keeps components together) that holds no
conclusion is closed; the main part is the rest.  Each part is
canonicalized on its own, and the canonical form is the main part's form
followed by the sorted list of the closed components' forms.  When no
component is closed, the main part is the whole structure.

A depth-first traversal seeded by the part's conclusion list encodes the
part.  The traversal enters every node through an arc, which fixes its
next steps, except the start of each component of the arcs that the
conclusions do not reach: all of a closed component, and the components
that jumps hold together.  Only there does it read node colours, computed
on first need; so nets whose every node is reached from the conclusions,
as those of proofs are unless a cut closes a component, never refine
colours.  Colour refinement gives each node an integer colour: the rank of
its signature (its colour and those of its arc and jump neighbours, with
the arc types) among the sorted distinct signatures, so colours never
depend on ids.  The starts of least colour, and the two arcs of an ax or
cut start whose types and far colours are equal, are the choices; every
choice sequence is run, and each complete traversal (a leaf) gives an
encoding and a node visit order.  A part's form is its least encoding.

The choices are iso-invariant, so an isomorphism a -> b carries the least
leaf of each part of a onto an equally encoded leaf of the matching part of
b: pairing their visit orders yields every isomorphism of a part.
`isomorphisms` yields the product of the main part's bijections, each
closed component's own bijections and the permutations among closed
components of equal form.  What still branches is thus: the equal-type
twins of an ax or cut start (in untyped structures, its twins always have
equal types), equal-colour starts inside one closed component, and
identical components held together by jumps.  Each part may explore at
most `_CHOICE_BUDGET` choice sequences.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations, product

from .errors import CanonicalLimitError
from .formulas import format_formulas
from .structure import (AX, CUT, PAR, TENSOR, ProofStructure,
                        induced_components, restrict, strip)

CanonicalForm = bytes

_CHOICE_BUDGET = 200_000


def _ranks(signatures: dict) -> tuple[dict[int, int], int]:
    """Each node's rank among the distinct signatures, and their number."""
    rank = {s: i for i, s in enumerate(sorted(set(signatures.values())))}
    return {n: rank[s] for n, s in signatures.items()}, len(rank)


def _jump_sources(ps: ProofStructure) -> dict[int, list[int]]:
    """The bots jumping to each jump target."""
    sources: dict[int, list[int]] = {}
    for src, tgt in ps.jumps.items():
        sources.setdefault(tgt, []).append(src)
    return sources


def node_colors(ps: ProofStructure, type_of: dict[int, str]) -> dict[int, int]:
    """Iterated refinement of an id-independent node invariant."""
    arcs = ps.arcs
    incoming, outgoing = ps.incidence()
    concl_pos = {arcs[a][1]: i for i, a in enumerate(ps.conclusions)}
    jump_sources = _jump_sources(ps)

    def signature(n):
        if ps.nodes[n] in (TENSOR, PAR) and n in ps.premise_order:
            ins = tuple((colors[arcs[a][0]], type_of[a]) for a in ps.premise_order[n])
        else:
            ins = tuple(sorted((colors[arcs[a][0]], type_of[a]) for a in incoming[n]))
        outs = tuple(sorted((colors[arcs[a][1]], type_of[a]) for a in outgoing[n]))
        tgt = ps.jumps.get(n)
        return (colors[n], ins, outs, -1 if tgt is None else colors[tgt],
                tuple(sorted(colors[s] for s in jump_sources.get(n, ()))))

    colors, count = _ranks({n: (lab, concl_pos.get(n, -1)) for n, lab in ps.nodes.items()})
    for _ in range(len(ps.nodes)):
        # a signature starts with the old colour, so an equal count means
        # an equal partition
        colors, new_count = _ranks({n: signature(n) for n in ps.nodes})
        if new_count == count:
            break
        count = new_count
    return colors


def _parts(ps: ProofStructure) -> tuple[ProofStructure, list[ProofStructure]]:
    """The main part and the closed components, each as a structure.  The
    main part is `ps` itself when no component is closed."""
    arcs, jumps = ps.arcs, ps.jumps
    incoming, outgoing = ps.incidence()
    jump_sources = _jump_sources(ps)

    def component(starts):
        seen = set(starts)
        stack = list(seen)
        while stack:
            n = stack.pop()
            near = [arcs[a][0] for a in incoming[n]] + [arcs[a][1] for a in outgoing[n]]
            near += jump_sources.get(n, ())
            if n in jumps:
                near.append(jumps[n])
            for m in near:
                if m not in seen:
                    seen.add(m)
                    stack.append(m)
        return seen

    main = component({arcs[c][1] for c in ps.conclusions})
    if len(main) == len(ps.nodes):
        return ps, []
    closed, done = [], set(main)
    for n in ps.nodes:
        if n not in done:
            comp = component({n})
            done |= comp
            closed.append(restrict(ps, comp, ()))
    return restrict(ps, main, ps.conclusions), closed


class _Choices:
    """Variable-radix decision sequence discovered during a traversal."""

    def __init__(self, prefix):
        self.prefix = prefix
        self.counts = []

    def pick(self, n_options: int) -> int:
        if n_options == 1:
            return 0
        i = len(self.counts)
        self.counts.append(n_options)
        return self.prefix[i] if i < len(self.prefix) else 0


def _traverse(ps: ProofStructure, type_of, colors, choices: _Choices):
    """One depth-first traversal: its encoding and its node visit order.
    `colors()` gives the node colours; it is called only to break a tie."""
    arcs = ps.arcs
    incoming, outgoing = ps.incidence()
    node_idx: dict[int, int] = {}
    arc_idx: dict[int, int] = {}
    tokens: list[str] = [f"g{len(ps.conclusions)}"]
    walking = []  # (node, iterator over its remaining arcs), innermost last

    def far_key(a, via):
        t, h = arcs[a]
        return (type_of[a], colors()[h if t == via else t])

    def local_order(n):
        lab = ps.nodes[n]
        if lab in (TENSOR, PAR):
            return ps.premises_of(n) + outgoing[n]
        if lab in (AX, CUT):
            twins = outgoing[n] if lab == AX else incoming[n]
            done = sorted((a for a in twins if a in arc_idx), key=arc_idx.get)
            todo = [a for a in twins if a not in arc_idx]
            if len(todo) <= 1:
                return done + todo
            todo.sort(key=lambda a: far_key(a, n))
            if far_key(todo[0], n) == far_key(todo[1], n) and choices.pick(2):
                todo.reverse()
            return todo
        return incoming[n] + outgoing[n]

    def enter(n):
        node_idx[n] = len(node_idx)
        tokens.append(f"n{ps.nodes[n]}")
        walking.append((n, iter(local_order(n))))

    def visit(start):
        enter(start)
        while walking:
            n, rest = walking[-1]
            a = next(rest, None)
            if a is None:
                walking.pop()
            elif a in arc_idx:
                tokens.append(f"A{arc_idx[a]}")
            else:
                arc_idx[a] = len(arc_idx)
                t, h = arcs[a]
                tokens.append(f"a{'d' if n == t else 'u'}:{type_of[a]}")
                other = h if n == t else t
                if other in node_idx:
                    tokens.append(f"N{node_idx[other]}")
                else:
                    enter(other)

    for c in ps.conclusions:
        tokens.append("c")
        dot = arcs[c][1]
        if dot in node_idx:
            tokens.append(f"N{node_idx[dot]}")
        else:
            visit(dot)

    while len(node_idx) < len(ps.nodes):
        comps = induced_components(ps, [n for n in ps.nodes if n not in node_idx])
        keys = [sorted(colors()[n] for n in comp) for comp in comps]
        lowest = min(keys)
        least = [comp for comp, key in zip(comps, keys) if key == lowest]
        comp = least[choices.pick(len(least))]
        low = min(colors()[n] for n in comp)
        starts = sorted(n for n in comp if colors()[n] == low)
        tokens.append("k")
        visit(starts[choices.pick(len(starts))])

    for n in sorted(ps.jumps, key=node_idx.get):
        tokens.append(f"J{node_idx[n]}>{node_idx[ps.jumps[n]]}")
    tokens.append(f"z{len(ps.nodes)},{len(ps.arcs)}")
    return "|".join(tokens), tuple(node_idx)


def _leaves(ps: ProofStructure):
    """Yield the encoding and visit order of every complete traversal."""
    if ps.types is None:
        type_of = dict.fromkeys(ps.arcs, "")
    else:
        texts = format_formulas(ps.types[a] for a in ps.arcs)
        type_of = {a: texts[ps.types[a]] for a in ps.arcs}
    colors = cache(lambda: node_colors(ps, type_of))
    stack = [()]
    explored = 0
    while stack:
        prefix = stack.pop()
        explored += 1
        if explored > _CHOICE_BUDGET:
            raise CanonicalLimitError(
                f"canonical form: more than {_CHOICE_BUDGET} symmetric alternatives")
        choices = _Choices(prefix)
        leaf = _traverse(ps, type_of, colors, choices)
        if len(choices.counts) > len(prefix):
            stack.extend(prefix + (opt,) for opt in range(choices.counts[len(prefix)]))
        else:
            yield leaf


def _least_leaf(ps: ProofStructure) -> tuple[str, tuple[int, ...]]:
    return min(_leaves(ps), key=lambda leaf: leaf[0])


def canonical_form(ps: ProofStructure) -> CanonicalForm:
    """Byte encoding equal for two structures iff they are isomorphic."""
    main, closed = _parts(ps)
    forms = sorted(_least_leaf(c)[0] for c in closed)
    return "|K|".join([_least_leaf(main)[0]] + forms).encode()


def iso(a: ProofStructure, b: ProofStructure) -> bool:
    """Isomorphism respecting labels, orders, types (if present) and jumps."""
    if (a.types is None) != (b.types is None):
        return False
    if len(a.nodes) != len(b.nodes) or len(a.arcs) != len(b.arcs):
        return False
    return canonical_form(a) == canonical_form(b)


def iso_untyped(a: ProofStructure, b: ProofStructure) -> bool:
    """Isomorphism of the underlying geometric structures."""
    return iso(strip(a), strip(b))


def _images(ps: ProofStructure, form: str):
    """The distinct visit orders of the leaves of `ps` encoded as `form`."""
    seen = set()
    for enc, image in _leaves(ps):
        if enc == form and image not in seen:
            seen.add(image)
            yield image


def _matchings(orders, images):
    """Node maps from components with the least visit orders `orders` onto
    components of the same form with the visit-order lists `images`: a
    permutation of the components, then one image per component."""
    for perm in permutations(images):
        for chosen in product(*perm):
            yield {x: y for order, image in zip(orders, chosen) for x, y in zip(order, image)}


def _unions(makers):
    """Every union of one map from each maker's iterator, the first maker
    outermost; a maker is called anew for each union of the ones before."""
    if not makers:
        yield {}
        return
    stack = [({}, makers[0]())]
    while stack:
        base, it = stack[-1]
        m = next(it, None)
        if m is None:
            stack.pop()
        elif len(stack) == len(makers):
            yield base | m
        else:
            stack.append((base | m, makers[len(stack)]()))


def isomorphisms(a: ProofStructure, b: ProofStructure):
    """Yield every node bijection witnessing a ≅ b, each once.

    Types are compared when both sides carry them and ignored when only one
    side does; jump maps must correspond.
    """
    if (a.types is None) != (b.types is None):
        a, b = a.without_types(), b.without_types()
    if len(a.nodes) != len(b.nodes) or len(a.arcs) != len(b.arcs):
        return
    main_a, closed_a = _parts(a)
    main_b, closed_b = _parts(b)
    orders: dict[str, list] = {}
    for comp in closed_a:
        form, order = _least_leaf(comp)
        orders.setdefault(form, []).append(order)
    images: dict[str, list] = {}
    for comp in closed_b:
        form = _least_leaf(comp)[0]
        images.setdefault(form, []).append(list(_images(comp, form)))
    if {f: len(v) for f, v in orders.items()} != {f: len(v) for f, v in images.items()}:
        return
    main_form, main_order = _least_leaf(main_a)
    makers = [lambda: (dict(zip(main_order, image)) for image in _images(main_b, main_form))]
    makers += [lambda f=f: _matchings(orders[f], images[f]) for f in orders]
    yield from _unions(makers)
