"""Canonical forms and isomorphism of proof-structures.

Structure identity ignores node and arc ids and respects labels, premise
orders, the conclusion order, arc types and jump maps.  One engine decides
it.  Colour refinement first gives each node an integer colour: the rank of
its signature (its colour and those of its arc and jump neighbours, with the
arc types) among the sorted distinct signatures, so colours never depend on
ids.  A depth-first traversal seeded by the conclusion list then encodes the
structure.  Its only free choices are the twin arcs of an ax or cut node
that colours cannot tell apart and the start of each conclusion-free
component; every choice sequence is run, and each complete traversal (a
leaf) gives an encoding and a node visit order.  The canonical form is the
least encoding.  The choices are iso-invariant, so an isomorphism a -> b
carries a's least leaf onto an equally encoded leaf of b: pairing their
visit orders yields every isomorphism.  The symmetry refinement leaves costs
leaves (k identical closed components give k!), up to `_CHOICE_BUDGET`.
"""

from __future__ import annotations

from .errors import CanonicalLimitError
from .formulas import format_formulas
from .structure import (AX, CUT, PAR, TENSOR, ProofStructure,
                        induced_components, strip)

CanonicalForm = bytes

_CHOICE_BUDGET = 200_000


def _ranks(signatures: dict) -> tuple[dict[int, int], int]:
    """Each node's rank among the distinct signatures, and their number."""
    rank = {s: i for i, s in enumerate(sorted(set(signatures.values())))}
    return {n: rank[s] for n, s in signatures.items()}, len(rank)


def node_colors(ps: ProofStructure, type_of: dict[int, str]) -> dict[int, int]:
    """Iterated refinement of an id-independent node invariant."""
    arcs = ps.arcs
    incoming, outgoing = ps.incidence()
    concl_pos = {arcs[a][1]: i for i, a in enumerate(ps.conclusions)}
    jump_sources: dict[int, list[int]] = {}
    for src, tgt in ps.jumps.items():
        jump_sources.setdefault(tgt, []).append(src)

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
    """One depth-first traversal: its encoding and its node visit order."""
    arcs = ps.arcs
    incoming, outgoing = ps.incidence()
    node_idx: dict[int, int] = {}
    arc_idx: dict[int, int] = {}
    tokens: list[str] = [f"g{len(ps.conclusions)}"]
    walking = []  # (node, iterator over its remaining arcs), innermost last

    def far_key(a, via):
        t, h = arcs[a]
        return (type_of[a], colors[h if t == via else t])

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
        keys = [sorted(colors[n] for n in comp) for comp in comps]
        lowest = min(keys)
        least = [comp for comp, key in zip(comps, keys) if key == lowest]
        comp = least[choices.pick(len(least))]
        low = min(colors[n] for n in comp)
        starts = sorted(n for n in comp if colors[n] == low)
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
    colors = node_colors(ps, type_of)
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


def canonical_form(ps: ProofStructure) -> CanonicalForm:
    """Byte encoding equal for two structures iff they are isomorphic."""
    return min(enc for enc, _ in _leaves(ps)).encode()


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


def isomorphisms(a: ProofStructure, b: ProofStructure):
    """Yield every node bijection witnessing a ≅ b, each once.

    Types are compared when both sides carry them and ignored when only one
    side does; jump maps must correspond.
    """
    if (a.types is None) != (b.types is None):
        a, b = a.without_types(), b.without_types()
    if len(a.nodes) != len(b.nodes) or len(a.arcs) != len(b.arcs):
        return
    best, order = min(_leaves(a), key=lambda leaf: leaf[0])
    seen = set()
    for enc, image in _leaves(b):
        if enc == best and image not in seen:
            seen.add(image)
            yield dict(zip(order, image))
