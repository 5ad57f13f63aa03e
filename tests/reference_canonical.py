"""The canonical-form engine as it was before closed components were
canonicalized apart, kept as the reference of the package's one.

Colours are refined eagerly, and every component with no conclusion is a
start choice of the one traversal, so k identical closed components cost
k! traversals: keep the inputs small.  Where every component holds a
conclusion, `canonical_form` here gives the package's bytes.
"""

from proofnets.canonical import _CHOICE_BUDGET, _Choices, node_colors
from proofnets.errors import CanonicalLimitError
from proofnets.formulas import format_formulas
from proofnets.structure import AX, CUT, PAR, TENSOR, ProofStructure, induced_components


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


def canonical_form(ps: ProofStructure) -> bytes:
    """Byte encoding equal for two structures iff they are isomorphic."""
    return min(enc for enc, _ in _leaves(ps)).encode()


def iso(a: ProofStructure, b: ProofStructure) -> bool:
    """Isomorphism respecting labels, orders, types (if present) and jumps."""
    if (a.types is None) != (b.types is None):
        return False
    if len(a.nodes) != len(b.nodes) or len(a.arcs) != len(b.arcs):
        return False
    return canonical_form(a) == canonical_form(b)


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
