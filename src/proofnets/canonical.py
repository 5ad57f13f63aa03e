"""Canonical forms and isomorphism of proof-structures.

Structure identity must ignore node and arc ids while respecting labels,
premise orders, the conclusion order, arc types (when both sides are typed)
and jump maps.  The canonical form is the minimal encoding of a depth-first
traversal seeded by the conclusion list.  The only free choices left by the
fixed orders are the twin arcs of ax and cut nodes and the starting points
of components without conclusions; ties that a colour refinement cannot
split are resolved by minimizing over the remaining alternatives, which is
cheap at the sizes this package targets.
"""

from __future__ import annotations

import hashlib

from .formulas import format_formula
from .structure import (AX, CUT, DOT, PAR, TENSOR, ProofStructure,
                        induced_components)

CanonicalForm = bytes

_CHOICE_BUDGET = 200_000


def _type_str(ps, arc):
    if ps.types is None:
        return ""
    return format_formula(ps.types[arc])


def _digest(text: str) -> str:
    return hashlib.md5(text.encode()).hexdigest()[:16]


def node_colors(ps: ProofStructure) -> dict[int, str]:
    """Iterated refinement of an id-independent node invariant."""
    concl_pos = {ps.head(a): i for i, a in enumerate(ps.conclusions)}
    jump_sources = {}
    for src, tgt in ps.jumps.items():
        jump_sources.setdefault(tgt, []).append(src)

    colors = {n: _digest(f"{lab}#{concl_pos.get(n, -1)}") for n, lab in ps.nodes.items()}
    incoming, outgoing = ps.incidence()

    def describe(n):
        lab = ps.nodes[n]
        parts = [lab]
        if lab in (TENSOR, PAR) and n in ps.premise_order:
            for a in ps.premise_order[n]:
                parts.append(colors[ps.tail(a)] + _type_str(ps, a))
        else:
            parts.append("/".join(sorted(colors[ps.tail(a)] + _type_str(ps, a)
                                         for a in incoming[n])))
        parts.append("/".join(sorted(colors[ps.head(a)] + _type_str(ps, a)
                                     for a in outgoing[n])))
        tgt = ps.jumps.get(n)
        parts.append(colors[tgt] if tgt is not None else "-")
        parts.append("/".join(sorted(colors[s] for s in jump_sources.get(n, ()))))
        return "@".join(parts)

    for _ in range(len(ps.nodes)):
        new = {n: _digest(colors[n] + describe(n)) for n in ps.nodes}
        stable = _partition(new) == _partition(colors)
        colors = new
        if stable:
            break
    return colors


def _partition(colors):
    buckets = {}
    for n, c in colors.items():
        buckets.setdefault(c, set()).add(n)
    return frozenset(frozenset(b) for b in buckets.values())


class _Choices:
    """Variable-radix decision sequence discovered during a traversal."""

    def __init__(self, prefix):
        self.prefix = prefix
        self.counts = []

    def pick(self, n_options: int) -> int:
        i = len(self.counts)
        self.counts.append(n_options)
        return self.prefix[i] if i < len(self.prefix) else 0


def _encode(ps: ProofStructure, colors, choices: _Choices) -> str:
    node_idx: dict[int, int] = {}
    arc_idx: dict[int, int] = {}
    tokens: list[str] = [f"g{len(ps.conclusions)}"]
    incoming, outgoing = ps.incidence()

    def local_order(n):
        lab = ps.nodes[n]
        if lab in (TENSOR, PAR):
            return ps.premises_of(n) + outgoing[n]
        if lab in (AX, CUT):
            twins = outgoing[n] if lab == AX else incoming[n]
            done = [a for a in twins if a in arc_idx]
            todo = [a for a in twins if a not in arc_idx]
            if len(todo) <= 1:
                return sorted(done, key=arc_idx.get) + todo
            keyed = sorted(todo, key=lambda a: _arc_key(a, n))
            if _arc_key(keyed[0], n) == _arc_key(keyed[1], n):
                if choices.pick(2):
                    keyed.reverse()
            return keyed
        return incoming[n] + outgoing[n]

    def _arc_key(a, via):
        t, h = ps.arcs[a]
        far = h if t == via else t
        return (_type_str(ps, a), colors[far])

    def visit_node(n):
        node_idx[n] = len(node_idx)
        tokens.append(f"n{ps.nodes[n]}")
        for a in local_order(n):
            visit_arc(a, n)

    def visit_arc(a, via):
        if a in arc_idx:
            tokens.append(f"A{arc_idx[a]}")
            return
        arc_idx[a] = len(arc_idx)
        t, h = ps.arcs[a]
        direction = "d" if via == t else "u"
        tokens.append(f"a{direction}:{_type_str(ps, a)}")
        other = h if via == t else t
        if other in node_idx:
            tokens.append(f"N{node_idx[other]}")
        else:
            visit_node(other)

    for c in ps.conclusions:
        tokens.append("c")
        dot = ps.head(c)
        if dot in node_idx:
            tokens.append(f"N{node_idx[dot]}")
        else:
            visit_node(dot)

    while len(node_idx) < len(ps.nodes):
        remaining = [n for n in ps.nodes if n not in node_idx]
        comps = induced_components(ps, remaining)
        keyed = sorted(comps, key=lambda comp: sorted(colors[n] for n in comp))
        least = [comp for comp in keyed
                 if sorted(colors[n] for n in comp) == sorted(colors[n] for n in keyed[0])]
        comp = least[choices.pick(len(least))] if len(least) > 1 else least[0]
        min_color = min(colors[n] for n in comp)
        starts = sorted(n for n in comp if colors[n] == min_color)
        start = starts[choices.pick(len(starts))] if len(starts) > 1 else starts[0]
        tokens.append("k")
        visit_node(start)

    for n in sorted(ps.jumps, key=node_idx.get):
        tokens.append(f"J{node_idx[n]}>{node_idx[ps.jumps[n]]}")
    tokens.append(f"z{len(ps.nodes)},{len(ps.arcs)}")
    return "|".join(tokens)


def canonical_form(ps: ProofStructure) -> CanonicalForm:
    """Byte encoding equal for two structures iff they are isomorphic."""
    colors = node_colors(ps)
    best = None
    stack = [()]
    explored = 0
    while stack:
        prefix = stack.pop()
        explored += 1
        if explored > _CHOICE_BUDGET:
            raise RuntimeError("canonical form: too many symmetric alternatives")
        choices = _Choices(list(prefix))
        enc = _encode(ps, colors, choices)
        if len(choices.counts) > len(prefix):
            n_options = choices.counts[len(prefix)]
            for opt in range(n_options):
                stack.append(prefix + (opt,))
            continue
        if best is None or enc < best:
            best = enc
    return best.encode()


def iso(a: ProofStructure, b: ProofStructure) -> bool:
    """Isomorphism respecting labels, orders, types (if present) and jumps."""
    if (a.types is None) != (b.types is None):
        return False
    if len(a.nodes) != len(b.nodes) or len(a.arcs) != len(b.arcs):
        return False
    return canonical_form(a) == canonical_form(b)


def iso_untyped(a: ProofStructure, b: ProofStructure) -> bool:
    """Isomorphism of the underlying geometric structures."""
    from .structure import strip
    return iso(strip(a), strip(b))


# -- explicit isomorphism enumeration ---------------------------------------


def isomorphisms(a: ProofStructure, b: ProofStructure, *, with_types=True,
                 with_jumps=True):
    """Yield every node bijection witnessing a ≅ b.

    Types are compared only when both sides carry them and `with_types`
    holds.  Jump maps must correspond when `with_jumps` holds.
    """
    if len(a.nodes) != len(b.nodes) or len(a.arcs) != len(b.arcs):
        return
    if len(a.conclusions) != len(b.conclusions):
        return
    typed = with_types and a.types is not None and b.types is not None

    def arc_type_ok(x, y):
        return not typed or a.types[x] == b.types[y]

    def solve(node_map, arc_map, rev_nodes, rev_arcs, agenda):
        # Propagate forced pairings to a fixpoint.
        pending = list(agenda)
        while pending:
            kind, x, y = pending.pop()
            if kind == "arc":
                if x in arc_map:
                    if arc_map[x] != y:
                        return
                    continue
                if y in rev_arcs or not arc_type_ok(x, y):
                    return
                arc_map[x] = y
                rev_arcs[y] = x
                (ta, ha), (tb, hb) = a.arcs[x], b.arcs[y]
                pending.append(("node", ta, tb))
                pending.append(("node", ha, hb))
                continue
            if x in node_map:
                if node_map[x] != y:
                    return
                continue
            if y in rev_nodes or a.nodes[x] != b.nodes[y]:
                return
            node_map[x] = y
            rev_nodes[y] = x
            lab = a.nodes[x]
            if lab in (TENSOR, PAR):
                for xa, ya in zip(a.premise_order[x], b.premise_order[y]):
                    pending.append(("arc", xa, ya))
                pending.append(("arc", a.conclusions_of(x)[0], b.conclusions_of(y)[0]))
            elif lab in (AX, CUT):
                pass  # twin arcs are unordered; resolved at the fixpoint below
            elif lab == DOT:
                pending.append(("arc", a.premises_of(x)[0], b.premises_of(y)[0]))
            else:
                for xa, ya in zip(a.conclusions_of(x), b.conclusions_of(y)):
                    pending.append(("arc", xa, ya))

        # Resolve the next open twin-arc decision among mapped ax/cut nodes.
        for x in sorted(node_map):
            lab = a.nodes[x]
            if lab not in (AX, CUT):
                continue
            y = node_map[x]
            xs = a.conclusions_of(x) if lab == AX else a.premises_of(x)
            ys = b.conclusions_of(y) if lab == AX else b.premises_of(y)
            open_xs = [arc for arc in xs if arc not in arc_map]
            open_ys = [arc for arc in ys if arc not in rev_arcs]
            if not open_xs and not open_ys:
                continue
            if len(open_xs) != len(open_ys):
                return
            first = open_xs[0]
            for mate in open_ys:
                yield from solve(dict(node_map), dict(arc_map), dict(rev_nodes),
                                 dict(rev_arcs), [("arc", first, mate)])
            return

        if len(node_map) < len(a.nodes):
            x = min(n for n in a.nodes if n not in node_map)
            for y in sorted(b.nodes):
                if y in rev_nodes or b.nodes[y] != a.nodes[x]:
                    continue
                yield from solve(dict(node_map), dict(arc_map), dict(rev_nodes),
                                 dict(rev_arcs), [("node", x, y)])
            return

        if len(arc_map) != len(a.arcs):
            return
        if with_jumps:
            if len(a.jumps) != len(b.jumps):
                return
            for src, tgt in a.jumps.items():
                if b.jumps.get(node_map[src]) != node_map[tgt]:
                    return
        yield dict(node_map)

    agenda = [("arc", x, y) for x, y in zip(a.conclusions, b.conclusions)]
    yield from solve({}, {}, {}, {}, agenda)
