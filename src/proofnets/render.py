"""Deterministic DOT export for structures and switching graphs."""

from __future__ import annotations

from .formulas import format_formulas
from .structure import AX, BOT, CUT, DOT, ONE, PAR, TENSOR, ProofStructure, jump_arcs
from .switching import Switching, switching_graph

_SHAPE = {AX: "triangle", CUT: "invtriangle", ONE: "circle", BOT: "circle",
          TENSOR: "box", PAR: "diamond", DOT: "point"}
_TEXT = {AX: "ax", CUT: "cut", ONE: "1", BOT: "⊥",
         TENSOR: "⊗", PAR: "⅋", DOT: ""}


def export_dot(ps: ProofStructure, switching: Switching | None = None) -> str:
    """Render a structure (or its switching graph) as DOT text.

    Premise order shows as head ports (nw for left, ne for right), jump
    arcs are dashed, and the conclusion dots share the lowest rank.  The
    output is byte-deterministic for a given input.
    """
    jumps = jump_arcs(ps)
    if switching is not None:
        nodes, arcs = switching_graph(ps, switching)
    else:
        # draw jumps even without a switching; they are not real arcs
        nodes, arcs = ps.nodes, {**ps.arcs, **jumps}
    premise_order = ps.premise_order

    lines = ["digraph proofstructure {", "  rankdir=TB;",
             '  node [fontname="Helvetica"];']
    for n in sorted(nodes):
        lab = nodes[n]
        text = _TEXT[lab]
        shape = _SHAPE[lab]
        lines.append(f'  n{n} [label="{text}" shape={shape}];')
    types = ps.types or {}
    labels = format_formulas(types[a] for a in arcs if a in types)
    port_of = {}
    for n, (left, right) in sorted(premise_order.items()):
        port_of[(left, n)] = "nw"
        port_of[(right, n)] = "ne"
    for a in sorted(arcs):
        t, h = arcs[a]
        attrs = []
        if (a, h) in port_of:
            attrs.append(f'headport={port_of[(a, h)]}')
        if a in jumps:
            attrs.append("style=dashed")
        if a in types:
            attrs.append(f'label="{labels[types[a]]}"')
        suffix = f' [{" ".join(attrs)}]' if attrs else ""
        lines.append(f"  n{t} -> n{h}{suffix};")
    conclusion_dots = sorted({arcs[a][1] for a in ps.conclusions if a in arcs})
    if conclusion_dots:
        lines.append("  { rank=sink; " + " ".join(f"n{d};" for d in conclusion_dots) + " }")
    lines.append("}")
    return "\n".join(lines) + "\n"
