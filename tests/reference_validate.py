"""`validate` and the incidence index as they were before validation became
one sweep over the nodes with a Kahn count, kept as the reference of the
package's ones: both must give the same violations, in the same order and
with the same text.

`incidence` builds a fresh index and never reads the structure's cached
one, so it checks `ProofStructure.incidence` too.
"""

from proofnets import formulas
from proofnets.formulas import format_formula, in_fragments, negate
from proofnets.structure import (_ARITY, AX, BOT, CUT, DOT, LABELS, ONE, PAR, TENSOR,
                                 ValidationReport)


def incidence(ps):
    """In-arcs and out-arcs of every node, each sorted by arc id; an arc end
    missing from `nodes` still gets an entry."""
    ins = {n: [] for n in ps.nodes}
    outs = {n: [] for n in ps.nodes}
    for a in sorted(ps.arcs):
        t, h = ps.arcs[a]
        outs.setdefault(t, []).append(a)
        ins.setdefault(h, []).append(a)
    return ins, outs


def validate(ps, frag=None) -> ValidationReport:
    v = []

    for n, lab in ps.nodes.items():
        if lab not in LABELS:
            v.append(("label", n, f"unknown label {lab!r} on node {n}"))

    for a, (t, h) in ps.arcs.items():
        if t == h:
            v.append(("arc-ends", a, f"arc {a} has identical ends"))
        for end in (t, h):
            if end not in ps.nodes:
                v.append(("arc-ends", a, f"arc {a} references missing node {end}"))
    if v:
        return ValidationReport(v)
    incoming, outgoing = incidence(ps)

    for n, lab in ps.nodes.items():
        want_in, want_out = _ARITY[lab]
        n_in, n_out = len(incoming[n]), len(outgoing[n])
        if n_in != want_in:
            kind = "binary par" if lab == PAR else f"{lab} arity"
            v.append((kind, n, f"{lab} node {n} has {n_in} premise(s), expected {want_in}"))
        if n_out != want_out:
            v.append((f"{lab} arity", n,
                      f"{lab} node {n} has {n_out} conclusion(s), expected {want_out}"))

    for n, pair in ps.premise_order.items():
        if ps.nodes.get(n) not in (TENSOR, PAR):
            v.append(("premise-order", n, f"premise order given for non-connective node {n}"))
        elif sorted(pair) != sorted(incoming[n]):
            v.append(("premise-order", n, f"premise order of node {n} does not list its premises"))
    for n, lab in ps.nodes.items():
        if lab in (TENSOR, PAR) and n not in ps.premise_order and len(incoming[n]) == 2:
            v.append(("premise-order", n, f"{lab} node {n} lacks a premise order"))

    dot_premises = [a for a, (_, h) in ps.arcs.items() if ps.nodes[h] == DOT]
    if sorted(ps.conclusions) != sorted(dot_premises):
        v.append(("conclusions", None,
                  "conclusion list does not enumerate the dot premises exactly once"))

    # dag check
    state = {n: 0 for n in ps.nodes}

    def visit(start):
        stack = [(start, iter(outgoing[start]))]
        state[start] = 1
        while stack:
            n, it = stack[-1]
            advanced = False
            for a in it:
                m = ps.arcs[a][1]
                if state[m] == 0:
                    state[m] = 1
                    stack.append((m, iter(outgoing[m])))
                    advanced = True
                    break
                if state[m] == 1:
                    v.append(("dag", m, f"directed cycle through node {m}"))
                    return False
            if not advanced:
                state[n] = 2
                stack.pop()
        return True

    for n in sorted(ps.nodes):
        if state[n] == 0 and not visit(n):
            break

    for src, tgt in ps.jumps.items():
        if ps.nodes.get(src) != BOT:
            v.append(("jump", src, f"jump source {src} is not a bot node"))
        if tgt not in ps.nodes:
            v.append(("jump", src, f"jump target {tgt} does not exist"))
        elif tgt == src:
            v.append(("jump", src, f"jump from node {src} to itself"))

    if ps.types is not None:
        missing = [a for a in ps.arcs if a not in ps.types]
        if missing:
            v.append(("typing", missing[0], f"arc {missing[0]} lacks a type"))
        else:
            v.extend(_check_types(ps, incoming, outgoing))
    if frag is not None:
        if ps.types is None:
            v.append(("fragment", None, "fragment check requires a typed structure"))
        else:
            typed = [(a, ps.types[a]) for a in sorted(ps.arcs)
                     if ps.types.get(a) is not None]
            verdicts = in_fragments((f for _, f in typed), frag)
            for a, f in typed:
                if not verdicts[f][0]:
                    v.append(("fragment", a,
                              f"type {format_formula(f)} of arc {a} outside {frag.value}"))

    return ValidationReport(v)


def _check_types(ps, incoming, outgoing):
    v = []
    ty = ps.types
    for n, lab in ps.nodes.items():
        if lab == AX and len(outgoing[n]) == 2:
            a, b = outgoing[n]
            if ty[a] is not negate(ty[b]):
                v.append(("dual ax types", n, f"ax node {n} conclusions are not dual"))
        elif lab == CUT and len(incoming[n]) == 2:
            a, b = incoming[n]
            if ty[a] is not negate(ty[b]):
                v.append(("dual cut types", n, f"cut node {n} premises are not dual"))
        elif lab == ONE and outgoing[n]:
            if ty[outgoing[n][0]] is not formulas.ONE:
                v.append(("unit type", n, f"one node {n} conclusion is not typed one"))
        elif lab == BOT and outgoing[n]:
            if ty[outgoing[n][0]] is not formulas.BOT:
                v.append(("unit type", n, f"bot node {n} conclusion is not typed bot"))
        elif lab in (TENSOR, PAR) and n in ps.premise_order and outgoing[n]:
            left, right = ps.premise_order[n]
            if left not in ty or right not in ty:
                continue
            out = ty[outgoing[n][0]]
            if out.kind != lab or out.left is not ty[left] or out.right is not ty[right]:
                v.append(("connective type", n,
                          f"{lab} node {n} conclusion type does not compose its premises"))
    return v
