"""Proof-structures: labelled incidence graphs with ordered premises.

A structure is a finite dag whose nodes carry one of the labels ax, cut,
one, bot, tensor, par, dot.  Arcs run downward from their tail (the node
they are a conclusion of) to their head (the node they are a premise of).
Conclusions of the whole structure are the premises of dot nodes and are
totally ordered.  Tensor and par nodes order their two premises.  Arcs may
carry formula types; bot nodes may carry a jump target used when building
switching graphs.

A structure owns its incidence index: the in- and out-arcs of every node,
built on first use, and likewise the sorted list of its par nodes.  The
dicts it holds are never changed in place once it exists: every rewriting
operation assembles plain dicts and constructs a fresh structure.
Assigning `nodes` or `arcs` anew drops both, so the next query rebuilds
them; premise orders are read live.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

from . import formulas
from .errors import ParseError, ValidationError
from .formulas import (Formula, Fragment, format_formula, format_formulas, in_fragments,
                       negate, parse_formula, parse_formulas)

AX = "ax"
CUT = "cut"
ONE = "one"
BOT = "bot"
TENSOR = "tensor"
PAR = "par"
DOT = "dot"

LABELS = (AX, CUT, ONE, BOT, TENSOR, PAR, DOT)

# (premises, conclusions) per label
_ARITY = {
    AX: (0, 2),
    CUT: (2, 0),
    ONE: (0, 1),
    BOT: (0, 1),
    TENSOR: (2, 1),
    PAR: (2, 1),
    DOT: (1, 0),
}


class ValidationReport:
    """Outcome of validate(): ok iff the violation list is empty."""

    def __init__(self, violations):
        self.violations = list(violations)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            return "ValidationReport(ok)"
        return f"ValidationReport({self.violations!r})"


_INDEXED = ("nodes", "arcs")


class ProofStructure:
    """Incidence graph with premise orders, ordered conclusions, optional
    arc types and an optional partial jump map on bot nodes."""

    _index = None  # (in-arcs, out-arcs) per node; see incidence()
    _pars = None  # sorted par nodes; see par_nodes()

    def __init__(self, nodes=None, arcs=None, premise_order=None,
                 conclusions=(), types=None, jumps=None):
        self.nodes: dict[int, str] = dict(nodes or {})
        self.arcs: dict[int, tuple[int, int]] = {a: (t, h) for a, (t, h) in (arcs or {}).items()}
        self.premise_order: dict[int, tuple[int, int]] = {
            n: tuple(pair) for n, pair in (premise_order or {}).items()
        }
        self.conclusions: tuple[int, ...] = tuple(conclusions)
        self.types: dict[int, Formula] | None = dict(types) if types is not None else None
        self.jumps: dict[int, int] = dict(jumps or {})

    def __setattr__(self, name, value):
        if name in _INDEXED:
            self.__dict__.pop("_index", None)
            self.__dict__.pop("_pars", None)
        object.__setattr__(self, name, value)

    # -- incidence ---------------------------------------------------------

    def incidence(self) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
        """In-arcs and out-arcs of every node, each sorted by arc id.

        Built once and shared with the jump- and type-free views; callers
        must not change the lists.  An arc end missing from `nodes` still
        gets an entry.
        """
        if self._index is None:
            ins = {n: [] for n in self.nodes}
            outs = {n: [] for n in self.nodes}
            for a in sorted(self.arcs):
                t, h = self.arcs[a]
                outs.setdefault(t, []).append(a)
                ins.setdefault(h, []).append(a)
            self._index = (ins, outs)
        return self._index

    def premises_of(self, node: int) -> list[int]:
        """Incoming arcs of a node, ordered for tensor/par nodes."""
        if node in self.premise_order:
            return list(self.premise_order[node])
        return list(self.incidence()[0].get(node, ()))

    def conclusions_of(self, node: int) -> list[int]:
        return list(self.incidence()[1].get(node, ()))

    def tail(self, arc: int) -> int:
        return self.arcs[arc][0]

    def head(self, arc: int) -> int:
        return self.arcs[arc][1]

    def nodes_with_label(self, label: str) -> list[int]:
        return sorted(n for n, lab in self.nodes.items() if lab == label)

    def bottom_nodes(self) -> list[int]:
        return self.nodes_with_label(BOT)

    def par_nodes(self) -> list[int]:
        if self._pars is None:
            self._pars = tuple(self.nodes_with_label(PAR))
        return list(self._pars)

    def terminal_nodes(self) -> list[int]:
        """Non-dot nodes all of whose conclusions are conclusions of the
        structure (nodes without conclusion arcs qualify vacuously)."""
        concl = set(self.conclusions)
        out = []
        for n, lab in sorted(self.nodes.items()):
            if lab == DOT:
                continue
            if all(a in concl for a in self.conclusions_of(n)):
                out.append(n)
        return out

    def fresh_node_id(self) -> int:
        return max(self.nodes, default=-1) + 1

    def fresh_arc_id(self) -> int:
        return max(self.arcs, default=-1) + 1

    # -- conversions -------------------------------------------------------

    def copy(self) -> "ProofStructure":
        return ProofStructure(self.nodes, self.arcs, self.premise_order,
                              self.conclusions, self.types, self.jumps)

    def without_jumps(self) -> "ProofStructure":
        ps = ProofStructure(self.nodes, self.arcs, self.premise_order,
                            self.conclusions, self.types)
        ps._index = self._index
        return ps

    def without_types(self) -> "ProofStructure":
        ps = ProofStructure(self.nodes, self.arcs, self.premise_order,
                            self.conclusions, None, self.jumps)
        ps._index = self._index
        return ps

    def __repr__(self):
        return (f"ProofStructure(nodes={len(self.nodes)}, arcs={len(self.arcs)}, "
                f"conclusions={len(self.conclusions)})")


def ensure_valid(ps: ProofStructure, frag: Fragment | None = None) -> None:
    report = validate(ps, frag)
    if not report.ok:
        raise ValidationError(report)


def validate(ps: ProofStructure, frag: Fragment | None = None) -> ValidationReport:
    """Check every structural invariant; with `frag`, also require a typing
    whose formulas all live in that fragment."""
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
    incoming, outgoing = ps.incidence()

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
            # one fold decides every distinct type, sharing the subformulas
            verdicts = in_fragments((f for _, f in typed), frag)
            for a, f in typed:
                if not verdicts[f][0]:
                    v.append(("fragment", a,
                              f"type {format_formula(f)} of arc {a} outside {frag.value}"))

    return ValidationReport(v)


def _check_types(ps, incoming, outgoing):
    # formulas are interned: equal types are the same object
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
                continue  # not arcs: a premise-order violation already
            out = ty[outgoing[n][0]]
            if out.kind != lab or out.left is not ty[left] or out.right is not ty[right]:
                v.append(("connective type", n,
                          f"{lab} node {n} conclusion type does not compose its premises"))
    return v


# -- derived notions -------------------------------------------------------


def topological_order(nodes, arcs) -> list[int]:
    """Nodes ordered so every arc's tail precedes its head."""
    indeg = {n: 0 for n in nodes}
    succs = {n: [] for n in nodes}
    for t, h in arcs.values():
        indeg[h] += 1
        succs[t].append(h)
    ready = sorted(n for n, d in indeg.items() if d == 0)
    out = []
    while ready:
        n = ready.pop()
        out.append(n)
        for m in sorted(succs[n], reverse=True):
            indeg[m] -= 1
            if indeg[m] == 0:
                ready.append(m)
    return out


def erasing_nodes(ps: ProofStructure) -> set[int]:
    """Bot, par and dot nodes of a structure all of whose premises come
    from erasing nodes."""
    incoming = ps.incidence()[0]
    erasing = set()
    for n in topological_order(ps.nodes, ps.arcs):
        if ps.nodes[n] in (BOT, PAR, DOT) and all(
                ps.arcs[a][0] in erasing for a in incoming[n]):
            erasing.add(n)
    return erasing


def induced_components(ps: ProofStructure, nodes) -> list[set[int]]:
    """Connected components of the undirected graph that `nodes` induce,
    ordered by their least node."""
    nodes = set(nodes)
    incoming, outgoing = ps.incidence()
    comps, seen = [], set()
    for n in sorted(nodes):
        if n in seen:
            continue
        comp, stack = {n}, [n]
        seen.add(n)
        while stack:
            cur = stack.pop()
            for m in ([ps.arcs[a][0] for a in incoming[cur]]
                      + [ps.arcs[a][1] for a in outgoing[cur]]):
                if m in nodes and m not in seen:
                    seen.add(m)
                    comp.add(m)
                    stack.append(m)
        comps.append(comp)
    return comps


def restrict(ps: ProofStructure, nodes, conclusions) -> ProofStructure:
    """The sub-structure on `nodes` with the conclusion arcs `conclusions`.

    Arcs and jumps survive when both their ends are kept; premise orders
    and types follow the kept nodes and arcs.  Each conclusion arc leaving
    `nodes` is capped by a fresh dot, numbered upward from `fresh_node_id`
    in the order of `conclusions`.
    """
    outgoing = ps.incidence()[1]
    kept = {n: ps.nodes[n] for n in sorted(nodes)}
    arcs = {a: ps.arcs[a] for a in sorted(a for n in kept for a in outgoing[n])
            if ps.arcs[a][1] in kept}
    premise_order = {n: ps.premise_order[n] for n in kept if n in ps.premise_order}
    jumps = {n: ps.jumps[n] for n in kept if ps.jumps.get(n) in kept}
    dot = ps.fresh_node_id()
    for c in conclusions:
        if c not in arcs:
            kept[dot] = DOT
            arcs[c] = (ps.arcs[c][0], dot)
            dot += 1
    types = None if ps.types is None else {a: ps.types[a] for a in arcs}
    return ProofStructure(kept, arcs, premise_order, conclusions, types, jumps)


def is_wten(ps: ProofStructure) -> tuple[bool, tuple[int, int] | None]:
    """True iff no premise of a cut or tensor node is the conclusion of an
    erasing node; otherwise also return one offending (node, premise arc)."""
    erasing = erasing_nodes(ps)
    for n in sorted(ps.nodes):
        if ps.nodes[n] not in (CUT, TENSOR):
            continue
        for a in ps.premises_of(n):
            if ps.tail(a) in erasing:
                return False, (n, a)
    return True, None


def precedes(ps: ProofStructure, n: int, m: int) -> bool:
    """True iff a non-empty directed path runs from n down to m.  Only
    `arcs` and the out-arcs of `incidence()` are read, so cut elimination's
    private net answers it too."""
    outgoing, arcs = ps.incidence()[1], ps.arcs
    seen = set()
    stack = [n]
    while stack:
        cur = stack.pop()
        for a in outgoing.get(cur, ()):
            h = arcs[a][1]
            if h == m:
                return True
            if h not in seen:
                seen.add(h)
                stack.append(h)
    return False


def descent_chain(ps: ProofStructure, n: int) -> list[int]:
    """Nodes strictly below n, in order, for nodes with at most one
    conclusion arc all the way down (holds below any non-ax node)."""
    chain = []
    cur = n
    while True:
        out = ps.conclusions_of(cur)
        if not out:
            return chain
        if len(out) > 1:
            raise ValueError(f"node {cur} has several conclusions; descent is not a chain")
        cur = ps.head(out[0])
        chain.append(cur)


def strip(ps: ProofStructure) -> ProofStructure:
    """Forget types and jumps (the purely geometric structure)."""
    return ps.without_types().without_jumps()


def jump_free(ps: ProofStructure) -> bool:
    return not ps.jumps


def jump_total(ps: ProofStructure) -> bool:
    return set(ps.jumps) == set(ps.bottom_nodes())


def jump_arcs(ps: ProofStructure) -> dict[int, tuple[int, int]]:
    """One (bot, target) edge per jump, as arcs numbered upward from
    `fresh_arc_id` in order of bot node."""
    return {a: (src, ps.jumps[src])
            for a, src in enumerate(sorted(ps.jumps), ps.fresh_arc_id())}


# -- serialization ---------------------------------------------------------


def to_json_dict(ps: ProofStructure) -> dict:
    doc = {
        "nodes": [{"id": n, "label": lab} for n, lab in sorted(ps.nodes.items())],
        "arcs": [{"id": a, "tail": t, "head": h} for a, (t, h) in sorted(ps.arcs.items())],
        "premises": {str(n): list(pair) for n, pair in sorted(ps.premise_order.items())},
        "conclusions": list(ps.conclusions),
    }
    if ps.types is not None:
        texts = format_formulas(ps.types.values())
        doc["types"] = {str(a): texts[f] for a, f in sorted(ps.types.items())}
    if ps.jumps:
        doc["jumps"] = {str(n): m for n, m in sorted(ps.jumps.items())}
    return doc


def to_json(ps: ProofStructure) -> str:
    """The text of `json.dumps(to_json_dict(ps), indent=2)`, written for the
    fixed shape of that document: with an indent, `json` would encode it
    with its pure-Python encoder."""
    fields = [
        ("nodes", "[]", [f'{{\n      "id": {n},\n      "label": '
                         f'{encode_basestring_ascii(lab)}\n    }}'
                         for n, lab in sorted(ps.nodes.items())]),
        ("arcs", "[]", [f'{{\n      "id": {a},\n      "tail": {t},\n      "head": {h}\n    }}'
                        for a, (t, h) in sorted(ps.arcs.items())]),
        ("premises", "{}", [f'"{n}": [\n      {left},\n      {right}\n    ]'
                            for n, (left, right) in sorted(ps.premise_order.items())]),
        ("conclusions", "[]", [str(a) for a in ps.conclusions]),
    ]
    if ps.types is not None:
        texts = format_formulas(ps.types.values())
        fields.append(("types", "{}", [f'"{a}": {encode_basestring_ascii(texts[f])}'
                                       for a, f in sorted(ps.types.items())]))
    if ps.jumps:
        fields.append(("jumps", "{}", [f'"{n}": {m}' for n, m in sorted(ps.jumps.items())]))
    blocks = []
    for key, (start, end), items in fields:
        # one item a line, two levels deep; an empty field is [] or {}
        inner = "\n    " + ",\n    ".join(items) + "\n  " if items else ""
        blocks.append(f'"{key}": {start}{inner}{end}')
    return "{\n  " + ",\n  ".join(blocks) + "\n}"


def from_json_dict(doc: dict) -> ProofStructure:
    if not isinstance(doc, dict):
        raise ParseError("malformed structure document: expected a JSON object")
    try:
        nodes = {int(rec["id"]): rec["label"] for rec in doc["nodes"]}
        arcs = {int(rec["id"]): (int(rec["tail"]), int(rec["head"])) for rec in doc["arcs"]}
        premise_order = {}
        for n, pair in _json_object(doc, "premises").items():
            if not isinstance(pair, list) or len(pair) != 2:
                raise ParseError(f"malformed structure document: premises of node {n}"
                                 " are not a pair of arc ids")
            premise_order[int(n)] = (int(pair[0]), int(pair[1]))
        conclusions = tuple(int(a) for a in doc.get("conclusions", []))
        types = None
        if "types" in doc:
            types = {}
            texts = _json_object(doc, "types")
            parsed = parse_formulas(t for t in texts.values() if isinstance(t, str))
            # the first offending arc in document order raises
            for a, text in texts.items():
                if not isinstance(text, str):
                    raise ParseError(f"malformed structure document: type of arc {a}"
                                     " is not a string")
                f = parsed[text]
                if isinstance(f, ParseError):
                    raise f
                types[int(a)] = f
        jumps = {int(n): int(m) for n, m in _json_object(doc, "jumps").items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed structure document: {exc}") from None
    return ProofStructure(nodes, arcs, premise_order, conclusions, types, jumps)


def _json_object(doc: dict, key: str) -> dict:
    value = doc.get(key, {})
    if not isinstance(value, dict):
        raise ParseError(f"malformed structure document: {key!r} is not an object")
    return value


def from_json(text: str) -> ProofStructure:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    return from_json_dict(doc)


def to_dsl(ps: ProofStructure) -> str:
    """Line-oriented mirror of the JSON schema."""
    lines = []
    for n, lab in sorted(ps.nodes.items()):
        if n in ps.premise_order:
            left, right = ps.premise_order[n]
            lines.append(f"node {n} {lab} {left} {right}")
        else:
            lines.append(f"node {n} {lab}")
    for a, (t, h) in sorted(ps.arcs.items()):
        lines.append(f"arc {a} {t} {h}")
    if ps.conclusions:
        lines.append("conclusions " + " ".join(str(a) for a in ps.conclusions))
    if ps.types is not None:
        texts = format_formulas(ps.types.values())
        for a, f in sorted(ps.types.items()):
            lines.append(f"type {a} {texts[f]}")
    for n, m in sorted(ps.jumps.items()):
        lines.append(f"jump {n} {m}")
    return "\n".join(lines) + "\n"


def from_dsl(text: str) -> ProofStructure:
    nodes, arcs, premise_order, jumps = {}, {}, {}, {}
    conclusions = ()
    types = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "node":
                nid, lab = int(parts[1]), parts[2]
                nodes[nid] = lab
                if len(parts) == 5:
                    premise_order[nid] = (int(parts[3]), int(parts[4]))
                elif len(parts) != 3:
                    raise ValueError("node takes an id, a label and optionally two premise arcs")
            elif kind == "arc":
                arcs[int(parts[1])] = (int(parts[2]), int(parts[3]))
            elif kind == "conclusions":
                conclusions = tuple(int(a) for a in parts[1:])
            elif kind == "type":
                if types is None:
                    types = {}
                types[int(parts[1])] = parse_formula(" ".join(parts[2:]))
            elif kind == "jump":
                jumps[int(parts[1])] = int(parts[2])
            else:
                raise ValueError(f"unknown directive {kind!r}")
        except (IndexError, ValueError) as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    return ProofStructure(nodes, arcs, premise_order, conclusions, types, jumps)


def load_structure(text: str) -> ProofStructure:
    """Accept either the JSON schema or the line DSL."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return from_json(text)
    return from_dsl(text)
