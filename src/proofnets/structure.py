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

Ownership follows from that rule.  The public constructor and `copy` copy
the dicts they are given.  Builders that assemble fresh dicts (the JSON
and DSL readers, `restrict`, desequentialization and cut elimination's
net) hand them over to the structure uncopied, and must not touch them
afterwards.  Views (`with_jumps`, `without_jumps`, `without_types`) share
their owner's dicts and incidence index; only the part they replace is
new.
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
_fill = object.__setattr__  # sets a field past ProofStructure.__setattr__


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

    @classmethod
    def _adopt(cls, nodes, arcs, premise_order, conclusions, types, jumps):
        """A structure that takes fresh dicts over as they are: `arcs` and
        `premise_order` must map to tuples, `conclusions` must be a tuple,
        and the caller must not change any of them afterwards."""
        ps = object.__new__(cls)
        _fill(ps, "nodes", nodes)
        _fill(ps, "arcs", arcs)
        _fill(ps, "premise_order", premise_order)
        _fill(ps, "conclusions", conclusions)
        _fill(ps, "types", types)
        _fill(ps, "jumps", jumps)
        return ps

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
            arcs = self.arcs
            for a in sorted(arcs):
                t, h = arcs[a]
                if t in outs and h in ins:
                    outs[t].append(a)
                    ins[h].append(a)
                else:
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

    def _view(self, types, jumps) -> "ProofStructure":
        # shares every dict but the replaced ones, and the index and pars,
        # which neither types nor jumps take part in
        ps = ProofStructure._adopt(self.nodes, self.arcs, self.premise_order,
                                   self.conclusions, types, jumps)
        ps._index, ps._pars = self._index, self._pars
        return ps

    def with_jumps(self, jumps) -> "ProofStructure":
        """The structure with a copy of another jump map, sharing the rest."""
        return self._view(self.types, dict(jumps) if jumps else {})

    def without_jumps(self) -> "ProofStructure":
        return self.with_jumps(None)

    def without_types(self) -> "ProofStructure":
        return self._view(None, self.jumps)

    def __repr__(self):
        return (f"ProofStructure(nodes={len(self.nodes)}, arcs={len(self.arcs)}, "
                f"conclusions={len(self.conclusions)})")


def ensure_valid(ps: ProofStructure) -> None:
    report = validate(ps)
    if not report.ok:
        raise ValidationError(report)


def validate(ps: ProofStructure, frag: Fragment | None = None) -> ValidationReport:
    """Check every structural invariant; with `frag`, also require a typing
    whose formulas all live in that fragment.

    Violations come in a fixed order: unknown labels and bad arc ends, and
    nothing else when there is one of those; then arities, premise orders,
    the conclusion list, one directed cycle, jumps, types and the fragment.

    One sweep over the nodes reads their labels and the incidence index:
    it checks labels and arities, finds connectives lacking a premise
    order, counts the dot premises and notes in-degrees.  Arc ends are not
    scanned on their own: an end missing from `nodes` gets a key of its own
    in the index, and an arc with identical ends closes a cycle, so only a
    larger index or a cycle calls for the scan.  Acyclicity is Kahn's
    count: a node is counted once every premise arc comes from a counted
    node, and the structure is a dag iff every node gets counted.  When one
    is left, a depth-first search from each node in ascending order names
    the node through which it first meets a directed cycle.
    """
    nodes, arcs, order = ps.nodes, ps.arcs, ps.premise_order
    incoming, outgoing = ps.incidence()
    labels, v, unordered = [], [], []
    dot_premises = 0
    indeg = {}  # nodes with premises -> premise arcs from nodes not yet counted
    counted = []  # Kahn's count; starts with the premise-free nodes
    for n, lab in nodes.items():
        try:
            want_in, want_out = _ARITY[lab]
        except (KeyError, TypeError):  # an unhashable label is unknown too
            labels.append(("label", n, f"unknown label {lab!r} on node {n}"))
            continue
        n_in, n_out = len(incoming[n]), len(outgoing[n])
        if n_in != want_in:
            kind = "binary par" if lab == PAR else f"{lab} arity"
            v.append((kind, n, f"{lab} node {n} has {n_in} premise(s), expected {want_in}"))
        if n_out != want_out:
            v.append((f"{lab} arity", n,
                      f"{lab} node {n} has {n_out} conclusion(s), expected {want_out}"))
        if not n_in:
            counted.append(n)
            continue
        indeg[n] = n_in
        if lab == DOT:
            dot_premises += n_in
        elif n_in == 2 and lab in (TENSOR, PAR) and n not in order:
            unordered.append(("premise-order", n, f"{lab} node {n} lacks a premise order"))
    if labels or len(incoming) != len(nodes) or len(outgoing) != len(nodes):
        return ValidationReport(labels + _arc_end_violations(ps))

    for n in counted:  # the list grows as the count goes
        for a in outgoing[n]:
            h = arcs[a][1]
            left = indeg[h] - 1
            if left:
                indeg[h] = left
            else:
                counted.append(h)
    cyclic = len(counted) != len(nodes)
    if cyclic:
        ends = _arc_end_violations(ps)
        if ends:
            return ValidationReport(ends)

    for n, pair in order.items():
        if nodes.get(n) not in (TENSOR, PAR):
            v.append(("premise-order", n, f"premise order given for non-connective node {n}"))
        elif sorted(pair) != incoming[n]:  # in-arcs are sorted already
            v.append(("premise-order", n, f"premise order of node {n} does not list its premises"))
    v += unordered

    # the conclusions list every dot premise exactly once
    conclusions = ps.conclusions
    if (len(conclusions) != dot_premises or len(set(conclusions)) != dot_premises
            or not all(c in arcs and nodes[arcs[c][1]] == DOT for c in conclusions)):
        v.append(("conclusions", None,
                  "conclusion list does not enumerate the dot premises exactly once"))

    if cyclic:
        m = _cycle_node(ps, outgoing)
        v.append(("dag", m, f"directed cycle through node {m}"))

    for src, tgt in ps.jumps.items():
        if nodes.get(src) != BOT:
            v.append(("jump", src, f"jump source {src} is not a bot node"))
        if tgt not in nodes:
            v.append(("jump", src, f"jump target {tgt} does not exist"))
        elif tgt == src:
            v.append(("jump", src, f"jump from node {src} to itself"))

    ty = ps.types
    if ty is not None:
        if ty.keys() >= arcs.keys():
            v += _check_types(ps, incoming, outgoing)
        else:
            missing = next(a for a in arcs if a not in ty)
            v.append(("typing", missing, f"arc {missing} lacks a type"))
    if frag is not None:
        if ty is None:
            v.append(("fragment", None, "fragment check requires a typed structure"))
        else:
            typed = [(a, ty[a]) for a in sorted(arcs) if ty.get(a) is not None]
            # one fold decides every distinct type, sharing the subformulas
            verdicts = in_fragments((f for _, f in typed), frag)
            for a, f in typed:
                if not verdicts[f][0]:
                    v.append(("fragment", a,
                              f"type {format_formula(f)} of arc {a} outside {frag.value}"))

    return ValidationReport(v)


def _arc_end_violations(ps: ProofStructure) -> list[tuple]:
    v = []
    for a, (t, h) in ps.arcs.items():
        if t == h:
            v.append(("arc-ends", a, f"arc {a} has identical ends"))
        for end in (t, h):
            if end not in ps.nodes:
                v.append(("arc-ends", a, f"arc {a} references missing node {end}"))
    return v


def _cycle_node(ps: ProofStructure, outgoing) -> int:
    """The node through which a depth-first search, started from each node
    in ascending order, first closes a directed cycle; ps must have one."""
    state = {n: 0 for n in ps.nodes}  # 0 unseen, 1 on the path, 2 done
    for start in sorted(ps.nodes):
        if state[start]:
            continue
        stack = [(start, iter(outgoing[start]))]
        state[start] = 1
        while stack:
            n, it = stack[-1]
            for a in it:
                m = ps.arcs[a][1]
                if state[m] == 1:
                    return m
                if state[m] == 0:
                    state[m] = 1
                    stack.append((m, iter(outgoing[m])))
                    break
            else:
                state[n] = 2
                stack.pop()
    raise ValueError("the structure has no directed cycle")


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
            pair = ps.premise_order[n]
            if len(pair) != 2 or pair[0] not in ty or pair[1] not in ty:
                continue  # not two arcs: a premise-order violation already
            left, right = pair
            out = ty[outgoing[n][0]]
            if out.kind != lab or out.left is not ty[left] or out.right is not ty[right]:
                v.append(("connective type", n,
                          f"{lab} node {n} conclusion type does not compose its premises"))
    return v


# -- derived notions -------------------------------------------------------


def topological_order(ps: ProofStructure) -> list[int]:
    """Nodes ordered so every arc's tail precedes its head."""
    incoming, outgoing = ps.incidence()
    indeg = {n: len(incoming[n]) for n in ps.nodes}
    ready = sorted(n for n, d in indeg.items() if d == 0)
    out = []
    while ready:
        n = ready.pop()
        out.append(n)
        for m in sorted((ps.arcs[a][1] for a in outgoing[n]), reverse=True):
            indeg[m] -= 1
            if indeg[m] == 0:
                ready.append(m)
    return out


def erasing_nodes(ps: ProofStructure) -> set[int]:
    """Bot, par and dot nodes of a structure all of whose premises come
    from erasing nodes.

    Propagated down the arcs from the premise-free ones (the bot nodes of a
    valid structure): a node joins once its last premise has, so no
    topological order is needed, and a node on a directed cycle never does.
    """
    incoming, outgoing = ps.incidence()
    waiting = {}  # bot, par or dot node -> premises not yet known erasing
    erasing = []
    for n, lab in ps.nodes.items():
        if lab in (BOT, PAR, DOT):
            if incoming[n]:
                waiting[n] = len(incoming[n])
            else:
                erasing.append(n)
    for n in erasing:  # the list grows as the propagation goes
        for a in outgoing[n]:
            h = ps.arcs[a][1]
            if h in waiting:
                waiting[h] -= 1
                if not waiting[h]:
                    erasing.append(h)
    return set(erasing)


def arc_polarities(ps: ProofStructure) -> dict[int, str | None]:
    """The polarity of every typed arc: "O" or "I" in the intuitionistic
    grammar, None outside it; one fold over the distinct types."""
    verdicts = in_fragments(ps.types.values(), Fragment.IMLL)
    return {a: verdicts[f][1] for a, f in ps.types.items()}


def jump_sources(ps: ProofStructure) -> dict[int, list[int]]:
    """The bots jumping to each jump target."""
    sources: dict[int, list[int]] = {}
    for src, tgt in ps.jumps.items():
        sources.setdefault(tgt, []).append(src)
    return sources


def induced_components(ps: ProofStructure, nodes, jumps: bool = False) -> list[set[int]]:
    """Connected components of the undirected graph that `nodes` induce,
    ordered by their least node; with `jumps`, each jump also joins its bot
    to its target."""
    left = set(nodes)  # the nodes no component holds yet
    arcs = ps.arcs
    incoming, outgoing = ps.incidence()
    targets, sources = (ps.jumps, jump_sources(ps)) if jumps else ({}, {})
    comps = []
    for n in sorted(left):
        if n not in left:
            continue
        left.remove(n)
        comp, stack = {n}, [n]
        while stack:
            cur = stack.pop()
            near = [h if t == cur else t for t, h in map(arcs.__getitem__,
                                                          incoming[cur] + outgoing[cur])]
            if jumps:
                near += sources.get(cur, ())
                if cur in targets:
                    near.append(targets[cur])
            for m in near:
                if m in left:
                    left.remove(m)
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
    return ProofStructure._adopt(kept, arcs, premise_order, tuple(conclusions), types, jumps)


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
        records = doc["nodes"]
        nodes = {read_int(rec["id"]): rec["label"] for rec in records}
        if len(nodes) != len(records):
            raise ParseError("malformed structure document: node id "
                             f"{_first_repeat(rec['id'] for rec in records)} is repeated")
        for n, lab in nodes.items():
            if not isinstance(lab, str):
                raise ParseError(f"malformed structure document: label of node {n}"
                                 " is not a string")
        records = doc["arcs"]
        arcs = {read_int(rec["id"]): (read_int(rec["tail"]), read_int(rec["head"]))
                for rec in records}
        if len(arcs) != len(records):
            raise ParseError("malformed structure document: arc id "
                             f"{_first_repeat(rec['id'] for rec in records)} is repeated")
        premise_order = {}
        for n, pair in _json_object(doc, "premises").items():
            if not isinstance(pair, list) or len(pair) != 2:
                raise ParseError(f"malformed structure document: premises of node {n}"
                                 " are not a pair of arc ids")
            premise_order[read_int(n)] = (read_int(pair[0]), read_int(pair[1]))
        conclusions = tuple(map(read_int, doc.get("conclusions", [])))
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
                types[read_int(a)] = f
        jumps = {read_int(n): read_int(m) for n, m in _json_object(doc, "jumps").items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed structure document: {exc}") from None
    return ProofStructure._adopt(nodes, arcs, premise_order, conclusions, types, jumps)


def _first_repeat(ids) -> int | None:
    """The first id, read as an int, that repeats an earlier one."""
    seen = set()
    for i in map(read_int, ids):
        if i in seen:
            return i
        seen.add(i)


def read_int(value) -> int:
    """An id or position as every reader takes it: an int but not a bool,
    or a string of ASCII digits after an optional sign, as a JSON key or a
    DSL word writes it.  Any other value, such as 1.5, true, "1_0" or a
    string of non-ASCII digits, is a ValueError, but a string that `int`
    rejects keeps `int`'s own error."""
    if type(value) is int:
        return value
    if type(value) is str:
        n = int(value)
        if value.lstrip("+-").isdigit() and value.isascii():
            return n
    raise ValueError(f"{value!r} is not an integer")


def _json_object(doc: dict, key: str) -> dict:
    value = doc.get(key, {})
    if not isinstance(value, dict):
        raise ParseError(f"malformed structure document: {key!r} is not an object")
    return value


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; a repeated key is an error, not the last
    value winning."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(f"key {key!r} is repeated")
            seen.add(key)
    return obj


def _no_float(text: str):
    """The decoder's hook for a fraction, an exponent, NaN or Infinity:
    every number the package reads is an integer."""
    raise ParseError(f"{text} is not an integer")


_JSON_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys, parse_float=_no_float,
                                 parse_constant=_no_float)


def decode_json(text: str, what: str):
    """The value of a JSON text, read by the package's one decoder: a key
    repeated in any object, or a number that is not an integer, is a
    `ParseError` of a malformed `what`."""
    try:
        return _JSON_DECODER.decode(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    except ParseError as exc:
        raise ParseError(f"malformed {what}: {exc}") from None


def from_json(text: str) -> ProofStructure:
    return from_json_dict(decode_json(text, "structure document"))


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
    if ps.types == {}:
        lines.append("types")  # typed, though no arc has a type
    elif ps.types is not None:
        texts = format_formulas(ps.types.values())
        for a, f in sorted(ps.types.items()):
            lines.append(f"type {a} {texts[f]}")
    for n, m in sorted(ps.jumps.items()):
        lines.append(f"jump {n} {m}")
    return "\n".join(lines) + "\n"


def from_dsl(text: str) -> ProofStructure:
    nodes, arcs, premise_order, jumps = {}, {}, {}, {}
    conclusions = ()
    conclusions_line = None
    types = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "node":
                nid, lab = read_int(parts[1]), parts[2]
                if nid in nodes:
                    raise ValueError(f"node id {nid} is repeated")
                nodes[nid] = lab
                if len(parts) == 5:
                    premise_order[nid] = (read_int(parts[3]), read_int(parts[4]))
                elif len(parts) != 3:
                    raise ValueError("node takes an id, a label and optionally two premise arcs")
            elif kind == "arc":
                aid = read_int(parts[1])
                if aid in arcs:
                    raise ValueError(f"arc id {aid} is repeated")
                arcs[aid] = (read_int(parts[2]), read_int(parts[3]))
            elif kind == "conclusions":
                if conclusions_line is not None:
                    raise ValueError(f"conclusions are repeated from line {conclusions_line}")
                conclusions_line = lineno
                conclusions = tuple(map(read_int, parts[1:]))
            elif kind == "type":
                if types is None:
                    types = {}
                aid = read_int(parts[1])
                if aid in types:
                    raise ValueError(f"type of arc {aid} is repeated")
                types[aid] = parse_formula(" ".join(parts[2:]))
            elif kind == "types" and len(parts) == 1:
                types = {} if types is None else types
            elif kind == "jump":
                nid = read_int(parts[1])
                if nid in jumps:
                    raise ValueError(f"jump of node {nid} is repeated")
                jumps[nid] = read_int(parts[2])
            else:
                raise ValueError(f"unknown directive {kind!r}")
        except (IndexError, ValueError) as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    return ProofStructure._adopt(nodes, arcs, premise_order, conclusions, types, jumps)


def load_structure(text: str) -> ProofStructure:
    """Accept either the JSON schema or the line DSL."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return from_json(text)
    return from_dsl(text)
