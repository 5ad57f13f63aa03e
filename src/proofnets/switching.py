"""Switchings, switching graphs and the connectivity-based criteria.

A switching picks one premise per par node.  The induced graph keeps the
chosen premise in place and re-heads every non-chosen premise to a fresh dot
node; when the structure carries a jump map, one extra arc per jump runs
from the bot node to its target.  The criteria quantify over switching
graphs:

  ac        every switching graph is acyclic;
  c         every switching graph has exactly one connected component;
  cw        every switching graph has #bot - #jumps + 1 components;
  acc/accw  the conjunctions of ac with c/cw;
  cwforall  under every erasing-compatible switching, each component either
            contains no erasing node of the base structure or is a thread
            (one bot node, every other node with a single premise).

Only the acyclicity half of ac/acc/accw quantifies over switchings, and
it is decided without enumerating them, by contraction in polynomial time
(`_has_switching_cycle`); once acyclicity is established the component
count is switching-independent, so the conjunctive criteria inspect a
single switching graph for the counting half.  c, cw and cwforall really
quantify over switchings: they enumerate them, exponentially in the number
of par nodes, and refuse to run past a cap.  That cap, `max_par`, is a
parameter of the enumerating functions (`switchings`, `check`,
`output_stats`) and of nothing else.  The enumeration also stays the
reference the tests compare the contraction against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import product

from .errors import FragmentError, ProofNetError, SwitchingLimitError
from .formulas import Fragment
from .structure import (BOT, DOT, PAR, ProofStructure, arc_polarities, erasing_nodes,
                        jump_arcs, validate)

DEFAULT_MAX_PAR = 20

ALL = "all"
W_COMPATIBLE = "w-compatible"
INTUITIONISTIC = "intuitionistic"

Switching = dict[int, int]  # par node -> chosen premise arc


class SwitchingGraph:
    """The graph induced by a switching, plus one arc per jump."""

    def __init__(self, ps: ProofStructure, switching: Switching):
        self.base = ps
        self.switching = dict(switching)
        self.nodes = dict(ps.nodes)
        self.arcs = dict(ps.arcs)
        self.fresh_dot_of: dict[int, int] = {}
        next_node = ps.fresh_node_id()
        for n in ps.par_nodes():
            chosen = switching[n]
            self.nodes[next_node] = DOT
            self.fresh_dot_of[n] = next_node
            for a in ps.premises_of(n):
                if a != chosen:
                    tail, _ = self.arcs[a]
                    self.arcs[a] = (tail, next_node)
            next_node += 1
        self.jump_arcs = jump_arcs(ps)
        self.arcs.update(self.jump_arcs)


@dataclass
class Component:
    nodes: frozenset[int]
    size: int
    erasing_of_base: int
    bots: int
    thread: bool

    def census(self) -> dict:
        return {"nodes": self.size, "erasing": self.erasing_of_base,
                "bots": self.bots, "thread": self.thread}


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}
        self.count = len(self.parent)

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y) -> bool:
        """Merge; return False when x and y were already connected."""
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.parent[ry] = rx
        self.count -= 1
        return True


def _connect(g) -> tuple[UnionFind, bool]:
    """Union-find over a graph's arcs, and whether the graph is acyclic.

    A repeated edge between two nodes counts as a cycle.  When acyclic, the
    component count is cross-checked against nodes minus arcs.
    """
    uf = UnionFind(g.nodes)
    acyclic = True
    for t, h in g.arcs.values():
        if not uf.union(t, h):
            acyclic = False
    if acyclic and uf.count != len(g.nodes) - len(g.arcs):
        raise AssertionError("an acyclic graph must have nodes minus arcs components")
    return uf, acyclic


def components_and_acyclicity(g) -> tuple[int, bool, list[frozenset[int]]]:
    """Component count, acyclicity and the node partition of a graph."""
    uf, acyclic = _connect(g)
    groups: dict[int, set[int]] = {}
    for n in g.nodes:
        groups.setdefault(uf.find(n), set()).add(n)
    comps = [frozenset(v) for v in sorted(groups.values(), key=min)]
    return uf.count, acyclic, comps


def _premise_options(ps: ProofStructure, n: int, mode: str, erasing: set[int],
                     polarities=None) -> list[int]:
    prem = ps.premises_of(n)
    if mode == W_COMPATIBLE:
        non_erasing = [a for a in prem if ps.tail(a) not in erasing]
        if len(non_erasing) == 1:
            return non_erasing
    elif mode == INTUITIONISTIC and polarities[ps.conclusions_of(n)[0]] == "O":
        outputs = [a for a in prem if polarities[a] == "O"]
        if len(outputs) != 1:
            raise FragmentError(
                f"output par node {n} does not have exactly one output premise")
        return outputs
    return prem


def switchings(ps: ProofStructure, mode: str = ALL,
               max_par: int = DEFAULT_MAX_PAR):
    """Enumerate switchings, deterministically ordered.

    `w-compatible` forces the unique non-erasing premise where one exists;
    `intuitionistic` (typed structures only) forces the output premise of
    every output par node.  Raises `SwitchingLimitError` when the structure
    has more than `max_par` par nodes.
    """
    pars = ps.par_nodes()
    if len(pars) > max_par:
        raise SwitchingLimitError(
            f"{len(pars)} par nodes exceed the enumeration cap {max_par}")
    if mode == INTUITIONISTIC and ps.types is None:
        raise FragmentError("polarity typing required")
    erasing = erasing_nodes(ps) if mode == W_COMPATIBLE else set()
    polarities = arc_polarities(ps) if mode == INTUITIONISTIC else None
    options = [_premise_options(ps, n, mode, erasing, polarities) for n in pars]
    for combo in product(*options):
        yield dict(zip(pars, combo))


def switching_graph(ps: ProofStructure, switching: Switching) -> SwitchingGraph:
    for n in ps.par_nodes():
        if n not in switching or switching[n] not in ps.premises_of(n):
            raise ProofNetError(f"switching does not pick a premise of par node {n}")
    return SwitchingGraph(ps, switching)


def graph_components(g: SwitchingGraph, erasing_of_base=None) -> list[Component]:
    if erasing_of_base is None:
        erasing_of_base = erasing_nodes(g.base)
    _, _, comps = components_and_acyclicity(g)
    premise_count = {n: 0 for n in g.nodes}
    for _, h in g.arcs.values():
        premise_count[h] += 1
    out = []
    for comp in comps:
        bots = sum(1 for n in comp if g.nodes[n] == BOT)
        erasing = sum(1 for n in comp if n in erasing_of_base)
        thread = bots == 1 and all(
            premise_count[n] == 1 for n in comp if g.nodes[n] != BOT)
        out.append(Component(comp, len(comp), erasing, bots, thread))
    return out


@dataclass
class CriterionVerdict:
    criterion: str
    holds: bool
    counterexample: Switching | None = None
    census: list[dict] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        doc = {"criterion": self.criterion, "holds": self.holds}
        if self.counterexample is not None:
            doc["counterexample"] = {str(n): a for n, a in sorted(self.counterexample.items())}
        doc["census"] = self.census
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


CRITERIA = ("ac", "c", "cw", "acc", "accw", "cwforall")


def expected_components(ps: ProofStructure) -> int:
    """Target component count for the counting criterion, jump-adjusted."""
    return len(ps.bottom_nodes()) - len(ps.jumps) + 1


def _has_switching_cycle(ps: ProofStructure,
                         forced: Switching | None = None) -> bool:
    """Whether some switching graph has a cycle; a par node in `forced`
    keeps only the premise given there.

    Decided by Danos contraction extended with mix (Fleury & Retoré).  The
    graph is the structure plus its jump edges; the two premises of a par
    form a pair and every other arc is free.  A switching graph has a cycle
    iff this graph has an elementary cycle through at most one edge of each
    pair, and each rule below keeps that property:

      a loop is such a cycle;
      a dead vertex, of degree <= 1 or of degree 2 whose two edges are one
        pair centred on it, lies on none, so it goes with its edges, and the
        partner of a deleted paired edge becomes free;
      a free edge is contracted;
      a pair whose two edges join the same two vertices is contracted.

    When no rule applies, any edge left lies on such a cycle.  Contraction
    merges the smaller incidence set into the larger, so the decision takes
    O(arcs log arcs) set operations.
    """
    forced = forced or {}
    # the live edges; a premise's head is its par node
    ends = {**ps.arcs, **jump_arcs(ps)}
    partner: dict[int, int] = {}
    for n in ps.par_nodes():
        prem = ps.premises_of(n)
        if n in forced:
            for a in prem:
                if a != forced[n]:
                    del ends[a]
        elif len(prem) == 2:
            partner[prem[0]], partner[prem[1]] = prem[1], prem[0]
    uf = UnionFind(ps.nodes)
    incident: dict[int, set[int]] = {n: set() for n in ps.nodes}
    for e, (t, h) in ends.items():
        if t == h:
            return True
        incident[t].add(e)
        incident[h].add(e)

    edges = list(ends)  # free edges to contract, pairs to test for parallel
    vertices = list(ps.nodes)  # vertices to test for dead
    while edges or vertices:
        if edges:
            e = edges.pop()
            if e not in ends:
                continue
            u, v = uf.find(ends[e][0]), uf.find(ends[e][1])
            f = partner.get(e)
            if f is None:
                gone = (e,)
            elif {uf.find(ends[f][0]), uf.find(ends[f][1])} == {u, v}:
                gone = (e, f)
            else:
                continue
            for g in gone:
                del ends[g]
                incident[u].discard(g)
                incident[v].discard(g)
            if len(incident[u]) < len(incident[v]):
                u, v = v, u
            moved = incident.pop(v)
            for g in moved:
                if u in (uf.find(ends[g][0]), uf.find(ends[g][1])):
                    return True
            uf.union(u, v)
            incident[u] |= moved
            edges.extend(moved)
            vertices.append(u)
            continue
        v = vertices.pop()
        if v not in incident:
            continue
        around = incident[v]
        if len(around) == 1:
            gone = tuple(around)
        elif len(around) == 2:
            e, f = around
            if partner.get(e) != f or uf.find(ends[e][1]) != v:
                continue
            gone = (e, f)
        else:
            continue
        for g in gone:
            for end in ends.pop(g):
                r = uf.find(end)
                incident[r].discard(g)
                vertices.append(r)
        for g in gone:
            f = partner.pop(g, None)
            if f in ends:
                del partner[f]
                edges.append(f)
    return bool(ends)


def _first_cyclic_switching(ps: ProofStructure) -> Switching:
    """The first switching in enumeration order whose graph has a cycle,
    fixing one par at a time; some switching graph must have one."""
    forced: Switching = {}
    for n in ps.par_nodes():
        first, *rest = ps.premises_of(n)
        forced[n] = first
        if rest and not _has_switching_cycle(ps, forced):
            forced[n] = rest[0]
    return forced


def check(ps: ProofStructure, criterion: str,
          max_par: int = DEFAULT_MAX_PAR) -> CriterionVerdict:
    """Decide a correctness criterion.

    ac, acc and accw are decided by contraction, with no cap: a failing
    verdict names the first cyclic switching in enumeration order, and the
    component count is read off the first switching.  c, cw and cwforall
    enumerate switchings and raise `SwitchingLimitError` past `max_par` par
    nodes.  A refuted verdict carries the census of the counterexample's
    switching graph.
    """
    criterion = criterion.lower()
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion {criterion!r}")
    erasing = erasing_nodes(ps)

    def verdict(holds: bool, sw: Switching | None = None, comps=()):
        return CriterionVerdict(criterion, holds, sw, [c.census() for c in comps])

    if criterion == "cwforall":
        for sw in switchings(ps, W_COMPATIBLE, max_par):
            comps = graph_components(switching_graph(ps, sw), erasing)
            if not all(c.erasing_of_base == 0 or c.thread for c in comps):
                return verdict(False, sw, comps)
        return verdict(True)

    count_target = 1 if criterion in ("c", "acc") else expected_components(ps)
    if criterion in ("c", "cw"):
        for sw in switchings(ps, ALL, max_par):
            g = switching_graph(ps, sw)
            if _connect(g)[0].count != count_target:
                return verdict(False, sw, graph_components(g, erasing))
        return verdict(True)

    if _has_switching_cycle(ps):
        sw = _first_cyclic_switching(ps)
        return verdict(False, sw, graph_components(switching_graph(ps, sw), erasing))
    if criterion == "ac":
        return verdict(True)
    sw = {n: ps.premises_of(n)[0] for n in ps.par_nodes()}
    comps = graph_components(switching_graph(ps, sw), erasing)
    holds = len(comps) == count_target
    return verdict(holds, None if holds else sw, comps)


@dataclass
class OutputStats:
    bots: int
    outputs: int
    acyclic: bool
    components_per_switching: list[int]


def output_stats(ps: ProofStructure, max_par: int = DEFAULT_MAX_PAR) -> OutputStats:
    """Bot count, output-conclusion count and per-switching components for
    a structure typed in the intuitionistic fragment.

    Every switching is enumerated, so past `max_par` par nodes this raises
    `SwitchingLimitError`.  When every switching graph is acyclic, the
    component count is checked to equal bots + outputs - jumps on each.
    """
    report = validate(ps, Fragment.IMLL)
    if not report.ok:
        raise FragmentError("output statistics require a valid imll typing")
    bots = len(ps.bottom_nodes())
    polarities = arc_polarities(ps)
    outputs = sum(1 for a in ps.conclusions if polarities[a] == "O")
    counts = []
    all_acyclic = True
    for sw in switchings(ps, ALL, max_par):
        uf, acyclic = _connect(switching_graph(ps, sw))
        counts.append(uf.count)
        all_acyclic = all_acyclic and acyclic
    if all_acyclic and any(cc != bots + outputs - len(ps.jumps) for cc in counts):
        raise AssertionError("component count law violated on an acyclic switching graph")
    return OutputStats(bots, outputs, all_acyclic, counts)


# -- path enumeration --------------------------------------------------------

SWITCHING_PATH = "switching"
W_SWITCHING_PATH = "w-switching"
DIRECTED_PATH = "directed"


@dataclass(frozen=True)
class Path:
    nodes: tuple[int, ...]
    arcs: tuple[int, ...]

    def __len__(self):
        return len(self.arcs)


def switching_paths(ps: ProofStructure, src: int, dst: int | None = None,
                    flavor: str = SWITCHING_PATH) -> list[Path]:
    """Enumerate simple paths from src (to dst, or to anywhere when dst is
    None) under a path discipline.

    `switching` paths never use two premises of the same par node;
    `w-switching` paths additionally avoid any arc that is the unique
    erasing premise of its par node; `directed` paths follow arc direction.
    Paths never repeat a node; the empty path is included when src == dst
    or dst is None.
    """
    if flavor not in (SWITCHING_PATH, W_SWITCHING_PATH, DIRECTED_PATH):
        raise ValueError(f"unknown path flavor {flavor!r}")
    erasing = erasing_nodes(ps)
    forbidden = set()
    if flavor == W_SWITCHING_PATH:
        for n in ps.par_nodes():
            prem = ps.premises_of(n)
            erasing_prem = [a for a in prem if ps.tail(a) in erasing]
            if len(erasing_prem) == 1:
                forbidden.add(erasing_prem[0])

    incoming, outgoing = ps.incidence()

    results: list[Path] = []
    if dst is None or dst == src:
        results.append(Path((src,), ()))

    def premises_used_ok(arcs_used, candidate):
        if ps.nodes[ps.head(candidate)] != PAR:
            return True
        twin = [a for a in ps.premises_of(ps.head(candidate)) if a != candidate]
        return not (twin and twin[0] in arcs_used)

    def around(node):
        return iter(sorted(outgoing[node] if flavor == DIRECTED_PATH
                           else outgoing[node] + incoming[node]))

    # a depth-first walk with one arc iterator per node of the current path
    path_nodes, path_arcs = [src], []
    nodes_seen, arcs_used = {src}, set()
    walking = [around(src)]
    while walking:
        a = next(walking[-1], None)
        if a is None:
            walking.pop()
            if path_arcs:
                nodes_seen.remove(path_nodes.pop())
                arcs_used.remove(path_arcs.pop())
            continue
        if a in arcs_used or a in forbidden:
            continue
        t, h = ps.arcs[a]
        nxt = h if path_nodes[-1] == t else t
        if nxt in nodes_seen:
            continue
        if flavor != DIRECTED_PATH and not premises_used_ok(arcs_used, a):
            continue
        path_nodes.append(nxt)
        path_arcs.append(a)
        nodes_seen.add(nxt)
        arcs_used.add(a)
        if dst is None or nxt == dst:
            results.append(Path(tuple(path_nodes), tuple(path_arcs)))
        if dst is None or nxt != dst:
            walking.append(around(nxt))
        else:
            nodes_seen.remove(path_nodes.pop())
            arcs_used.remove(path_arcs.pop())
    return results
