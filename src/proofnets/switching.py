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

Enumeration is exponential in the number of par nodes by design; checks
refuse to run past a configurable cap.  Once acyclicity is established the
component count is switching-independent, so the conjunctive criteria
inspect a single switching graph for the counting half.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import product

from .errors import FragmentError, ProofNetError, SwitchingLimitError
from .formulas import Fragment, polarity
from .structure import (BOT, DOT, PAR, ProofStructure, erasing_nodes,
                        validate)

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
        self.jump_arcs: dict[int, int] = {}
        next_node = ps.fresh_node_id()
        next_arc = ps.fresh_arc_id()
        for n in ps.par_nodes():
            chosen = switching[n]
            self.nodes[next_node] = DOT
            self.fresh_dot_of[n] = next_node
            for a in ps.premises_of(n):
                if a != chosen:
                    tail, _ = self.arcs[a]
                    self.arcs[a] = (tail, next_node)
            next_node += 1
        for src in sorted(ps.jumps):
            self.arcs[next_arc] = (src, ps.jumps[src])
            self.jump_arcs[next_arc] = src
            next_arc += 1


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
                     pol_of_arc=None) -> list[int]:
    prem = ps.premises_of(n)
    if mode == W_COMPATIBLE:
        non_erasing = [a for a in prem if ps.tail(a) not in erasing]
        if len(non_erasing) == 1:
            return non_erasing
    elif mode == INTUITIONISTIC:
        concl = ps.conclusions_of(n)[0]
        if pol_of_arc(concl) == "O":
            outputs = [a for a in prem if pol_of_arc(a) == "O"]
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
    every output par node.
    """
    pars = ps.par_nodes()
    if len(pars) > max_par:
        raise SwitchingLimitError(
            f"{len(pars)} par nodes exceed the enumeration cap {max_par}")
    erasing = erasing_nodes(ps) if mode == W_COMPATIBLE else set()
    pol_of_arc = None
    if mode == INTUITIONISTIC:
        if ps.types is None:
            raise FragmentError("polarity typing required")
        pol_of_arc = lambda a: polarity(ps.types[a])
    options = [_premise_options(ps, n, mode, erasing, pol_of_arc) for n in pars]
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


def check(ps: ProofStructure, criterion: str,
          max_par: int = DEFAULT_MAX_PAR) -> CriterionVerdict:
    """Decide a correctness criterion by switching enumeration.

    For the conjunctions acc/accw, acyclicity is established first over all
    switchings and the component count is then read off a single one.
    """
    criterion = criterion.lower()
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion {criterion!r}")
    erasing = erasing_nodes(ps)

    if criterion == "cwforall":
        for sw in switchings(ps, W_COMPATIBLE, max_par):
            g = switching_graph(ps, sw)
            comps = graph_components(g, erasing)
            if not all(c.erasing_of_base == 0 or c.thread for c in comps):
                return CriterionVerdict(criterion, False, sw,
                                        [c.census() for c in comps])
        return CriterionVerdict(criterion, True)

    need_ac = criterion in ("ac", "acc", "accw")
    count_target = None
    if criterion in ("c", "acc"):
        count_target = 1
    elif criterion in ("cw", "accw"):
        count_target = expected_components(ps)

    conjunctive = criterion in ("acc", "accw")
    first_census = None
    for sw in switchings(ps, ALL, max_par):
        g = switching_graph(ps, sw)
        uf, acyclic = _connect(g)
        cc = uf.count
        if need_ac and not acyclic:
            comps = graph_components(g, erasing)
            return CriterionVerdict(criterion, False, sw,
                                    [c.census() for c in comps])
        if count_target is not None and not conjunctive and cc != count_target:
            comps = graph_components(g, erasing)
            return CriterionVerdict(criterion, False, sw,
                                    [c.census() for c in comps])
        if conjunctive and first_census is None:
            first_census = (sw, cc, g)
    if conjunctive:
        sw, cc, g = first_census
        comps = graph_components(g, erasing)
        if cc != count_target:
            return CriterionVerdict(criterion, False, sw,
                                    [c.census() for c in comps])
        return CriterionVerdict(criterion, True, None,
                                [c.census() for c in comps])
    return CriterionVerdict(criterion, True)


@dataclass
class OutputStats:
    bots: int
    outputs: int
    acyclic: bool
    components_per_switching: list[int]


def output_stats(ps: ProofStructure, max_par: int = DEFAULT_MAX_PAR) -> OutputStats:
    """Bot count, output-conclusion count and per-switching components for
    a structure typed in the intuitionistic fragment.

    When every switching graph is acyclic, the component count is checked
    to equal bots + outputs - jumps on each of them.
    """
    report = validate(ps, Fragment.IMLL)
    if not report.ok:
        raise FragmentError("output statistics require a valid imll typing")
    bots = len(ps.bottom_nodes())
    outputs = sum(1 for a in ps.conclusions if polarity(ps.types[a]) == "O")
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
                    flavor: str = SWITCHING_PATH,
                    first_arc: int | None = None) -> list[Path]:
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

    def walk(node, nodes_seen, arcs_used, path_nodes, path_arcs):
        around = outgoing[node] if flavor == DIRECTED_PATH else outgoing[node] + incoming[node]
        for a in sorted(around):
            if a in arcs_used or a in forbidden:
                continue
            t, h = ps.arcs[a]
            nxt = h if node == t else t
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
                walk(nxt, nodes_seen, arcs_used, path_nodes, path_arcs)
            nodes_seen.remove(nxt)
            arcs_used.remove(a)
            path_nodes.pop()
            path_arcs.pop()

    walk(src, {src}, set(), [src], [])
    return results
