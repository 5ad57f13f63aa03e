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

`check` decides ac, c, cw, acc and accw with one kernel and builds no
switching graph.  Danos contraction extended with mix
(`_has_switching_cycle`) decides in polynomial time whether some switching
graph has a cycle.  When none has, every switching graph has as many
components as it has nodes minus arcs, which is the same number for all of
them: #nodes + #pars - #arcs - #jumps.  So the count law settles c, cw,
acc and accw.  Before the contraction pairs a par's premises, it drops
each premise that hangs from a bot or a one with no jump: such a premise
lies on no cycle.

Every enumerated verdict comes from one search, `_first_failure`: from a
first switching, it enumerates only the pars that can change the verdict,
the others fixed, so the first switching that fails is the first of the
full enumeration.  `max_par` caps the pars it enumerates, and nothing
else.  When some switching graph has a cycle, c and cw enumerate the pars
with a premise on a cycle of the structure plus its jumps (one that is no
bridge of it).  cwforall starts from the first erasing-compatible
switching, which decides on a jump-free structure (the argument is in
`check`); with jumps it enumerates the pars with two erasing-compatible
premises.

A census lists the components of one switching graph.  `_components`
computes it with one walk of the incidence index and of `jump_sources`,
which leads each unchosen premise to its par's fresh dot.  It serves every
caller: the census a verdict prints, read only on demand, and the counting
in cwforall and in cyclic c and cw.  `_reheading` alone numbers the fresh
dots, for the walk and for `switching_graph`, which lists the nodes and
arcs of one switching graph for `dot --switching`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product

from .errors import ProofNetError, SwitchingLimitError
from .structure import BOT, DOT, ProofStructure, erasing_nodes, jump_arcs, jump_sources

DEFAULT_MAX_PAR = 20

Switching = dict[int, int]  # par node -> chosen premise arc


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
        parent = self.parent
        while (up := parent[x]) != x:
            parent[x] = x = parent[up]  # path halving
        return x

    def union(self, x, y) -> bool:
        """Merge; return False when x and y were already connected."""
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.parent[ry] = rx
        self.count -= 1
        return True


def _reheading(ps: ProofStructure, switching: Switching
               ) -> tuple[dict[int, int], dict[int, list[int]]]:
    """Where a switching re-heads the unchosen premises: each goes to its
    par's fresh dot, numbered upward from `fresh_node_id` in par order.
    Returns the fresh dot of each unchosen premise, and the tails of the
    premises of each fresh dot."""
    arcs = ps.arcs
    dot_of = {}
    reheaded = {}
    for dot, n in enumerate(ps.par_nodes(), ps.fresh_node_id()):
        chosen = switching[n]
        reheaded[dot] = tails = []
        for a in ps.premises_of(n):
            if a != chosen:
                dot_of[a] = dot
                tails.append(arcs[a][0])
    return dot_of, reheaded


def switching_graph(ps: ProofStructure, switching: Switching
                    ) -> tuple[dict[int, str], dict[int, tuple[int, int]]]:
    """The nodes and arcs of the graph a switching induces: the fresh dots
    follow the structure's nodes, and the jump arcs, numbered by
    `jump_arcs`, follow its arcs."""
    for n in ps.par_nodes():
        if n not in switching or switching[n] not in ps.premises_of(n):
            raise ProofNetError(f"switching does not pick a premise of par node {n}")
    dot_of, reheaded = _reheading(ps, switching)
    nodes = {**ps.nodes, **dict.fromkeys(reheaded, DOT)}
    arcs = {a: (t, dot_of.get(a, h)) for a, (t, h) in ps.arcs.items()}
    return nodes, {**arcs, **jump_arcs(ps)}


def _components(ps: ProofStructure, switching: Switching,
               erasing: set[int]) -> list[Component]:
    """The components of a switching graph, ordered by least node, from one
    walk of the incidence index and the jumps.

    The walk starts from each node not yet reached, in ascending order, and
    crosses arcs and jumps both ways.  An unchosen premise leads from its
    tail to its par's fresh dot, as `_reheading` numbers them, and never to
    the par, so no graph is built.  Bots, erasing nodes and the nodes with
    other than one premise in the switching graph are counted as the walk
    reaches them.  A fresh dot is never one of those: a switching keeps one
    of its par's two premises, so the fresh dot has exactly one premise,
    the unchosen one.
    """
    ins, outs = ps.incidence()
    arcs, labels, jumps = ps.arcs, ps.nodes, ps.jumps
    dot_of, reheaded = _reheading(ps, switching)
    sources = jump_sources(ps)
    seen = set()
    out = []
    for start in [*sorted(labels), *reheaded]:
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        bots = erased = 0
        thread = True  # so far every node but the bots has one premise
        for n in comp:  # the list grows as the walk goes
            if n in reheaded:
                near = reheaded[n]
            else:
                premises = 0
                for a in ins[n]:
                    if a not in dot_of:  # an unchosen premise ends at a fresh dot
                        premises += 1
                        if (m := arcs[a][0]) not in seen:
                            seen.add(m)
                            comp.append(m)
                for a in outs[n]:
                    if (m := dot_of[a] if a in dot_of else arcs[a][1]) not in seen:
                        seen.add(m)
                        comp.append(m)
                near = sources.get(n, ())  # each jump into n is a premise
                premises += len(near)
                if n in jumps:
                    near = [*near, jumps[n]]
                if labels[n] == BOT:
                    bots += 1
                elif premises != 1:
                    thread = False
                if n in erasing:
                    erased += 1
            for m in near:
                if m not in seen:
                    seen.add(m)
                    comp.append(m)
        out.append(Component(frozenset(comp), len(comp), erased, bots,
                             thread and bots == 1))
    return out


class CriterionVerdict:
    """A criterion's verdict, its counterexample switching and the census of
    a switching graph.  The census may be given as a function of no
    arguments, called when `census` is first read: most callers read only
    `holds`."""

    def __init__(self, criterion: str, holds: bool,
                 counterexample: Switching | None = None, census=()):
        self.criterion = criterion
        self.holds = holds
        self.counterexample = counterexample
        self._census = census if callable(census) else list(census)

    @property
    def census(self) -> list[dict]:
        if callable(self._census):
            self._census = self._census()
        return self._census

    def to_json_dict(self) -> dict:
        doc = {"criterion": self.criterion, "holds": self.holds}
        if self.counterexample is not None:
            doc["counterexample"] = {str(n): a for n, a in sorted(self.counterexample.items())}
        doc["census"] = self.census
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    def __repr__(self):
        return (f"CriterionVerdict({self.criterion!r}, holds={self.holds}, "
                f"counterexample={self.counterexample!r})")


CRITERIA = ("ac", "c", "cw", "acc", "accw", "cwforall")


def expected_components(ps: ProofStructure) -> int:
    """Target component count for the counting criterion, jump-adjusted."""
    return len(ps.bottom_nodes()) - len(ps.jumps) + 1


def _has_switching_cycle(ps: ProofStructure, forced: Switching | None = None,
                         bridges=frozenset()) -> bool:
    """Whether some switching graph has a cycle; a par node in `forced`
    keeps only the premise given there, and the arcs and jump edges
    numbered in `bridges`, bridges of the structure plus its jumps, which
    lie on no cycle, are left out.

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

    When no rule applies, any edge left lies on such a cycle.

    The dead-vertex rule is applied first where the structure shows it: a
    premise whose tail has no other arc and no jump (a bot or a one) hangs
    from a vertex of degree 1, so it goes, and when the par's other premise
    is free it stays free instead of being paired.  A bot;par chain so
    never reaches the set phase.  The free edges are then contracted in one
    union-find pass; after that, contraction merges the smaller incidence
    set into the larger, so the decision takes O(arcs log arcs) set
    operations.
    """
    forced = forced or {}
    free = {a: e for a, e in ps.arcs.items() if a not in bridges}
    ins, outs = ps.incidence()
    jumped = {*ps.jumps, *ps.jumps.values()}
    pairs = []
    for n in ps.par_nodes():
        prem = ps.premises_of(n)
        kept = [a for a in prem if a in free]  # ends up the premises left free
        if n in forced:
            kept = [a for a in kept if a == forced[n]]
        elif len(kept) == 2:
            # the premises whose tail has another arc or a jump stay
            kept = [a for a in kept if ins[t := free[a][0]] or len(outs[t]) > 1 or t in jumped]
            if len(kept) == 2:
                pairs.append(kept)
                kept = []
        for a in prem:
            if a not in kept:
                free.pop(a, None)
    uf = UnionFind(ps.nodes)
    for t, h in [*free.values(), *(e for a, e in jump_arcs(ps).items() if a not in bridges)]:
        if not uf.union(t, h):
            return True
    ends: dict[int, tuple[int, int]] = {}  # the paired edges
    partner: dict[int, int] = {}
    incident: dict[int, set[int]] = {}
    edges = []  # free edges to contract, pairs to test for parallel
    for e, f in pairs:
        partner[e], partner[f] = f, e
        sides = []
        for g in (e, f):
            ends[g] = t, h = ps.arcs[g]
            u, v = uf.find(t), uf.find(h)
            if u == v:
                return True
            incident.setdefault(u, set()).add(g)
            incident.setdefault(v, set()).add(g)
            sides.append({u, v})
        if sides[0] == sides[1]:
            edges.append(e)
    vertices = list(incident)  # vertices to test for dead
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


def _bridges(ps: ProofStructure) -> set[int]:
    """The arcs and jump edges (numbered as by `jump_arcs`) that are bridges
    of the structure plus its jumps, by one depth-first search that keeps
    the least discovery index each subtree reaches."""
    around: dict[int, list[tuple[int, int]]] = {n: [] for n in ps.nodes}
    for e, (t, h) in {**ps.arcs, **jump_arcs(ps)}.items():
        around[t].append((e, h))
        around[h].append((e, t))
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    bridges = set()
    for root in ps.nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack = [(root, None, iter(around[root]))]
        while stack:
            v, via, it = stack[-1]
            for e, w in it:
                if e == via:
                    continue
                if w in index:
                    low[v] = min(low[v], index[w])
                else:
                    index[w] = low[w] = len(index)
                    stack.append((w, e, iter(around[w])))
                    break
            else:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] > index[u]:
                        bridges.add(via)
    return bridges


def _open_pars(ps: ProofStructure, bridges: set[int]) -> list[int]:
    """The par nodes, in order, with a premise that is no bridge: the only
    pars whose choice can close a cycle or change a component count."""
    return [n for n in ps.par_nodes()
            if len(prem := ps.premises_of(n)) == 2 and not bridges.issuperset(prem)]


def _first_cyclic_switching(ps: ProofStructure, first: Switching) -> Switching:
    """The first switching in enumeration order whose graph has a cycle;
    some switching graph must have one.

    That is the first switching when its graph is cyclic.  Otherwise the
    pars whose premises are both bridges keep their first premise, and the
    others are fixed in runs: whether some cyclic switching keeps the
    premises fixed so far and the first premise of each next par can only
    turn from true to false as the run grows, so a galloping search finds
    the longest run, and the par after it takes its second premise.  That
    takes O((s + 1) log P) contractions, where s pars take their second
    premise.
    """
    if _has_switching_cycle(ps, first):
        return first
    bridges = _bridges(ps)
    pars = _open_pars(ps, bridges)
    sw = dict(first)

    def extends(j: int) -> bool:  # some cyclic switching keeps sw on pars[:j]
        return _has_switching_cycle(ps, {n: sw[n] for n in pars[:j]}, bridges)

    done = 0  # extends(done) holds
    while not extends(len(pars)):
        lo, hi, step = done, len(pars), 1  # extends(lo) holds, extends(hi) fails
        while lo + step < hi and extends(lo + step):
            lo += step
            step *= 2
        hi = min(hi, lo + step)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if extends(mid):
                lo = mid
            else:
                hi = mid
        sw[pars[lo]] = ps.premises_of(pars[lo])[1]
        done = lo + 1
    return sw


def check(ps: ProofStructure, criterion: str,
          max_par: int = DEFAULT_MAX_PAR) -> CriterionVerdict:
    """Decide a correctness criterion.

    ac, c, cw, acc and accw start from one contraction.  When some
    switching graph has a cycle, ac, acc and accw fail on the first cyclic
    switching in enumeration order, and c and cw enumerate the pars with a
    premise on a cycle.  (The component count of a switching graph is its
    node count minus its arc count plus its cycle rank, which sums over the
    blocks of the structure plus its jumps; a premise that is a bridge is a
    block of no cycle, so a par whose premises are both bridges never
    changes the count.)  When none has, the component count is
    #nodes + #pars - #arcs - #jumps on every switching graph, and a failing
    count names the first switching.

    cwforall starts from the first erasing-compatible switching, and with
    jumps enumerates the pars with two erasing-compatible premises.  Without
    jumps, on a valid structure, the first switching decides.  Without wten,
    a cut or tensor has a premise from an erasing node; that arc is in every
    switching graph, so its component holds an erasing node and a node with
    two premises, and every switching fails.  With wten, each neighbour of
    an erasing node in an erasing-compatible switching graph is an erasing
    node or a fresh dot, so a component with an erasing node holds only
    those; each non-bot there has one premise, so the connected component
    has exactly one bot: it is a thread, and every switching holds.  A jump
    joins its bot's component to any node, so with jumps that argument
    fails.

    The enumeration raises `SwitchingLimitError` past `max_par` enumerated
    pars.  A verdict carries the census of the counterexample's switching
    graph, or for a holding acc or accw that of the first switching; the
    census of a contraction's verdict is computed when first read.
    """
    criterion = criterion.lower()
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion {criterion!r}")

    def census(sw: Switching):
        return lambda: [c.census() for c in _components(ps, sw, erasing_nodes(ps))]

    if criterion == "cwforall":
        erasing = erasing_nodes(ps)
        first, choices = {}, {}
        for n in ps.par_nodes():
            prem = ps.premises_of(n)
            compatible = [a for a in prem if ps.tail(a) not in erasing]
            if len(compatible) != 1:
                compatible = prem
            first[n] = compatible[0]
            if ps.jumps and len(compatible) > 1:
                choices[n] = compatible
        return _first_failure(
            ps, criterion, first, choices, erasing, "with two erasing-compatible premises",
            max_par, lambda comps: any(c.erasing_of_base and not c.thread for c in comps))

    pars = ps.par_nodes()
    first = {n: ps.premises_of(n)[0] for n in pars}
    target = 1 if criterion in ("c", "acc") else expected_components(ps)
    if _has_switching_cycle(ps):
        if criterion in ("c", "cw"):
            choices = {n: ps.premises_of(n) for n in _open_pars(ps, _bridges(ps))}
            return _first_failure(ps, criterion, first, choices, erasing_nodes(ps),
                                  "with a premise on a cycle", max_par,
                                  lambda comps: len(comps) != target)
        sw = _first_cyclic_switching(ps, first)
        return CriterionVerdict(criterion, False, sw, census(sw))
    if criterion == "ac":
        return CriterionVerdict(criterion, True)
    # acyclic: nodes minus arcs components, fresh dots and jump edges included
    holds = len(ps.nodes) + len(pars) - len(ps.arcs) - len(ps.jumps) == target
    if holds and criterion in ("c", "cw"):
        return CriterionVerdict(criterion, True)
    return CriterionVerdict(criterion, holds, None if holds else first, census(first))


def _first_failure(ps: ProofStructure, criterion: str, first: Switching,
                   choices: dict[int, list[int]], erasing: set[int], counted: str,
                   max_par: int, fails) -> CriterionVerdict:
    """The verdict of the first switching, in enumeration order, whose
    components `fails`.

    The pars in `choices`, those that can change the verdict, take the
    premises listed there in turn, in par order, and every other par keeps
    its premise in `first`, so the first failing switching is the first of
    the full enumeration.  Past `max_par` pars in `choices`, which `counted`
    describes, it raises `SwitchingLimitError` before the first switching.
    """
    if len(choices) > max_par:
        raise SwitchingLimitError(f"{len(choices)} par nodes {counted} "
                                  f"exceed the enumeration cap {max_par}")
    for combo in product(*choices.values()):
        sw = {**first, **dict(zip(choices, combo))}
        comps = _components(ps, sw, erasing)
        if fails(comps):
            return CriterionVerdict(criterion, False, sw, [c.census() for c in comps])
    return CriterionVerdict(criterion, True)
