"""The census, the contraction and the switching-graph builder as they
were before the census became one walk of the incidence index, dead par
premises left the contraction before its set phase and the builder shared
the census's re-heading, kept as the references of
`switching._components`, `switching._has_switching_cycle` and
`switching.switching_graph`: each pair must give the same components, in
the same order, the same decision and the same nodes and arcs.  It also
keeps the cwforall loop from before `check` stopped after the first
erasing-compatible switching of a jump-free structure, as `cwforall`.

`components` re-heads each unchosen premise while one union-find reads the
arcs and jumps; `has_switching_cycle` pairs the two premises of every par
whose premises are both free and leaves dead vertices to the set phase.
`SwitchingGraph` copies the structure and re-heads its arcs in place;
`components_and_acyclicity` reads any graph's node partition off one
union-find, and `graph_components` takes the census of a `SwitchingGraph`.

`switchings` is the exhaustive enumerator `check` used before it
enumerated only the pars that can change a verdict: every switching in
enumeration order, or the erasing-compatible or intuitionistic ones, capped
on the number of all pars.
"""

from itertools import product

from proofnets.errors import FragmentError, SwitchingLimitError
from proofnets.structure import (BOT, DOT, ProofStructure, arc_polarities, erasing_nodes,
                                 jump_arcs)
from proofnets.switching import (DEFAULT_MAX_PAR, Component, CriterionVerdict, UnionFind,
                                 _components)

ALL = "all"
W_COMPATIBLE = "w-compatible"
INTUITIONISTIC = "intuitionistic"


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


class SwitchingGraph:
    """The graph induced by a switching, plus one arc per jump."""

    def __init__(self, ps, switching):
        self.base = ps
        self.switching = dict(switching)
        self.nodes = dict(ps.nodes)
        self.arcs = dict(ps.arcs)
        self.fresh_dot_of = {}
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


def components_and_acyclicity(g):
    """Component count, acyclicity and the node partition of a graph.

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
    groups = {}
    for n in g.nodes:
        groups.setdefault(uf.find(n), set()).add(n)
    comps = [frozenset(v) for v in sorted(groups.values(), key=min)]
    return uf.count, acyclic, comps


def graph_components(g, erasing_of_base=None):
    if erasing_of_base is None:
        erasing_of_base = erasing_nodes(g.base)
    return _components(g.base, g.switching, erasing_of_base)


def components(ps, switching, erasing):
    """The components of a switching graph, ordered by least node."""
    fresh = ps.fresh_node_id()
    pars = ps.par_nodes()
    dot_of = {}  # unchosen premise -> the fresh dot it is re-headed to
    for dot, n in enumerate(pars, fresh):
        for a in ps.premises_of(n):
            if a != switching[n]:
                dot_of[a] = dot
    order = sorted(ps.nodes)
    order += range(fresh, fresh + len(pars))
    uf = UnionFind(order)
    premises = dict.fromkeys(order, 0)
    for a, (t, h) in ps.arcs.items():
        h = dot_of.get(a, h)
        premises[h] += 1
        uf.union(t, h)
    for t, h in ps.jumps.items():
        premises[h] += 1
        uf.union(t, h)
    groups = {}
    for n in order:  # each group is keyed in the order of its least node
        groups.setdefault(uf.find(n), []).append(n)
    labels = ps.nodes
    out = []
    for comp in groups.values():
        bots = sum(1 for n in comp if labels.get(n) == BOT)
        thread = bots == 1 and all(
            premises[n] == 1 for n in comp if labels.get(n) != BOT)
        out.append(Component(frozenset(comp), len(comp),
                             sum(1 for n in comp if n in erasing), bots, thread))
    return out


def cwforall(ps, max_par=DEFAULT_MAX_PAR):
    """The cwforall verdict by enumeration: the first erasing-compatible
    switching graph with a component that holds an erasing node of the
    structure and is no thread refutes it."""
    erasing = erasing_nodes(ps)
    for sw in switchings(ps, W_COMPATIBLE, max_par):
        comps = _components(ps, sw, erasing)
        if not all(c.erasing_of_base == 0 or c.thread for c in comps):
            return CriterionVerdict("cwforall", False, sw, [c.census() for c in comps])
    return CriterionVerdict("cwforall", True)


def has_switching_cycle(ps, forced=None, bridges=frozenset()):
    """Whether some switching graph has a cycle, by Danos contraction
    extended with mix; a par in `forced` keeps only the premise given there,
    and the arcs and jump edges in `bridges` are left out."""
    forced = forced or {}
    free = {a: e for a, e in ps.arcs.items() if a not in bridges}
    pairs = []
    for n in ps.par_nodes():
        prem = ps.premises_of(n)
        kept = [a for a in prem if a in free]  # ends up the premises left free
        if n in forced:
            kept = [a for a in kept if a == forced[n]]
        elif len(kept) == 2:
            pairs.append(kept)
            kept = []
        for a in prem:
            if a not in kept:
                free.pop(a, None)
    uf = UnionFind(ps.nodes)
    for t, h in [*free.values(), *(e for a, e in jump_arcs(ps).items() if a not in bridges)]:
        if not uf.union(t, h):
            return True
    ends = {}  # the paired edges
    partner = {}
    incident = {}
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
