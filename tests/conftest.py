import json

import pytest

from proofnets.formulas import parse_formula
from proofnets.structure import ProofStructure, validate


def build_ps(nodes, arcs, prem=None, concl=(), types=None, jumps=None,
             expect_valid=True):
    """Terse structure builder for tests; types given as surface strings."""
    parsed = {a: parse_formula(s) for a, s in types.items()} if types else None
    ps = ProofStructure(nodes, arcs, prem or {}, concl, parsed, jumps)
    if expect_valid:
        report = validate(ps)
        assert report.ok, report.violations
    return ps


def relabel(ps, rng):
    """Random node/arc id permutation."""
    node_map = dict(zip(sorted(ps.nodes), rng.sample(range(1000, 2000), len(ps.nodes))))
    arc_map = dict(zip(sorted(ps.arcs), rng.sample(range(5000, 6000), len(ps.arcs))))
    out = ProofStructure()
    out.nodes = {node_map[n]: lab for n, lab in ps.nodes.items()}
    out.arcs = {arc_map[a]: (node_map[t], node_map[h]) for a, (t, h) in ps.arcs.items()}
    out.premise_order = {node_map[n]: (arc_map[x], arc_map[y])
                         for n, (x, y) in ps.premise_order.items()}
    out.conclusions = tuple(arc_map[a] for a in ps.conclusions)
    if ps.types is not None:
        out.types = {arc_map[a]: f for a, f in ps.types.items()}
    out.jumps = {node_map[n]: node_map[m] for n, m in ps.jumps.items()}
    return out


def count_search_visits(monkeypatch):
    """From now on, the nodes each component search of the sequentializers
    reaches, one count per search, in a list: the lockstep searches and
    the whole-part searches of `induced_components`."""
    from proofnets import sequentialize
    visits = []
    lockstep, components = sequentialize._lockstep, sequentialize.induced_components

    def counted_lockstep(*args):
        found, side = lockstep(*args)
        visits.append(sum(map(len, found)))
        return found, side

    def counted_components(*args, **kwargs):
        comps = components(*args, **kwargs)
        visits.append(sum(map(len, comps)))
        return comps

    monkeypatch.setattr(sequentialize, "_lockstep", counted_lockstep)
    monkeypatch.setattr(sequentialize, "induced_components", counted_components)
    return visits


def _json_paths(doc, prefix=()):
    """Every position in a JSON document, containers included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _json_paths(value, prefix + (key,))


def mutated_documents(doc):
    """Copies of a JSON document with one position replaced by a value of
    the wrong shape, each with its path and value."""
    for where in _json_paths(doc):
        for value in (5, "x", None, [1], [1, 2, 3]):
            mutant = json.loads(json.dumps(doc))
            parent = mutant
            for key in where[:-1]:
                parent = parent[key]
            parent[where[-1]] = value
            yield where, value, mutant


@pytest.fixture
def single_ax():
    return build_ps({0: "ax", 1: "dot", 2: "dot"},
                    {0: (0, 1), 1: (0, 2)}, concl=(0, 1),
                    types={0: "X", 1: "X^"})


@pytest.fixture
def single_one():
    return build_ps({0: "one", 1: "dot"}, {0: (0, 1)}, concl=(0,),
                    types={0: "one"})


@pytest.fixture
def single_bot():
    return build_ps({0: "bot", 1: "dot"}, {0: (0, 1)}, concl=(0,),
                    types={0: "bot"})
