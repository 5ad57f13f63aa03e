"""`validate` and the incidence index against the reference implementations
in `reference_validate.py`: the same violations, in the same order and with
the same text, on valid structures and on seeded mutations of them."""

import random

import reference_validate as reference
from proofnets import fixtures
from proofnets.cutelim import normalize
from proofnets.formulas import Fragment, parse_formula
from proofnets.generate import GenParams, random_formula, random_proof, random_ps
from proofnets.sequent import desequentialize
from proofnets.sequentialize import canonical_jumps_btenll
from proofnets.structure import ProofStructure, validate

FRAGMENTS = (None, Fragment.MLLU, Fragment.BTENLL, Fragment.IMLL)


def base_structures():
    """Fixtures, seeded random structures, desequentializations and normal
    forms: valid structures, typed and untyped, with and without cuts."""
    out = [fixtures.load(name) for name in fixtures.NAMES]
    out.append(canonical_jumps_btenll(fixtures.load("jumps-units"), 0))
    for seed in range(12):
        out.append(random_ps(GenParams(fragment=None, max_nodes=10, seed=seed,
                                       cut_probability=0.3)))
        out.append(random_ps(GenParams(fragment=Fragment.MLLU, max_nodes=12, seed=seed,
                                       cut_probability=0.3)))
        for frag in (Fragment.MLL, Fragment.BTENLL, Fragment.IMLL):
            p = random_proof(GenParams(fragment=frag, max_rules=16, seed=seed,
                                       cut_probability=0.4))
            ps = desequentialize(p, verify=False).ps
            out.append(ps)
            out.append(normalize(ps).normal_form)
    return out


def rebuilt(ps, **fields):
    """A fresh structure from the parts of ps, some of them replaced."""
    parts = dict(nodes=ps.nodes, arcs=ps.arcs, premise_order=ps.premise_order,
                 conclusions=ps.conclusions, types=ps.types, jumps=ps.jumps)
    parts.update(fields)
    return ProofStructure(**parts)


def mutations(ps, rng):
    """Seeded broken variants of ps, one defect (or two) each."""
    nodes, arcs, order = ps.nodes, ps.arcs, ps.premise_order
    node_ids, arc_ids = sorted(nodes), sorted(arcs)
    missing = max(node_ids) + 5
    a = rng.choice(arc_ids)
    t, h = arcs[a]
    n = rng.choice(node_ids)
    # dangling and self-loop arcs
    yield rebuilt(ps, arcs={**arcs, a: (t, missing)})
    yield rebuilt(ps, arcs={**arcs, a: (missing, h)})
    yield rebuilt(ps, arcs={**arcs, a: (missing, missing)})
    yield rebuilt(ps, arcs={**arcs, a: (h, h)})
    yield rebuilt(ps, arcs={**arcs, max(arc_ids) + 1: (n, n)})
    # an arc moved, added or removed: arities, conclusions and cycles
    for _ in range(3):
        yield rebuilt(ps, arcs={**arcs, a: (t, rng.choice(node_ids))})
        yield rebuilt(ps, arcs={**arcs, a: (rng.choice(node_ids), h)})
        other = rng.choice(node_ids)
        if other != n:
            yield rebuilt(ps, arcs={**arcs, max(arc_ids) + 1: (n, other)})
    yield rebuilt(ps, arcs={x: e for x, e in arcs.items() if x != a})
    # a back arc from a node to one above it closes a cycle
    yield rebuilt(ps, arcs={**arcs, max(arc_ids) + 1: (h, t)})
    # premise orders: swapped, duplicated, foreign, three or one or no items,
    # dropped (with or without a premise), misplaced
    connectives = sorted(order)
    if connectives:
        c = rng.choice(connectives)
        left, right = order[c]
        yield rebuilt(ps, premise_order={**order, c: (right, left)})
        yield rebuilt(ps, premise_order={**order, c: (left, left)})
        yield rebuilt(ps, premise_order={**order, c: (rng.choice(arc_ids), right)})
        # the reference unpacks a typed connective's order: leave types out
        yield rebuilt(ps, premise_order={**order, c: (left, right, left)}, types=None)
        yield rebuilt(ps, premise_order={**order, c: (left,)}, types=None)
        yield rebuilt(ps, premise_order={**order, c: ()}, types=None)
        unordered = {x: p for x, p in order.items() if x != c}
        yield rebuilt(ps, premise_order=unordered)
        yield rebuilt(ps, premise_order=unordered,
                      arcs={x: e for x, e in arcs.items() if x != left})
    yield rebuilt(ps, premise_order={**order, n: (a, a + 1)})
    yield rebuilt(ps, premise_order={**order, missing: (a, a + 1)})
    # labels: unknown, unhashable, or a known one with the wrong arity
    yield rebuilt(ps, nodes={**nodes, n: "with"})
    yield rebuilt(ps, nodes={**nodes, n: ["ax"]})
    yield rebuilt(ps, nodes={**nodes, n: rng.choice(("ax", "cut", "one", "bot",
                                                     "tensor", "par", "dot"))})
    yield rebuilt(ps, nodes={**nodes, missing: "dot"})
    # conclusions: missing, repeated, foreign, one in place of another, reordered
    concl = ps.conclusions
    if concl:
        i = rng.randrange(len(concl))
        yield rebuilt(ps, conclusions=concl[:i] + concl[i + 1:])
        yield rebuilt(ps, conclusions=concl + (concl[i],))
        yield rebuilt(ps, conclusions=concl[:i] + (max(arc_ids) + 3,) + concl[i + 1:])
        yield rebuilt(ps, conclusions=concl[:i] + (concl[i - 1],) + concl[i + 1:])
        yield rebuilt(ps, conclusions=tuple(rng.sample(concl, len(concl))))
    yield rebuilt(ps, conclusions=concl + (a,))
    # jumps: from a non-bot, to a missing node, to itself, to a node
    yield rebuilt(ps, jumps={**ps.jumps, n: rng.choice(node_ids)})
    yield rebuilt(ps, jumps={**ps.jumps, n: missing})
    yield rebuilt(ps, jumps={**ps.jumps, n: n})
    yield rebuilt(ps, jumps={**ps.jumps, missing: n})
    # types: one missing, one replaced, all dropped, an extra one
    types = ps.types
    if types is not None:
        yield rebuilt(ps, types={x: f for x, f in types.items() if x != a})
        yield rebuilt(ps, types={**types, a: random_formula(rng)})
        yield rebuilt(ps, types={**types, a: types[rng.choice(arc_ids)]})
        yield rebuilt(ps, types={**types, max(arc_ids) + 1: parse_formula("X")})
        yield rebuilt(ps, types={})
    else:
        yield rebuilt(ps, types={x: random_formula(rng) for x in arc_ids})
    # two defects at once
    yield rebuilt(ps, nodes={**nodes, n: "with"}, arcs={**arcs, a: (h, h)})
    yield rebuilt(ps, arcs={**arcs, a: (h, t)}, jumps={n: missing})


def test_validate_gives_the_reference_violations():
    rng = random.Random(19)
    seen_rules = set()
    compared = 0
    for base in base_structures():
        for ps in [base, *mutations(base, rng)]:
            assert ps.incidence() == reference.incidence(ps)
            for frag in FRAGMENTS:
                got = validate(ps, frag).violations
                assert got == reference.validate(ps, frag).violations
                seen_rules.update(rule for rule, _, _ in got)
                compared += 1
    assert compared > 19000
    assert seen_rules >= {
        "label", "arc-ends", "binary par", "ax arity", "dot arity", "premise-order",
        "conclusions", "dag", "jump", "typing", "dual ax types", "dual cut types",
        "unit type", "connective type", "fragment"}


def test_an_unhashable_label_is_an_unknown_label():
    ps = ProofStructure({0: ["ax"], 1: "dot"}, {0: (0, 1)}, {}, (0,))
    want = [("label", 0, "unknown label ['ax'] on node 0")]
    assert validate(ps).violations == reference.validate(ps).violations == want


def test_a_one_item_premise_order_is_a_violation_not_an_unpacking():
    ps = ProofStructure({0: "bot", 1: "bot", 2: "tensor", 3: "dot"},
                        {0: (0, 2), 1: (1, 2), 2: (2, 3)}, {2: (0,)}, (2,))
    want = [("premise-order", 2, "premise order of node 2 does not list its premises")]
    assert validate(ps).violations == reference.validate(ps).violations == want
    # typed, the reference unpacks the order and raises; validate does not
    typed = rebuilt(ps, types={0: parse_formula("bot"), 1: parse_formula("bot"),
                               2: parse_formula("bot tensor bot")})
    assert validate(typed).violations == want


def test_views_share_their_owner_dicts_and_index():
    ps = fixtures.load("jumps-units")
    index = ps.incidence()
    for view in (ps.without_types(), ps.with_jumps({4: 3}), ps.without_jumps()):
        assert view.nodes is ps.nodes and view.arcs is ps.arcs
        assert view.premise_order is ps.premise_order
        assert view.incidence() is index
    assert ps.without_types().jumps is ps.jumps and ps.with_jumps({}).types is ps.types
    jumps = {4: 3}
    assert ps.with_jumps(jumps).jumps == jumps and ps.with_jumps(jumps).jumps is not jumps
    assert ps.copy().nodes is not ps.nodes
