import json
import random
import tracemalloc
from itertools import combinations, permutations, product

import pytest

from conftest import build_ps, mutated_documents, relabel
from proofnets import fixtures, formulas
from proofnets.canonical import canonical_form, iso, isomorphisms
from proofnets.errors import ParseError
from proofnets.formulas import Fragment, format_formula, parse_formula
from proofnets.generate import GenParams, random_proof, random_ps
from proofnets.sequent import desequentialize
from proofnets.sequentialize import canonical_jumps_btenll, canonical_jumps_icomll
from proofnets.structure import (ProofStructure, erasing_nodes, from_dsl, from_json,
                                 from_json_dict, is_wten, strip, to_dsl, to_json,
                                 to_json_dict, validate)
from reference_cutelim import descent_chain, precedes


# -- validation ---------------------------------------------------------------


def test_validate_single_ax(single_ax):
    assert validate(single_ax).ok


def test_validate_unary_par_rejected():
    ps = build_ps({0: "bot", 1: "par", 2: "dot"},
                  {0: (0, 1), 1: (1, 2)}, concl=(1,), expect_valid=False)
    report = validate(ps)
    assert not report.ok
    assert any(rule == "binary par" for rule, _, _ in report.violations)


def test_validate_non_dual_cut_types():
    ps = build_ps({0: "ax", 1: "ax", 2: "cut", 3: "dot", 4: "dot"},
                  {0: (0, 3), 1: (0, 2), 2: (1, 2), 3: (1, 4)},
                  concl=(0, 3),
                  types={0: "X^", 1: "X", 2: "X", 3: "X^"},
                  expect_valid=False)
    report = validate(ps)
    assert any(rule == "dual cut types" for rule, _, _ in report.violations)


def test_validate_empty_structure():
    assert validate(ProofStructure()).ok


def test_validate_rejects_directed_cycle():
    ps = ProofStructure({0: "par", 1: "tensor"},
                        {0: (0, 1), 1: (1, 0), 2: (1, 0)},
                        {0: (1, 2), 1: (0,)}, ())
    assert not validate(ps).ok


def test_validate_fragment_typing():
    ps = fixtures.load("regnier")
    assert validate(ps, Fragment.MLLU).ok
    report = validate(ps, Fragment.BTENLL)
    assert not report.ok  # (one par one) tensor bot is outside btenll


def test_validate_jump_domain():
    ps = build_ps({0: "one", 1: "dot"}, {0: (0, 1)}, concl=(0,),
                  jumps={0: 1}, expect_valid=False)
    report = validate(ps)
    assert any(rule == "jump" for rule, _, _ in report.violations)


# -- erasing nodes -------------------------------------------------------------


def test_erasing_single_bot(single_bot):
    assert erasing_nodes(single_bot) == {0, 1}


def test_erasing_par_of_two_bots():
    ps = build_ps({0: "bot", 1: "bot", 2: "par", 3: "dot"},
                  {0: (0, 2), 1: (1, 2), 2: (2, 3)},
                  prem={2: (0, 1)}, concl=(2,))
    assert erasing_nodes(ps) == {0, 1, 2, 3}


def test_erasing_par_one_bot():
    ps = build_ps({0: "one", 1: "bot", 2: "par", 3: "dot"},
                  {0: (0, 2), 1: (1, 2), 2: (2, 3)},
                  prem={2: (0, 1)}, concl=(2,))
    assert erasing_nodes(ps) == {1}


def test_erasing_monotone_under_peeling():
    from reference_oracles import _peel
    checked = 0
    for seed in range(250):
        ps = random_ps(GenParams(fragment=None, max_nodes=10, seed=seed))
        erasing = erasing_nodes(ps)
        for n in ps.terminal_nodes():
            if n not in erasing or ps.nodes[n] not in ("bot", "par"):
                continue
            sub = _peel(ps, n)
            after = erasing_nodes(sub)
            kept = {m for m in after if m in ps.nodes}
            assert kept <= erasing
            checked += 1
    assert checked > 10


# -- erasing-safety (wten) ------------------------------------------------------


def test_wten_fixture_witness():
    ps = fixtures.load("split-choice")
    ok, witness = is_wten(ps)
    assert not ok
    node, arc = witness
    assert ps.nodes[node] == "tensor"
    assert arc == ps.premise_order[node][0]  # the left premise, a bot conclusion


def test_wten_single_ax(single_ax):
    assert is_wten(single_ax) == (True, None)


def test_cut_free_btenll_structures_are_wten():
    # cut-free convention: with cuts, a one/bot cut is a counterexample
    for seed in range(60):
        p = random_proof(GenParams(fragment=Fragment.BTENLL, max_rules=12,
                                   seed=seed, cut_probability=0.0))
        ps = desequentialize(p, verify=False).ps
        assert is_wten(ps)[0], seed


# -- the descent order ----------------------------------------------------------


def test_precedes_examples(single_bot):
    assert precedes(single_bot, 0, 1)       # bot before its dot
    assert not precedes(single_bot, 0, 0)   # strict
    ps = build_ps({0: "bot", 1: "bot", 2: "par", 3: "dot"},
                  {0: (0, 2), 1: (1, 2), 2: (2, 3)},
                  prem={2: (0, 1)}, concl=(2,))
    assert not precedes(ps, 0, 1)
    assert precedes(ps, 0, 3)


def test_descendants_totally_ordered_below_non_ax_nodes():
    # every node has at most one conclusion except ax, so descent below a
    # non-ax node is a chain; an ax node with two conclusions shows the
    # claim cannot include ax nodes
    for seed in range(60):
        ps = random_ps(GenParams(fragment=None, max_nodes=10, seed=seed))
        for n, lab in ps.nodes.items():
            if lab == "ax":
                continue
            below = [m for m in ps.nodes if precedes(ps, n, m)]
            for a in below:
                for b in below:
                    assert a == b or precedes(ps, a, b) or precedes(ps, b, a)


def test_ax_descendants_not_totally_ordered(single_ax):
    assert precedes(single_ax, 0, 1) and precedes(single_ax, 0, 2)
    assert not precedes(single_ax, 1, 2) and not precedes(single_ax, 2, 1)


def test_descent_chain_matches_precedes(single_bot):
    assert descent_chain(single_bot, 0) == [1]


# -- serialization ----------------------------------------------------------------


def test_unknown_fixture_and_a_document_that_is_no_object_are_rejected():
    with pytest.raises(KeyError) as err:
        fixtures.load("nope")
    assert err.value.args == (f"unknown fixture 'nope'; known: {', '.join(fixtures.NAMES)}",)
    for text in ("[1]", "1", '"nodes"', "null"):
        with pytest.raises(ParseError) as err:
            from_json(text)
        assert str(err.value) == "malformed structure document: expected a JSON object", text


@pytest.mark.parametrize("name", fixtures.NAMES)
def test_json_and_dsl_round_trip(name):
    ps = fixtures.load(name)
    assert iso(ps, from_json(to_json(ps)))
    assert iso(ps, from_dsl(to_dsl(ps)))


@pytest.mark.parametrize("name", fixtures.NAMES)
def test_dsl_skips_blank_lines_and_comments(name):
    bare = to_dsl(fixtures.load(name))
    commented = ["# a structure", ""]
    for i, line in enumerate(bare.splitlines()):
        commented += [f"{line}  # line {i}", "   ", "\t# between lines"]
    assert to_json(from_dsl("\n".join(commented))) == to_json(from_dsl(bare))


def test_round_trip_preserves_conclusion_order():
    ps = fixtures.load("split-choice")
    again = from_json(to_json(ps))
    assert [ps.types[a] for a in ps.conclusions] == \
        [again.types[a] for a in again.conclusions]


def test_to_json_writes_the_text_of_json_dumps():
    structures = [fixtures.load(name) for name in fixtures.NAMES]
    structures.append(canonical_jumps_btenll(fixtures.load("jumps-units"), 0))
    for seed in range(40):
        for frag in (Fragment.MLLU, Fragment.BTENLL):
            p = random_proof(GenParams(fragment=frag, max_rules=14, seed=seed,
                                       cut_probability=0.3))
            structures.append(desequentialize(p, verify=False).ps)
        structures.append(random_ps(GenParams(fragment=None, seed=seed)))
    # empty fields, and a type text that json escapes
    structures += [ProofStructure(), ProofStructure(types={}),
                   build_ps({0: "ax", 1: "dot", 2: "dot"}, {0: (0, 1), 1: (0, 2)},
                            concl=(1, 0), types={0: "Xé", 1: "Xé^"})]
    for ps in structures:
        assert to_json(ps) == json.dumps(to_json_dict(ps), indent=2)
    assert "\\u00e9" in to_json(structures[-1])


def _fields(ps):
    return ps.nodes, ps.arcs, ps.premise_order, ps.conclusions, ps.types, ps.jumps


def _read_back_corpus():
    """The fixtures; seeded random structures, untyped and typed, each also
    with a random jump from every bot; desequentialized proofs of every
    fragment; and the canonical jumps of the btenll and icomll ones."""
    rng = random.Random(5)
    yield from (fixtures.load(name) for name in fixtures.NAMES)
    for seed in range(30):
        for frag in (None, Fragment.MLLU, Fragment.BTENLL):
            ps = random_ps(GenParams(fragment=frag, max_nodes=16, seed=seed,
                                     cut_probability=0.3 * (seed % 2)))
            yield ps
            if bots := ps.bottom_nodes():
                yield ps.with_jumps({b: rng.choice(sorted(ps.nodes)) for b in bots})
    for frag in Fragment:
        for seed in range(12):
            p = random_proof(GenParams(fragment=frag, max_rules=16, seed=seed,
                                       cut_probability=0.3 * (seed % 2)))
            ps = desequentialize(p, verify=False).ps
            yield ps
            if frag is Fragment.BTENLL:
                anchors = [n for n in sorted(ps.nodes)
                           if n not in erasing_nodes(ps) and ps.nodes[n] != "dot"]
                yield canonical_jumps_btenll(ps, anchors[0])
            elif frag is Fragment.ICOMLL:
                yield canonical_jumps_icomll(ps)


def test_accepted_documents_read_back_unchanged():
    # every document either reader accepts comes back with the same nodes,
    # arcs, premise orders, conclusions, types and jumps from the other
    # writer, and JSON -> DSL -> JSON gives the JSON text again
    documents = [to_json(ps) for ps in _read_back_corpus()]
    documents.append('{"nodes": [], "arcs": [], "types": {}}')  # typed, with no arc
    jumped = sum('"jumps"' in text for text in documents)
    # the mutants of the fixtures that the JSON reader accepts
    mutants = 0
    for name in fixtures.NAMES:
        for _, _, doc in mutated_documents(json.loads(to_json(fixtures.load(name)))):
            text = json.dumps(doc)
            try:
                from_json(text)
            except ParseError:
                continue
            documents.append(text)
            mutants += 1
    assert len(documents) > 500 and jumped > 100 and mutants > 200, (len(documents), jumped)
    for text in documents:
        ps = from_json(text)
        assert _fields(from_json(to_json(ps))) == _fields(ps), text
        again = from_dsl(to_dsl(ps))
        assert _fields(again) == _fields(ps), text
        assert _fields(from_dsl(to_dsl(again))) == _fields(ps), text
        assert to_json(again) == to_json(ps)


def first_failure(types: list) -> tuple:
    """What the one-arc-at-a-time reader raised first, in document order: a
    type that is not a string, a text that does not parse, or a key that is
    not an arc id."""
    for a, text in types:
        if not isinstance(text, str):
            return f"malformed structure document: type of arc {a} is not a string", None
        try:
            parse_formula(text)
        except ParseError as exc:
            return str(exc), exc.position
        try:
            int(a)
        except ValueError as exc:
            return f"malformed structure document: {exc}", None
    return None


def test_repeated_type_text_parses_once_and_fails_alike():
    def doc(types):
        return json.dumps({"nodes": [{"id": 0, "label": "ax"}], "arcs": [],
                           "types": types})

    bad = "(X tensor Y^) par"
    with pytest.raises(ParseError) as alone:
        parse_formula(bad)
    for types in ({"0": bad, "1": bad}, {"0": "X", "1": bad, "2": "X", "3": bad}):
        with pytest.raises(ParseError) as exc:
            from_json(doc(types))
        assert (str(exc.value), exc.value.position) == \
            (str(alone.value), alone.value.position)
    ps = from_json(doc({"0": "(X par X^)", "1": "(X par X^)"}))
    assert ps.types[0] is ps.types[1] is parse_formula("(X par X^)")
    # several bad texts, types that are not strings and a key that is not
    # an arc id, mixed with good texts in every order: the first offending
    # arc in document order raises
    bads = [("t", bad), ("t", "X $"), ("t", "(X par Y"), ("t", 7), ("t", None),
            ("t", ["X"]), ("x", "X")]
    goods = [("t", "X"), ("t", "(X par X^)"), ("t", "(X par Y)")]
    checked = 0
    for chosen in combinations(bads, 3):
        for good in goods:
            for order in permutations(chosen + (good,)):
                types = [(str(i) if key == "t" else key, text)
                         for i, (key, text) in enumerate(order)]
                with pytest.raises(ParseError) as exc:
                    from_json(doc(dict(types)))
                assert (str(exc.value), exc.value.position) == first_failure(types)
                checked += 1
    assert checked == 35 * 3 * 24


def test_a_type_read_as_a_group_of_a_longer_one_is_not_parsed_again(monkeypatch):
    parsed = []
    parse = formulas._parse

    def counted(text, *rest):
        parsed.append(text)
        return parse(text, *rest)

    monkeypatch.setattr(formulas, "_parse", counted)
    types = {"0": "(X par Y)", "1": "((X par Y) tensor Z)", "2": "Z",
             "3": "(X par Y)", "4": " (X par Y)"}
    ps = from_json(json.dumps({"nodes": [], "arcs": [], "types": types}))
    assert sorted(parsed) == [" (X par Y)", "((X par Y) tensor Z)", "Z"]
    assert ps.types[1].left is ps.types[0] is ps.types[3] is ps.types[4]


def typed_structures():
    """Seeded typed structures, with normalize-like mll nets with cuts."""
    for seed in range(30):
        for frag in (Fragment.MLLU, Fragment.BTENLL, Fragment.IMLL):
            p = random_proof(GenParams(fragment=frag, max_rules=20, seed=seed,
                                       cut_probability=0.3))
            yield desequentialize(p, verify=False).ps
        yield random_ps(GenParams(fragment=Fragment.MLLU, max_nodes=16, seed=seed,
                                  cut_probability=0.3))
    for seed in range(8):
        p = random_proof(GenParams(fragment=Fragment.MLL, max_rules=100 + 25 * seed,
                                   seed=seed, cut_probability=0.6))
        yield desequentialize(p, verify=False).ps


def test_batch_type_io_matches_one_arc_at_a_time():
    cut_nets = 0
    for ps in typed_structures():
        cut_nets += "cut" in ps.nodes.values()
        per_arc = {str(a): format_formula(f) for a, f in sorted(ps.types.items())}
        text = to_json(ps)
        assert text == json.dumps({**to_json_dict(ps), "types": per_arc}, indent=2)
        assert to_dsl(ps).endswith("".join(f"type {a} {t}\n" for a, t in per_arc.items()))
        again = from_json_dict(json.loads(text))
        for a, type_text in per_arc.items():
            assert again.types[int(a)] is parse_formula(type_text) is ps.types[int(a)]
    assert cut_nets > 40


def test_deep_type_io_memory_stays_within_the_text_size():
    # one ax typed by a 20 000-deep tensor chain and its dual: reading and
    # writing keep only the formulas and the wanted texts, where a table of
    # every subformula's text would grow with the square of the depth
    k = 20_000
    doc = {"nodes": [{"id": 0, "label": "ax"}, {"id": 1, "label": "dot"},
                     {"id": 2, "label": "dot"}],
           "arcs": [{"id": 0, "tail": 0, "head": 1}, {"id": 1, "tail": 0, "head": 2}],
           "conclusions": [0, 1],
           "types": {"0": "(" * k + "X" + " tensor X)" * k,
                     "1": "(" * k + "X^" + " par X^)" * k}}
    text = json.dumps(doc)
    tracemalloc.start()
    try:
        out = to_json(from_json(text))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert json.loads(out)["types"] == doc["types"]
    # the 40 000 interned formulas alone take about 34 times the text
    assert peak < 50 * len(text), (peak, len(text))


# -- canonical forms and isomorphism ------------------------------------------------


def test_canonical_invariant_under_relabeling():
    rng = random.Random(6)
    for seed in range(80):
        ps = random_ps(GenParams(fragment=None, max_nodes=10, seed=seed,
                                 cut_probability=0.3))
        other = relabel(ps, rng)
        assert canonical_form(ps) == canonical_form(other)
        assert iso(ps, other)


def test_canonical_on_typed_and_jumped():
    rng = random.Random(7)
    ps = fixtures.load("jumps-units")
    ps.jumps = {4: 3, 5: 3}
    other = relabel(ps, rng)
    assert iso(ps, other)
    redirected = ps.copy()
    redirected.jumps = {4: 0, 5: 3}  # jump to the ax instead of the par
    assert not iso(ps, redirected)
    assert iso(ps.without_jumps(), redirected.without_jumps())


def test_iso_swapped_symmetric_components():
    ps = fixtures.load("split-choice")
    swapped = ps.copy()
    # exchange the ids of the two one-components and their arcs/conclusions
    node_map = {0: 2, 2: 0, 5: 7, 7: 5}
    arc_map = {0: 4, 4: 0}
    swapped.nodes = {node_map.get(n, n): lab for n, lab in ps.nodes.items()}
    swapped.arcs = {arc_map.get(a, a): (node_map.get(t, t), node_map.get(h, h))
                    for a, (t, h) in ps.arcs.items()}
    swapped.types = {arc_map.get(a, a): f for a, f in ps.types.items()}
    swapped.conclusions = tuple(arc_map.get(a, a) for a in ps.conclusions)
    assert iso(ps, swapped)


def test_iso_distinguishes_fixtures():
    assert not iso(strip(fixtures.load("split-choice")), strip(fixtures.load("regnier")))


def test_canonical_of_conclusion_free_components():
    # a closed one/bot cut has no conclusion to anchor the traversal
    closed = build_ps({0: "one", 1: "bot", 2: "cut"},
                      {0: (0, 2), 1: (1, 2)}, concl=())
    rng = random.Random(11)
    assert iso(closed, relabel(closed, rng))
    doubled = build_ps({0: "one", 1: "bot", 2: "cut",
                        3: "one", 4: "bot", 5: "cut"},
                       {0: (0, 2), 1: (1, 2), 2: (3, 5), 3: (4, 5)}, concl=())
    assert iso(doubled, relabel(doubled, rng))
    assert not iso(closed, doubled)


def brute_isomorphisms(a, b):
    """Every label-preserving node bijection carrying a onto b: its arcs
    with their types (when both sides are typed), premise slots and
    conclusion positions, and its jumps."""
    typed = a.types is not None and b.types is not None

    def node_key(ps, n):
        return ps.nodes[n], tuple(i for i, c in enumerate(ps.conclusions) if ps.head(c) == n)

    def arc_roles(ps, sigma=None):
        roles = []
        for x, (t, h) in ps.arcs.items():
            slot = ps.premise_order[h].index(x) if h in ps.premise_order else -1
            concl = ps.conclusions.index(x) if x in ps.conclusions else -1
            typ = str(ps.types[x]) if typed else ""
            if sigma is not None:
                t, h = sigma[t], sigma[h]
            roles.append((t, h, slot, concl, typ))
        return sorted(roles)

    classes_a, classes_b = {}, {}
    for ps, classes in ((a, classes_a), (b, classes_b)):
        for n in sorted(ps.nodes):
            classes.setdefault(node_key(ps, n), []).append(n)
    if len(a.nodes) != len(b.nodes) or {k: len(v) for k, v in classes_a.items()} != \
            {k: len(v) for k, v in classes_b.items()}:
        return set()
    keys = sorted(classes_a)
    target_roles = arc_roles(b)
    found = set()
    for images in product(*(permutations(classes_b[k]) for k in keys)):
        sigma = {x: y for k, ys in zip(keys, images) for x, y in zip(classes_a[k], ys)}
        if (arc_roles(a, sigma) == target_roles
                and {sigma[s]: sigma[t] for s, t in a.jumps.items()} == b.jumps):
            found.add(frozenset(sigma.items()))
    return found


def test_isomorphisms_agree_with_brute_force():
    rng = random.Random(8)
    untyped = [strip(random_ps(GenParams(fragment=None, max_nodes=8, seed=s,
                                         cut_probability=0.3)))
               for s in range(24)]
    typed = [random_ps(GenParams(fragment=Fragment.MLLU, max_nodes=8, seed=s,
                                 cut_probability=0.3))
             for s in range(24)]
    pairs = [(a, b) for group in (untyped, typed)
             for i, a in enumerate(group) for b in group[i:i + 6]]
    pairs += [(a, relabel(a, rng)) for a in untyped + typed]
    pairs += [(a, strip(b)) for a, b in zip(typed, typed[1:] + typed[:1])]
    pairs += [(a, strip(relabel(a, rng))) for a in typed]
    jumped = fixtures.load("jumps-units")
    jumped.jumps = {4: 3, 5: 3}
    pairs += [(jumped, relabel(jumped, rng)), (jumped, jumped.without_jumps())]
    # closed components: the traversal must try every start node and both
    # orders of tied ax twins
    square = build_ps({0: "ax", 1: "ax", 2: "cut", 3: "cut"},
                      {0: (0, 2), 1: (0, 3), 2: (1, 2), 3: (1, 3)}, concl=())
    units = build_ps({0: "one", 1: "bot", 2: "cut", 3: "one", 4: "bot", 5: "cut"},
                     {0: (0, 2), 1: (1, 2), 2: (3, 5), 3: (4, 5)}, concl=())
    pairs += [(square, relabel(square, rng)), (units, relabel(units, rng))]
    sizes = []
    for a, b in pairs:
        sigmas = list(isomorphisms(a, b))
        found = {frozenset(sigma.items()) for sigma in sigmas}
        assert len(found) == len(sigmas)
        assert found == brute_isomorphisms(a, b)
        if (a.types is None) == (b.types is None):
            assert bool(found) == iso(a, b)
        sizes.append(len(found))
    assert 0 in sizes and max(sizes) > 1


def test_validate_accepts_every_desequentialization():
    for seed in range(80):
        p = random_proof(GenParams(fragment=Fragment.MLLU, max_rules=12,
                                   seed=seed, cut_probability=0.4))
        d = desequentialize(p, verify=False)
        assert validate(d.ps).ok
