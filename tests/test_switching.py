import random

import pytest

from conftest import build_ps
from proofnets import fixtures
from proofnets.errors import FragmentError, SwitchingLimitError
from proofnets.formulas import Fragment, polarity
from proofnets.generate import GenParams, random_proof, random_ps
from proofnets.sequent import bot_rule, desequentialize, one_rule, par_rule
from proofnets.sequentialize import canonical_jumps_btenll
from proofnets.structure import ProofStructure, erasing_nodes, is_wten
from proofnets.switching import (ALL, INTUITIONISTIC, W_COMPATIBLE,
                                 CriterionVerdict, Path, _connect, check,
                                 components_and_acyclicity, expected_components,
                                 graph_components, output_stats, switching_graph,
                                 switching_paths, switchings)


def two_par_ps():
    return build_ps(
        {0: "bot", 1: "bot", 2: "par", 3: "bot", 4: "bot", 5: "par",
         6: "dot", 7: "dot"},
        {0: (0, 2), 1: (1, 2), 2: (2, 6), 3: (3, 5), 4: (4, 5), 5: (5, 7)},
        prem={2: (0, 1), 5: (3, 4)}, concl=(2, 5))


def one_bot_par_ps():
    return build_ps({0: "one", 1: "bot", 2: "par", 3: "dot"},
                    {0: (0, 2), 1: (1, 2), 2: (2, 3)},
                    prem={2: (0, 1)}, concl=(2,),
                    types={0: "one", 1: "bot", 2: "(one par bot)"})


# -- enumeration -----------------------------------------------------------------


def test_switching_counts():
    assert len(list(switchings(two_par_ps(), ALL))) == 4


def test_w_compatible_forces_non_erasing_premise():
    ps = one_bot_par_ps()
    sws = list(switchings(ps, W_COMPATIBLE))
    assert len(sws) == 1
    assert sws[0] == {2: 0}  # the premise coming from the one node


def test_no_par_single_empty_switching(single_ax):
    assert list(switchings(single_ax, ALL)) == [{}]


def test_enumeration_cap():
    with pytest.raises(SwitchingLimitError):
        list(switchings(two_par_ps(), ALL, max_par=1))


def test_intuitionistic_requires_types():
    ps = one_bot_par_ps().without_types()
    with pytest.raises(FragmentError):
        list(switchings(ps, INTUITIONISTIC))


def test_intuitionistic_forces_output_premise():
    ps = one_bot_par_ps()  # par typed (one par bot): an output par
    sws = list(switchings(ps, INTUITIONISTIC))
    assert sws == [{2: 0}]


# -- switching graphs ---------------------------------------------------------------


def test_one_fresh_dot_per_par():
    ps = one_bot_par_ps()
    g = switching_graph(ps, {2: 0})
    assert len(g.nodes) == len(ps.nodes) + 1
    assert len(g.arcs) == len(ps.arcs)
    assert g.arcs[1][1] == g.fresh_dot_of[2]


def test_jump_arcs_added():
    ps = fixtures.load("jumps-units")
    ps.jumps = {4: 3, 5: 3}
    sw = next(switchings(ps, ALL))
    g = switching_graph(ps, sw)
    fresh = max(ps.arcs) + 1
    assert g.jump_arcs == {fresh: (4, 3), fresh + 1: (5, 3)}
    assert len(g.arcs) == len(ps.arcs) + 2


def test_counts_independent_of_switching():
    ps = two_par_ps()
    sizes = {(len(switching_graph(ps, sw).nodes), len(switching_graph(ps, sw).arcs))
             for sw in switchings(ps, ALL)}
    assert len(sizes) == 1


def test_no_par_graph_equals_structure():
    ps = fixtures.load("split-choice")
    g = switching_graph(ps, {})
    assert g.nodes == ps.nodes and g.arcs == ps.arcs


# -- components -----------------------------------------------------------------------


def test_split_choice_components():
    ps = fixtures.load("split-choice")
    cc, acyclic, comps = components_and_acyclicity(switching_graph(ps, {}))
    assert cc == 3 and acyclic
    assert sorted(len(c) for c in comps) == [2, 2, 4]


def test_single_ax_connected(single_ax):
    cc, acyclic, _ = components_and_acyclicity(switching_graph(single_ax, {}))
    assert cc == 1 and acyclic


def test_ax_reconvergence_is_a_cycle():
    ps = build_ps({0: "ax", 1: "tensor", 2: "dot"},
                  {0: (0, 1), 1: (0, 1), 2: (1, 2)},
                  prem={1: (0, 1)}, concl=(2,))
    cc, acyclic, _ = components_and_acyclicity(switching_graph(ps, {}))
    assert not acyclic and cc == 1


# -- criteria --------------------------------------------------------------------------


def test_split_choice_accw():
    verdict = check(fixtures.load("split-choice"), "accw")
    assert verdict.holds
    assert sorted(c["bots"] for c in verdict.census) == [0, 0, 2]


def test_regnier_accw_but_not_wten():
    ps = fixtures.load("regnier")
    assert check(ps, "accw").holds
    assert not is_wten(ps)[0]


def test_regnier_fails_plain_connectivity():
    assert not check(fixtures.load("regnier"), "c").holds


def test_wten_cut_fixture_cwforall():
    assert check(fixtures.load("wten-cut"), "cwforall").holds


def test_cwforall_counterexample_replayable():
    ps = fixtures.load("split-choice")
    verdict = check(ps, "cwforall")
    assert not verdict.holds
    g = switching_graph(ps, verdict.counterexample)
    comps = graph_components(g)
    assert any(c.erasing_of_base > 0 and not c.thread for c in comps)


def test_empty_structure_fails_counting():
    from proofnets.structure import ProofStructure
    empty = ProofStructure()
    assert check(empty, "ac").holds
    assert not check(empty, "c").holds
    assert not check(empty, "cw").holds


def test_jump_adjusted_count():
    ps = fixtures.load("jumps-units")
    assert check(ps, "accw").holds
    ps_jumped = ps.copy()
    ps_jumped.jumps = {4: 3, 5: 3}
    assert check(ps_jumped, "accw").holds  # target drops to 1
    assert check(ps_jumped, "acc").holds


def _enumerated_verdict(ps, criterion):
    """The ac/acc/accw verdict by switching enumeration: the first cyclic
    switching refutes; otherwise the first switching gives the count."""
    erasing = erasing_nodes(ps)
    first = None
    for sw in switchings(ps, ALL):
        g = switching_graph(ps, sw)
        uf, acyclic = _connect(g)
        census = [c.census() for c in graph_components(g, erasing)]
        if not acyclic:
            return CriterionVerdict(criterion, False, sw, census)
        first = first or (sw, uf.count, census)
    if criterion == "ac":
        return CriterionVerdict(criterion, True)
    sw, count, census = first
    holds = count == (1 if criterion == "acc" else expected_components(ps))
    return CriterionVerdict(criterion, holds, None if holds else sw, census)


def _swap_heads(ps, rng):
    """A copy with the heads of two arcs exchanged, premise orders and
    conclusions following the arcs."""
    a, b = rng.sample(sorted(ps.arcs), 2)
    swap = {a: b, b: a}
    arcs = dict(ps.arcs)
    arcs[a], arcs[b] = (ps.tail(a), ps.head(b)), (ps.tail(b), ps.head(a))
    order = {n: tuple(swap.get(x, x) for x in pair)
             for n, pair in ps.premise_order.items()}
    return ProofStructure(ps.nodes, arcs, order,
                          [swap.get(x, x) for x in ps.conclusions])


def _oracle_corpus():
    """Fixtures, random structures (untyped and mllu, with and without
    cuts), desequentialized proofs and btenll ones with canonical jumps;
    then one copy of each with two arc heads swapped and one with random
    jumps from its bots."""
    corpus = [fixtures.load(name) for name in fixtures.NAMES]
    for seed in range(60):
        for frag in (None, Fragment.MLLU):
            corpus.append(random_ps(GenParams(fragment=frag, max_nodes=8 + seed % 12, seed=seed,
                                              cut_probability=0.4 * (seed % 2))))
        p = random_proof(GenParams(fragment=Fragment.MLLU, max_rules=18, seed=seed))
        corpus.append(desequentialize(p, verify=False).ps)
        p = random_proof(GenParams(fragment=Fragment.BTENLL, max_rules=10, seed=seed))
        ps = desequentialize(p, verify=False).ps
        erasing = erasing_nodes(ps)
        anchor = min(n for n, lab in ps.nodes.items() if n not in erasing and lab != "dot")
        corpus.append(canonical_jumps_btenll(ps, anchor).ps)
    rng = random.Random(0)
    variants = []
    for ps in corpus:
        if len(ps.arcs) >= 2:
            variants.append(_swap_heads(ps, rng))
        if ps.bottom_nodes():
            jumped = ps.copy()
            jumped.jumps = {b: rng.choice([n for n in ps.nodes if n != b])
                            for b in ps.bottom_nodes()}
            variants.append(jumped)
    return corpus + variants


def test_contraction_agrees_with_the_enumeration():
    corpus = _oracle_corpus()
    refuted = 0
    for i, ps in enumerate(corpus):
        assert len(ps.par_nodes()) <= 10, i
        for criterion in ("ac", "acc", "accw"):
            verdict = check(ps, criterion)
            assert verdict.to_json() == _enumerated_verdict(ps, criterion).to_json(), \
                (i, criterion)
        refuted += verdict.counterexample is not None
    assert len(corpus) > 500 and len(corpus) // 4 < refuted < 3 * len(corpus) // 4


def test_ac_structures_have_switching_independent_counts():
    for seed in range(150):
        ps = random_ps(GenParams(fragment=None, max_nodes=10, seed=seed,
                                 cut_probability=0.2))
        if not check(ps, "ac").holds:
            continue
        counts = {components_and_acyclicity(switching_graph(ps, sw))[0]
                  for sw in switchings(ps, ALL)}
        assert len(counts) == 1


def test_wten_iff_cwforall_iff_witnessed():
    hit_true = hit_false = 0
    for seed in range(200):
        ps = random_ps(GenParams(fragment=None, max_nodes=10, seed=seed,
                                 cut_probability=0.2))
        wten = is_wten(ps)[0]
        universal = check(ps, "cwforall").holds
        erasing = erasing_nodes(ps)
        witnessed = any(
            all(c.erasing_of_base == 0 or c.thread
                for c in graph_components(switching_graph(ps, sw), erasing))
            for sw in switchings(ps, W_COMPATIBLE))
        assert wten == universal == witnessed, seed
        hit_true += wten
        hit_false += not wten
    assert hit_true > 10 and hit_false > 10


def test_erasing_path_characterization():
    # universal census condition == every w-switching path leaving an
    # erasing node through its conclusion crosses only erasing nodes
    for seed in range(120):
        ps = random_ps(GenParams(fragment=None, max_nodes=9, seed=seed))
        erasing = erasing_nodes(ps)
        paths_ok = True
        for n in sorted(erasing):
            if ps.nodes[n] == "dot":
                continue
            concl = ps.conclusions_of(n)
            if not concl:
                continue
            for path in switching_paths(ps, n, None, "w-switching"):
                if path.arcs and path.arcs[0] == concl[0]:
                    if not all(m in erasing for m in path.nodes):
                        paths_ok = False
        assert paths_ok == check(ps, "cwforall").holds, seed


def test_erasing_safe_counted_structures_are_connected():
    # no terminal bot/par + erasing-safety + the count criterion => connected
    ps = build_ps({0: "ax", 1: "ax", 2: "cut", 3: "dot", 4: "dot"},
                  {0: (0, 3), 1: (0, 2), 2: (1, 2), 3: (1, 4)}, concl=(0, 3))
    assert is_wten(ps)[0] and check(ps, "cw").holds
    assert components_and_acyclicity(switching_graph(ps, {}))[0] == 1
    checked = 0
    for seed in range(200):
        cand = random_ps(GenParams(fragment=None, max_nodes=10, seed=seed,
                                   cut_probability=0.2))
        erasing = erasing_nodes(cand)
        if not is_wten(cand)[0] or not check(cand, "cw").holds:
            continue
        if any(n in erasing for n in cand.terminal_nodes()):
            continue
        cc = len(set(components_and_acyclicity(switching_graph(
            cand, next(switchings(cand, ALL))))[2]))
        base_cc = len(_base_components(cand))
        assert base_cc == 1, seed
        checked += 1
    assert checked > 3


def _base_components(ps):
    from proofnets.switching import UnionFind
    uf = UnionFind(ps.nodes)
    for t, h in ps.arcs.values():
        uf.union(t, h)
    return {uf.find(n) for n in ps.nodes}


# -- intuitionistic statistics ------------------------------------------------------


def test_output_stats_single_one(single_one):
    stats = output_stats(single_one)
    assert (stats.bots, stats.outputs) == (0, 1)
    assert stats.components_per_switching == [1]


def test_output_stats_counterexample_fixture():
    ps = fixtures.load("counterexample-io")
    stats = output_stats(ps)
    assert stats.outputs == 1
    assert check(ps, "accw").holds


def test_two_outputs_fail_accw():
    ps = build_ps({0: "one", 1: "one", 2: "dot", 3: "dot"},
                  {0: (0, 2), 1: (1, 3)}, concl=(0, 1),
                  types={0: "one", 1: "one"})
    stats = output_stats(ps)
    assert stats.outputs == 2 and stats.acyclic
    assert not check(ps, "accw").holds


def test_output_stats_requires_imll_typing():
    ps = fixtures.load("regnier")  # one par one is not an imll formula
    with pytest.raises(FragmentError):
        output_stats(ps)


def test_component_count_law():
    # cc = bots + outputs on acyclic switching graphs of imll structures
    checked = 0
    for seed in range(200):
        ps = random_ps(GenParams(fragment=Fragment.IMLL, max_nodes=10,
                                 seed=seed, cut_probability=0.2))
        if not check(ps, "ac").holds:
            continue
        stats = output_stats(ps)  # asserts the law internally
        assert all(cc == stats.bots + stats.outputs
                   for cc in stats.components_per_switching)
        checked += 1
    assert checked > 50


def test_per_component_polarity_census():
    # under intuitionistic switchings each component carries exactly one
    # bot node or one output conclusion
    checked = 0
    for seed in range(150):
        ps = random_ps(GenParams(fragment=Fragment.IMLL, max_nodes=10,
                                 seed=seed))
        if not check(ps, "ac").holds:
            continue
        for sw in switchings(ps, INTUITIONISTIC):
            g = switching_graph(ps, sw)
            _, _, comps = components_and_acyclicity(g)
            concl_of = {}
            for a, (t, h) in g.arcs.items():
                if g.nodes[h] == "dot":
                    concl_of.setdefault(h, a)
            for comp in comps:
                bots = sum(1 for n in comp if g.nodes[n] == "bot")
                outs = sum(1 for n in comp
                           if g.nodes[n] == "dot" and n in concl_of
                           and polarity(ps.types[concl_of[n]]) == "O")
                assert bots + outs == 1, seed
        checked += 1
    assert checked > 40


# -- paths ------------------------------------------------------------------------------


def test_switching_path_rejects_premise_pair():
    ps = one_bot_par_ps()
    paths = switching_paths(ps, 0, 1, "switching")
    assert all(not ({0, 1} <= set(p.arcs)) for p in paths)
    assert len(paths) == 0  # the only route uses both premises of the par


def test_w_switching_path_avoids_forced_premise():
    ps = one_bot_par_ps()
    # arc 1 is the erasing premise of a par with exactly one erasing premise
    for p in switching_paths(ps, 1, None, "w-switching"):
        assert 1 not in p.arcs
    assert switching_paths(ps, 1, 3, "w-switching") == []
    assert len(switching_paths(ps, 1, 3, "switching")) == 1


def test_empty_path_accepted():
    ps = one_bot_par_ps()
    paths = switching_paths(ps, 2, 2, "switching")
    assert len(paths) == 1 and len(paths[0]) == 0


def test_directed_paths():
    ps = one_bot_par_ps()
    assert len(switching_paths(ps, 1, 3, "directed")) == 1
    assert switching_paths(ps, 3, 1, "directed") == []


def recursive_switching_paths(ps, src, dst, flavor):
    """The recursive walk switching_paths used to make, one call per path step."""
    erasing = erasing_nodes(ps)
    forbidden = set()
    if flavor == "w-switching":
        for n in ps.par_nodes():
            erasing_prem = [a for a in ps.premises_of(n) if ps.tail(a) in erasing]
            if len(erasing_prem) == 1:
                forbidden.add(erasing_prem[0])
    incoming, outgoing = ps.incidence()
    results = [Path((src,), ())] if dst is None or dst == src else []

    def walk(node, nodes_seen, arcs_used, path_nodes, path_arcs):
        around = outgoing[node] if flavor == "directed" else outgoing[node] + incoming[node]
        for a in sorted(around):
            if a in arcs_used or a in forbidden:
                continue
            t, h = ps.arcs[a]
            nxt = h if node == t else t
            if nxt in nodes_seen:
                continue
            if flavor != "directed" and ps.nodes[h] == "par":
                twin = [x for x in ps.premises_of(h) if x != a]
                if twin and twin[0] in arcs_used:
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


def test_switching_paths_keep_the_recursive_order():
    rng = random.Random(12)
    compared = 0
    for seed in range(40):
        ps = random_ps(GenParams(fragment=None, max_nodes=7 + seed % 5, seed=seed,
                                 cut_probability=0.3 * (seed % 2)))
        nodes = sorted(ps.nodes)
        for flavor in ("switching", "w-switching", "directed"):
            for src in rng.sample(nodes, 3):
                for dst in (None, rng.choice(nodes), src):
                    expected = recursive_switching_paths(ps, src, dst, flavor)
                    assert switching_paths(ps, src, dst, flavor) == expected, (seed, flavor)
                    compared += len(expected)
    assert compared > 1000


def test_switching_paths_on_deep_nets():
    # 1 200 nested par(bot) rules over a one: one switching path of 1 201 arcs
    proof = one_rule()
    for _ in range(1200):
        proof = par_rule(bot_rule(proof))
    ps = desequentialize(proof, verify=False).ps
    one = ps.nodes_with_label("one")[0]
    dot = ps.head(ps.conclusions[0])
    paths = switching_paths(ps, one, dot, "switching")
    assert [len(p) for p in paths] == [1201]
    assert len(switching_paths(ps, one, None, "directed")) == 1202


# -- narrative checks on the wten-cut fixture ----------------------------------------


def test_wten_cut_switching_narratives():
    # under the erasing-compatible switching the cut's component is
    # erasing-free and the two bots sit in threads; under the other
    # switching a bot joins the cut's component, which is then no thread,
    # but that switching is not erasing-compatible, so cwforall still holds
    ps = fixtures.load("wten-cut")
    erasing = erasing_nodes(ps)
    compatible = list(switchings(ps, W_COMPATIBLE))
    assert len(compatible) == 1
    good = graph_components(switching_graph(ps, compatible[0]), erasing)
    cut_comp = next(c for c in good if 4 in c.nodes)
    assert cut_comp.erasing_of_base == 0
    assert sorted(c.thread for c in good) == [False, True, True]

    other = next(sw for sw in switchings(ps, ALL) if sw != compatible[0])
    bad = graph_components(switching_graph(ps, other), erasing)
    cut_comp = next(c for c in bad if 4 in c.nodes)
    assert cut_comp.erasing_of_base > 0 and not cut_comp.thread
    assert check(ps, "cwforall").holds


def test_erasing_nodes_persist_in_switching_graphs():
    for seed in range(80):
        ps = random_ps(GenParams(fragment=None, max_nodes=10, seed=seed))
        base_erasing = erasing_nodes(ps)
        for sw in switchings(ps, ALL):
            g = switching_graph(ps, sw)
            view = ProofStructure(g.nodes, g.arcs)
            assert base_erasing <= erasing_nodes(view), seed


def test_erasing_safe_counted_structures_more_facts():
    # with erasing safety and the count criterion: a non-erasing node
    # exists, and any component avoiding a given cut/tensor node is
    # entirely erasing
    confirmed = 0
    for seed in range(300):
        ps = random_ps(GenParams(fragment=None, max_nodes=10, seed=seed,
                                 cut_probability=0.25))
        if not is_wten(ps)[0] or not check(ps, "cw").holds:
            continue
        erasing = erasing_nodes(ps)
        assert any(n not in erasing for n in ps.nodes), seed
        splitters = [n for n, lab in ps.nodes.items()
                     if lab in ("cut", "tensor")]
        if not splitters:
            continue
        comps = _base_component_sets(ps)
        for n in splitters:
            for comp in comps:
                if n not in comp:
                    assert all(m in erasing for m in comp), seed
        confirmed += 1
    assert confirmed > 3


def _base_component_sets(ps):
    from proofnets.switching import UnionFind
    uf = UnionFind(ps.nodes)
    for t, h in ps.arcs.values():
        uf.union(t, h)
    groups = {}
    for n in ps.nodes:
        groups.setdefault(uf.find(n), set()).add(n)
    return list(groups.values())


def test_partial_jump_map_adjusts_target():
    ps = fixtures.load("jumps-units")
    partial = ps.copy()
    partial.jumps = {4: 3}  # one of the two bots jumped
    from proofnets.switching import expected_components
    assert expected_components(ps) == 3
    assert expected_components(partial) == 2
    assert check(partial, "accw").holds
