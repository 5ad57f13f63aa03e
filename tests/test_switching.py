import random
from collections import Counter

import pytest

import reference_switching as reference
from conftest import build_ps
from families import joined_chain, leaf_jumped_chain, par_bot_chain, par_tensor_chain
from proofnets import fixtures
from proofnets.errors import FragmentError, SwitchingLimitError
from proofnets.formulas import Fragment, polarity
from proofnets.generate import GenParams, random_proof, random_ps
from proofnets.sequent import desequentialize
from proofnets.sequentialize import canonical_jumps_btenll, canonical_jumps_icomll
from proofnets.structure import ProofStructure, erasing_nodes, is_wten, topological_order
from proofnets.switching import (CriterionVerdict, _bridges, _components, _has_switching_cycle,
                                 check, expected_components, switching_graph)
from reference_oracles import Path, output_stats, switching_paths
from reference_switching import ALL, INTUITIONISTIC, W_COMPATIBLE, switchings


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
    nodes, arcs = switching_graph(ps, {2: 0})
    fresh = ps.fresh_node_id()
    assert nodes == {**ps.nodes, fresh: "dot"}
    assert len(arcs) == len(ps.arcs)
    assert arcs[1] == (ps.tail(1), fresh)


def test_jump_arcs_added():
    ps = fixtures.load("jumps-units")
    ps.jumps = {4: 3, 5: 3}
    sw = next(switchings(ps, ALL))
    _, arcs = switching_graph(ps, sw)
    fresh = max(ps.arcs) + 1
    assert {a: e for a, e in arcs.items() if a not in ps.arcs} == {fresh: (4, 3),
                                                                   fresh + 1: (5, 3)}
    assert len(arcs) == len(ps.arcs) + 2


def test_counts_independent_of_switching():
    ps = two_par_ps()
    sizes = {tuple(map(len, switching_graph(ps, sw))) for sw in switchings(ps, ALL)}
    assert len(sizes) == 1


def test_no_par_graph_equals_structure():
    ps = fixtures.load("split-choice")
    assert switching_graph(ps, {}) == (ps.nodes, ps.arcs)


def test_switching_graph_matches_the_reference_builder():
    # nodes and arcs in the reference's dict order, fresh dots and jump
    # arcs included, over the corpus of the census walk
    rng = random.Random(13)
    graphs = 0
    for i, ps in enumerate(_reference_corpus()):
        pars = ps.par_nodes()
        chosen = [{n: ps.premises_of(n)[0] for n in pars},
                  {n: ps.premises_of(n)[-1] for n in pars},
                  {n: rng.choice(ps.premises_of(n)) for n in pars}]
        for sw in chosen:
            nodes, arcs = switching_graph(ps, sw)
            g = reference.SwitchingGraph(ps, sw)
            assert list(nodes.items()) == list(g.nodes.items()), (i, sw)
            assert list(arcs.items()) == list(g.arcs.items()), (i, sw)
            graphs += 1
    assert graphs > 2000, graphs


# -- components -----------------------------------------------------------------------


def test_split_choice_components():
    ps = fixtures.load("split-choice")
    cc, acyclic, comps = reference.components_and_acyclicity(reference.SwitchingGraph(ps, {}))
    assert cc == 3 and acyclic
    assert sorted(len(c) for c in comps) == [2, 2, 4]


def test_single_ax_connected(single_ax):
    cc, acyclic, _ = reference.components_and_acyclicity(reference.SwitchingGraph(single_ax, {}))
    assert cc == 1 and acyclic


def test_ax_reconvergence_is_a_cycle():
    ps = build_ps({0: "ax", 1: "tensor", 2: "dot"},
                  {0: (0, 1), 1: (0, 1), 2: (1, 2)},
                  prem={1: (0, 1)}, concl=(2,))
    cc, acyclic, _ = reference.components_and_acyclicity(reference.SwitchingGraph(ps, {}))
    assert not acyclic and cc == 1


# -- criteria --------------------------------------------------------------------------


def test_unknown_criterion_is_a_value_error():
    with pytest.raises(ValueError) as err:
        check(fixtures.load("regnier"), "xyz")
    assert str(err.value) == "unknown criterion 'xyz'"


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
    g = reference.SwitchingGraph(ps, verdict.counterexample)
    comps = reference.graph_components(g)
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


def _reference_census(g, erasing):
    """The census of a switching graph, read off its node partition."""
    _, _, comps = reference.components_and_acyclicity(g)
    premises = Counter(h for _, h in g.arcs.values())
    census = []
    for comp in comps:
        bots = sum(1 for n in comp if g.nodes[n] == "bot")
        thread = bots == 1 and all(premises[n] == 1 for n in comp if g.nodes[n] != "bot")
        census.append({"nodes": len(comp), "erasing": len(comp & erasing),
                       "bots": bots, "thread": thread})
    return census


def _enumerated_verdicts(ps):
    """Every criterion but cwforall, decided on the switching graphs of one
    enumeration: c and cw fail on the first switching whose component count
    misses the target, ac, acc and accw on the first cyclic one, and
    otherwise acc and accw read the count off the first switching."""
    erasing = erasing_nodes(ps)
    targets = {"c": 1, "acc": 1, "cw": expected_components(ps),
               "accw": expected_components(ps)}
    refuting, first, first_count = {}, None, None
    for sw in switchings(ps, ALL):
        g = reference.SwitchingGraph(ps, sw)
        count, acyclic, _ = reference.components_and_acyclicity(g)
        if first is None:
            first, first_count = g, count
        for criterion in ("c", "cw"):
            if count != targets[criterion]:
                refuting.setdefault(criterion, g)
        if not acyclic:
            for criterion in ("ac", "acc", "accw"):
                refuting.setdefault(criterion, g)
    verdicts = {}
    for criterion in ("ac", "c", "cw", "acc", "accw"):
        g = refuting.get(criterion)
        if g is not None:
            verdict = CriterionVerdict(criterion, False, g.switching,
                                       _reference_census(g, erasing))
        elif criterion in ("ac", "c", "cw"):
            verdict = CriterionVerdict(criterion, True)
        else:
            holds = first_count == targets[criterion]
            verdict = CriterionVerdict(criterion, holds, None if holds else first.switching,
                                       _reference_census(first, erasing))
        verdicts[criterion] = verdict
    return verdicts


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
        corpus.append(canonical_jumps_btenll(ps, anchor))
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
    refuted = Counter()
    for i, ps in enumerate(corpus):
        assert len(ps.par_nodes()) <= 10, i
        expected = _enumerated_verdicts(ps)
        for criterion in ("ac", "c", "cw", "acc", "accw"):
            verdict = check(ps, criterion)
            assert verdict.to_json() == expected[criterion].to_json(), (i, criterion)
            refuted[criterion] += not verdict.holds
    assert len(corpus) > 500
    for criterion in ("ac", "c", "cw", "acc", "accw"):
        assert len(corpus) // 10 < refuted[criterion] < 9 * len(corpus) // 10, criterion
    assert len(corpus) // 4 < refuted["accw"] < 3 * len(corpus) // 4


def _late_cwforall_refutations():
    """Untyped random structures, one random jump from each bot, that the
    enumeration refutes at an erasing-compatible switching past the first:
    one that takes the second premise of some par."""
    found = []
    for seed in range(2500):
        ps = random_ps(GenParams(fragment=None, max_nodes=10, seed=seed))
        if not ps.bottom_nodes():
            continue
        rng = random.Random(seed)
        ps = ps.with_jumps({b: rng.choice([n for n in ps.nodes if n != b])
                            for b in ps.bottom_nodes()})
        verdict = reference.cwforall(ps)
        if not verdict.holds and verdict.counterexample != next(switchings(ps, W_COMPATIBLE)):
            found.append(ps)
    return found


def test_cwforall_agrees_with_the_enumeration():
    # a jump-free structure stops after its first erasing-compatible
    # switching, a jumped one enumerates them all: the late refutations
    # fail any check that stops after the first switching on jumped ones
    late = _late_cwforall_refutations()
    seen = Counter()
    for i, ps in enumerate(_oracle_corpus() + late):
        expected = reference.cwforall(ps)
        assert check(ps, "cwforall").to_json() == expected.to_json(), i
        seen[bool(ps.jumps), expected.holds] += 1
    assert min(seen[jumped, holds] for jumped in (False, True) for holds in (False, True)) > 10
    assert len(late) >= 10


def test_cwforall_on_a_jumped_wten_structure_tries_every_switching():
    # a jump from the bot to ax 2 holds under the par's first switching;
    # its second puts the tensor in the bot's component, which is then no
    # thread: with jumps, wten does not imply cwforall
    ps = build_ps({0: "bot", 1: "dot", 2: "ax", 3: "ax", 4: "par", 5: "ax", 6: "tensor",
                   7: "dot", 8: "dot", 9: "dot", 10: "dot"},
                  {0: (0, 1), 1: (2, 4), 2: (3, 4), 3: (4, 6), 4: (5, 6), 5: (2, 7),
                   6: (3, 8), 7: (5, 9), 8: (6, 10)},
                  prem={4: (2, 1), 6: (3, 4)}, concl=(0, 5, 6, 7, 8), jumps={0: 2})
    assert is_wten(ps)[0]
    assert list(switchings(ps, W_COMPATIBLE)) == [{4: 2}, {4: 1}]
    verdict = check(ps, "cwforall")
    assert verdict.to_json() == reference.cwforall(ps).to_json()
    assert verdict.to_json_dict()["counterexample"] == {"4": 1}
    assert not verdict.holds
    assert check(ps.without_jumps(), "cwforall").holds


def _two_choice_pars(ps):
    """The pars with two erasing-compatible premises, by the enumerator."""
    erasing = erasing_nodes(ps)
    return [n for n in ps.par_nodes()
            if len(reference._premise_options(ps, n, W_COMPATIBLE, erasing)) == 2]


def test_cwforall_of_a_jump_free_chain_is_never_capped():
    # every par of a tensor chain has two erasing-compatible premises, yet
    # the first switching decides and no cap applies
    for k in (21, 25, 40):
        for joined in (False, True):
            ps = par_tensor_chain(k, joined)
            assert len(_two_choice_pars(ps)) == k
            first = next(switchings(ps, W_COMPATIBLE, max_par=k))
            census = [c.census() for c in _components(ps, first, erasing_nodes(ps))]
            for max_par in (0, 20):
                verdict = check(ps, "cwforall", max_par)
                assert verdict.holds is is_wten(ps)[0], (k, joined, max_par)
                assert verdict.holds is not joined
                if not verdict.holds:
                    assert verdict.counterexample == first
                    assert verdict.census == census
    for i, ps in enumerate(_oracle_corpus()):
        if not ps.jumps:
            assert check(ps, "cwforall", 0).to_json() == check(ps, "cwforall").to_json(), i


def test_cwforall_caps_the_pars_with_two_erasing_compatible_premises():
    # a jumped structure is capped on those pars alone, and below the cap
    # its verdict is the full enumeration's
    corpus = [ps for ps in _reference_corpus() if ps.jumps]
    corpus += [leaf_jumped_chain(k, joined) for k in (1, 4, 7, 21, 40) for joined in (False, True)]
    raised = compared = flipped = 0
    for i, ps in enumerate(corpus):
        k = len(_two_choice_pars(ps))
        if k:
            with pytest.raises(SwitchingLimitError) as err:
                check(ps, "cwforall", k - 1)
            assert str(err.value) == (f"{k} par nodes with two erasing-compatible premises "
                                      f"exceed the enumeration cap {k - 1}"), i
            raised += 1
        if k <= 8:
            expected = reference.cwforall(ps, max_par=len(ps.par_nodes()))
            assert check(ps, "cwforall", k).to_json() == expected.to_json(), i
            compared += 1
            flipped += len(ps.par_nodes()) > 20
    assert raised > 50 and compared > 100 and flipped >= 10, (raised, compared, flipped)
    # at the cap itself, a chain whose first switching fails is decided
    for k in (21, 40):
        ps = leaf_jumped_chain(k, joined=True)
        expected = reference.cwforall(ps, max_par=k)
        assert not expected.holds
        assert check(ps, "cwforall", k).to_json() == expected.to_json(), k


def _per_par_first_cyclic_switching(ps):
    """The first cyclic switching in enumeration order, one par at a time:
    a par keeps its first premise when some cyclic switching still does."""
    forced = {}
    for n in ps.par_nodes():
        first, *rest = ps.premises_of(n)
        forced[n] = first
        if rest and not _has_switching_cycle(ps, forced):
            forced[n] = rest[0]
    return forced


def test_galloping_finds_the_first_cyclic_switching():
    rng = random.Random(3)
    corpus = []
    for seed in range(400):
        ps = random_ps(GenParams(fragment=None, max_nodes=10 + seed % 40, seed=seed,
                                 cut_probability=0.3 * (seed % 2)))
        jumped = ps.copy()
        jumped.jumps = {b: rng.choice([n for n in ps.nodes if n != b])
                        for b in ps.bottom_nodes()}
        corpus += [ps, _swap_heads(ps, rng), _swap_heads(ps, rng), jumped]
    for _ in range(150):
        k = rng.randint(1, 24)
        chain = joined_chain(k, [i for i in range(k) if rng.random() < 0.5])
        corpus += [chain, _swap_heads(chain, rng)]
    checked, seconds = 0, Counter()
    for i, ps in enumerate(corpus):
        verdict = check(ps, "ac")
        if verdict.holds:
            continue
        expected = _per_par_first_cyclic_switching(ps)
        assert verdict.counterexample == expected, i
        checked += 1
        second = sum(a != ps.premises_of(n)[0] for n, a in expected.items())
        seconds[min(second, 2)] += 1
    assert checked >= 1500 and seconds[1] >= 100 and seconds[2] >= 200, (checked, seconds)


def _btenll_anchor(ps):
    erasing = erasing_nodes(ps)
    return min(n for n, lab in ps.nodes.items() if n not in erasing and lab != "dot")


def _reference_corpus():
    """Fixtures, seeded random structures, desequentialized mll, mllu and
    btenll proofs, canonical btenll and icomll jumps, tensor-joined chains
    and 21-30-par bot;par chains; then one copy of each with two arc heads
    swapped and one with random jumps from its bots."""
    corpus = [fixtures.load(name) for name in fixtures.NAMES]
    for seed in range(40):
        corpus.append(random_ps(GenParams(fragment=None, max_nodes=8 + seed % 30, seed=seed,
                                          cut_probability=0.3 * (seed % 2))))
        for frag in (Fragment.MLL, Fragment.MLLU, Fragment.BTENLL):
            p = random_proof(GenParams(fragment=frag, max_rules=8 + seed % 12, seed=seed))
            corpus.append(desequentialize(p, verify=False).ps)
        corpus.append(canonical_jumps_btenll(corpus[-1], _btenll_anchor(corpus[-1])))
        p = random_proof(GenParams(fragment=Fragment.ICOMLL, max_rules=12, seed=seed))
        corpus.append(canonical_jumps_icomll(desequentialize(p, verify=False).ps))
    rng = random.Random(5)
    for k in range(21, 31):
        corpus.append(joined_chain(k, [i for i in range(k) if rng.random() < 0.5]))
        corpus.append(desequentialize(par_bot_chain(k)).ps)
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


def test_census_walk_matches_the_union_find():
    rng = random.Random(11)
    corpus = _reference_corpus()
    jumped = threads = 0
    for i, ps in enumerate(corpus):
        pars = ps.par_nodes()
        erasing = erasing_nodes(ps)
        chosen = [{n: ps.premises_of(n)[0] for n in pars},
                  {n: ps.premises_of(n)[-1] for n in pars}]
        chosen += [{n: rng.choice(ps.premises_of(n)) for n in pars} for _ in range(3)]
        for sw in chosen:
            comps = _components(ps, sw, erasing)
            assert comps == reference.components(ps, sw, erasing), (i, sw)
            threads += sum(c.thread for c in comps)
        jumped += bool(ps.jumps)
    assert len(corpus) > 500 and jumped > 200 and threads > 200, (len(corpus), jumped, threads)


def test_pruned_contraction_matches_the_unpruned_one():
    rng = random.Random(12)
    decided = Counter()
    for i, ps in enumerate(_reference_corpus()):
        bridges = _bridges(ps)
        pars = ps.par_nodes()
        for _ in range(3):
            forced = {n: rng.choice(ps.premises_of(n)) for n in pars if rng.random() < 0.5}
            for args in ((), (forced,), (None, bridges), (forced, bridges)):
                cyclic = _has_switching_cycle(ps, *args)
                assert cyclic == reference.has_switching_cycle(ps, *args), (i, args)
                decided[cyclic] += 1
    assert min(decided.values()) > 1000, decided


def test_dead_premises_are_pruned_only_without_a_jump():
    # a par over two bots: both premises go, and no switching graph is cyclic
    two_bots = build_ps({0: "bot", 1: "bot", 2: "par", 3: "dot"},
                        {0: (0, 2), 1: (1, 2), 2: (2, 3)}, prem={2: (0, 1)}, concl=(2,))
    # par 3 over bots 0 and 1 under tensor 4 with bot 2: a jump between bots
    # 0 and 2 closes a cycle through the first premise, so bot 0 stays
    # whether it is the jump's source or its target
    tensor = ({0: "bot", 1: "bot", 2: "bot", 3: "par", 4: "tensor", 5: "dot"},
              {0: (0, 3), 1: (1, 3), 2: (3, 4), 3: (2, 4), 4: (4, 5)})
    source = ProofStructure(*tensor, {3: (0, 1), 4: (2, 3)}, (4,), jumps={0: 2})
    target = ProofStructure(*tensor, {3: (0, 1), 4: (2, 3)}, (4,), jumps={2: 0})
    # an ax whose conclusions meet under a tensor, one through a par with a
    # one as its other premise: the one goes, the ax's premise stays free
    one = build_ps({0: "ax", 1: "one", 2: "par", 3: "tensor", 4: "dot"},
                   {0: (0, 2), 1: (1, 2), 2: (2, 3), 3: (0, 3), 4: (3, 4)},
                   prem={2: (1, 0), 3: (2, 3)}, concl=(4,))
    cases = [(two_bots, {}, False), (source, {}, True), (target, {}, True),
             (source, {3: 1}, False), (one, {}, True),
             # a forced par with a dead premise keeps the forced one alone
             (one, {2: 1}, False), (one, {2: 0}, True)]
    for i, (ps, forced, cyclic) in enumerate(cases):
        for bridges in (frozenset(), _bridges(ps)):
            assert _has_switching_cycle(ps, forced, bridges) is cyclic, i
            assert reference.has_switching_cycle(ps, forced, bridges) is cyclic, i
    assert check(two_bots, "ac").holds and not check(one, "ac").holds
    assert [check(ps, "ac").counterexample for ps in (source, target)] == [{3: 0}, {3: 0}]


def test_ac_structures_have_switching_independent_counts():
    for seed in range(150):
        ps = random_ps(GenParams(fragment=None, max_nodes=10, seed=seed,
                                 cut_probability=0.2))
        if not check(ps, "ac").holds:
            continue
        counts = {reference.components_and_acyclicity(reference.SwitchingGraph(ps, sw))[0]
                  for sw in switchings(ps, ALL)}
        assert len(counts) == 1


def test_wten_iff_cwforall_iff_witnessed():
    hit_true = hit_false = 0
    for seed in range(200):
        ps = random_ps(GenParams(fragment=None, max_nodes=10, seed=seed,
                                 cut_probability=0.2))
        wten = is_wten(ps)[0]
        universal = reference.cwforall(ps).holds
        erasing = erasing_nodes(ps)
        witnessed = any(
            all(c.erasing_of_base == 0 or c.thread
                for c in reference.graph_components(reference.SwitchingGraph(ps, sw), erasing))
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
        assert paths_ok == reference.cwforall(ps).holds, seed


def test_erasing_safe_counted_structures_are_connected():
    # no terminal bot/par + erasing-safety + the count criterion => connected
    ps = build_ps({0: "ax", 1: "ax", 2: "cut", 3: "dot", 4: "dot"},
                  {0: (0, 3), 1: (0, 2), 2: (1, 2), 3: (1, 4)}, concl=(0, 3))
    assert is_wten(ps)[0] and check(ps, "cw").holds
    assert reference.components_and_acyclicity(reference.SwitchingGraph(ps, {}))[0] == 1
    checked = 0
    for seed in range(200):
        cand = random_ps(GenParams(fragment=None, max_nodes=10, seed=seed,
                                   cut_probability=0.2))
        erasing = erasing_nodes(cand)
        if not is_wten(cand)[0] or not check(cand, "cw").holds:
            continue
        if any(n in erasing for n in cand.terminal_nodes()):
            continue
        cc = len(set(reference.components_and_acyclicity(reference.SwitchingGraph(
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
            g = reference.SwitchingGraph(ps, sw)
            _, _, comps = reference.components_and_acyclicity(g)
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
    ps = desequentialize(par_bot_chain(1200), verify=False).ps
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
    good = reference.graph_components(reference.SwitchingGraph(ps, compatible[0]), erasing)
    cut_comp = next(c for c in good if 4 in c.nodes)
    assert cut_comp.erasing_of_base == 0
    assert sorted(c.thread for c in good) == [False, True, True]

    other = next(sw for sw in switchings(ps, ALL) if sw != compatible[0])
    bad = reference.graph_components(reference.SwitchingGraph(ps, other), erasing)
    cut_comp = next(c for c in bad if 4 in c.nodes)
    assert cut_comp.erasing_of_base > 0 and not cut_comp.thread
    assert check(ps, "cwforall").holds


def test_erasing_nodes_persist_in_switching_graphs():
    for seed in range(80):
        ps = random_ps(GenParams(fragment=None, max_nodes=10, seed=seed))
        base_erasing = erasing_nodes(ps)
        for sw in switchings(ps, ALL):
            view = ProofStructure(*switching_graph(ps, sw))
            assert base_erasing <= erasing_nodes(view), seed


def _topological_erasing_nodes(ps):
    """Erasing nodes decided in a topological order of the arcs."""
    incoming = ps.incidence()[0]
    erasing = set()
    for n in topological_order(ps):
        if ps.nodes[n] in ("bot", "par", "dot") and all(
                ps.arcs[a][0] in erasing for a in incoming[n]):
            erasing.add(n)
    return erasing


def test_erasing_nodes_match_a_topological_pass():
    # random structures, their switching graphs, and copies with two arc
    # heads swapped, which may hold directed cycles
    rng = random.Random(4)
    compared = nonempty = 0
    for seed in range(300):
        ps = random_ps(GenParams(fragment=None, max_nodes=8 + seed % 30, seed=seed,
                                 cut_probability=0.3 * (seed % 2)))
        g = ProofStructure(*switching_graph(ps, next(switchings(ps, ALL, max_par=100))))
        for cand in (ps, _swap_heads(ps, rng), g):
            expected = _topological_erasing_nodes(cand)
            assert erasing_nodes(cand) == expected, seed
            compared += 1
            nonempty += bool(expected)
    assert compared == 900 and nonempty > 300


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
