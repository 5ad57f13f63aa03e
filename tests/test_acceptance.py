"""Acceptance suite: one test per criterion, at the stated sample sizes.

Run `pytest -s tests/test_acceptance.py` to see one summary line per
criterion.  Every expected value is either fixed in advance by hand
calculation on the checked-in fixtures or recomputed here by an
independent oracle (breadth-first component counting, exhaustive
reduction-order search, the brute-force decomposition oracle).
"""

from proofnets import fixtures
from proofnets.canonical import canonical_form, iso
from proofnets.cutelim import find_redexes, reduce_step
from proofnets.formulas import Fragment, polarity
from proofnets.generate import GenParams, random_proof, random_ps
from proofnets.sequent import desequentialize
from proofnets.sequentialize import (canonical_jumps_btenll, jump_correct,
                                     proofs_equivalent, rewiring_equivalent,
                                     sequentialize_btenll, sequentialize_icomll,
                                     sequentialize_wten, split_parts)
from proofnets.structure import erasing_nodes, is_wten, validate
from proofnets.switching import check, switching_graph
from proof_permutations import deseq_relation_holds, permute_rules
from reference_oracles import (is_sequential_oracle, output_stats, rewiring_reachable,
                               splitting_candidates)
from reference_switching import (ALL, W_COMPATIBLE, SwitchingGraph, cwforall, graph_components,
                                 switchings)


def _report(criterion, detail):
    print(f"acceptance {criterion}: PASS ({detail})")


def _bfs_components_and_acyclicity(nodes, arcs):
    """Independent component/cycle oracle: BFS with explicit arc tracking."""
    adjacency = {n: [] for n in nodes}
    for a, (t, h) in arcs.items():
        adjacency[t].append((a, h))
        adjacency[h].append((a, t))
    seen, components, acyclic = set(), 0, True
    for start in nodes:
        if start in seen:
            continue
        components += 1
        seen.add(start)
        frontier = [(start, None)]
        while frontier:
            current, via = frontier.pop()
            for a, other in adjacency[current]:
                if a == via:
                    continue
                if other in seen:
                    acyclic = False
                    continue
                seen.add(other)
                frontier.append((other, a))
    return components, acyclic


def _random_structures(count, **kwargs):
    found, seed = [], 0
    while len(found) < count:
        ps = random_ps(GenParams(seed=seed, **kwargs))
        seed += 1
        if len(ps.par_nodes()) <= 8:
            found.append(ps)
        assert seed < 50 * count, "generator starved"
    return found


def test_criterion_1_component_count_law():
    """For acyclic switching graphs, components = nodes - arcs, exactly."""
    structures = _random_structures(500, fragment=None, max_nodes=12,
                                    cut_probability=0.25)
    graphs = acyclic_graphs = 0
    for ps in structures:
        for sw in switchings(ps, ALL):
            nodes, arcs = switching_graph(ps, sw)
            cc, acyclic = _bfs_components_and_acyclicity(nodes, arcs)
            graphs += 1
            if acyclic:
                acyclic_graphs += 1
                assert cc == len(nodes) - len(arcs)
    assert acyclic_graphs > 500
    _report("criterion 1",
            f"{len(structures)} structures, {graphs} switching graphs, "
            f"{acyclic_graphs} acyclic, count law exact")


def test_criterion_2_desequentialization_necessity():
    """Every desequentialization passes accw; intuitionistic constant-only
    proofs additionally produce exactly one output conclusion."""
    for seed in range(300):
        p = random_proof(GenParams(fragment=Fragment.MLLU, max_rules=14,
                                   seed=seed, cut_probability=0.4))
        d = desequentialize(p, verify=False)
        assert check(d.ps, "accw").holds, seed
    one_output = 0
    for seed in range(100):
        p = random_proof(GenParams(fragment=Fragment.ICOMLL, max_rules=12,
                                   seed=seed))
        d = desequentialize(p, verify=False)
        assert check(d.ps, "accw").holds, seed
        outputs = [a for a in d.ps.conclusions
                   if polarity(d.ps.types[a]) == "O"]
        assert len(outputs) == 1, seed
        one_output += 1
    _report("criterion 2", f"300 mllu + {one_output} icomll desequentializations")


def _all_strategy_normal_form(ps, budget):
    memo = {}

    def nf(s):
        key = canonical_form(s)
        if key in memo:
            return memo[key]
        budget[0] -= 1
        assert budget[0] > 0, "confluence search budget exceeded"
        redexes, _ = find_redexes(s)
        if not redexes:
            memo[key] = key
            return key
        forms = {nf(reduce_step(s, r)) for r in redexes}
        assert len(forms) == 1, "two strategies reached different normal forms"
        memo[key] = forms.pop()
        return memo[key]

    return nf(ps)


def test_criterion_3_cut_elimination_stability():
    """Each step preserves accw and decomposability; all reduction orders
    reach the same normal form."""
    collected, seed = [], 0
    while len(collected) < 200:
        p = random_proof(GenParams(fragment=Fragment.MLLU, max_rules=13,
                                   seed=seed, cut_probability=0.8))
        seed += 1
        ps = desequentialize(p, verify=False).ps
        if ps.nodes_with_label("cut"):
            collected.append(ps)
        assert seed < 5000
    steps = oracle_checked = 0
    for ps in collected:
        _all_strategy_normal_form(ps.without_jumps(), [4000])
        current = ps.without_jumps()
        small = len(current.nodes) <= 12
        if small:
            assert is_sequential_oracle(current)[0]
        while True:
            redexes, _ = find_redexes(current)
            if not redexes:
                break
            current = reduce_step(current, redexes[0])
            assert check(current, "accw").holds
            if small:
                assert is_sequential_oracle(current)[0]
                oracle_checked += 1
            steps += 1
    assert steps > 200
    _report("criterion 3",
            f"200 structures with cuts, {steps} steps, all orders confluent, "
            f"{oracle_checked} decomposability checks")


def test_criterion_4_criterion_equivalences():
    """Erasing safety, the universal census condition and its witnessed form
    agree on every sample."""
    structures = _random_structures(300, fragment=None, max_nodes=11,
                                    cut_probability=0.25)
    safe = unsafe = 0
    for ps in structures:
        erasing = erasing_nodes(ps)
        wten_ok = is_wten(ps)[0]
        universal = cwforall(ps).holds
        witnessed = any(
            all(c.erasing_of_base == 0 or c.thread
                for c in graph_components(SwitchingGraph(ps, sw), erasing))
            for sw in switchings(ps, W_COMPATIBLE))
        assert wten_ok == universal == witnessed
        safe += wten_ok
        unsafe += not wten_ok
    assert safe > 20 and unsafe > 20
    _report("criterion 4", f"300 structures ({safe} safe, {unsafe} unsafe), "
            "three characterizations agree exactly")


def test_criterion_5_sequentialization_round_trip():
    """Cut-free fragment desequentializations sequentialize and round-trip."""
    for seed in range(200):
        p = random_proof(GenParams(fragment=Fragment.BTENLL, max_rules=14,
                                   seed=seed, cut_probability=0.0))
        ps = desequentialize(p, verify=False).ps
        proof = sequentialize_wten(ps)
        assert iso(desequentialize(proof, verify=False).ps, ps), seed
    _report("criterion 5", "200 round trips, isomorphism exact")


def test_criterion_6_counterexample_fixtures():
    """The two checked-in counterexamples pass the count criterion, fail
    erasing safety and are certified non-decomposable."""
    expected = fixtures.expected_verdicts()
    for name in ("regnier", "counterexample-io"):
        ps = fixtures.load(name)
        assert check(ps, "accw").holds
        assert not is_wten(ps)[0]
        assert not is_sequential_oracle(ps)[0]
        assert expected[name] == {"accw": True, "wten": False,
                                  "sequential": False,
                                  **({"outputs": 1} if name == "counterexample-io" else {})}
    _report("criterion 6", "both counterexamples: accw holds, unsafe, "
            "non-decomposable")


def test_criterion_7_splitting_distributions():
    """The split-choice fixture has exactly three distributions and only the
    balanced one yields two structures passing the criterion."""
    ps = fixtures.load("split-choice")
    assignments = splitting_candidates(ps)
    assert len(assignments) == 3
    balanced = []
    for a in assignments:
        left, right = split_parts(ps, a)
        assert validate(left).ok and validate(right).ok
        if check(left, "accw").holds and check(right, "accw").holds:
            balanced.append(a)
    assert len(balanced) == 1
    assert len(balanced[0].left_nodes) == len(balanced[0].right_nodes)
    _report("criterion 7", "3 distributions, exactly 1 criterion-preserving")


def test_criterion_8_refined_sequentialization():
    """The canonical-jump sequentializers satisfy the jump-aware relation and
    produce jump-correct structures."""
    for seed in range(100):
        p = random_proof(GenParams(fragment=Fragment.BTENLL, max_rules=13,
                                   seed=seed))
        ps = desequentialize(p, verify=False).ps
        erasing = erasing_nodes(ps)
        m = min(n for n, lab in ps.nodes.items()
                if n not in erasing and lab != "dot")
        proof, jumped = sequentialize_btenll(ps, m)
        assert jump_correct(jumped), seed
        assert deseq_relation_holds(proof, jumped), seed
    for seed in range(100):
        p = random_proof(GenParams(fragment=Fragment.ICOMLL, max_rules=13,
                                   seed=seed))
        ps = desequentialize(p, verify=False).ps
        proof, jumped = sequentialize_icomll(ps)
        assert jump_correct(jumped), seed
        assert deseq_relation_holds(proof, jumped), seed
    _report("criterion 8", "100 + 100 refined sequentializations verified")


def test_criterion_9_equivalence_decision():
    """Permuted pairs are equivalent, distinct-conclusion pairs are not, and
    the rewiring search agrees with the desequentialization decision."""
    for seed in range(100):
        p = random_proof(GenParams(fragment=Fragment.BTENLL, max_rules=13,
                                   seed=seed))
        q = permute_rules(p, seed=seed + 1000)
        assert proofs_equivalent(p, q), seed

    distinct = 0
    seed_a = 0
    while distinct < 100:
        p = random_proof(GenParams(fragment=Fragment.BTENLL, max_rules=11,
                                   seed=seed_a))
        q = random_proof(GenParams(fragment=Fragment.BTENLL, max_rules=11,
                                   seed=seed_a + 7000))
        seed_a += 1
        if sorted(map(str, p.conclusion)) == sorted(map(str, q.conclusion)):
            continue
        assert not proofs_equivalent(p, q), seed_a
        distinct += 1
        assert seed_a < 2000

    # rewiring: the breadth-first oracle against the stripped-iso decision
    pairs = checked = 0
    for seed in range(400):
        if checked >= 25:
            break
        p = random_proof(GenParams(fragment=Fragment.BTENLL, max_rules=11,
                                   seed=seed))
        ps = desequentialize(p, verify=False).ps
        bots = ps.bottom_nodes()
        if not 1 <= len(bots) <= 3:
            continue
        erasing = erasing_nodes(ps)
        candidates = [n for n, lab in ps.nodes.items()
                      if n not in erasing and lab != "dot"]
        base = canonical_jumps_btenll(ps, candidates[0])
        variants = [base]
        for src in bots:
            for target in candidates[:4]:
                if target in (src, base.jumps[src]):
                    continue
                cand = base.copy()
                cand.jumps = dict(base.jumps)
                cand.jumps[src] = target
                if jump_correct(cand):
                    variants.append(cand)
                    break
        for variant in variants[1:3]:
            decision = rewiring_equivalent(base, variant)
            search = rewiring_reachable(base, variant)
            assert decision == search == True  # noqa: E712
            checked += 1
        pairs += 1
    assert checked >= 10

    # a negative pair: different underlying structures, both jump-correct
    left = canonical_jumps_btenll(fixtures.load("jumps-units"), 0)
    small = desequentialize(
        random_proof(GenParams(fragment=Fragment.BTENLL, max_rules=6, seed=11)),
        verify=False).ps
    if small.bottom_nodes():
        erasing = erasing_nodes(small)
        anchor = min(n for n, lab in small.nodes.items()
                     if n not in erasing and lab != "dot")
        right = canonical_jumps_btenll(small, anchor)
        assert rewiring_equivalent(left, right) == rewiring_reachable(left, right) == False  # noqa: E712
    _report("criterion 9", f"100 + {distinct} proof pairs, {checked} rewiring "
            "pairs, search agrees with decision")


def test_criterion_10_polarity_law():
    """On intuitionistically typed, acyclicity-passing structures the
    component count equals bots + outputs and accw holds iff one output."""
    collected, seed = [], 0
    while len(collected) < 200:
        ps = random_ps(GenParams(fragment=Fragment.IMLL, max_nodes=11,
                                 seed=seed, cut_probability=0.25))
        seed += 1
        assert seed < 10_000
        if len(ps.par_nodes()) <= 8 and check(ps, "ac").holds:
            collected.append(ps)
    single = multiple = 0
    for ps in collected:
        stats = output_stats(ps)
        for cc in stats.components_per_switching:
            assert cc == stats.bots + stats.outputs
        accw = check(ps, "accw").holds
        assert accw == (stats.outputs == 1)
        single += stats.outputs == 1
        multiple += stats.outputs != 1
    assert single > 10 and multiple > 10
    _report("criterion 10", f"200 structures ({single} with one output, "
            f"{multiple} otherwise), count law and equivalence exact")
