"""The canonical-form engine against its eager-colour, whole-structure
reference: the same bytes wherever every component holds a conclusion, the
same verdicts and bijections everywhere, and no colour refinement on the
nets that proofs desequentialize to."""

import random

import reference_canonical as ref
from conftest import relabel
from families import jumped_closed_cuts
from proofnets.cli import main
from proofnets.canonical import canonical_form, iso, isomorphisms
from proofnets.formulas import ONE, Fragment
from proofnets.generate import GenParams, random_proof, random_ps
from proofnets.sequent import desequentialize, format_proof
from proofnets.sequentialize import canonical_jumps_btenll
from proofnets.structure import CUT, DOT, ONE as ONE_NODE, ProofStructure, erasing_nodes, strip


def reached_from_conclusions(ps):
    """True iff every node lies in a component, of the arcs plus the jump
    arcs, that holds a conclusion."""
    near = {n: set() for n in ps.nodes}
    for t, h in ps.arcs.values():
        near[t].add(h)
        near[h].add(t)
    for s, t in ps.jumps.items():
        near[s].add(t)
        near[t].add(s)
    seen = {ps.head(c) for c in ps.conclusions}
    stack = list(seen)
    while stack:
        for m in near[stack.pop()] - seen:
            seen.add(m)
            stack.append(m)
    return len(seen) == len(ps.nodes)


def with_random_jumps(ps, rng):
    jumped = ps.copy()
    jumped.jumps = {b: rng.choice([n for n in ps.nodes if n != b]) for b in ps.bottom_nodes()}
    return jumped


def seeded_corpus():
    """Random untyped and mllu structures with and without cuts,
    desequentialized mllu and btenll proofs, btenll ones with canonical
    jumps, and a copy of each with random jumps from its bots."""
    rng = random.Random(3)
    corpus = []
    for seed in range(40):
        for frag in (None, Fragment.MLLU):
            corpus.append(random_ps(GenParams(fragment=frag, max_nodes=6 + seed % 8, seed=seed,
                                              cut_probability=0.4 * (seed % 2))))
        corpus.append(desequentialize(random_proof(GenParams(
            fragment=Fragment.MLLU, max_rules=8, seed=seed, cut_probability=0.3)),
            verify=False).ps)
        ps = desequentialize(random_proof(GenParams(fragment=Fragment.BTENLL, max_rules=8,
                                                    seed=seed)), verify=False).ps
        corpus.append(ps)
        erasing = erasing_nodes(ps)
        anchor = min(n for n, lab in ps.nodes.items() if n not in erasing and lab != DOT)
        corpus.append(canonical_jumps_btenll(ps, anchor))
    return corpus + [with_random_jumps(ps, rng) for ps in corpus if ps.bottom_nodes()]


def closed(ps):
    """`ps` with its conclusions cut together in pairs (one more `one` node
    when their number is odd), so that no component holds a conclusion."""
    nodes = {n: lab for n, lab in ps.nodes.items() if lab != DOT}
    arcs = dict(ps.arcs)
    types = None if ps.types is None else dict(ps.types)
    ends = list(ps.conclusions)
    if len(ends) % 2:
        one, a = ps.fresh_node_id(), ps.fresh_arc_id()
        nodes[one] = ONE_NODE
        arcs[a] = (one, None)
        if types is not None:
            types[a] = ONE
        ends.append(a)
    for i in range(0, len(ends), 2):
        cut = max(nodes) + 1
        nodes[cut] = CUT
        for a in ends[i:i + 2]:
            arcs[a] = (arcs[a][0], cut)
    return ProofStructure(nodes, arcs, ps.premise_order, (), types)


def disjoint_union(parts, rng, cross_jumps):
    """The parts side by side, conclusions in part order; with
    `cross_jumps`, each bot of the first part jumps into another part."""
    nodes, arcs, order, concl, types, jumps = {}, {}, {}, [], {}, {}
    placed = []
    for i, ps in enumerate(parts):
        shifted = relabel(ps, rng)  # ids below 10 000
        nmap = {n: n + 10_000 * i for n in shifted.nodes}
        amap = {a: a + 10_000 * i for a in shifted.arcs}
        nodes.update({nmap[n]: lab for n, lab in shifted.nodes.items()})
        arcs.update({amap[a]: (nmap[t], nmap[h]) for a, (t, h) in shifted.arcs.items()})
        order.update({nmap[n]: (amap[x], amap[y]) for n, (x, y) in shifted.premise_order.items()})
        concl += [amap[a] for a in shifted.conclusions]
        if shifted.types is not None:
            types.update({amap[a]: f for a, f in shifted.types.items()})
        jumps.update({nmap[s]: nmap[t] for s, t in shifted.jumps.items()})
        placed.append([nmap[n] for n in sorted(shifted.nodes)])
    if cross_jumps:
        for b in placed[0]:
            if nodes[b] == "bot":
                jumps[b] = rng.choice(rng.choice(placed[1:]))
    typed = all(ps.types is not None for ps in parts)
    return ProofStructure(nodes, arcs, order, concl, types if typed else None, jumps)


def union_corpus():
    """Random disjoint unions of 2-4 small components, open and closed,
    often repeated, with and without cross-component jumps."""
    rng = random.Random(5)
    pool = []
    for seed in range(12):
        for frag in (None, Fragment.MLLU):
            ps = random_ps(GenParams(fragment=frag, max_nodes=4 + seed % 3, seed=seed))
            pool += [ps, closed(ps)]
    unions = []
    for i in range(60):
        typed = i % 2 == 0
        kind = [ps for ps in pool if (ps.types is not None) == typed]
        picks = [rng.choice(kind) for _ in range(rng.randint(2, 4))]
        if rng.random() < 0.5:
            picks[-1] = picks[0]
        unions.append(disjoint_union(picks, rng, cross_jumps=False))
        shuffled = picks[:]
        rng.shuffle(shuffled)
        if any(ps.bottom_nodes() for ps in shuffled[:1]):
            unions.append(disjoint_union(shuffled, rng, cross_jumps=True))
    return unions


def test_canonical_bytes_match_the_reference_where_conclusions_reach_everything():
    compared = 0
    for ps in seeded_corpus():
        for s in (ps, strip(ps)):
            if reached_from_conclusions(s):
                assert canonical_form(s) == ref.canonical_form(s)
                compared += 1
    assert compared > 300


def test_iso_and_isomorphisms_agree_with_the_reference():
    rng = random.Random(9)
    corpus = seeded_corpus()
    unions = union_corpus()
    assert sum(not reached_from_conclusions(u) for u in unions) > 40
    pairs = [(a, relabel(a, rng)) for a in corpus + unions]
    pairs += [(a, b) for group in (corpus, unions) for a, b in zip(group, group[1:])]
    pairs += [(a, strip(relabel(a, rng))) for a in unions[::3]]
    pairs += [(a.without_jumps(), relabel(a, rng).without_jumps()) for a in unions if a.jumps]
    sizes = []
    for a, b in pairs:
        assert iso(a, b) == ref.iso(a, b)
        sigmas = list(isomorphisms(a, b))
        found = {frozenset(sigma.items()) for sigma in sigmas}
        assert len(found) == len(sigmas)
        assert found == {frozenset(sigma.items()) for sigma in ref.isomorphisms(a, b)}
        sizes.append(len(found))
    assert 0 in sizes and max(sizes) >= 6


def test_proof_nets_never_refine_colours(tmp_path, capsys, monkeypatch):
    def refuse(*_):
        raise AssertionError("node_colors called")

    monkeypatch.setattr("proofnets.canonical.node_colors", refuse)
    for seed in range(12):
        proof = random_proof(GenParams(fragment=Fragment.BTENLL, max_rules=20 + 5 * seed,
                                       seed=seed))
        p, d, q = (str(tmp_path / f"{seed}{x}") for x in ("P.proof", "D.json", "Q.proof"))
        (tmp_path / f"{seed}P.proof").write_text(format_proof(proof, Fragment.BTENLL))
        assert main(["deseq", p, "--out", d]) == 0
        assert main(["sequentialize", d, "--out", q]) == 0
        assert main(["equiv", p, q]) == 0
        assert main(["equiv", q, p]) == 0
    assert capsys.readouterr().out == "true\n" * 24


def test_a_traversal_searches_the_leftover_components_once(monkeypatch):
    # k nested closed cuts under canonical jumps: jumps tie each closed cut
    # to the main part, so every traversal meets the cuts as leftover arc
    # components; one search finds them all, plus the one that finds the parts
    from proofnets import canonical

    def counted(name):
        target, calls = getattr(canonical, name), []
        monkeypatch.setattr(canonical, name,
                            lambda *args, **kwargs: calls.append(args) or target(*args, **kwargs))
        return calls

    searches, traversals = counted("induced_components"), counted("_traverse")
    for k, leaves in ((4, 41), (5, 206)):
        jumped = jumped_closed_cuts(k)
        del searches[:], traversals[:]
        canonical_form(jumped)
        assert len(traversals) == leaves
        assert len(searches) <= len(traversals) + 1
