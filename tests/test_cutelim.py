import copy
import hashlib
import json
import pickle
import random

import pytest

import reference_cutelim
from conftest import build_ps
from proofnets import fixtures
from proofnets.canonical import canonical_form, iso
from proofnets.cutelim import (AXIOM_CUT, MULTIPLICATIVE_CUT, Redex, UNIT_CUT, _Net,
                               _apply, _classify, find_redexes, normalize, reduce_step,
                               replay)
from proofnets.errors import RedexError, ValidationError
from proofnets.formulas import ATOM, BOT, ONE, PAR, Fragment, atom, negate, par, tensor
from proofnets.generate import GenParams, random_proof, random_ps
from proofnets.sequent import (ax_rule, bot_rule, cut_rule, desequentialize, exchange_to,
                               one_rule, par_rule, tensor_rule)
from proofnets.structure import ensure_valid, strip, to_json, validate
from proofnets.switching import check
from reference_oracles import is_sequential_oracle


def unit_cut_ps():
    return build_ps({0: "one", 1: "bot", 2: "cut", 3: "one", 4: "dot"},
                    {0: (0, 2), 1: (1, 2), 2: (3, 4)}, concl=(2,),
                    types={0: "one", 1: "bot", 2: "one"})


def clash_ps():
    # an untyped cut between two one nodes
    return build_ps({0: "one", 1: "one", 2: "cut"},
                    {0: (0, 2), 1: (1, 2)}, concl=())


def axiom_cut_ps():
    # ax cut against a one node
    return build_ps({0: "ax", 1: "one", 2: "cut", 3: "dot"},
                    {0: (0, 3), 1: (0, 2), 2: (1, 2)}, concl=(0,),
                    types={0: "one", 1: "bot", 2: "one"})


def closed_ax_loop_ps():
    # both conclusions of one ax feed the same cut
    return build_ps({0: "ax", 1: "cut"}, {0: (0, 1), 1: (0, 1)}, concl=())


def test_unit_cut_classified():
    redexes, clashes = find_redexes(unit_cut_ps())
    assert clashes == []
    assert [r.kind for r in redexes] == [UNIT_CUT]
    assert redexes[0].participants == (0, 1)


def test_clash_classified():
    redexes, clashes = find_redexes(clash_ps())
    assert redexes == [] and clashes == [2]


def one_against_tensor_ps():
    return build_ps(
        {0: "one", 1: "one", 2: "one", 3: "tensor", 4: "cut"},
        {0: (0, 4), 1: (1, 3), 2: (2, 3), 3: (3, 4)},
        prem={3: (1, 2)}, concl=())


def test_one_against_tensor_is_a_clash():
    ps = one_against_tensor_ps()
    redexes, clashes = find_redexes(ps)
    assert redexes == [] and clashes == [4]


def test_mult_cut_classified():
    ps = build_ps(
        {0: "one", 1: "one", 2: "tensor", 3: "bot", 4: "bot", 5: "par",
         6: "cut"},
        {0: (0, 2), 1: (1, 2), 2: (2, 6), 3: (3, 5), 4: (4, 5), 5: (5, 6)},
        prem={2: (0, 1), 5: (3, 4)}, concl=())
    redexes, clashes = find_redexes(ps)
    assert clashes == []
    assert [r.kind for r in redexes] == [MULTIPLICATIVE_CUT]
    assert redexes[0].participants == (2, 5)


def test_ax_loop_is_not_a_redex():
    redexes, clashes = find_redexes(closed_ax_loop_ps())
    assert redexes == [] and clashes == [1]


def test_axiom_step_splices():
    ps = axiom_cut_ps()
    redexes, _ = find_redexes(ps)
    assert redexes[0].kind == AXIOM_CUT
    out = reduce_step(ps, redexes[0])
    assert validate(out).ok
    assert sorted(out.nodes.values()) == ["dot", "one"]
    assert len(out.arcs) == 1
    (tail, head), = out.arcs.values()
    assert out.nodes[tail] == "one" and out.nodes[head] == "dot"
    assert out.types[next(iter(out.arcs))].kind == "one"


def test_unit_step_deltas():
    ps = unit_cut_ps()
    redexes, _ = find_redexes(ps)
    out = reduce_step(ps, redexes[0])
    assert len(out.nodes) == len(ps.nodes) - 3
    assert len(out.arcs) == len(ps.arcs) - 2
    assert len(out.bottom_nodes()) == len(ps.bottom_nodes()) - 1


def test_mult_step_deltas():
    ps = build_ps(
        {0: "one", 1: "one", 2: "tensor", 3: "bot", 4: "bot", 5: "par",
         6: "cut"},
        {0: (0, 2), 1: (1, 2), 2: (2, 6), 3: (3, 5), 4: (4, 5), 5: (5, 6)},
        prem={2: (0, 1), 5: (3, 4)}, concl=())
    redexes, _ = find_redexes(ps)
    out = reduce_step(ps, redexes[0])
    assert validate(out).ok
    # the tensor/par/cut triple becomes two cuts: one node fewer, two arcs
    # fewer, one cut more
    assert len(out.nodes) == len(ps.nodes) - 1
    assert len(out.arcs) == len(ps.arcs) - 2
    assert len(out.nodes_with_label("cut")) == len(ps.nodes_with_label("cut")) + 1
    # both new cuts are unit cuts now
    redexes2, clashes2 = find_redexes(out)
    assert len(redexes2) == 2 and not clashes2
    assert {r.kind for r in redexes2} == {UNIT_CUT}


def test_stale_redex_rejected():
    ps = unit_cut_ps()
    for stale in (Redex(2, AXIOM_CUT, (0, 1)), Redex(2, UNIT_CUT, (3, 1)),
                  Redex(0, UNIT_CUT, (0, 1)), Redex(9, UNIT_CUT, (0, 1))):
        with pytest.raises(RedexError):
            reduce_step(ps, stale)
    assert len(reduce_step(ps, Redex(2, UNIT_CUT, (0, 1))).nodes) == 2
    # a recorded step whose cut is gone, or is now another kind of redex
    for steps, stale in (([(UNIT_CUT, 2), (UNIT_CUT, 2)], "(unit, 2)"),
                         ([(AXIOM_CUT, 2)], "(axiom, 2)"), ([(UNIT_CUT, 9)], "(unit, 9)")):
        with pytest.raises(RedexError) as err:
            replay(ps, steps)
        assert str(err.value) == f"recorded step {stale} is not available"
    assert len(replay(ps, [(UNIT_CUT, 2)]).nodes) == 2


def test_arc_count_strictly_decreases():
    for seed in range(60):
        p = random_proof(GenParams(fragment=Fragment.MLLU, max_rules=12,
                                   seed=seed, cut_probability=0.6))
        ps = desequentialize(p, verify=False).ps
        redexes, _ = find_redexes(ps)
        for r in redexes:
            out = reduce_step(ps, r)
            assert len(out.arcs) == len(ps.arcs) - 2


def test_normalize_cut_free_identity():
    ps = build_ps({0: "one", 1: "dot"}, {0: (0, 1)}, concl=(0,))
    trace = normalize(ps)
    assert trace.steps == []
    assert iso(trace.normal_form, ps)


def test_two_unit_cuts_any_order():
    ps = build_ps(
        {0: "one", 1: "bot", 2: "cut", 3: "one", 4: "bot", 5: "cut",
         6: "one", 7: "dot"},
        {0: (0, 2), 1: (1, 2), 2: (3, 5), 3: (4, 5), 4: (6, 7)}, concl=(4,))
    a = normalize(ps, seed=1)
    b = normalize(ps, seed=2)
    det = normalize(ps)
    assert len(a.steps) == len(b.steps) == 2
    assert iso(a.normal_form, b.normal_form)
    assert iso(a.normal_form, det.normal_form)


def test_normalize_desequentialized_cut():
    found = 0
    for seed in range(80):
        p = random_proof(GenParams(fragment=Fragment.MLLU, max_rules=12,
                                   seed=seed, cut_probability=0.7))
        ps = desequentialize(p, verify=False).ps
        if not ps.nodes_with_label("cut"):
            continue
        trace = normalize(ps)
        redexes, clashes = find_redexes(trace.normal_form)
        assert redexes == []
        # desequentialized proofs are typed, so no clash can survive
        assert clashes == []
        found += 1
    assert found > 20


def test_replay_reproduces_normal_form():
    for seed in range(20):
        p = random_proof(GenParams(fragment=Fragment.MLLU, max_rules=12,
                                   seed=seed, cut_probability=0.7))
        ps = desequentialize(p, verify=False).ps
        trace = normalize(ps, seed=seed)
        again = replay(ps, trace.steps)
        assert canonical_form(again) == canonical_form(trace.normal_form)


def all_strategy_normal_form(ps, budget=3000):
    """Exhaustive confluence check: every reduction order, memoized."""
    memo = {}
    remaining = [budget]

    def nf(s):
        key = canonical_form(s)
        if key in memo:
            return memo[key]
        remaining[0] -= 1
        assert remaining[0] > 0, "state budget exceeded"
        redexes, _ = find_redexes(s)
        if not redexes:
            memo[key] = key
            return key
        forms = {nf(reduce_step(s, r)) for r in redexes}
        assert len(forms) == 1, "strategies reached different normal forms"
        memo[key] = forms.pop()
        return memo[key]

    return nf(ps.without_jumps())


def test_confluence_all_strategies():
    for seed in range(60):
        p = random_proof(GenParams(fragment=Fragment.MLLU, max_rules=13,
                                   seed=seed, cut_probability=0.7))
        ps = desequentialize(p, verify=False).ps
        all_strategy_normal_form(ps)


def test_accw_and_ac_stability():
    stepped = 0
    for seed in range(60):
        p = random_proof(GenParams(fragment=Fragment.MLLU, max_rules=12,
                                   seed=seed, cut_probability=0.7))
        ps = desequentialize(p, verify=False).ps
        assert check(ps, "accw").holds
        current = ps.without_jumps()
        while True:
            redexes, _ = find_redexes(current)
            if not redexes:
                break
            current = reduce_step(current, redexes[0])
            assert check(current, "ac").holds
            assert check(current, "accw").holds
            stepped += 1
    assert stepped > 40


def test_sequentiality_stability():
    stepped = 0
    for seed in range(80):
        ps = random_ps(GenParams(fragment=None, max_nodes=9, seed=seed,
                                 cut_probability=0.5))
        if len(ps.nodes) > 12 or not ps.nodes_with_label("cut"):
            continue
        before, _ = is_sequential_oracle(ps)
        if not before:
            continue
        redexes, _ = find_redexes(ps)
        for r in redexes:
            out = reduce_step(strip(ps), r)
            after, _ = is_sequential_oracle(out)
            assert after, seed
            stepped += 1
    assert stepped > 5


def _normalize_outputs(tmp_path, capsys):
    """stdout and --trace text of `normalize` on a seeded corpus of cut nets."""
    from proofnets.cli import main
    from proofnets.structure import to_json

    src, trace = tmp_path / "net.json", tmp_path / "trace.jsonl"
    for frag in (Fragment.MLL, Fragment.MLLU):
        for seed in range(40):
            p = random_proof(GenParams(fragment=frag, max_rules=60, seed=seed,
                                       cut_probability=0.6))
            src.write_text(to_json(desequentialize(p, verify=False).ps))
            for strategy in ([], ["--seed", str(seed)]):
                code = main(["normalize", str(src), "--trace", str(trace), *strategy])
                out, err = capsys.readouterr()
                assert (code, err) == (0, "")
                yield out + trace.read_text()


def test_normalize_output_is_pinned(tmp_path, capsys):
    # the trace and the normal form are CLI output: this digest was taken
    # before formulas were interned
    h, seen = hashlib.sha256(), 0
    for text in _normalize_outputs(tmp_path, capsys):
        h.update(text.encode())
        seen += 1
    assert (seen, h.hexdigest()) == (
        160, "c2c2894ed27a2d6ed82097ca66852cf92c51bde1e7aff542a2bea578a3582da2")


# -- the worklist reducer against the full scan -------------------------------


def oracle_normalize(ps, seed=None):
    """`normalize` as a full scan, one step and one validation per step."""
    ensure_valid(ps)
    rng = random.Random(seed) if seed is not None else None
    current, steps = ps.without_jumps(), []
    while True:
        redexes, _ = find_redexes(current)
        if not redexes:
            return steps, current
        chosen = redexes[0] if rng is None else rng.choice(redexes)
        steps.append((chosen.kind, chosen.cut_node))
        current = reduce_step(current, chosen)
        ensure_valid(current)


def assert_matches_oracle(ps, seed):
    trace = normalize(ps, seed=seed)
    steps, normal_form = oracle_normalize(ps, seed)
    assert trace.steps == steps
    assert to_json(trace.normal_form) == to_json(normal_form)
    assert trace.to_json_lines() == "\n".join(json.dumps({"kind": k, "cutNode": n})
                                               for k, n in steps)
    return len(steps)


def test_normalize_matches_the_full_scan():
    stepped = 0
    for frag in (Fragment.MLL, Fragment.MLLU):
        for seed in range(50):
            p = random_proof(GenParams(fragment=frag, max_rules=10 + 2 * seed, seed=seed,
                                       cut_probability=0.6))
            ps = desequentialize(p, verify=False).ps
            for strategy in (None, seed):
                stepped += assert_matches_oracle(ps, strategy)
    for seed in range(300):
        ps = random_ps(GenParams(fragment=None if seed % 3 else Fragment.MLLU,
                                 max_nodes=5 + seed % 30, seed=seed,
                                 cut_probability=0.5))
        for strategy in (None, seed):
            stepped += assert_matches_oracle(ps, strategy)
    assert stepped > 2000


def spliced_chain_ps():
    # Cuts 6 and 7 are both axiom cuts: 6 of ax 0 against par 5, 7 of ax 3
    # against tensor 2.  Reducing 6 re-tails arc 0 (ax 0 -> tensor 2) to
    # par 5, so ax 3 also reaches cut 7 down par 5 and tensor 2: cut 7, which
    # ends the chain below tensor 2, becomes a clash.  Reducing 7 first
    # makes cut 6 a clash the same way.
    return build_ps(
        {0: "ax", 1: "one", 2: "tensor", 3: "ax", 4: "bot", 5: "par",
         6: "cut", 7: "cut"},
        {0: (0, 2), 1: (0, 6), 2: (1, 2), 3: (2, 7), 4: (3, 7), 5: (3, 5),
         6: (4, 5), 7: (5, 6)},
        prem={2: (0, 2), 5: (5, 6)}, concl=())


def test_axiom_splice_reclassifies_the_cut_ending_the_chain():
    ps = spliced_chain_ps()
    redexes, _ = find_redexes(ps)
    assert [(r.kind, r.cut_node) for r in redexes] == [(AXIOM_CUT, 6), (AXIOM_CUT, 7)]
    firsts = set()
    for seed in (None, *range(8)):
        assert assert_matches_oracle(ps, seed) == 1
        trace = normalize(ps, seed=seed)
        (_, first), = trace.steps
        assert find_redexes(trace.normal_form) == ([], [13 - first])
        firsts.add(first)
    assert firsts == {6, 7}


def descent_search(ps, ax, cut, shared):
    """Whether the shared arc is the only directed path from ax to cut, by a
    search of its own down from the ax's other conclusions."""
    outgoing = ps.incidence()[1]
    seen = set()
    stack = [ps.head(a) for a in outgoing[ax] if a != shared]
    while stack:
        n = stack.pop()
        if n == cut:
            return False
        if n in seen:
            continue
        seen.add(n)
        stack.extend(ps.head(a) for a in outgoing[n])
    return True


def assert_classify_matches_descent_search(g, counts):
    for cut in sorted(n for n, lab in g.nodes.items() if lab == "cut"):
        sources = [(g.tail(a), a) for a in g.premises_of(cut)]
        ax_sides = []
        for n, a in sources:
            if g.nodes[n] == "ax":
                unique = descent_search(g, n, cut, a)
                counts[unique] += 1
                if unique:
                    ax_sides.append((n, a))
        redex = _classify(g, cut)
        if ax_sides:
            ax_node, shared = min(ax_sides)
            other = next(n for n, a in sources if a != shared)
            assert redex == Redex(cut, AXIOM_CUT, (ax_node, other))
        else:
            assert redex is None or redex.kind != AXIOM_CUT


def test_classify_matches_the_descent_search():
    # on structures, and on the reducer's net before and after every step
    counts = {True: 0, False: 0}
    corpus = [closed_ax_loop_ps(), spliced_chain_ps()]
    for seed in range(40):
        p = random_proof(GenParams(fragment=Fragment.MLLU, max_rules=30, seed=seed,
                                   cut_probability=0.6))
        corpus.append(desequentialize(p, verify=False).ps)
        corpus.append(random_ps(GenParams(fragment=None, max_nodes=5 + seed % 20, seed=seed,
                                          cut_probability=0.6)))
    for ps in corpus:
        assert_classify_matches_descent_search(ps, counts)
        net = _Net(ps)
        while True:
            assert_classify_matches_descent_search(net, counts)
            cuts = sorted(n for n, lab in net.nodes.items() if lab == "cut")
            redexes = [r for r in (_classify(net, c) for c in cuts) if r is not None]
            if not redexes:
                break
            _apply(net, redexes[0])
    assert counts[True] > 500 and counts[False] > 100


def random_formula(rng, connectives):
    if not connectives:
        return rng.choice((atom("X"), atom("X", True), atom("Y"), atom("Y", True), ONE, BOT))
    k = rng.randrange(connectives)
    join = rng.choice((tensor, par))
    return join(random_formula(rng, k), random_formula(rng, connectives - 1 - k))


def eta(f):
    """A cut-free proof of the sequent f^, f whose axioms are all on atoms."""
    if f.kind == ATOM:
        return ax_rule(negate(f))
    if f is BOT:
        return bot_rule(one_rule())
    if f is ONE:
        return exchange_to(eta(BOT), [1, 0])
    if f.kind == PAR:
        return exchange_to(eta(negate(f)), [1, 0])
    # the sequent A^, A (x) B, B^, and then A^ par B^, the negation of f
    p = tensor_rule(eta(f.left), exchange_to(eta(f.right), [1, 0]))
    return exchange_to(par_rule(exchange_to(p, [1, 0, 2])), [1, 0])


def eta_cut_ps(f):
    """The desequentialized cut of two eta-expansions of f: each of its
    connectives makes one multiplicative step."""
    dual = negate(f)
    return desequentialize(cut_rule(f, eta(f), exchange_to(eta(dual), [1, 0])),
                           verify=False).ps


def classify_corpus():
    """Fixtures, hand-built nets, seeded MLL/MLLU desequentializations, cuts
    of eta-expansions and random structures: every one valid."""
    corpus = [fixtures.load(name) for name in fixtures.NAMES]
    corpus += [closed_ax_loop_ps(), spliced_chain_ps(), one_against_tensor_ps(),
               clash_ps(), unit_cut_ps(), axiom_cut_ps()]
    rng = random.Random(5)
    corpus += [eta_cut_ps(random_formula(rng, 1 + k % 12)) for k in range(24)]
    for seed in range(40):
        frag = Fragment.MLL if seed % 2 else Fragment.MLLU
        p = random_proof(GenParams(fragment=frag, max_rules=20 + seed, seed=seed,
                                   cut_probability=0.6))
        corpus.append(desequentialize(p, verify=False).ps)
        corpus.append(random_ps(GenParams(fragment=None if seed % 3 else Fragment.MLLU,
                                          max_nodes=5 + seed % 25, seed=seed,
                                          cut_probability=0.6)))
    return corpus


def assert_classify_matches_the_reference(g, kinds):
    for cut in sorted(n for n, lab in g.nodes.items() if lab == "cut"):
        redex = _classify(g, cut)
        assert redex == reference_cutelim.classify(g, cut), cut
        kinds[None if redex is None else redex.kind] += 1


def test_classify_matches_the_reference():
    # the whole result on every cut: None, or the kind and the participants
    # in display order; on structures, and on the reducer's net before and
    # after every step
    kinds = dict.fromkeys((None, AXIOM_CUT, UNIT_CUT, MULTIPLICATIVE_CUT), 0)
    for ps in classify_corpus():
        ensure_valid(ps)
        assert_classify_matches_the_reference(ps, kinds)
        net = _Net(ps)
        while True:
            assert_classify_matches_the_reference(net, kinds)
            cuts = sorted(n for n, lab in net.nodes.items() if lab == "cut")
            redexes = [r for r in (_classify(net, c) for c in cuts) if r is not None]
            if not redexes:
                break
            _apply(net, redexes[len(redexes) // 2])
    assert min(kinds.values()) > 100, kinds


def test_below_a_non_ax_node_descent_is_the_chain():
    # the fact the axiom test leans on: in a valid structure, a path runs
    # from a non-ax node n to m exactly when m lies on n's descent chain
    checked = 0
    for ps in classify_corpus()[:60]:
        for n, lab in ps.nodes.items():
            if lab == "ax":
                continue
            chain = set(reference_cutelim.descent_chain(ps, n))
            for m in ps.nodes:
                assert reference_cutelim.precedes(ps, n, m) == (m in chain), (n, m)
                checked += 1
    assert checked > 10_000


def test_the_normal_form_adopts_a_true_index():
    # the net's lists, handed over as the normal form's index, are the
    # index a fresh copy builds
    for ps in classify_corpus():
        for seed in (None, 7):
            normal_form = normalize(ps, seed=seed).normal_form
            ins, outs = normal_form.incidence()
            assert normal_form.copy().incidence() == (ins, outs)
            assert ins.keys() == outs.keys() == normal_form.nodes.keys()


def test_normalizing_twice_shares_nothing():
    for ps in classify_corpus():
        ps.incidence()
        before = copy.deepcopy((ps.nodes, ps.arcs, ps.premise_order, ps.conclusions,
                                ps.types, ps.jumps, ps.incidence()))
        first, second = normalize(ps), normalize(ps)
        assert first.steps == second.steps
        assert to_json(first.normal_form) == to_json(second.normal_form)
        assert (ps.nodes, ps.arcs, ps.premise_order, ps.conclusions, ps.types, ps.jumps,
                ps.incidence()) == before
        # a net copies a node's lists when it first rewrites them, so the
        # normal forms share no list of their own: only the input's lists
        # of the nodes no step touched, which nothing writes to
        own = {id(arcs) for side in ps.incidence() for arcs in side.values()}
        lists = [[id(arcs) for side in trace.normal_form.incidence() for arcs in side.values()]
                 for trace in (first, second)]
        assert all(len(set(ids)) == len(ids) for ids in lists)
        assert set(lists[0]) & set(lists[1]) <= own
        assert first.normal_form.nodes is not second.normal_form.nodes


def test_redex_is_a_value():
    r = Redex(4, MULTIPLICATIVE_CUT, (2, 3))
    same = Redex(cut_node=4, kind=MULTIPLICATIVE_CUT, participants=(2, 3))
    assert r == same and hash(r) == hash(same) and not r != same
    assert len({r, same}) == 1
    for other in (Redex(5, MULTIPLICATIVE_CUT, (2, 3)), Redex(4, UNIT_CUT, (2, 3)),
                  Redex(4, MULTIPLICATIVE_CUT, (3, 2))):
        assert r != other
    assert r != (4, MULTIPLICATIVE_CUT, (2, 3))
    assert repr(r) == "Redex(cut_node=4, kind='multiplicative', participants=(2, 3))"
    for name in ("cut_node", "kind", "participants", "other"):
        with pytest.raises(AttributeError):
            setattr(r, name, 0)
        with pytest.raises(AttributeError):
            delattr(r, name)
    assert (r.cut_node, r.kind, r.participants) == (4, MULTIPLICATIVE_CUT, (2, 3))
    for twin in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert type(twin) is Redex and twin == r and hash(twin) == hash(r)


def test_normalize_validates_twice_and_never_scans(monkeypatch):
    import proofnets.cutelim as cutelim
    import proofnets.structure as structure

    calls = {"validate": 0, "find_redexes": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(structure, "validate", counting("validate", structure.validate))
    monkeypatch.setattr(cutelim, "find_redexes",
                        counting("find_redexes", cutelim.find_redexes))
    most = 0
    for max_rules in (8, 60, 800):
        p = random_proof(GenParams(fragment=Fragment.MLL, max_rules=max_rules, seed=1,
                                   cut_probability=0.6))
        ps = desequentialize(p, verify=False).ps
        calls.update(validate=0, find_redexes=0)
        trace = normalize(ps)
        assert calls == {"validate": 2, "find_redexes": 0}
        most = max(most, len(trace.steps))
    assert most > 80


def test_step_functions_reject_invalid_structures():
    # a tensor/par cut whose tensor lacks a premise order
    ps = build_ps({0: "ax", 1: "ax", 2: "tensor", 3: "par", 4: "cut"},
                  {0: (0, 2), 1: (0, 3), 2: (1, 2), 3: (1, 3), 4: (2, 4), 5: (3, 4)},
                  prem={3: (1, 3)}, expect_valid=False)
    redex = Redex(4, MULTIPLICATIVE_CUT, (2, 3))
    for call in (lambda: find_redexes(ps), lambda: reduce_step(ps, redex)):
        with pytest.raises(ValidationError, match="tensor node 2 lacks a premise order"):
            call()


def _unchanged(net):
    return (dict(net.nodes), dict(net.arcs), dict(net.types), dict(net._ins), dict(net._outs))


def test_an_axiom_step_never_splices_arcs_of_different_types():
    # unvalidated: cut 2 joins X from ax 0 with Y^ from ax 3
    ps = build_ps({0: "ax", 1: "dot", 2: "cut", 3: "ax", 4: "dot"},
                  {0: (0, 2), 1: (0, 1), 2: (3, 2), 3: (3, 4)}, concl=(1, 3),
                  types={0: "X", 1: "X^", 2: "Y^", 3: "Y"}, expect_valid=False)
    net = _Net(ps)
    before = _unchanged(net)
    with pytest.raises(RedexError, match="axiom step would splice arcs of different types"):
        _apply(net, Redex(2, AXIOM_CUT, (0, 3)))
    assert _unchanged(net) == before


def test_a_multiplicative_step_never_cuts_non_dual_premises():
    # unvalidated: X tensor Y cut against X par Y^, whose left sides are not dual
    ps = build_ps({0: "ax", 1: "ax", 2: "tensor", 3: "par", 4: "cut"},
                  {0: (0, 2), 1: (0, 3), 2: (1, 2), 3: (1, 3), 4: (2, 4), 5: (3, 4)},
                  prem={2: (0, 2), 3: (1, 3)}, concl=(),
                  types={0: "X", 1: "X", 2: "Y", 3: "Y^", 4: "X tensor Y", 5: "X par Y^"},
                  expect_valid=False)
    net = _Net(ps)
    before = _unchanged(net)
    with pytest.raises(RedexError, match="multiplicative step would cut non-dual premises"):
        _apply(net, Redex(4, MULTIPLICATIVE_CUT, (2, 3)))
    assert _unchanged(net) == before
