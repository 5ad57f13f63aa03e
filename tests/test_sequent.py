import copy
import gc
import pickle
import random
import re
import sys
import time
import tracemalloc
from itertools import permutations

import pytest

from proofnets import fixtures, formulas
from proofnets.canonical import iso, iso_untyped
from proofnets.errors import ParseError, ProofNetError
from proofnets.formulas import (BOT, Fragment, ONE, atom, format_formula, in_fragment,
                                negate, par, tensor)
from proofnets.generate import GenParams, random_proof
from proofnets import sequent
from proofnets.sequent import (ProofBuildError, SequentProof, _check_rule, ax_rule,
                               bot_rule, check_proof, cut_rule, desequentialize,
                               desequentialize_text, ex_rule, exchange_to, format_proof,
                               one_rule, par_rule, parse_proof, proof_file, tensor_rule)
from proofnets.sequentialize import sequentialize_wten
from proofnets.structure import validate
from proofnets.switching import check

import reference_desequentialize
import reference_proof_parser as reference
from conftest import count_proof_objects, mutations, proof_texts
from families import nested_bots
import reference_oracles
from proof_permutations import deseq_relation_holds
from reference_oracles import is_sequential_oracle

X = atom("X")


def split_choice_proof():
    """Tensor of (one; bot) against (one; bot; ex)."""
    left = bot_rule(one_rule())
    right = ex_rule(0, bot_rule(one_rule()))
    return tensor_rule(left, right)


# -- rule checking ----------------------------------------------------------------


def test_axiom_instance():
    p = ax_rule(X)
    assert p.conclusion == (X, atom("X", dual=True))
    assert check_proof(p).ok


def test_construction_rejects_ill_formed_rules():
    one, ax = one_rule(), ax_rule(X)
    cases = [
        (("contraction", (one,)), "unknown rule 'contraction'"),
        (("bot", ()), "bot rule has 0 premise(s), expected 1"),
        (("tensor", (one,)), "tensor rule has 1 premise(s), expected 2"),
        (("ex", (ax,), 1), "exchange position 1 out of range"),
        (("ex", (ax,), -1), "exchange position -1 out of range"),
        (("par", (one,)), "par rule needs two formulas to combine"),
        (("cut", (ax, one), ONE), "cut formula must close the first premise"),
        (("cut", (one, one), ONE),
         "dual of the cut formula must open the second premise"),
    ]
    for args, message in cases:
        with pytest.raises(ProofBuildError) as err:
            SequentProof(*args)
        assert str(err.value) == message, args
    # no rule derives the empty sequent, so the tensor check is reached
    # only by the one rule check itself
    for length, last, first in ((0, None, ONE), (1, ONE, None)):
        with pytest.raises(ProofBuildError) as err:
            _check_rule("tensor", None, length, last, first)
        assert str(err.value) == "tensor rule needs a formula on each side"
    # a rejected rule leaves its premises as they were
    p = bot_rule(ax)
    for bad in (lambda: ex_rule(2, p), lambda: cut_rule(ONE, p, one)):
        with pytest.raises(ProofBuildError):
            bad()
        assert bot_rule(p) == bot_rule(bot_rule(ax_rule(X)))


def eager_conclusion(p):
    """The conclusion of p, derived rule by rule from its premises'."""
    cs = [eager_conclusion(q) for q in p.premises]
    if p.rule == "ax":
        return (p.arg, negate(p.arg))
    if p.rule == "one":
        return (ONE,)
    if p.rule == "bot":
        return cs[0] + (BOT,)
    if p.rule == "par":
        return cs[0][:-2] + (par(*cs[0][-2:]),)
    if p.rule == "ex":
        c, i = list(cs[0]), p.arg
        c[i], c[i + 1] = c[i + 1], c[i]
        return tuple(c)
    if p.rule == "tensor":
        return cs[0][:-1] + (tensor(cs[0][-1], cs[1][0]),) + cs[1][1:]
    return cs[0][:-1] + cs[1][1:]


def test_lazy_conclusions_match_an_eager_derivation():
    # a proof that ends its buffer reads the buffer's conclusion list, and
    # any other replays its rules; subproofs are read in shuffled order
    rng = random.Random(7)
    reversal = exchange_to(bot_rule(bot_rule(bot_rule(ax_rule(X)))), [4, 3, 2, 1, 0])
    proofs = [reversal, ex_rule(0, reversal)]
    for frag in Fragment:
        for seed in range(25):
            proofs.append(random_proof(GenParams(fragment=frag, max_rules=40, seed=seed,
                                                 cut_probability=0.3)))
    exchanges = 0
    for proof in proofs:
        subs = list({id(q): q for q in proof.subproofs()}.values())
        rng.shuffle(subs)
        for q in subs:
            assert q.conclusion == eager_conclusion(q)
            assert q.length == len(q.conclusion)
            assert q.rule_count() == sum(1 for _ in q.subproofs())
            exchanges += q.rule == "ex"
    assert exchanges > 1000


def _no_replay(rules, args):
    raise AssertionError(f"replayed {len(rules)} rules")


def test_every_subproof_length_reads_one_entry(monkeypatch):
    # each entry keeps the length of its proof's conclusion, so reading the
    # lengths of all k + 1 subproofs of k nested bots replays nothing, where
    # replaying each subproof that does not end its buffer took O(k^2)
    monkeypatch.setattr(sequent, "_replayed", _no_replay)
    for k in (1000, 4000):
        p = nested_bots(k)
        assert sum(q.length for q in p.subproofs()) == (k + 1) * (k + 2) // 2


def test_a_rejected_rule_leaves_its_first_premise_ending_its_buffer(monkeypatch):
    # a rejected cut drops its copy of the second premise, so the next rule
    # over the first premise still appends in place instead of replaying it
    p = nested_bots(1000)
    buf = p._buf
    for a, second, message in ((ONE, one_rule(), "cut formula must close the first premise"),
                               (BOT, ax_rule(X), "dual of the cut formula must open")):
        with pytest.raises(ProofBuildError, match=message):
            cut_rule(a, p, second)
        assert [len(buf.rules), len(buf.args), len(buf.sizes)] == [1001] * 3
        assert len(buf.built) == 1 and buf.built[0] == list(p.conclusion)
    monkeypatch.setattr(sequent, "_replayed", _no_replay)
    q = bot_rule(p)
    assert q._buf is buf and q.premises[0] == p
    assert q.rule_count() == q.length == len(q.conclusion) == 1002


def test_tensor_instance():
    p = tensor_rule(bot_rule(one_rule()), one_rule())
    assert p.conclusion == (ONE, tensor(BOT, ONE))
    assert check_proof(p).ok


def test_fragment_discipline():
    p = split_choice_proof()
    assert check_proof(p, Fragment.MLLU).ok
    assert not check_proof(p, Fragment.MLL).ok
    assert not check_proof(p, Fragment.ICOMLL).ok  # shape fine, but has tensor of bots


def test_fragment_violations_are_reported_at_the_introducing_rule():
    # a formula outside the fragment is reported once, at the rule that
    # introduces it, not again at the rules below that keep it
    one, bot = "formula one outside mll", "formula bot outside mll"
    assert check_proof(split_choice_proof(), Fragment.MLL).violations == [
        ("fragment", rule, msg) for rule, msg in (
            ("one", one), ("bot", bot), ("one", one), ("bot", bot),
            ("tensor", "formula (bot tensor bot) outside mll"))]


def introduced(p):
    """The formulas a rule introduces, built from its argument and its
    premises' conclusions."""
    if p.rule == "ax":
        return (p.arg, negate(p.arg))
    if p.rule == "one":
        return (ONE,)
    if p.rule == "bot":
        return (BOT,)
    if p.rule == "par":
        return (par(*p.premises[0].conclusion[-2:]),)
    if p.rule == "tensor":
        return (tensor(p.premises[0].conclusion[-1], p.premises[1].conclusion[0]),)
    return ()


def per_formula_report(p, frag):
    """check_proof's violations from one `in_fragment` call per formula a
    rule introduces, premises first."""
    v = [x for q in p.premises for x in per_formula_report(q, frag)]
    if frag is Fragment.ICOMLL and p.rule in ("ax", "cut"):
        v.append(("fragment", p.rule, f"{p.rule} rule is not available in icomll"))
    v += [("fragment", p.rule, f"formula {format_formula(f)} outside {frag.value}")
          for f in introduced(p) if not in_fragment(f, frag)[0]]
    return v


def test_check_proof_matches_a_per_formula_oracle():
    # proofs of each fragment, checked against every fragment
    rule_violations = formula_violations = 0
    for made_in in Fragment:
        for seed in range(30):
            p = random_proof(GenParams(fragment=made_in, max_rules=14, seed=seed,
                                       cut_probability=0.3))
            for frag in Fragment:
                report = check_proof(p, frag).violations
                assert report == per_formula_report(p, frag), (made_in, seed, frag)
                rule_violations += sum("rule is not available" in m for _, _, m in report)
                formula_violations += sum("outside" in m for _, _, m in report)
    assert rule_violations > 300 and formula_violations > 1000


def test_check_proof_and_validate_fold_once(monkeypatch):
    calls = []
    fold = formulas._fold
    monkeypatch.setattr(formulas, "_fold", lambda *args: calls.append(1) or fold(*args))
    for seed in range(10):
        p = random_proof(GenParams(fragment=Fragment.MLLU, max_rules=40, seed=seed,
                                   cut_probability=0.3))
        ps = desequentialize(p, verify=False).ps
        for frag in Fragment:
            for run in (lambda: check_proof(p, frag), lambda: validate(ps, frag)):
                calls.clear()
                run()
                assert len(calls) == (frag is not Fragment.MLLU), (seed, frag)


def test_icomll_rejects_axiom_and_cut():
    report = check_proof(ax_rule(ONE), Fragment.ICOMLL)
    assert any("icomll" in msg for _, _, msg in report.violations)


def test_exchange_to_realizes_permutations():
    p = bot_rule(bot_rule(ax_rule(X)))
    q = exchange_to(p, [3, 1, 0, 2])
    assert q.conclusion == tuple(p.conclusion[i] for i in [3, 1, 0, 2])
    assert check_proof(q).ok
    for order in ([3, 1, 0], [3, 1, 0, 0], [4, 1, 0, 2]):
        with pytest.raises(ProofBuildError) as err:
            exchange_to(p, order)
        assert str(err.value) == "exchange target is not a permutation", order


def test_exchange_to_emits_the_exchanges_of_the_list_search():
    def by_list_search(p, order):
        current = list(range(len(p.conclusion)))
        for i, want in enumerate(order):
            j = current.index(want)
            while j > i:
                p = ex_rule(j - 1, p)
                current[j - 1], current[j] = current[j], current[j - 1]
                j -= 1
        return p

    p = ax_rule(X)
    for k in range(2, 6):
        p = bot_rule(p)
        for order in permutations(range(k + 1)):
            assert exchange_to(p, list(order)) == by_list_search(p, order)


# -- the text format -----------------------------------------------------------------


def test_format_parse_round_trip():
    p = cut_rule(ONE, one_rule(), bot_rule(ex_rule(0, bot_rule(one_rule()))))
    text = format_proof(p, Fragment.MLLU)
    frag, again = parse_proof(text)
    assert frag is Fragment.MLLU
    assert again == p


def test_the_writer_prints_what_the_reference_printer_prints():
    # the one text writer, fed by a scan of the arrays, against the printer
    # that walks the premises and writes its text itself
    proofs = [parse_proof(text)[1] for text in proof_texts()]
    for frag in Fragment:
        for seed in range(40):
            proofs.append(random_proof(GenParams(fragment=frag, max_rules=60, seed=seed,
                                                 cut_probability=0.3)))
    deep = nested_bots(300, ax_rule(X))
    proofs.append(exchange_to(deep, list(range(301, -1, -1))))
    for p in proofs:
        assert format_proof(p) == proof_file(reference.format_proof_expr(p), Fragment.MLLU)
    assert sum(p.rule == "ex" for q in proofs for p in q.subproofs()) > 45000


def test_deep_proofs_compare_and_hash_without_recursion():
    # two parsed copies of 1 200 nested bot rules: the generated dataclass
    # methods recursed once per premise level
    text = format_proof(nested_bots(1200))
    p, q = parse_proof(text)[1], parse_proof(text)[1]
    assert p is not q
    assert p == q and hash(p) == hash(q) and len({p, q}) == 1
    other = parse_proof(text.replace("(one)", '(ax "X")'))[1]
    assert p != other and not p == other
    assert other != parse_proof(text.replace("(one)", '(ax "Y")'))[1]
    assert (p == "p") is False and p != "p"
    # a copy or an unpickled proof, at every protocol, equals the original
    small = parse_proof("fragment: mllu\n(tensor (one) (ex 1 (bot (one))))")[1]
    for q in (small, small.premises[1]):  # a proof that ends its buffer, and one that does not
        for proto in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(q, proto)) == q, proto
        for copied in (copy.deepcopy(q), pickle.loads(pickle.dumps(q))):
            assert copied == q and hash(copied) == hash(q) and copied.conclusion == q.conclusion


def test_proofs_are_immutable():
    p = parse_proof("fragment: mllu\n(tensor (one) (ex 2 (bot (ax \"X\"))))")[1]
    ex = p.premises[1]
    assert not hasattr(p, "__dict__")
    for node in (p, ex):
        for name, value in (("rule", "par"), ("arg", 1), ("length", 0),
                            ("_end", 0), ("other", 1)):
            with pytest.raises(AttributeError):
                setattr(node, name, value)
        with pytest.raises(AttributeError):
            del node.premises
    # a rule appended to its premise's buffer in place leaves that premise
    # as it was, and a second rule over the same premise copies it
    base = bot_rule(ax_rule(X))
    ex, joined = ex_rule(1, base), par_rule(base)
    assert base.conclusion == (X, negate(X), BOT)
    assert ex.conclusion == (X, BOT, negate(X))
    assert joined.conclusion == (X, par(negate(X), BOT))
    assert ex.premises[0] == base == joined.premises[0] and base.rule_count() == 2
    assert format_proof(ex) == 'fragment: mllu\n(ex 2 (bot (ax "X")))\n'


def test_deep_proofs_and_formulas_survive_copy_and_pickle():
    # 5 000 nested bot rules over the axiom of a formula 5 000 pars deep:
    # copying and pickling either recursed once per level
    k = 5000
    f = X
    for _ in range(k):
        f = par(f, X)
    p = nested_bots(k, ax_rule(f))
    for copied in (copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert copied == p and hash(copied) == hash(p) and copied.rule_count() == k + 1
        assert copied.conclusion[0] is f  # the one interned formula
    assert pickle.loads(pickle.dumps(f)) is f and copy.deepcopy(f) is f


def test_deep_proofs_are_read_written_and_desequentialized_with_one_object(monkeypatch):
    # a proof is one buffer of post-order arrays: reading 600 and 1 200
    # nested bots, sequentializing their net and desequentializing the proof
    # make one SequentProof object each, or none, where a tree made one per
    # rule (180 301 and 720 601)
    made = count_proof_objects(monkeypatch)
    for k in (600, 1200):
        text = format_proof(nested_bots(k, ax_rule(atom("A"))))
        ps = desequentialize_text(text, verify=False)[1].ps
        made[0] = 0
        proof = sequentialize_wten(ps)
        assert (made, proof.rule_count()) == ([1], k * (k - 1) // 2 + k + 1)
        printed = format_proof(proof)
        made[0] = 0
        parsed = parse_proof(printed)[1]
        assert made == [1] and parsed == proof
        made[0] = 0
        net = desequentialize(parsed, verify=False).ps
        assert made == [0] and list(net.nodes.values()).count("bot") == k


def test_parse_example_from_docs():
    frag, p = parse_proof('fragment: mllu\n(tensor (one) (ex 1 (bot (one))))')
    assert p == tensor_rule(one_rule(), ex_rule(0, bot_rule(one_rule())))
    assert p.conclusion == (tensor(ONE, BOT), ONE)


def test_parse_rejects_bad_rule():
    with pytest.raises(ParseError) as err:
        parse_proof("fragment: mllu\n(par (one))")
    assert str(err.value) == "par rule needs two formulas to combine (at offset 2)"
    assert err.value.position == 2


def read(parse, text):
    """The fragment and proof a reader returns, or its error's type, message
    and offset."""
    try:
        return parse(text)
    except ProofNetError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "position", None)


def test_the_reader_agrees_with_the_reference_reader():
    rng = random.Random(11)
    outcomes = {"ok": 0, "error": 0}
    for text in proof_texts():
        for variant in [text, *mutations(text, rng)]:
            got, want = read(parse_proof, variant), read(reference.parse_proof, variant)
            assert got == want, variant
            outcomes["error" if isinstance(want[0], str) else "ok"] += 1
    assert outcomes["ok"] > 400 and outcomes["error"] > 3000, outcomes


def _contents(ps):
    """A net's nodes, arcs, premise orders, conclusions and types, dict
    orders included."""
    return (list(ps.nodes.items()), list(ps.arcs.items()), list(ps.premise_order.items()),
            ps.conclusions, list(ps.types.items()))


def test_the_text_reader_builds_the_net_the_tree_desequentializes():
    rng = random.Random(11)
    outcomes = {"ok": 0, "error": 0}
    messages = set()
    for text in proof_texts():
        for variant in [text, *mutations(text, rng)]:
            got, want = read(desequentialize_text, variant), read(parse_proof, variant)
            if isinstance(want[0], str):
                assert got == want, variant
                outcomes["error"] += 1
                messages.add(re.sub(r" -?\d+ | \(at offset \d+\)$", " ", want[1]).strip())
                continue
            (frag, result), (want_frag, proof) = got, want
            assert frag == want_frag
            net = _contents(reference_desequentialize.desequentialize(proof)[0])
            assert _contents(result.ps) == net, variant
            assert _contents(desequentialize(proof).ps) == net, variant
            # the report off either net against the tree reference
            for f in Fragment:
                want = reference_oracles.check_proof(proof, f).violations
                assert result.report(f).violations == want, (f, variant)
                assert check_proof(proof, f).violations == want, (f, variant)
            outcomes["ok"] += 1
    assert outcomes["ok"] > 400 and outcomes["error"] > 3000, outcomes
    # the texts fail every rule check a proof can reach: all of
    # `_check_rule`'s but the tensor check
    assert messages >= {"exchange position out of range",
                        "par rule needs two formulas to combine",
                        "cut formula must close the first premise",
                        "dual of the cut formula must open the second premise"}, messages


def test_proof_tokens_are_split_at_exactly_the_isspace_characters():
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", everything) == [c for c in everything if c.isspace()]


def test_random_round_trip():
    for seed in range(40):
        p = random_proof(GenParams(fragment=Fragment.MLLU, max_rules=12,
                                   seed=seed, cut_probability=0.5))
        frag, again = parse_proof(format_proof(p, Fragment.MLLU))
        assert again == p


# -- desequentialization ----------------------------------------------------------------


def test_deseq_split_choice_matches_fixture():
    d = desequentialize(split_choice_proof())
    assert iso(d.ps, fixtures.load("split-choice"))


def test_deseq_axiom(single_ax):
    d = desequentialize(ax_rule(X))
    assert iso(d.ps, single_ax)
    assert sorted(d.ps.nodes.values()) == ["ax", "dot", "dot"]


def test_deseq_one_then_bot_disconnected():
    d = desequentialize(bot_rule(one_rule()))
    assert len(d.ps.conclusions) == 2
    from reference_switching import SwitchingGraph, components_and_acyclicity
    cc, acyclic, _ = components_and_acyclicity(SwitchingGraph(d.ps, {}))
    assert cc == 2 and acyclic


def test_deseq_closed_cut():
    p = cut_rule(ONE, one_rule(), ex_rule(0, bot_rule(one_rule())))
    d = desequentialize(p)
    assert len(d.ps.conclusions) == 1
    assert d.ps.nodes_with_label("cut")


def test_deseq_exchange_only_reorders():
    p = bot_rule(one_rule())
    q = ex_rule(0, p)
    dp, dq = desequentialize(p), desequentialize(q)
    assert [dp.ps.types[a].kind for a in dp.ps.conclusions] == ["one", "bot"]
    assert [dq.ps.types[a].kind for a in dq.ps.conclusions] == ["bot", "one"]
    # order matters: the exchanged structure is not isomorphic in place,
    # but it is once the conclusion order is swapped back
    assert not iso_untyped(dp.ps, dq.ps)
    swapped = dq.ps.copy()
    swapped.conclusions = (dq.ps.conclusions[1], dq.ps.conclusions[0])
    assert iso_untyped(dp.ps, swapped)


def test_deseq_satisfies_count_criterion():
    for seed in range(60):
        p = random_proof(GenParams(fragment=Fragment.MLLU, max_rules=12,
                                   seed=seed, cut_probability=0.4))
        d = desequentialize(p)  # verify=True asserts accw internally
        assert check(d.ps, "accw").holds


def test_deseq_sequential_small():
    for seed in range(25):
        p = random_proof(GenParams(fragment=Fragment.MLLU, max_rules=8,
                                   seed=seed, cut_probability=0.3))
        d = desequentialize(p, verify=False)
        if len(d.ps.nodes) > 12:
            continue
        ok, _ = is_sequential_oracle(d.ps)
        assert ok, seed


# -- the jump-aware relation ---------------------------------------------------------------


def test_relation_requires_jump_total():
    d = desequentialize(bot_rule(one_rule()), verify=False)
    with pytest.raises(ProofNetError):
        deseq_relation_holds(bot_rule(one_rule()), d.ps)


def test_relation_examples():
    p = bot_rule(one_rule())
    base = desequentialize(p, verify=False).ps
    one_node = base.nodes_with_label("one")[0]
    bot_node = base.bottom_nodes()[0]
    dot_of_one = base.head(base.conclusions_of(one_node)[0])

    good = base.copy()
    good.jumps = {bot_node: one_node}
    assert deseq_relation_holds(p, good)

    into_dot = base.copy()
    into_dot.jumps = {bot_node: dot_of_one}
    assert deseq_relation_holds(p, into_dot)  # the dot also arises from the subproof

    selfish = base.copy()
    selfish.jumps = {bot_node: bot_node}
    assert not deseq_relation_holds(p, selfish)


def test_relation_needs_matching_structure():
    p = bot_rule(one_rule())
    other = desequentialize(bot_rule(bot_rule(one_rule())), verify=False).ps
    jumped = other.copy()
    one_node = other.nodes_with_label("one")[0]
    jumped.jumps = {n: one_node for n in other.bottom_nodes()}
    assert not deseq_relation_holds(p, jumped)


def test_bot_scopes_of_deep_nests_stay_linear():
    # 1 200 nested bots desequentialize in linear time and memory; the
    # reference gives the same net, and each bot's scope is an id range
    # holding the nodes of its premise sub-proof
    proof = nested_bots(1200)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        d = desequentialize(proof, verify=False)
        took = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert took < 0.5 and peak < 10_000_000, (took, peak)
    ps, scopes = reference_desequentialize.desequentialize(proof)
    assert _contents(ps) == _contents(d.ps)
    outer = max(scopes)
    dot = ps.head(ps.conclusions_of(outer)[0])
    assert {n for n in scopes[outer] if n in ps.nodes} == set(ps.nodes) - {outer, dot}


def test_bot_scopes_of_deep_nests_are_ranges_and_grow_linearly():
    # the clock gate above, without the clock: four times the nesting takes
    # less than five times the memory, and every reference scope is a range.
    # A full collection first empties the interpreter's free lists, whose
    # reused objects tracemalloc does not see, so what earlier tests left
    # there does not move the peaks
    peaks = []
    for k in (1200, 4800):
        proof = nested_bots(k)
        gc.collect()
        tracemalloc.start()
        try:
            desequentialize(proof, verify=False)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        scopes = reference_desequentialize.desequentialize(proof)[1]
        assert len(scopes) == k
        assert all(type(scope) is range for scope in scopes.values())
    assert peaks[1] < 5 * peaks[0], peaks


def test_validate_accepts_deseq(single_one):
    for seed in range(30):
        p = random_proof(GenParams(fragment=Fragment.BTENLL, max_rules=10,
                                   seed=seed))
        assert validate(desequentialize(p, verify=False).ps, Fragment.BTENLL).ok
