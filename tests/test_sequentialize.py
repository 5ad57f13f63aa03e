import hashlib
import inspect
import math
import sys

import pytest

from conftest import build_ps, count_search_visits
from proofnets import fixtures, formulas
from proofnets.canonical import iso, iso_untyped
from proofnets.errors import (FragmentError, SequentializationError,
                              TypeInferenceError)
from proofnets.formulas import Fragment, atom
from proofnets.generate import GenParams, random_proof, random_ps
from proofnets.sequent import (ax_rule, bot_rule, check_proof, desequentialize, ex_rule,
                               format_proof, one_rule, par_rule, tensor_rule)
from proofnets.sequentialize import (canonical_jumps_btenll, canonical_jumps_icomll,
                                     infer_types, jump_correct, proofs_equivalent,
                                     rewiring_equivalent, sequentialize_btenll,
                                     sequentialize_icomll, sequentialize_text,
                                     sequentialize_wten, split_parts, _icomll_move,
                                     _output_anchor, _Part)
from proofnets.structure import erasing_nodes, is_wten, jump_total, strip, validate
from proofnets.switching import check
from proof_permutations import deseq_relation_holds, permute_rules
from reference_oracles import (is_sequential_oracle, rewiring_reachable,
                               splitting_candidates)


def non_erasing_nodes(ps):
    er = erasing_nodes(ps)
    return [n for n, lab in sorted(ps.nodes.items())
            if n not in er and lab != "dot"]


# -- splitting ---------------------------------------------------------------------


def test_split_choice_has_three_distributions():
    ps = fixtures.load("split-choice")
    assignments = splitting_candidates(ps)
    assert len(assignments) == 3
    assert {a.node for a in assignments} == {4}
    sizes = sorted(tuple(sorted((len(a.left_nodes), len(a.right_nodes))))
                   for a in assignments)
    # a bare bot against bot plus the two one-components, and the balanced cut
    assert sizes == [(1, 5), (1, 5), (3, 3)]


def test_split_choice_only_balanced_distribution_is_correct():
    ps = fixtures.load("split-choice")
    good = []
    for a in splitting_candidates(ps):
        left, right = split_parts(ps, a)
        assert validate(left).ok and validate(right).ok
        if check(left, "accw").holds and check(right, "accw").holds:
            good.append(a)
    assert len(good) == 1
    assert len(good[0].left_nodes) == len(good[0].right_nodes) == 3


def test_connected_tensor_splits_uniquely():
    ps = desequentialize(tensor_rule(one_rule(), one_rule()), verify=False).ps
    assignments = splitting_candidates(ps)
    assert len(assignments) == 1


def test_terminal_par_only_no_split():
    ps = build_ps({0: "bot", 1: "bot", 2: "par", 3: "dot"},
                  {0: (0, 2), 1: (1, 2), 2: (2, 3)},
                  prem={2: (0, 1)}, concl=(2,))
    assert splitting_candidates(ps) == []


def test_split_parts_satisfy_acyclicity():
    checked = 0
    for seed in range(120):
        ps = random_ps(GenParams(fragment=None, max_nodes=10, seed=seed,
                                 cut_probability=0.3))
        if not check(ps, "ac").holds:
            continue
        for a in splitting_candidates(ps)[:4]:
            left, right = split_parts(ps, a)
            assert check(left, "ac").holds and check(right, "ac").holds
            checked += 1
    assert checked > 20


# -- plain sequentialization ----------------------------------------------------------


def test_single_one_sequentializes(single_one):
    assert sequentialize_wten(single_one) == one_rule()


def test_wten_cut_round_trip():
    ps = fixtures.load("wten-cut")
    proof = sequentialize_wten(ps)
    assert check_proof(proof).ok
    assert iso_untyped(desequentialize(proof, verify=False).ps, ps)


def test_regnier_rejected():
    with pytest.raises(SequentializationError):
        sequentialize_wten(fixtures.load("regnier"))


def test_accw_failure_rejected():
    ps = build_ps({0: "bot", 1: "dot"}, {0: (0, 1)}, concl=(0,))
    with pytest.raises(SequentializationError) as err:
        sequentialize_wten(ps)
    assert err.value.witness is not None  # the failing verdict


def test_type_inference_round_trip():
    ps = strip(fixtures.load("wten-cut"))
    typed = infer_types(ps)
    assert validate(typed).ok
    assert typed.types is not None


def test_type_inference_rejects_clash():
    ps = build_ps({0: "one", 1: "one", 2: "cut"},
                  {0: (0, 2), 1: (1, 2)}, concl=())
    with pytest.raises(TypeInferenceError):
        infer_types(ps)


def test_type_inference_rejects_a_type_equal_to_its_own_dual():
    # unvalidated: par 4 names ax 0's first conclusion twice, so its type
    # ?1 par ?1 meets the dual ?2^ par ?2 of tensor 5's type at cut 6
    ps = build_ps({0: "ax", 1: "ax", 2: "dot", 3: "dot", 4: "par", 5: "tensor", 6: "cut"},
                  {0: (0, 4), 1: (0, 2), 2: (1, 5), 3: (1, 5), 4: (4, 6), 5: (5, 6)},
                  prem={4: (0, 0), 5: (2, 3)}, concl=(1,), expect_valid=False)
    with pytest.raises(TypeInferenceError, match="its own dual"):
        infer_types(ps)


def test_output_anchors_need_an_output_spine():
    # unvalidated polarities: par 3's output premise comes from bot 0
    ps = build_ps({0: "bot", 1: "one", 3: "par", 4: "dot"},
                  {0: (0, 3), 1: (1, 3), 2: (3, 4)}, prem={3: (0, 1)}, concl=(2,),
                  expect_valid=False)
    with pytest.raises(SequentializationError, match="node 0 is not on an output spine"):
        _output_anchor(ps, 3, {0: "O", 1: "I", 2: "O"}, {})
    # both premises of output par 3 as outputs
    with pytest.raises(SequentializationError,
                       match="an output par has exactly one output premise"):
        _output_anchor(ps, 3, {0: "O", 1: "O", 2: "O"}, {})
    assert _output_anchor(ps, 3, {0: "I", 1: "O", 2: "O"}, {}) == 1


def test_an_input_tensor_needs_one_output_premise():
    # unvalidated polarities: tensor 2 an input over two outputs
    ps = build_ps({0: "one", 1: "one", 2: "tensor", 3: "dot"},
                  {0: (0, 2), 1: (1, 2), 2: (2, 3)}, prem={2: (0, 1)}, concl=(2,),
                  expect_valid=False)
    part = _Part({0, 1, 2}, (2,), {2}, 1, [2])
    with pytest.raises(SequentializationError,
                       match="an input tensor has exactly one output premise"):
        _icomll_move(ps, part, {0: "O", 1: "O", 2: "I"})


def _composite_cut():
    """A cut of X tensor Y against X^ par Y^ whose par lists its premises
    in the other order, so that inference unifies two connectives."""
    return build_ps({0: "ax", 1: "ax", 2: "ax", 3: "ax", 4: "tensor", 5: "par",
                     6: "tensor", 7: "cut", 8: "dot", 9: "dot", 10: "dot"},
                    {0: (0, 4), 1: (0, 8), 2: (1, 4), 3: (1, 9), 4: (2, 5), 5: (2, 6),
                     6: (3, 5), 7: (3, 6), 8: (4, 7), 9: (5, 7), 10: (6, 10)},
                    prem={4: (0, 2), 5: (6, 4), 6: (5, 7)}, concl=(1, 3, 10))


def test_type_inference_on_nets_with_cuts():
    # untyped nets of proofs with cuts are typed validly and sequentialize
    # back to themselves
    nets = [_composite_cut()]
    for seed in range(60):
        for frag in (Fragment.MLL, Fragment.MLLU):
            p = random_proof(GenParams(fragment=frag, cut_probability=0.6, seed=seed))
            u = strip(desequentialize(p, verify=False).ps)
            if is_wten(u)[0]:
                nets.append(u)
    assert len(nets) > 60
    for u in nets:
        assert validate(infer_types(u)).ok
        assert iso_untyped(desequentialize(sequentialize_wten(u), verify=False).ps, u)
    typed = infer_types(nets[0]).types
    assert typed[8] is formulas.negate(typed[9])


def test_type_inference_rejects_a_type_inside_its_dual():
    # the tensor's type X^ tensor Y would have to be the dual of X
    ps = build_ps({0: "ax", 1: "ax", 2: "cut", 3: "tensor", 4: "dot"},
                  {0: (0, 2), 1: (0, 3), 2: (1, 3), 3: (1, 4), 4: (3, 2)},
                  prem={3: (1, 2)}, concl=(3,))
    with pytest.raises(TypeInferenceError, match="cyclic type constraint"):
        infer_types(ps)


def test_round_trip_random_btenll():
    for seed in range(80):
        p = random_proof(GenParams(fragment=Fragment.BTENLL, max_rules=14,
                                   seed=seed))
        ps = desequentialize(p, verify=False).ps
        proof = sequentialize_wten(ps)
        assert iso(desequentialize(proof, verify=False).ps, ps), seed


# -- the oracle ------------------------------------------------------------------------


def test_oracle_on_fixtures():
    verdicts = fixtures.expected_verdicts()
    for name in fixtures.NAMES:
        ok, decomposition = is_sequential_oracle(fixtures.load(name))
        assert ok == verdicts[name]["sequential"], name
        assert (decomposition is not None) == ok


def test_oracle_rejects_counterexamples():
    assert not is_sequential_oracle(fixtures.load("regnier"))[0]
    assert not is_sequential_oracle(fixtures.load("counterexample-io"))[0]


def test_oracle_accepts_desequentializations():
    for seed in range(30):
        p = random_proof(GenParams(fragment=Fragment.MLLU, max_rules=9,
                                   seed=seed, cut_probability=0.3))
        ps = desequentialize(p, verify=False).ps
        if len(ps.nodes) <= 14:
            assert is_sequential_oracle(ps)[0], seed


def test_oracle_agreement_with_wten_pipeline():
    sequentialized = untypeable = 0
    for seed in range(600):
        ps = random_ps(GenParams(fragment=None, max_nodes=9, seed=seed,
                                 cut_probability=0.2))
        if len(ps.nodes) > 12:
            continue
        wten_ok = is_wten(ps)[0]
        accw_ok = check(ps, "accw").holds
        oracle_ok, _ = is_sequential_oracle(ps)
        if wten_ok and accw_ok:
            # the decomposition always exists; an actual sequent proof
            # additionally needs the cuts to be typeable
            assert oracle_ok, seed
            try:
                proof = sequentialize_wten(ps)
            except TypeInferenceError:
                untypeable += 1
                assert _has_clash_shaped_cut(ps), seed
            else:
                assert iso_untyped(desequentialize(proof, verify=False).ps, ps), seed
                sequentialized += 1
        if oracle_ok:
            assert accw_ok, seed  # decomposable implies the criterion
    assert sequentialized + untypeable >= 15 and sequentialized >= 5


def _has_clash_shaped_cut(ps):
    dual_shapes = {frozenset(("one", "bot")), frozenset(("tensor", "par"))}
    for n in ps.nodes_with_label("cut"):
        labels = frozenset(ps.nodes[ps.tail(a)] for a in ps.premises_of(n))
        if "ax" not in labels and labels not in dual_shapes:
            return True
    return False


# -- canonical jumps, bottom-restricted fragment ------------------------------------------


def test_jumps_units_targets():
    ps = fixtures.load("jumps-units")
    jumped = canonical_jumps_btenll(ps, m=0)
    # both bots sit under the outer par whose non-erasing premise comes from
    # the inner par (node 3)
    assert jumped.jumps == {4: 3, 5: 3}
    assert jump_total(jumped) and jump_correct(jumped)


def test_jumps_attach_without_check_and_jump_correct_runs_one_acc(monkeypatch):
    from proofnets import sequentialize
    calls = []

    def counted(ps, criterion):
        calls.append(criterion)
        return check(ps, criterion)

    monkeypatch.setattr(sequentialize, "check", counted)
    # attaching the jumps decides nothing; asking does, once per question
    jumped = canonical_jumps_btenll(fixtures.load("jumps-units"), m=0)
    assert calls == []
    assert jump_correct(jumped)
    assert calls == ["acc"]


def test_jumps_no_bots_is_identity(single_ax):
    jumped = canonical_jumps_btenll(single_ax, m=0)
    assert jumped.jumps == {}
    assert iso(jumped, single_ax)


def test_jumps_terminal_bot_goes_to_anchor():
    ps = build_ps({0: "bot", 1: "one", 2: "dot", 3: "dot"},
                  {0: (0, 2), 1: (1, 3)}, concl=(0, 1),
                  types={0: "bot", 1: "one"})
    jumped = canonical_jumps_btenll(ps, m=1)
    assert jumped.jumps == {0: 1}
    assert jump_correct(jumped)


def test_jumps_reject_erasing_anchor():
    ps = build_ps({0: "bot", 1: "one", 2: "dot", 3: "dot"},
                  {0: (0, 2), 1: (1, 3)}, concl=(0, 1),
                  types={0: "bot", 1: "one"})
    with pytest.raises(SequentializationError):
        canonical_jumps_btenll(ps, m=0)


def test_jumps_require_btenll_typing():
    with pytest.raises(FragmentError):
        canonical_jumps_btenll(fixtures.load("regnier"), m=0)


def test_removing_one_jump_preserves_criterion():
    ps = fixtures.load("jumps-units")
    jumped = canonical_jumps_btenll(ps, m=0)
    assert check(jumped, "accw").holds
    for n in list(jumped.jumps):
        fewer = jumped.copy()
        del fewer.jumps[n]
        assert check(fewer, "accw").holds


def test_sequentialize_btenll_fixture():
    ps = fixtures.load("jumps-units")
    for m in non_erasing_nodes(ps):
        proof, jumped = sequentialize_btenll(ps, m)
        assert check_proof(proof, Fragment.BTENLL).ok
        assert jump_correct(jumped)
        assert deseq_relation_holds(proof, jumped), m


def test_sequentialize_btenll_no_bots_matches_plain(single_ax):
    proof, jumped = sequentialize_btenll(single_ax, m=0)
    assert proof == sequentialize_wten(single_ax)
    assert jumped.jumps == {}


def test_sequentialize_btenll_rejects_incorrect():
    ps = build_ps({0: "bot", 1: "dot"}, {0: (0, 1)}, concl=(0,),
                  types={0: "bot"})
    with pytest.raises(SequentializationError):
        sequentialize_btenll(ps, m=0)


def test_relation_rejects_jump_outside_rule_scope():
    ps = fixtures.load("jumps-units")
    proof, jumped = sequentialize_btenll(ps, m=0)
    assert deseq_relation_holds(proof, jumped)
    # node 6 (the erasing par) is peeled before the bot rules, so its image
    # is not part of any bot rule's premise sub-proof
    bad = jumped.copy()
    bad.jumps = dict(jumped.jumps)
    bad.jumps[4] = 6
    assert not deseq_relation_holds(proof, bad)


def test_sequentialize_btenll_random():
    for seed in range(60):
        p = random_proof(GenParams(fragment=Fragment.BTENLL, max_rules=12,
                                   seed=seed))
        ps = desequentialize(p, verify=False).ps
        m = non_erasing_nodes(ps)[0]
        proof, jumped = sequentialize_btenll(ps, m)
        assert jump_correct(jumped), seed
        assert deseq_relation_holds(proof, jumped), seed


# -- canonical jumps, constant-only intuitionistic fragment --------------------------------


def test_jumps_constants_targets():
    jumped = canonical_jumps_icomll(fixtures.load("jumps-constants"))
    # both bots anchor at the one-tensor-one node
    assert jumped.jumps == {0: 3, 5: 3}
    assert jump_correct(jumped)


def test_jumps_single_one_empty(single_one):
    jumped = canonical_jumps_icomll(single_one)
    assert jumped.jumps == {}


def test_jump_anchor_through_output_par():
    # bot par one: the output par's spine ends at the one node
    ps = build_ps({0: "bot", 1: "one", 2: "par", 3: "dot"},
                  {0: (0, 2), 1: (1, 2), 2: (2, 3)},
                  prem={2: (0, 1)}, concl=(2,),
                  types={0: "bot", 1: "one", 2: "(bot par one)"})
    jumped = canonical_jumps_icomll(ps)
    assert jumped.jumps == {0: 1}
    assert jump_correct(jumped)


def test_icomll_rejects_multiple_outputs():
    ps = build_ps({0: "one", 1: "one", 2: "dot", 3: "dot"},
                  {0: (0, 2), 1: (1, 3)}, concl=(0, 1),
                  types={0: "one", 1: "one"})
    with pytest.raises(SequentializationError):
        canonical_jumps_icomll(ps)
    with pytest.raises(SequentializationError):
        sequentialize_icomll(ps)


def test_icomll_rejects_atoms():
    with pytest.raises(FragmentError):
        canonical_jumps_icomll(fixtures.load("counterexample-io"))


def test_an_unknown_mode_is_rejected_before_any_check():
    # regnier fails every mode's checks, so the mode is read first
    for mode in ("bogus", "WTEN", "mllu", ""):
        with pytest.raises(ValueError) as exc:
            sequentialize_text(fixtures.load("regnier"), mode, 0)
        assert str(exc.value) == f"unknown sequentialization mode {mode!r}"


def test_sequentialize_icomll_bot_one():
    ps = build_ps({0: "bot", 1: "one", 2: "dot", 3: "dot"},
                  {0: (0, 2), 1: (1, 3)}, concl=(0, 1),
                  types={0: "bot", 1: "one"})
    proof, jumped = sequentialize_icomll(ps)
    assert check_proof(proof, Fragment.ICOMLL).ok
    assert deseq_relation_holds(proof, jumped)


def test_sequentialize_icomll_fixture():
    ps = fixtures.load("jumps-constants")
    proof, jumped = sequentialize_icomll(ps)
    assert check_proof(proof, Fragment.ICOMLL).ok
    assert jump_correct(jumped)
    assert deseq_relation_holds(proof, jumped)
    assert iso(desequentialize(proof, verify=False).ps, ps)


def test_sequentialize_icomll_random():
    for seed in range(60):
        p = random_proof(GenParams(fragment=Fragment.ICOMLL, max_rules=12,
                                   seed=seed))
        ps = desequentialize(p, verify=False).ps
        proof, jumped = sequentialize_icomll(ps)
        assert jump_correct(jumped), seed
        assert deseq_relation_holds(proof, jumped), seed


# -- equivalence decisions -------------------------------------------------------------------


def test_proofs_equivalent_reflexive():
    p = random_proof(GenParams(fragment=Fragment.BTENLL, max_rules=10, seed=1))
    assert proofs_equivalent(p, p)


def test_proofs_equivalent_permuted():
    for seed in range(30):
        p = random_proof(GenParams(fragment=Fragment.BTENLL, max_rules=12,
                                   seed=seed))
        q = permute_rules(p, seed=seed + 1)
        assert proofs_equivalent(p, q), seed


def test_proofs_inequivalent_different_conclusions():
    p = bot_rule(one_rule())
    q = one_rule()
    assert not proofs_equivalent(p, q)


def test_proofs_equivalent_requires_fragment():
    p = random_proof(GenParams(fragment=Fragment.MLLU, max_rules=8, seed=3))
    bad = bot_rule(tensor_rule(one_rule(), ex_rule(0, bot_rule(one_rule()))))
    report = check_proof(bad, Fragment.BTENLL)
    assert not report.ok
    for pair in ((bad, bad), (bad, p), (p, bad)):
        with pytest.raises(FragmentError) as exc:
            proofs_equivalent(*pair)
        assert str(exc.value) == "proof outside btenll"
        assert exc.value.report.violations == report.violations


def test_rewiring_decision_and_oracle():
    ps = fixtures.load("jumps-units")
    canonical = canonical_jumps_btenll(ps, m=0)
    # rewire one jump to another target that keeps the criterion
    rewired = canonical.copy()
    rewired.jumps = dict(canonical.jumps)
    rewired.jumps[4] = 0  # jump to the ax node instead
    assert jump_correct(rewired)
    assert rewiring_equivalent(canonical, rewired)
    assert rewiring_reachable(canonical, rewired)
    assert rewiring_equivalent(canonical, canonical)


def test_rewiring_distinguishes_different_bases():
    a = canonical_jumps_btenll(fixtures.load("jumps-units"), m=0)
    other = build_ps({0: "bot", 1: "one", 2: "dot", 3: "dot"},
                     {0: (0, 2), 1: (1, 3)}, concl=(0, 1),
                     types={0: "bot", 1: "one"})
    b = canonical_jumps_btenll(other, m=1)
    assert not rewiring_equivalent(a, b)


def test_rewiring_requires_jump_correct():
    ps = fixtures.load("jumps-units")  # jump-free, so not jump-total
    with pytest.raises(SequentializationError):
        rewiring_equivalent(ps, ps)


def test_rewiring_oracle_agrees_with_decision():
    ps = fixtures.load("jumps-units")
    base = canonical_jumps_btenll(ps, m=0)
    variants = [base]
    for n in base.nodes:
        for src in base.jumps:
            if n in (src, base.jumps[src]):
                continue
            cand = base.copy()
            cand.jumps = dict(base.jumps)
            cand.jumps[src] = n
            if jump_correct(cand):
                variants.append(cand)
    assert len(variants) >= 3
    for cand in variants[:6]:
        assert rewiring_equivalent(base, cand)
        assert rewiring_reachable(base, cand)


def test_canonical_jumps_anchor_free_without_terminal_erasing():
    # when no terminal erasing node exists every bot jumps through a par
    # chain, so the assignment does not depend on the chosen anchor
    checked = 0
    for seed in range(80):
        p = random_proof(GenParams(fragment=Fragment.BTENLL, max_rules=12,
                                   seed=seed))
        ps = desequentialize(p, verify=False).ps
        erasing = erasing_nodes(ps)
        if any(n in erasing for n in ps.terminal_nodes()):
            continue
        anchors = non_erasing_nodes(ps)
        if len(anchors) < 2 or not ps.bottom_nodes():
            continue
        maps = {frozenset(canonical_jumps_btenll(ps, m).jumps.items())
                for m in anchors[:4]}
        assert len(maps) == 1, seed
        checked += 1
    assert checked > 3


def test_canonical_jumps_depend_on_anchor_with_terminal_bot():
    ps = build_ps({0: "bot", 1: "one", 2: "one", 3: "tensor", 4: "dot", 5: "dot"},
                  {0: (0, 4), 1: (1, 3), 2: (2, 3), 3: (3, 5)},
                  prem={3: (1, 2)}, concl=(0, 3),
                  types={0: "bot", 1: "one", 2: "one", 3: "(one tensor one)"})
    jumps_by_anchor = {m: canonical_jumps_btenll(ps, m).jumps[0]
                       for m in (1, 2, 3)}
    assert jumps_by_anchor == {1: 1, 2: 2, 3: 3}
    for m in (1, 2, 3):
        jumped = canonical_jumps_btenll(ps, m)
        assert jump_correct(jumped)


# -- the peel/split skeleton ---------------------------------------------------------------


def _texts(mode):
    """format_proof of every sequentialization in a seeded corpus."""
    def net(frag, seed, rules, cuts=0.0):
        p = random_proof(GenParams(fragment=frag, max_rules=rules, seed=seed,
                                   cut_probability=cuts))
        return desequentialize(p, verify=False).ps

    if mode == "wten":
        for frag in (Fragment.MLL, Fragment.MLLU, Fragment.BTENLL, Fragment.IMLL):
            for seed in range(40):
                ps = net(frag, seed, 16, cuts=0.3)
                if is_wten(ps)[0]:
                    yield format_proof(sequentialize_wten(ps), frag)
                    yield format_proof(sequentialize_wten(ps.without_types()), frag)
    elif mode == "btenll":
        for seed in range(80):
            ps = net(Fragment.BTENLL, seed, 14)
            for m in non_erasing_nodes(ps):
                yield format_proof(sequentialize_btenll(ps, m)[0], Fragment.BTENLL)
    else:
        for seed in range(80):
            ps = net(Fragment.ICOMLL, seed, 16)
            yield format_proof(sequentialize_icomll(ps)[0], Fragment.ICOMLL)


@pytest.mark.parametrize("mode, count, digest", [
    ("wten", 242, "cae166dc4ba4cabd6bf482a4fe536aad03f53b57759edab320b1a7e304e56410"),
    ("btenll", 259, "4adba6c9c8071febc1af8e6f51b69ffe26293d66c27b30a861cf4b4c424882e7"),
    ("icomll", 80, "fbb971c1d1679aa444a7f638043a13ecc14b0619fe38cc35867dd426b856f91d"),
], ids=["wten", "btenll", "icomll"])
def test_sequentializer_output_is_pinned(mode, count, digest):
    # the rule order is CLI output: these digests were taken from the three
    # recursive sequentializers the skeleton replaced
    h, seen = hashlib.sha256(), 0
    for text in _texts(mode):
        h.update(text.encode())
        seen += 1
    assert (seen, h.hexdigest()) == (count, digest)


def test_btenll_proof_does_not_depend_on_the_anchor():
    # the anchor only roots the canonical jumps of terminal bots
    nets = [fixtures.load("jumps-units")]
    for seed in range(60):
        p = random_proof(GenParams(fragment=Fragment.BTENLL, max_rules=12, seed=seed))
        nets.append(desequentialize(p, verify=False).ps)
    for ps in nets:
        proofs = {sequentialize_btenll(ps, m)[0] for m in non_erasing_nodes(ps)}
        assert len(proofs) == 1


def _bot_chain(k):
    """A one node and k terminal bots, the least bot last: k nested bot
    rules, each peeled without an exchange."""
    nodes = {0: "one", **{b: "bot" for b in range(1, k + 1)}}
    arcs = {n: (n, k + 1 + n) for n in nodes}
    nodes.update({k + 1 + n: "dot" for n in range(k + 1)})
    return build_ps(nodes, arcs, concl=(0, *range(k, 0, -1)),
                    types={0: "one", **{b: "bot" for b in range(1, k + 1)}})


def _tensor_chain(k):
    """k tensors, each joining the last axiom to a new one: k nested splits."""
    p = ax_rule(atom("X"))
    for _ in range(k):
        p = tensor_rule(p, ax_rule(atom("X", dual=True)))
    return desequentialize(p, verify=False).ps


def _one_chain(k):
    """k nested tensors over one nodes, the icomll form of `_tensor_chain`."""
    p = one_rule()
    for _ in range(k):
        p = tensor_rule(p, one_rule())
    return desequentialize(p, verify=False).ps


@pytest.mark.parametrize("mode", ["wten", "btenll", "icomll"])
def test_split_searches_visit_n_log_n_nodes(mode, monkeypatch):
    # a lockstep search pays for the side that closes first, never the
    # larger one, so along a chain of k splits the searches reach O(k log k)
    # nodes in all; searching the whole part at every split reaches O(k^2)
    visits = count_search_visits(monkeypatch)
    totals = []
    for k in (200, 800, 3200):
        ps = _one_chain(k) if mode == "icomll" else _tensor_chain(k)
        visits.clear()
        if mode == "wten":
            sequentialize_wten(ps)
        elif mode == "btenll":
            sequentialize_btenll(ps, 0)
        else:
            sequentialize_icomll(ps)
        n = len(ps.nodes)
        assert sum(visits) <= 2 * n * math.ceil(math.log2(n)), (k, sum(visits))
        totals.append(sum(visits))
    assert all(b < 5 * a for a, b in zip(totals, totals[1:])), totals


def test_sequentializers_do_not_recurse_per_step():
    limit = len(inspect.stack(0)) + 100
    k = limit + 20
    bots, tensors = _bot_chain(k), _tensor_chain(k)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        results = [sequentialize_wten(bots), sequentialize_btenll(bots, 0)[0],
                   sequentialize_icomll(bots)[0], sequentialize_wten(tensors),
                   sequentialize_btenll(tensors, 0)[0]]
    finally:
        sys.setrecursionlimit(old)
    assert [p.rule_count() for p in results] == [k + 1] * 3 + [2 * k + 1] * 2
    assert iso(desequentialize(results[3], verify=False).ps, tensors)


def test_icomll_jump_layer_folds_a_fixed_number_of_times(monkeypatch):
    # types are read through `arc_polarities`, one fold over the distinct
    # types per call, never one fold per arc: the count does not grow with
    # the depth of k nested (par (bot …)) rules over (one)
    calls = []
    fold = formulas._fold
    monkeypatch.setattr(formulas, "_fold", lambda *args: calls.append(1) or fold(*args))
    counts = []
    for k in (10, 1200):
        p = one_rule()
        for _ in range(k):
            p = par_rule(bot_rule(p))
        ps = desequentialize(p, verify=False).ps
        for run in (canonical_jumps_icomll, sequentialize_icomll):
            calls.clear()
            run(ps)
            counts.append(len(calls))
    assert counts == [2, 3, 2, 3]
