import pytest

from proofnets.canonical import canonical_form, iso
from proofnets.formulas import Fragment, polarity
from proofnets.generate import GenParams, permute_rules, random_proof, random_ps
from proofnets.sequent import check_proof, desequentialize
from proofnets.sequentialize import is_sequential_oracle, proofs_equivalent
from proofnets.structure import is_wten, validate
from proofnets.switching import check


def test_random_proof_deterministic():
    params = GenParams(fragment=Fragment.MLL, max_rules=10, seed=1)
    assert random_proof(params) == random_proof(params)
    other = GenParams(fragment=Fragment.MLL, max_rules=10, seed=2)
    assert random_proof(params) != random_proof(other)


@pytest.mark.parametrize("frag", list(Fragment))
def test_random_proofs_check(frag):
    for seed in range(40):
        p = random_proof(GenParams(fragment=frag, max_rules=12, seed=seed,
                                   cut_probability=0.3))
        assert check_proof(p, frag).ok, (frag, seed)


def test_btenll_proofs_desequentialize_correctly():
    for seed in range(40):
        p = random_proof(GenParams(fragment=Fragment.BTENLL, max_rules=12,
                                   seed=seed))
        d = desequentialize(p, verify=False)
        assert check(d.ps, "accw").holds, seed


def test_icomll_proofs_have_one_output_and_no_axiom():
    for seed in range(40):
        p = random_proof(GenParams(fragment=Fragment.ICOMLL, max_rules=12,
                                   seed=seed, cut_probability=0.9))
        assert all(q.rule not in ("ax", "cut") for q in p.subproofs())
        outputs = [f for f in p.conclusion if polarity(f) == "O"]
        assert len(outputs) == 1, seed


def test_random_ps_deterministic_and_valid():
    params = GenParams(fragment=None, max_nodes=12, seed=3, cut_probability=0.4)
    a, b = random_ps(params), random_ps(params)
    assert canonical_form(a) == canonical_form(b)
    assert a.nodes == b.nodes and a.arcs == b.arcs
    for seed in range(60):
        ps = random_ps(GenParams(fragment=None, max_nodes=12, seed=seed,
                                 cut_probability=0.4))
        assert validate(ps).ok


def test_random_ps_typed_fragments():
    for frag in (Fragment.MLLU, Fragment.BTENLL, Fragment.IMLL, Fragment.ICOMLL):
        for seed in range(30):
            ps = random_ps(GenParams(fragment=frag, max_nodes=10, seed=seed,
                                     cut_probability=0.2))
            assert validate(ps, frag).ok, (frag, seed)


def test_generator_reaches_incorrect_structures():
    # correctness is not built in: some structures fail the criterion
    holds = fails = 0
    for seed in range(80):
        ps = random_ps(GenParams(fragment=None, max_nodes=10, seed=seed))
        if check(ps, "accw").holds:
            holds += 1
        else:
            fails += 1
    assert holds > 5 and fails > 5


def test_filtering_finds_counterexample_analogue():
    # hunting for criterion-passing, erasing-unsafe, non-decomposable
    # specimens eventually succeeds
    for seed in range(4000):
        ps = random_ps(GenParams(fragment=None, max_nodes=9, seed=seed))
        if len(ps.nodes) > 12:
            continue
        if not check(ps, "accw").holds or is_wten(ps)[0]:
            continue
        if not is_sequential_oracle(ps)[0]:
            break
    else:
        pytest.fail("no counterexample-shaped specimen found")


def test_permute_single_rule_proof_unchanged():
    from proofnets.sequent import one_rule
    assert permute_rules(one_rule(), seed=0) == one_rule()


def test_permute_preserves_desequentialization():
    for seed in range(30):
        p = random_proof(GenParams(fragment=Fragment.BTENLL, max_rules=12,
                                   seed=seed))
        q = permute_rules(p, seed=seed + 100)
        assert iso(desequentialize(p, verify=False).ps,
                   desequentialize(q, verify=False).ps)


def test_permute_chain_stays_equivalent():
    p = random_proof(GenParams(fragment=Fragment.BTENLL, max_rules=14, seed=9))
    current = p
    for round_seed in range(100):
        current = permute_rules(current, seed=round_seed, rounds=1)
        assert proofs_equivalent(p, current)


def test_permute_actually_changes_proofs():
    changed = 0
    for seed in range(30):
        p = random_proof(GenParams(fragment=Fragment.BTENLL, max_rules=14,
                                   seed=seed))
        if permute_rules(p, seed=seed) != p:
            changed += 1
    assert changed > 10


def test_permute_rules_on_deep_proofs():
    # 1 200 nested bot rules over a one: the first round inserts a
    # cancelling pair of exchanges, the second cancels it again
    from proofnets.sequent import bot_rule, one_rule
    p = one_rule()
    for _ in range(1200):
        p = bot_rule(p)
    assert permute_rules(p, seed=0, rounds=1) != p
    assert permute_rules(p, seed=0, rounds=2) == p
