import hashlib
import random

import pytest

from proofnets import formulas
from proofnets.canonical import canonical_form, iso
from proofnets.formulas import BOT, ONE, Fragment, atom, par, polarity, tensor
from proofnets.generate import GenParams, random_formula, random_proof, random_ps
from proofnets.sequent import check_proof, desequentialize, format_proof
from proofnets.sequentialize import proofs_equivalent
from proofnets.structure import is_wten, to_json, validate
from proofnets.switching import check
from proof_permutations import permute_rules
from reference_oracles import is_sequential_oracle


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


def recursive_random_formula(rng, depth=2):
    """The recursive generator `random_formula` replaced."""
    if depth == 0 or rng.random() < 0.4:
        choice = rng.randrange(3)
        if choice == 0:
            return atom(rng.choice(("X", "Y", "Z")), dual=rng.random() < 0.5)
        return ONE if choice == 1 else BOT
    build = tensor if rng.random() < 0.5 else par
    return build(recursive_random_formula(rng, depth - 1),
                 recursive_random_formula(rng, depth - 1))


def test_random_formula_draws_as_the_recursive_generator():
    # the same formula and the same generator state after the call
    for seed in range(400):
        for depth in range(6):
            rng, ref = random.Random(seed), random.Random(seed)
            assert random_formula(rng, depth) is recursive_random_formula(ref, depth)
            assert rng.getstate() == ref.getstate(), (seed, depth)


class _LeftSpine:
    """Draws that make every formula above depth 0 a par on the leftmost
    path, and every other one a one."""

    def __init__(self, depth):
        self.spine = 2 * depth  # a leaf test and a connective per level

    def random(self):
        self.spine -= 1
        return 0.5 if self.spine >= 0 else 0.0

    def randrange(self, n):
        return 1


def test_random_formula_draws_1200_deep_formulas():
    expected = ONE
    for _ in range(1200):
        expected = par(expected, ONE)
    assert random_formula(_LeftSpine(1200), 1200) is expected


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


# SHA-256 of the texts of seeds 0-99, concatenated, per generator, fragment
# (None: untyped) and cut probability; size 5 + 11 * seed % 56 spreads
# max_rules and max_nodes over 5-60.  Recorded on the generators that
# re-folded each tested formula: the one fold table per run changes no draw.
_PINNED_DIGESTS = {
    ("proof", "mll", 0.0):
        "bd7461b06a69b3a9566895474751b6f46427f301a005063792b865bcca9f7c7a",
    ("proof", "mllu", 0.0):
        "5a6a05f679ab1ddd32704f844799a509cd535e8e03645b2682793714f6a05463",
    ("proof", "btenll", 0.0):
        "be003aeae7bd9b9adac53a62f4184f63c740f7cc2ade5a83fe9f3820546e37c0",
    ("proof", "btenll-star", 0.0):
        "4e465048d03585c5eef5569681252d2d4b66c6f9adb90a375b13e781c19d682d",
    ("proof", "imll", 0.0):
        "f39f39281ed3ba4a760134209e41fb828a8575a17db6c494cebac8494f353119",
    ("proof", "icomll", 0.0):
        "7e54837205eb1ce1cf42b5901653ec7c6b521f12205080b17826e8283cdea75f",
    ("ps", "mll", 0.0):
        "fb8a9e6c6ec1cfc8c1915e8f3e1fd6a370879a1f714b28b80c10aac6aafa5bc6",
    ("ps", "mllu", 0.0):
        "b65aa0218ace9e838fc262e93956e0430275cbf9b0867e1f12fa77bccbdf60e6",
    ("ps", "btenll", 0.0):
        "4bd6996219c12af1c8c7abfcfa240c81c7e9bd23cb1ce01fd50b7f4387f32e22",
    ("ps", "btenll-star", 0.0):
        "e2c9e094e8acc4321d2dba4a59bc71d401c5e0b3531d61dfe8b62443719003e7",
    ("ps", "imll", 0.0):
        "13bc39da8a144c97b2437e322c209ff114a4d78b8f8ead5fa0d5468f703ac604",
    ("ps", "icomll", 0.0):
        "d06a64aaa5a928ed13997b0e1cd8d36c580ef3fb98a9bab3378084812e0bf630",
    ("ps", None, 0.0):
        "b8b48cf4178d12b75976794560cf34d6377579286a3598bf7001665e79552d83",
    ("proof", "mll", 0.3):
        "a7ffe837cae31e677697af1b70e53504bc93cd2042a4238d4386cf023a19db1a",
    ("proof", "mllu", 0.3):
        "8f8f055f5b2038901b20b456e5a5a85a56f4202dbd945d20f491725410385870",
    ("proof", "btenll", 0.3):
        "1359e25f68478cb381acbb5c5dba5c745dfee02a161e3eb739f32e19b1e7328b",
    ("proof", "btenll-star", 0.3):
        "eabe2a54a1a5dd96425bd99ad4600ced426c8917d3dd90b2670f9811681f63d7",
    ("proof", "imll", 0.3):
        "3d097d09d4a3877bb56d919779041175e6db143caf64e12c98ffcb8291e44da8",
    ("proof", "icomll", 0.3):
        "7e54837205eb1ce1cf42b5901653ec7c6b521f12205080b17826e8283cdea75f",
    ("ps", "mll", 0.3):
        "a0bcb5a58f18c95ecddbb1b58d83a9c9dcef5f0c65ca066b522d401f3202d9c9",
    ("ps", "mllu", 0.3):
        "dfdfbda0d91804b45ffa158a165359e7e23cf44f8cfb37662c2da1337b93c940",
    ("ps", "btenll", 0.3):
        "72a96306d02813a0db40ce6a90aa9ed08ac0d508b768461dbfc35dfa2a208a4f",
    ("ps", "btenll-star", 0.3):
        "01d390816986ad330d477ceeadea7a1602387096d5fd741402ad27199badd174",
    ("ps", "imll", 0.3):
        "63c6d3021797663f3ddd3e6e102d12e0bfdc2862a651319d363b8c55a08b5d44",
    ("ps", "icomll", 0.3):
        "718433503bf3526fb35f949f9fe1a57dd4a6dfb628e7cbb731b525eec2aa77cf",
    ("ps", None, 0.3):
        "3c2f2880c12a22c84f2ef970d0664c1cbbc5f3e13321180189bb493bf1274ee0",
}


def test_generators_draw_the_pinned_bytes():
    got = {}
    for cut in (0.0, 0.3):
        for frag in Fragment:
            h = hashlib.sha256()
            for seed in range(100):
                p = random_proof(GenParams(fragment=frag, max_rules=5 + 11 * seed % 56,
                                           seed=seed, cut_probability=cut))
                h.update(format_proof(p, frag).encode())
            got["proof", frag.value, cut] = h.hexdigest()
        for frag in (*Fragment, None):
            h = hashlib.sha256()
            for seed in range(100):
                ps = random_ps(GenParams(fragment=frag, max_nodes=5 + 11 * seed % 56,
                                         seed=seed, cut_probability=cut))
                h.update(to_json(ps).encode())
            got["ps", frag and frag.value, cut] = h.hexdigest()
    assert got == _PINNED_DIGESTS


_LINEAR_FAMILIES = {
    "proof-mll-cuts": (Fragment.MLL, lambda n: random_proof(
        GenParams(fragment=Fragment.MLL, max_rules=n, seed=1, cut_probability=0.3))),
    "proof-btenll": (Fragment.BTENLL, lambda n: random_proof(
        GenParams(fragment=Fragment.BTENLL, max_rules=n, seed=1))),
    "ps-mll": (Fragment.MLL, lambda n: random_ps(
        GenParams(fragment=Fragment.MLL, max_nodes=n, seed=1))),
    "ps-btenll": (Fragment.BTENLL, lambda n: random_ps(
        GenParams(fragment=Fragment.BTENLL, max_nodes=n, seed=1))),
    "ps-imll": (Fragment.IMLL, lambda n: random_ps(
        GenParams(fragment=Fragment.IMLL, max_nodes=n, seed=1))),
}


_SIZES = (400, 800, 1600, 3200, 6400)


def _assert_grows_linearly(draw, steps):
    """Draw at each size, reading the steps each draw took from `steps`, a
    one-item list: each 4x in size grows them at most 5x, where a run that
    redoes its work per test grows them about 16x."""
    counts = {}
    for n in _SIZES:
        steps[0] = 0
        draw(n)
        counts[n] = steps[0]
    assert counts[_SIZES[0]] > 0
    for n in _SIZES[:3]:
        assert counts[4 * n] <= 5 * counts[n], counts


@pytest.mark.parametrize("family", _LINEAR_FAMILIES)
def test_typed_generation_folds_in_linear_time(monkeypatch, family):
    # a fold step is one call of the fragment's join; a run keeps one fold
    # table, so each connective it tests costs one step
    frag, draw = _LINEAR_FAMILIES[family]
    leaf, join = formulas._KIND_FOLDS[frag]
    steps = [0]

    def counted_join(*args):
        steps[0] += 1
        return join(*args)

    monkeypatch.setitem(formulas._KIND_FOLDS, frag, (leaf, counted_join))
    _assert_grows_linearly(draw, steps)


@pytest.mark.parametrize("frag", [Fragment.MLLU, Fragment.BTENLL], ids=lambda f: f.value)
def test_structures_with_cuts_negate_in_linear_time(monkeypatch, frag):
    # a negation step links a formula and its negation; a run holds the
    # negations its cut tests make, so each subformula is negated once
    set_neg, steps = formulas._set_neg, [0]

    def counted_set_neg(*args):
        steps[0] += 1
        return set_neg(*args)

    monkeypatch.setattr(formulas, "_set_neg", counted_set_neg)
    _assert_grows_linearly(lambda n: random_ps(GenParams(
        fragment=frag, max_nodes=n, seed=1, cut_probability=0.3)), steps)
