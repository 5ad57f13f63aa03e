import copy
import gc
import pickle
import random
import re
import sys

import pytest

from proofnets.errors import ParseError
from proofnets import formulas
from proofnets.formulas import (BOT, Formula, Fragment, ONE, atom,
                                format_formula, format_formulas, in_fragment,
                                in_fragments, negate, par, parse_formula,
                                parse_formulas, polarity, subformulas, tensor)
from proofnets.generate import random_formula

X = atom("X")
XD = atom("X", dual=True)


def test_negate_units():
    assert negate(BOT) == ONE
    assert negate(ONE) == BOT


def test_negate_involution_example():
    f = tensor(X, BOT)
    assert negate(negate(f)) == f


def test_negate_de_morgan():
    assert negate(tensor(X, BOT)) == par(XD, ONE)
    assert negate(par(X, X)) == tensor(XD, XD)


def test_negate_involution_random():
    rng = random.Random(0)
    for _ in range(10_000):
        f = random_formula(rng, depth=3)
        assert negate(negate(f)) == f
        assert negate(f) != f  # no fixed points


def test_btenll_examples():
    ok, kind = in_fragment(par(BOT, ONE), Fragment.BTENLL)
    assert ok and kind == "A"
    ok, _ = in_fragment(tensor(par(ONE, ONE), BOT), Fragment.BTENLL)
    assert not ok
    assert in_fragment(tensor(par(XD, ONE), BOT), Fragment.BTENLL)[0] is False
    assert in_fragment(X, Fragment.MLL) == (True, None)
    assert in_fragment(par(BOT, BOT), Fragment.BTENLL) == (True, "E")


def test_mll_subset_of_btenll():
    rng = random.Random(1)
    checked = 0
    for _ in range(2000):
        f = random_formula(rng, depth=3)
        if in_fragment(f, Fragment.MLL)[0]:
            assert in_fragment(f, Fragment.BTENLL)[0]
            checked += 1
    assert checked > 100


def test_btenll_star_closed_under_negation():
    rng = random.Random(2)
    inside = 0
    for _ in range(4000):
        f = random_formula(rng, depth=3)
        if in_fragment(f, Fragment.BTENLL_STAR)[0]:
            assert in_fragment(negate(f), Fragment.BTENLL_STAR)[0]
            inside += 1
    assert inside > 100


def test_btenll_star_excludes_bot_par_one():
    # the starred fragment misses even the identity on units
    assert not in_fragment(par(BOT, ONE), Fragment.BTENLL_STAR)[0]
    assert in_fragment(par(BOT, ONE), Fragment.BTENLL)[0]


def test_imll_polarity_unique_and_negation_flips():
    rng = random.Random(3)
    inside = 0
    for _ in range(4000):
        f = random_formula(rng, depth=3)
        ok, pol = in_fragment(f, Fragment.IMLL)
        if ok:
            assert pol in ("O", "I")
            ok2, pol2 = in_fragment(negate(f), Fragment.IMLL)
            assert ok2 and pol2 != pol
            inside += 1
    assert inside > 100


def test_imll_grammar_shapes():
    assert polarity(tensor(ONE, ONE)) == "O"
    assert polarity(tensor(BOT, ONE)) == "I"
    assert polarity(par(BOT, BOT)) == "I"
    assert polarity(par(ONE, BOT)) == "O"
    assert polarity(par(ONE, ONE)) is None
    assert polarity(tensor(BOT, BOT)) is None


def test_icomll_forbids_atoms():
    assert in_fragment(par(BOT, ONE), Fragment.ICOMLL) == (True, "O")
    assert not in_fragment(par(XD, ONE), Fragment.ICOMLL)[0]
    assert in_fragment(par(XD, ONE), Fragment.IMLL)[0]


def test_parse_examples():
    f = parse_formula("(X^ par 1) tensor bot")
    assert f == tensor(par(XD, ONE), BOT)
    assert parse_formula("bot") == BOT
    assert parse_formula("one") == ONE
    assert parse_formula("1") == ONE


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_formula("(X par")
    assert err.value.position == 7


def test_parse_mixed_operators_rejected():
    with pytest.raises(ParseError):
        parse_formula("X par X tensor X")
    # uniform chains associate to the left
    assert parse_formula("X par X par X") == par(par(X, X), X)


def test_print_parse_round_trip():
    rng = random.Random(4)
    for _ in range(2000):
        f = random_formula(rng, depth=3)
        assert parse_formula(format_formula(f)) == f


# -- interning, against a structural oracle ------------------------------------


def encode(f):
    """The formula as nested tuples: what equality meant before interning."""
    if f.kind == "atom":
        return ("atom", f.name, f.dual)
    if f.left is None:
        return (f.kind,)
    return (f.kind, encode(f.left), encode(f.right))


def encoded_negation(e):
    if e[0] == "atom":
        return ("atom", e[1], not e[2])
    if len(e) == 1:
        return ("bot",) if e[0] == "one" else ("one",)
    kind = "par" if e[0] == "tensor" else "tensor"
    return (kind, encoded_negation(e[1]), encoded_negation(e[2]))


def rebuild(e):
    if e[0] == "atom":
        return Formula("atom", e[1], e[2])
    if len(e) == 1:
        return Formula(e[0])
    return Formula(e[0], left=rebuild(e[1]), right=rebuild(e[2]))


def seeded_formulas(n=3000, seed=11):
    rng = random.Random(seed)
    return [random_formula(rng, depth=rng.randint(0, 4)) for _ in range(n)]


def test_same_object_exactly_when_same_tree():
    fs = seeded_formulas()
    first = {}
    for f in fs:
        assert first.setdefault(encode(f), f) is f
        assert rebuild(encode(f)) is f
    # distinct trees are distinct objects
    assert len({id(f) for f in fs}) == len(first) > 300
    assert all((f == g) is (f is g) for f, g in zip(fs, fs[1:]))


def test_negation_is_the_interned_dual():
    for f in seeded_formulas():
        g = negate(f)
        assert encode(g) == encoded_negation(encode(f))
        assert negate(g) is f
        assert g is not f


def test_text_round_trip_returns_the_same_object():
    for f in seeded_formulas():
        assert parse_formula(format_formula(f)) is f


def test_copies_and_pickles_return_the_same_object():
    # atoms whose names the text syntax would misread come back too
    odd = [atom("one"), atom("A B", dual=True), tensor(atom("par"), ONE)]
    for f in seeded_formulas(300) + odd:
        assert copy.copy(f) is f
        assert copy.deepcopy(f) is f
        assert pickle.loads(pickle.dumps(f)) is f


def test_formulas_are_immutable():
    f = tensor(X, BOT)
    for name, value in (("kind", "par"), ("name", "Y"), ("left", ONE), ("other", 1)):
        with pytest.raises(AttributeError):
            setattr(f, name, value)
    with pytest.raises(AttributeError):
        del f.left
    assert f is tensor(X, BOT) and format_formula(f) == "(X tensor bot)"


def test_dropped_formulas_leave_the_intern_table():
    # without the cycle collector: a formula and its memoized negation must
    # free each other by reference counting alone
    rng = random.Random(12)
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = len(formulas._TABLE)
        for i in range(10_000):
            f = random_formula(rng, depth=4)
            g = negate(tensor(f, atom(f"L{i}")))
            assert negate(g).right is atom(f"L{i}")
        del f, g
        assert len(formulas._TABLE) == start
    finally:
        if enabled:
            gc.enable()


# -- batch reading, printing and fragment kinds, against one-at-a-time oracles ---


def reference_text(f):
    """The printer's output, written the obvious recursive way."""
    if f.left is None:
        return format_formula(f)
    sep = " tensor " if f.kind == "tensor" else " par "
    return "(" + reference_text(f.left) + sep + reference_text(f.right) + ")"


def outcome(text):
    try:
        return parse_formula(text)
    except ParseError as exc:
        return (str(exc), exc.position)


def mutated(text, rng):
    i = rng.randrange(len(text) + 1)
    junk = rng.choice(["(", ")", "^", "$", " ", "X", "tensor", "par", "é", ""])
    return text[:i] + junk + text[i + rng.randrange(2):]


def test_tokens_split_words_and_spaces_as_str_methods_do():
    # the tokenizer's \w and \s stand for str.isalnum() plus "_" and for
    # str.isspace(), over every code point
    chars = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\w", chars) == [c for c in chars if c.isalnum() or c == "_"]
    assert re.findall(r"\s", chars) == [c for c in chars if c.isspace()]


def test_parse_formulas_agrees_with_one_text_at_a_time():
    rng = random.Random(21)
    for _ in range(300):
        fs = [random_formula(rng, depth=rng.randint(0, 5)) for _ in range(rng.randint(1, 6))]
        # whole texts, the texts of their subformulas (which a longer text
        # holds as a group), spacing and parenthesis variants, and mutations
        texts = [format_formula(g) for f in fs for g in subformulas(f)]
        texts += [f"({t})" for t in rng.choices(texts, k=2)] + [" " + texts[0], texts[-1] + " "]
        texts += [mutated(rng.choice(texts), rng) for _ in range(rng.randint(0, 6))]
        rng.shuffle(texts)
        found = parse_formulas(texts)
        assert set(found) == set(texts)
        for text in texts:
            got = found[text]
            if isinstance(got, ParseError):
                got = (str(got), got.position)
            assert got == outcome(text), text


def test_parse_errors_keep_their_offsets():
    cases = {"(X par": ("expected a formula", 7), "(X par Y": ("expected ')'", 9), "X par Y tensor Z": ("mixed connectives "
             "need parentheses", 9), "(X par Y) $": ("unexpected character '$'", 11),
             "X ^": ("unexpected character '^'", 3), "X^^": ("unexpected character '^'", 3),
             "": ("expected a formula", 1), "(X par Y) Z": ("unexpected 'Z'", 11),
             "(X par ) tensor $": ("unexpected character '$'", 17)}
    found = parse_formulas(cases)
    for text, (message, position) in cases.items():
        assert (str(found[text]), found[text].position) == \
            (f"{message} (at offset {position})", position)
    # a group of a longer text that fails later is still read correctly
    assert parse_formulas(["((X par Y) tensor", "(X par Y)"])["(X par Y)"] is par(X, atom("Y"))


def test_format_formulas_agrees_with_a_recursive_printer():
    rng = random.Random(22)
    for _ in range(300):
        fs = [random_formula(rng, depth=rng.randint(0, 5)) for _ in range(rng.randint(1, 6))]
        wanted = [g for f in fs for g in subformulas(f) if rng.random() < 0.3] + fs
        rng.shuffle(wanted)
        texts = format_formulas(wanted)
        assert texts == {f: reference_text(f) for f in wanted}


def test_in_fragments_agrees_with_a_recursive_fold():
    leaf_join = formulas._KIND_FOLDS

    def kind(f, frag):
        leaf, join = leaf_join[frag]
        if f.left is None:
            return leaf(f)
        return join(f, kind(f.left, frag), kind(f.right, frag))

    rng = random.Random(23)
    for _ in range(200):
        fs = [random_formula(rng, depth=rng.randint(0, 5)) for _ in range(rng.randint(1, 6))]
        given = [g for f in fs for g in subformulas(f)]
        for frag in Fragment:
            verdicts = in_fragments(given, frag)
            assert set(verdicts) == set(given)
            for f in given:
                expected = (True, None) if frag is Fragment.MLLU else \
                    formulas._verdict(frag, kind(f, frag))
                assert verdicts[f] == in_fragment(f, frag) == expected
        for f in given:
            assert polarity(f) == kind(f, Fragment.IMLL)
