"""Formulas of multiplicative linear logic with units, and fragment grammars.

A formula is an interned, immutable tree over atoms, the two units and the
two binary connectives: equality is identity, so build formulas only through
`Formula`, `atom`, `tensor`, `par`, `parse_formula` and `parse_formulas`,
which return the one object for each tree.  The intern table holds its
formulas weakly, so a formula lives only as long as something else holds
it.  Linear negation is structural: it flips the dual flag on atoms, swaps
the units and exchanges tensor with par under De Morgan; each formula
remembers its negation weakly, so a duality test is one lookup and an
identity test.  Fragments are subsets of the formula language closed under
subformulas; membership is decided by a single bottom-up kind inference that
also returns the derived kind (A/E for the bottom-tensor-restricted
grammars, O/I polarity for the intuitionistic ones).

The type of a connective's conclusion contains its premises' types, so the
types of one structure share most of their subformulas.  Reading, printing
and fragment membership therefore come in batches that do the work once per
distinct subformula: `parse_formulas` reads a document's type texts longest
first and takes a shorter text from the group of a longer one that spells
it, `format_formulas` copies the text of a wanted subformula it has already
printed, and `in_fragments` folds each distinct subformula once.
`parse_formula` and `format_formula` are the one-item cases of the first
two, and `in_fragment` runs the same fold on one formula.  A generator run
tests formulas one at a time, each built from formulas it tested before,
so `_fragment_test` keeps one fold table for the whole run.

Surface syntax: atoms are identifiers (`X`), duals carry a trailing caret
(`X^`), units are written `one` (or `1`) and `bot`, the connectives are the
infix keywords `tensor` and `par`.  Mixed nesting must be parenthesized; the
printer always emits the fully parenthesized form.
"""

from __future__ import annotations

import enum
import re
import weakref

from .errors import ParseError

ATOM = "atom"
ONE_KIND = "one"
BOT_KIND = "bot"
TENSOR = "tensor"
PAR = "par"


class _Entry(weakref.ref):
    """A weak reference to an interned formula that knows its table key."""

    __slots__ = ("key",)


def _drop(entry: _Entry) -> None:
    # a newer formula may already sit under the key of a dead one
    if _TABLE.get(entry.key) is entry:
        del _TABLE[entry.key]


# (kind, name, dual, left, right) -> weak reference to the one formula
_TABLE: dict[tuple, _Entry] = {}


class Formula:
    """One node of a formula tree; equal trees are the same object."""

    __slots__ = ("kind", "name", "dual", "left", "right", "_neg", "__weakref__")

    def __new__(cls, kind: str, name: str = "", dual: bool = False,
                left: Formula | None = None, right: Formula | None = None):
        key = (kind, name, dual, left, right)
        entry = _TABLE.get(key)
        if entry is not None:
            f = entry()
            if f is not None:
                return f
        f = object.__new__(cls)
        _set_kind(f, kind)
        _set_name(f, name)
        _set_dual(f, dual)
        _set_left(f, left)
        _set_right(f, right)
        _set_neg(f, None)
        entry = _Entry(f, _drop)
        entry.key = key
        _TABLE[key] = entry
        return f

    def __setattr__(self, name, value):
        raise AttributeError(f"Formula is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Formula is immutable: cannot delete {name!r}")

    def __reduce__(self):
        # flat, as its distinct subformulas bottom-up, each row naming its
        # sides by row, so a deep formula pickles without recursion
        rows: list[tuple] = []

        def row(g, *sides) -> int:
            rows.append((g.kind, g.name, g.dual, *sides))
            return len(rows) - 1

        _fold((self,), row, row)
        return _from_rows, (rows,)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __repr__(self):
        return f"Formula({format_formula(self)!r})"


# the slot setters, which bypass the immutable __setattr__
_set_kind, _set_name, _set_dual, _set_left, _set_right, _set_neg = (
    Formula.__dict__[slot].__set__
    for slot in ("kind", "name", "dual", "left", "right", "_neg"))

ONE = Formula(ONE_KIND)
BOT = Formula(BOT_KIND)


def _from_rows(rows) -> Formula:
    """The one formula that `Formula.__reduce__` wrote as rows."""
    made: list[Formula] = []
    for kind, name, dual, *sides in rows:
        made.append(Formula(kind, name, dual, *(made[i] for i in sides)))
    return made[-1]


def atom(name: str, dual: bool = False) -> Formula:
    return Formula(ATOM, name, dual)


def tensor(left: Formula, right: Formula) -> Formula:
    return Formula(TENSOR, left=left, right=right)


def par(left: Formula, right: Formula) -> Formula:
    return Formula(PAR, left=left, right=right)


def _known_negation(f: Formula) -> Formula | None:
    ref = f._neg
    return None if ref is None else ref()


def negate(f: Formula) -> Formula:
    """Linear negation: an involution without fixed points.

    Each formula keeps a weak link to its negation and the negation one back,
    so a formula and its dual never keep each other alive; the subformulas
    whose negation is not known are negated bottom-up on an explicit stack.
    """
    known = _known_negation(f)
    if known is not None:
        return known
    made: dict[Formula, Formula] = {}  # holds the new negations until the end
    stack = [f]
    while stack:
        g = stack[-1]
        if g in made:
            stack.pop()
            continue
        if g.kind == ATOM:
            neg = Formula(ATOM, g.name, not g.dual)
        elif g.kind == ONE_KIND:
            neg = BOT
        elif g.kind == BOT_KIND:
            neg = ONE
        else:
            left = made.get(g.left) or _known_negation(g.left)
            right = made.get(g.right) or _known_negation(g.right)
            if left is None or right is None:
                if left is None:
                    stack.append(g.left)
                if right is None:
                    stack.append(g.right)
                continue
            neg = Formula(PAR if g.kind == TENSOR else TENSOR, left=left, right=right)
        stack.pop()
        made[g] = neg
        _set_neg(g, weakref.ref(neg))
        _set_neg(neg, weakref.ref(g))
    return made[f]


def subformulas(f: Formula):
    """Every subformula occurrence, in prefix order."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        if g.left is not None:
            stack.append(g.right)
            stack.append(g.left)


class Fragment(enum.Enum):
    MLL = "mll"
    MLLU = "mllu"
    BTENLL = "btenll"
    BTENLL_STAR = "btenll-star"
    IMLL = "imll"
    ICOMLL = "icomll"


def fragment_from_name(name: str) -> Fragment:
    try:
        return Fragment(name.strip().lower())
    except ValueError:
        raise ParseError(f"unknown fragment {name!r}") from None


# Kind lattice for the starred bottom-tensor grammar: kinds may be ambiguous
# for atoms, so inference returns a set.
_A, _AD, _E, _ED = "A", "A*", "E", "E*"


def _fold(fs, leaf, join, values=None) -> dict:
    """Fold formulas bottom-up without recursion: `leaf(g)` at each leaf and
    `join(g, left value, right value)` at each connective.  The formulas
    share one table of values, so each distinct subformula is folded once,
    however many of them contain it; the table is returned.  A table given
    as `values`, from earlier folds with the same leaf and join, is read
    and extended in place."""
    if values is None:
        values = {}
    for f in fs:
        stack = [f]
        while stack:
            g = stack.pop()
            if g in values:
                continue
            if g.left is None:
                values[g] = leaf(g)
            elif g.left in values and g.right in values:
                values[g] = join(g, values[g.left], values[g.right])
            else:  # both sides first, then g again
                stack += (g, g.right, g.left)
    return values


_BTEN_LEAF_KIND = {ATOM: _A, ONE_KIND: _A, BOT_KIND: _E}
# the kind of a connective from the kinds of its sides, here and in
# _POLARITY_JOIN below; a triple not listed is outside the grammar
_BTEN_JOIN = {(TENSOR, _A, _A): _A, (PAR, _A, _A): _A, (PAR, _A, _E): _A,
              (PAR, _E, _A): _A, (PAR, _E, _E): _E}

_STAR_LEAF_KINDS = {ATOM: frozenset({_A, _AD}), BOT_KIND: frozenset({_E}),
                    ONE_KIND: frozenset({_ED})}


def _bten_star_join(f: Formula, kl: frozenset, kr: frozenset) -> frozenset:
    out = set()
    a_l, a_r = kl & {_A, _AD}, kr & {_A, _AD}
    if f.kind == PAR:
        if (a_l and a_r) or (a_l and _E in kr) or (_E in kl and a_r):
            out.add(_A)
        if _E in kl and _E in kr:
            out.add(_E)
    else:
        if (a_l and a_r) or (a_l and _ED in kr) or (_ED in kl and a_r):
            out.add(_AD)
        if _ED in kl and _ED in kr:
            out.add(_ED)
    return frozenset(out)


def _polarity_leaf(f: Formula) -> str:
    if f.kind == ATOM:
        return "I" if f.dual else "O"
    return "O" if f.kind == ONE_KIND else "I"


_POLARITY_JOIN = {(TENSOR, "O", "O"): "O", (TENSOR, "O", "I"): "I",
                  (TENSOR, "I", "O"): "I", (PAR, "I", "I"): "I",
                  (PAR, "O", "I"): "O", (PAR, "I", "O"): "O"}


def _polarity_join(f: Formula, pl, pr):
    return _POLARITY_JOIN.get((f.kind, pl, pr))


# Per fragment, the leaf and join of the fold that decides it: whether no
# unit occurs (mll), the kind A or E (btenll; None outside), the set of
# starred kinds (btenll-star; empty outside), and the polarity (imll and
# icomll, where an atom is outside icomll; None outside).
_KIND_FOLDS = {
    Fragment.MLL: (lambda g: g.kind == ATOM, lambda g, ok_l, ok_r: ok_l and ok_r),
    Fragment.BTENLL: (lambda g: _BTEN_LEAF_KIND[g.kind],
                      lambda g, kl, kr: _BTEN_JOIN.get((g.kind, kl, kr))),
    Fragment.BTENLL_STAR: (lambda g: _STAR_LEAF_KINDS[g.kind], _bten_star_join),
    Fragment.IMLL: (_polarity_leaf, _polarity_join),
    Fragment.ICOMLL: (lambda g: None if g.kind == ATOM else _polarity_leaf(g),
                      _polarity_join),
}


def _verdict(frag: Fragment, value) -> tuple[bool, str | None]:
    if frag is Fragment.MLL:
        return value, None
    if frag is Fragment.BTENLL_STAR:
        if not value:
            return False, None
        return True, _A if value & {_A, _AD} else _E
    return value is not None, value


def in_fragment(f: Formula, frag: Fragment) -> tuple[bool, str | None]:
    """Decide fragment membership; also return the derived kind tag.

    The tag is A/E for the bottom-tensor grammars, O/I for the
    intuitionistic ones, and None for the unrestricted fragments.
    """
    if frag is Fragment.MLLU:
        return True, None
    leaf, join = _KIND_FOLDS[frag]
    # most types are leaves: skip the walk
    return _verdict(frag, leaf(f) if f.left is None else _fold((f,), leaf, join)[f])


def _fragment_test(frag: Fragment):
    """A membership test for the many formulas of one run, such as one
    draw of a generator: `test(f)` is `in_fragment(f, frag)[0]`.

    Every call reads and extends one fold table, which holds its formulas
    for as long as the test lives.  A formula whose two sides are already
    in the table is decided by one join, so a run that builds each tested
    connective from formulas it has seen folds in time linear in the
    number of formulas it tests, where a fresh fold per formula would
    re-fold every side.  The mllu test answers at once, with no fold.
    """
    if frag is Fragment.MLLU:
        return lambda f: True
    leaf, join = _KIND_FOLDS[frag]
    values: dict = {}

    def test(f: Formula) -> bool:
        return _verdict(frag, _fold((f,), leaf, join, values)[f])[0]

    return test


def polarity(f: Formula) -> str | None:
    """Output/input polarity in the intuitionistic grammar, None if outside."""
    return in_fragment(f, Fragment.IMLL)[1]


def in_fragments(formulas, frag: Fragment) -> dict[Formula, tuple[bool, str | None]]:
    """`in_fragment` of each distinct formula given, from one fold that
    visits each distinct subformula once across all of them."""
    formulas = dict.fromkeys(formulas)
    if frag is Fragment.MLLU:
        return dict.fromkeys(formulas, (True, None))
    values = _fold(formulas, *_KIND_FOLDS[frag])
    return {f: _verdict(frag, values[f]) for f in formulas}


_SEPARATORS = {TENSOR: " tensor ", PAR: " par "}


def _leaf_text(f: Formula) -> str:
    if f.kind == ATOM:
        return f.name + "^" if f.dual else f.name
    return f.kind


def format_formula(f: Formula) -> str:
    return format_formulas((f,))[f]


def format_formulas(formulas) -> dict[Formula, str]:
    """The fully parenthesized text of each distinct formula given.

    One walk prints each formula not yet printed.  It copies the text of a
    formula printed before, and records the text of each given formula it
    passes through, so a subformula that is also given is printed once.
    Only the given formulas' texts are kept: the memory stays within the
    output's size.
    """
    wanted = dict.fromkeys(formulas)
    texts: dict[Formula, str] = {}
    for f in wanted:
        if f in texts:
            continue
        if f.left is None:  # most arc types are leaves: skip the buffers
            texts[f] = _leaf_text(f)
            continue
        out = []
        emit = out.append
        # connectives whose right side is still to print, None for each
        # closing parenthesis still owed, and (formula, start in out) for
        # each given formula whose text ends with the next ')'
        stack: list = []
        while True:
            while True:
                text = texts.get(f)
                if text is not None:
                    emit(text)
                    break
                if f.left is None:
                    emit(_leaf_text(f))
                    break
                if f in wanted:
                    stack.append((f, len(out)))
                emit("(")
                stack.append(f)
                f = f.left
            while stack:
                top = stack.pop()
                if top is None:
                    emit(")")
                elif type(top) is tuple:
                    texts[top[0]] = "".join(out[top[1]:])
                else:
                    emit(_SEPARATORS[top.kind])
                    stack.append(None)
                    f = top.right
                    break
            else:
                break
    return texts


_TOKEN = re.compile(r"[()]|\w+\^?")
# a character no token starts with: \w and \s are str.isalnum() plus "_" and
# str.isspace(), and a caret belongs to the word before it
_UNEXPECTED = re.compile(r"[^\w\s()^]|(?<!\w)\^")


def parse_formula(text: str) -> Formula:
    """Parse the surface syntax; raises ParseError with a 1-based offset."""
    f = parse_formulas((text,))[text]
    if isinstance(f, ParseError):
        raise f
    return f


def parse_formulas(texts) -> dict[str, Formula | ParseError]:
    """The formula of each distinct text, or the ParseError that parsing
    that text alone raises.

    Texts are parsed longest first.  A parenthesized group that closes is
    recorded when its exact text is one of the texts, so a text already
    read as a group of a longer one costs a lookup; lengths are compared
    before any slice is taken, and only the given texts are recorded.
    """
    wanted = set(texts)
    lengths = {len(text) for text in wanted}
    found: dict[str, Formula | ParseError] = {}
    for text in sorted(wanted, key=len, reverse=True):
        if text not in found:
            try:
                found[text] = _parse(text, wanted, lengths, found)
            except ParseError as exc:
                found[text] = exc
    return found


def _parse(text: str, wanted, lengths, found) -> Formula:
    """Parse one text, recording its wanted groups in `found`.

    An unexpected character anywhere is reported before any other error.
    One frame per open parenthesis, on an explicit stack, holds the formula
    read so far at that level, its connective and the offset of its '(',
    so nesting depth costs no Python recursion.  A token is a match, and
    None past the end.
    """
    bad = _UNEXPECTED.search(text)
    if bad is not None:
        raise ParseError(f"unexpected character {bad[0]!r}", bad.start() + 1)
    tokens = _TOKEN.finditer(text)

    def offset(m) -> int:
        return len(text) + 1 if m is None else m.start() + 1

    frames: list[list] = [[None, None, 0]]  # [formula so far, connective, start]
    while True:
        m = next(tokens, None)
        tok = None if m is None else m[0]
        while tok == "(":
            frames.append([None, None, m.start()])
            m = next(tokens, None)
            tok = None if m is None else m[0]
        if tok in ("one", "1"):
            value = ONE
        elif tok == "bot":
            value = BOT
        elif tok is None or tok in ("tensor", "par", ")"):
            raise ParseError("expected a formula", offset(m))
        elif tok.endswith("^"):
            value = atom(tok[:-1], dual=True)
        else:
            value = atom(tok)
        while True:
            frame = frames[-1]
            left, op, start = frame
            frame[0] = value if left is None else Formula(op, left=left, right=value)
            m = next(tokens, None)
            word = None if m is None else m[0]
            if word in ("tensor", "par"):
                if op is not None and word != op:
                    raise ParseError("mixed connectives need parentheses", offset(m))
                frame[1] = word
                break
            if len(frames) == 1:
                if word is not None:
                    raise ParseError(f"unexpected {word!r}", offset(m))
                return frame[0]
            if word != ")":
                raise ParseError("expected ')'", offset(m))
            frames.pop()
            value = frame[0]
            end = m.end()
            if end - start in lengths:  # the group is text[start:end]
                group = text[start:end]
                if group in wanted:
                    found[group] = value
