"""Formulas of multiplicative linear logic with units, and fragment grammars.

A formula is an interned, immutable tree over atoms, the two units and the
two binary connectives: equality is identity, so build formulas only through
`Formula`, `atom`, `tensor`, `par` and `parse_formula`, which return the one
object for each tree.  The intern table holds its formulas weakly, so a
formula lives only as long as something else holds it.  Linear negation is
structural: it flips the dual flag on atoms, swaps the units and exchanges
tensor with par under De Morgan; each formula remembers its negation weakly,
so a duality test is one lookup and an identity test.  Fragments are subsets
of the formula language closed under subformulas; membership is decided by a
single bottom-up kind inference that also returns the derived kind (A/E for
the bottom-tensor-restricted grammars, O/I polarity for the intuitionistic
ones).

Surface syntax: atoms are identifiers (`X`), duals carry a trailing caret
(`X^`), units are written `one` (or `1`) and `bot`, the connectives are the
infix keywords `tensor` and `par`.  Mixed nesting must be parenthesized; the
printer always emits the fully parenthesized form.
"""

from __future__ import annotations

import enum
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
        return Formula, (self.kind, self.name, self.dual, self.left, self.right)

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


def _fold(f: Formula, leaf, join):
    """Fold f bottom-up without recursion: `leaf(g)` at each leaf and
    `join(g, left value, right value)` at each connective."""
    values = {}
    for g in reversed(list(subformulas(f))):  # each subformula after its sides
        values[g] = leaf(g) if g.left is None else join(g, values[g.left], values[g.right])
    return values[f]


_BTEN_LEAF_KIND = {ATOM: _A, ONE_KIND: _A, BOT_KIND: _E}
# the kind of a connective from the kinds of its sides, here and in
# _POLARITY_JOIN below; a triple not listed is outside the grammar
_BTEN_JOIN = {(TENSOR, _A, _A): _A, (PAR, _A, _A): _A, (PAR, _A, _E): _A,
              (PAR, _E, _A): _A, (PAR, _E, _E): _E}


def _bten_kind(f: Formula) -> str | None:
    """Kind A or E in the bottom-tensor-restricted grammar, None if outside."""
    if f.left is None:  # most arc types are leaves: skip the walk
        return _BTEN_LEAF_KIND[f.kind]
    return _fold(f, lambda g: _BTEN_LEAF_KIND[g.kind],
                 lambda g, kl, kr: _BTEN_JOIN.get((g.kind, kl, kr)))


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


def _bten_star_kinds(f: Formula) -> frozenset:
    return _fold(f, lambda g: _STAR_LEAF_KINDS[g.kind], _bten_star_join)


def _polarity_leaf(f: Formula) -> str:
    if f.kind == ATOM:
        return "I" if f.dual else "O"
    return "O" if f.kind == ONE_KIND else "I"


_POLARITY_JOIN = {(TENSOR, "O", "O"): "O", (TENSOR, "O", "I"): "I",
                  (TENSOR, "I", "O"): "I", (PAR, "I", "I"): "I",
                  (PAR, "O", "I"): "O", (PAR, "I", "O"): "O"}


def polarity(f: Formula) -> str | None:
    """Output/input polarity in the intuitionistic grammar, None if outside."""
    if f.left is None:  # most arc types are leaves: skip the walk
        return _polarity_leaf(f)
    return _fold(f, _polarity_leaf,
                 lambda g, pl, pr: _POLARITY_JOIN.get((g.kind, pl, pr)))


def in_fragment(f: Formula, frag: Fragment) -> tuple[bool, str | None]:
    """Decide fragment membership; also return the derived kind tag.

    The tag is A/E for the bottom-tensor grammars, O/I for the
    intuitionistic ones, and None for the unrestricted fragments.
    """
    if frag is Fragment.MLLU:
        return True, None
    if frag is Fragment.MLL:
        ok = all(g.kind in (ATOM, TENSOR, PAR) for g in subformulas(f))
        return ok, None
    if frag is Fragment.BTENLL:
        kind = _bten_kind(f)
        return kind is not None, kind
    if frag is Fragment.BTENLL_STAR:
        kinds = _bten_star_kinds(f)
        if not kinds:
            return False, None
        return True, _A if kinds & {_A, _AD} else _E
    pol = polarity(f)
    if pol is None:
        return False, None
    if frag is Fragment.ICOMLL and any(g.kind == ATOM for g in subformulas(f)):
        return False, None
    return True, pol


_SEPARATORS = {TENSOR: " tensor ", PAR: " par "}


def _leaf_text(f: Formula) -> str:
    if f.kind == ATOM:
        return f.name + "^" if f.dual else f.name
    return f.kind


def format_formula(f: Formula) -> str:
    if f.left is None:  # most arc types are leaves: skip the buffers
        return _leaf_text(f)
    out = []
    emit = out.append
    # connectives whose right side is still to print, and None for each
    # closing parenthesis still owed
    stack: list[Formula | None] = []
    while True:
        while f.left is not None:
            emit("(")
            stack.append(f)
            f = f.left
        emit(_leaf_text(f))
        while stack:
            top = stack.pop()
            if top is None:
                emit(")")
            else:
                emit(_SEPARATORS[top.kind])
                stack.append(None)
                f = top.right
                break
        else:
            return "".join(out)


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "()":
            tokens.append((c, i + 1))
            i += 1
            continue
        if c.isalnum() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if j < n and text[j] == "^":
                j += 1
                word += "^"
            tokens.append((word, i + 1))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i + 1)
    tokens.append((None, n + 1))
    return tokens


def parse_formula(text: str) -> Formula:
    """Parse the surface syntax; raises ParseError with a 1-based offset.

    One frame per open parenthesis, on an explicit stack, holds the formula
    read so far at that level and its connective, so nesting depth costs no
    Python recursion.
    """
    tokens = _tokenize(text)
    pos = 0
    frames: list[list] = [[None, None]]  # [formula so far, connective]
    while True:
        tok, at = tokens[pos]
        pos += 1
        while tok == "(":
            frames.append([None, None])
            tok, at = tokens[pos]
            pos += 1
        if tok in ("one", "1"):
            value = ONE
        elif tok == "bot":
            value = BOT
        elif tok is None or tok in ("tensor", "par", ")"):
            raise ParseError("expected a formula", at)
        elif tok.endswith("^"):
            value = atom(tok[:-1], dual=True)
        else:
            value = atom(tok)
        while True:
            frame = frames[-1]
            left, op = frame
            frame[0] = value if left is None else Formula(op, left=left, right=value)
            word, at = tokens[pos]
            pos += 1
            if word in ("tensor", "par"):
                if op is not None and word != op:
                    raise ParseError("mixed connectives need parentheses", at)
                frame[1] = word
                break
            if len(frames) == 1:
                if word is not None:
                    raise ParseError(f"unexpected {word!r}", at)
                return frame[0]
            if word != ")":
                raise ParseError("expected ')'", at)
            frames.pop()
            value = frame[0]
