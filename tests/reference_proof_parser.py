"""The proof reader as it was before it tokenized with one regular
expression and read the formulas in one batch, kept as the reference of
the package's one: both must return the same proof, or raise a ParseError
with the same message and offset.  Beside it, the proof printer as it was
before the package's became a sink of rules in print order.
"""

import re

from proofnets.errors import ParseError
from proofnets.formulas import Fragment, format_formula, fragment_from_name, parse_formula
from proofnets.sequent import (_ARITY, AX_RULE, CUT_RULE, EX_RULE, ONE_RULE,
                               ProofBuildError, SequentProof)


def format_proof_expr(p: SequentProof) -> str:
    """The s-expression of a proof, printed from a stack of subproofs and
    the texts still to write."""
    out: list[str] = []
    stack: list = [p]
    while stack:
        q = stack.pop()
        if isinstance(q, str):
            out.append(q)
        elif q.rule == AX_RULE:
            out.append(f'(ax "{format_formula(q.arg)}")')
        elif q.rule == ONE_RULE:
            out.append("(one)")
        else:
            if q.rule == EX_RULE:
                out.append(f"(ex {q.arg + 1} ")
            elif q.rule == CUT_RULE:
                out.append(f'(cut "{format_formula(q.cut_formula)}" ')
            else:
                out.append(f"({q.rule} ")
            stack.append(")")
            for i, sub in enumerate(reversed(q.premises)):
                if i:
                    stack.append(" ")
                stack.append(sub)
    return "".join(out)


def _tokenize_expr(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()":
            tokens.append((c, i + 1))
            i += 1
        elif c == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise ParseError("unterminated string", i + 1)
            tokens.append((("str", text[i + 1:j]), i + 1))
            i = j + 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "()":
                j += 1
            tokens.append((text[i:j], i + 1))
            i = j
    tokens.append((None, n + 1))
    return tokens


def parse_proof(text: str) -> tuple[Fragment, SequentProof]:
    """Read the proof file format: a fragment header then one s-expression."""
    lines = text.splitlines()
    frag = Fragment.MLLU
    body_start = 0
    for idx, line in enumerate(lines):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.lower().startswith("fragment:"):
            frag = fragment_from_name(stripped.split(":", 1)[1])
            body_start = idx + 1
        break
    body = "\n".join(lines[body_start:])
    tokens = _tokenize_expr(body)
    pos = 0

    def take():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def expect(symbol):
        tok, at = take()
        if tok != symbol:
            raise ParseError(f"expected {symbol!r}", at)

    def open_rule():
        """Read '(', a rule name and its argument."""
        expect("(")
        head, at = take()
        arg = None
        if head in (AX_RULE, CUT_RULE):
            tok, at2 = take()
            if not (isinstance(tok, tuple) and tok[0] == "str"):
                raise ParseError(f"{head} takes a quoted formula", at2)
            arg = parse_formula(tok[1])
        elif head == EX_RULE:
            tok, at2 = take()
            # a position is ASCII digits after an optional sign
            if not (isinstance(tok, str) and re.fullmatch(r"[-+]?[0-9]+", tok)):
                raise ParseError("ex takes a 1-based position", at2)
            arg = int(tok) - 1
        elif head not in _ARITY:
            raise ParseError(f"unknown rule {head!r}", at)
        return head, at, arg

    # The rules whose premises are still being read wait on an explicit
    # stack, so nesting is bounded by memory only.
    pending: list[tuple] = []
    (head, at, arg), premises = open_rule(), []
    while True:
        if len(premises) < _ARITY[head]:
            pending.append((head, at, arg, premises))
            (head, at, arg), premises = open_rule(), []
            continue
        try:
            node = SequentProof(head, premises, arg)
        except ProofBuildError as exc:
            raise ParseError(str(exc), at) from None
        expect(")")
        if not pending:
            break
        head, at, arg, premises = pending.pop()
        premises.append(node)
    trailing, at = take()
    if trailing is not None:
        raise ParseError(f"unexpected {trailing!r}", at)
    return frag, node
