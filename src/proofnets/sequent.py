"""Sequent-calculus proof trees, rule checking and desequentialization.

The rules are defined once: each but the exchange is named by the label
of the node desequentialization makes of it, `_ARITY` gives every rule's
premise count, and `_check_rule` checks a rule instance for the proof
constructor, the net builder and the sequentialization skeleton alike.

Proofs are immutable trees; each node records its rule, its premises, the
rule's argument, the length of its conclusion sequent and its rule count.
The constructor derives that conclusion itself and rejects ill-formed
instances, so every proof, built by hand or read from a file, is correct by
construction.  An exchange only checks its position against the length:
its conclusion is derived on first read, by applying the swaps of the
exchanges below it to the nearest conclusion already known, so a run of k
exchanges costs O(k) to build.

One token loop, `_read_rules`, reads the proof text format and hands each
rule to a sink when its ')' closes, so premises come first: `parse_proof`
builds a proof tree, and `desequentialize_text` feeds the net builder.

One text writer, `text_writer`, prints the format.  It takes rules in
print order, each rule before its premises, and runs of exchanges at
once, and closes each rule by its arity as the token loop does.  It has
two drivers: `format_proof_expr` walks a proof tree, and the
sequentialization skeleton hands it each move's rules as it makes the
move, so a structure is printed with no tree in between.  `tree_builder`
takes the same stream and builds the tree the skeleton's public callers
return, with the stack step of `parse_proof`.  Exchanges turn a
permutation into adjacent swaps in one place, `exchange_positions`, which
`exchange_to` and the skeleton share.

One net builder, `_net_builder`, turns rules into a typed structure one
closed rule at a time: axioms and units become single nodes, tensor and
cut join the two latest sub-structures, par and bot extend the latest
one, and an exchange is one swap in place in the open conclusion list.
Each new arc's type is the formula the rule introduces, so no formula is
read back from a sequent, and the builder checks each rule on its own
conclusion lists.  Two walks feed it: `_walk` walks a proof tree, premises
first, and `desequentialize_text` runs the token loop, so a proof text
becomes a net with no tree in between.  The net's arc types are exactly
the formulas the rules introduce, each arc's tail is the node of the rule
that introduces it, and node and arc ids grow in rule order, so
`DeseqResult.report` reads the fragment discipline (formulas inside the
fragment, no ax or cut rule in icomll) off the net alone, in id order:
each failing formula once, at the rule that introduces it.  `check_proof`
is that report on a tree's net; `sequentialize.nets_equivalent` raises it.
Reading, checking, printing and desequentializing walk proofs on explicit
stacks, so their depth is bounded by memory, not by the interpreter.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError, ProofNetError
from .formulas import (BOT as BOT_F, Formula, Fragment, format_formula,
                       fragment_from_name, in_fragments, negate, parse_formulas)
from .formulas import ONE as ONE_F, par as par_f, tensor as tensor_f
from .structure import (AX, BOT, CUT, DOT, ONE, PAR, TENSOR, ProofStructure,
                        ValidationReport, read_int, validate)
from .switching import check

# a rule is named by the label of the node it becomes in a net
AX_RULE = AX
CUT_RULE = CUT
EX_RULE = "ex"  # an exchange becomes no node
TENSOR_RULE = TENSOR
ONE_RULE = ONE
PAR_RULE = PAR
BOT_RULE = BOT

_ARITY = {AX_RULE: 0, ONE_RULE: 0, CUT_RULE: 2, TENSOR_RULE: 2,
          EX_RULE: 1, PAR_RULE: 1, BOT_RULE: 1}


class ProofBuildError(ProofNetError):
    """A rule was applied to premises of the wrong shape."""


def _check_rule(rule: str, arg, length: int, last=None, first=None) -> None:
    """The one check of a rule, for the proof constructor, the net builder
    and the skeleton: raise the ProofBuildError of an ill-formed instance of
    `rule` with argument `arg`.  `length` counts its first premise's
    conclusion, `last` closes that conclusion and `first` opens the second
    premise's, None when it is empty.  No proof reaches the tensor check or
    the empty-premise halves of the two cut checks: only a cut of proofs of
    |- A and |- A^ could derive the empty sequent, and cut elimination would
    turn that into a cut-free proof of it, which no rule but cut concludes."""
    if rule == EX_RULE:
        if not 0 <= arg <= length - 2:
            raise ProofBuildError(f"exchange position {arg} out of range")
    elif rule == PAR_RULE:
        if length < 2:
            raise ProofBuildError("par rule needs two formulas to combine")
    elif rule == TENSOR_RULE:
        if last is None or first is None:
            raise ProofBuildError("tensor rule needs a formula on each side")
    elif rule == CUT_RULE:
        if last is not arg:
            raise ProofBuildError("cut formula must close the first premise")
        if first is not negate(arg):
            raise ProofBuildError("dual of the cut formula must open the second premise")


class SequentProof:
    """A rule instance over the sub-proofs of its premises.

    `arg` is the axiom or cut formula or the 0-based exchange position, and
    None for the other rules.  The constructor derives the conclusion (so it
    takes no part in equality) and raises ProofBuildError on an unknown
    rule, a wrong premise count or an ill-formed instance.  Every node
    stores `length`, the size of its conclusion, and its rule count.  An
    exchange stores no conclusion: it is derived on first read and cached.
    Two proofs are equal when their rules, arguments and premises are; the
    hash is computed once, from the stored hashes of the premises, and
    equality walks an explicit stack, so neither recurses with the depth of
    the proof.
    """

    __slots__ = ("rule", "premises", "arg", "length", "_rule_count", "_hash",
                 "_conclusion")

    rule: str
    premises: tuple[SequentProof, ...]
    arg: Formula | int | None
    cut_formula = property(lambda p: p.arg if p.rule == CUT_RULE else None)
    position = property(lambda p: p.arg if p.rule == EX_RULE else None)

    def __init__(self, rule: str, premises=(), arg=None):
        premises = tuple(premises)
        arity = _ARITY.get(rule)
        if arity is None:
            raise ProofBuildError(f"unknown rule {rule!r}")
        if len(premises) != arity:
            raise ProofBuildError(f"{rule} rule has {len(premises)} premise(s), "
                                  f"expected {arity}")
        _set_rule(self, rule)
        _set_premises(self, premises)
        _set_arg(self, arg)
        if rule == EX_RULE:
            p = premises[0]
            length = p.length
            _check_rule(rule, arg, length)
            _set_length(self, length)
            _set_rule_count(self, p._rule_count + 1)
            _set_hash(self, hash((rule, arg, p._hash)))
            _set_conclusion(self, None)  # until it is first read
            return
        c = premises[0].conclusion if premises else ()
        if rule == AX_RULE:
            conclusion = (arg, negate(arg))
        elif rule == ONE_RULE:
            conclusion = (ONE_F,)
        elif rule == BOT_RULE:
            conclusion = c + (BOT_F,)
        elif rule == PAR_RULE:
            _check_rule(rule, arg, len(c))
            conclusion = c[:-2] + (par_f(c[-2], c[-1]),)
        else:
            c2 = premises[1].conclusion
            _check_rule(rule, arg, len(c), c[-1] if c else None, c2[0] if c2 else None)
            joined = (tensor_f(c[-1], c2[0]),) if rule == TENSOR_RULE else ()
            conclusion = c[:-1] + joined + c2[1:]
        count, key = 1, (rule, arg)
        for q in premises:
            count += q._rule_count
            key += (q._hash,)
        _set_length(self, len(conclusion))
        _set_rule_count(self, count)
        _set_hash(self, hash(key))
        _set_conclusion(self, conclusion)

    def __setattr__(self, name, value):
        raise AttributeError(f"SequentProof is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"SequentProof is immutable: cannot delete {name!r}")

    @property
    def conclusion(self) -> tuple[Formula, ...]:
        """The sequent the rule derives.  An exchange derives it on first
        read, applying the swaps of the exchanges down to the nearest
        conclusion known to one list, and keeps it."""
        c = self._conclusion
        if c is None:
            swaps, p = [], self
            while p._conclusion is None:
                swaps.append(p.arg)
                p = p.premises[0]
            c = list(p._conclusion)
            for i in reversed(swaps):
                c[i], c[i + 1] = c[i + 1], c[i]
            c = tuple(c)
            _set_conclusion(self, c)
        return c

    def __eq__(self, other):
        if not isinstance(other, SequentProof):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            p, q = stack.pop()
            if p is q:
                continue
            if (p._hash != q._hash or p.rule != q.rule or p.arg != q.arg
                    or len(p.premises) != len(q.premises)):
                return False
            stack.extend(zip(p.premises, q.premises))
        return True

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuilt through the constructor, so the hash is this process's
        return SequentProof, (self.rule, self.premises, self.arg)

    def rule_count(self) -> int:
        return self._rule_count

    def subproofs(self):
        """Every subproof, this one first, in depth-first pre-order."""
        stack = [self]
        while stack:
            p = stack.pop()
            yield p
            stack.extend(reversed(p.premises))

    def __repr__(self):
        return f"SequentProof({format_proof_expr(self)})"


# the slot setters, which bypass the immutable __setattr__
(_set_rule, _set_premises, _set_arg, _set_length, _set_rule_count, _set_hash,
 _set_conclusion) = (SequentProof.__dict__[slot].__set__ for slot in SequentProof.__slots__)


def ax_rule(a: Formula) -> SequentProof:
    return SequentProof(AX_RULE, (), a)


def one_rule() -> SequentProof:
    return SequentProof(ONE_RULE)


def bot_rule(p: SequentProof) -> SequentProof:
    return SequentProof(BOT_RULE, (p,))


def par_rule(p: SequentProof) -> SequentProof:
    return SequentProof(PAR_RULE, (p,))


def tensor_rule(p1: SequentProof, p2: SequentProof) -> SequentProof:
    return SequentProof(TENSOR_RULE, (p1, p2))


def cut_rule(a: Formula, p1: SequentProof, p2: SequentProof) -> SequentProof:
    return SequentProof(CUT_RULE, (p1, p2), a)


def ex_rule(position: int, p: SequentProof) -> SequentProof:
    return SequentProof(EX_RULE, (p,), position)


def exchange_positions(current: list, target) -> list[int]:
    """The positions of the adjacent exchanges, first applied first, that
    put the items of the list `current` in the order of `target`, a
    sequence of the same items; `current` is left in that order.  Each
    target item in turn moves down from where it is to its place."""
    run: list[int] = []
    for i, want in enumerate(target):
        if current[i] != want:
            j = current.index(want, i)
            if j == i + 1:  # one exchange, the commonest move
                run.append(i)
                current[j] = current[i]
                current[i] = want
            else:
                run += range(j - 1, i - 1, -1)
                del current[j]
                current.insert(i, want)
    return run


def exchange_to(p: SequentProof, order: list[int]) -> SequentProof:
    """Compose adjacent exchanges so the i-th formula of the result is the
    order[i]-th formula of p's conclusion."""
    if sorted(order) != list(range(p.length)):
        raise ProofBuildError("exchange target is not a permutation")
    for position in exchange_positions(list(range(p.length)), order):
        p = ex_rule(position, p)
    return p


def _walk(proof: SequentProof, add) -> None:
    """Hand each rule of a proof tree to `add(rule, arg)`, premises first
    and left to right: the tree's rule stream, as `_read_rules` hands a
    text's."""
    # the reverse of a pre-order pushing premises in order is a post-order
    order, stack = [], [proof]
    while stack:
        p = stack.pop()
        order.append(p)
        stack.extend(p.premises)
    for p in reversed(order):
        add(p.rule, p.arg)


# -- text format -------------------------------------------------------------


class _ExHeads(dict):
    """The text "(ex N " that opens an exchange, by its 0-based position,
    made on first use."""

    def __missing__(self, position):
        head = self[position] = f"(ex {position + 1} "
        return head


def text_writer():
    """The one writer of the proof text format: a sink of rules in print
    order, which is depth-first pre-order, premises left to right.

    `add(rule, arg)` takes each rule but an exchange, and `exchange(run)`
    a run of nested exchanges, given by their 0-based positions outermost
    first.  Each rule is closed by its arity, as `_read_rules` closes it:
    an ax or one rule ends the premises it is the last rule of.  `text()`
    returns the s-expression.

    The writer checks nothing: its rules come from a proof tree or from the
    sequentialization skeleton, and `_check_rule` has checked both.
    """
    out: list[str] = []
    owed = [0]  # per open premise, the ')' of the rules opened in it
    second: list[bool] = []  # per open binary rule, whether it reads its second premise
    # each rule's arity and its text up to its argument or premises, or whole for one
    heads = {rule: (n, f"({rule} " if n else f"({rule})") for rule, n in _ARITY.items()}
    ex_head = _ExHeads().__getitem__

    def add(rule, arg):
        n, head = heads[rule]
        if arg is None:
            out.append(head)
        else:  # an ax or cut formula
            out.append(f'({rule} "{format_formula(arg)}"{" " if n else ")"}')
        if n:
            owed[-1] += 1
            if n == 2:
                owed.append(0)
                second.append(False)
            return
        while True:
            n = owed[-1]
            if n:
                out.append(")" * n)
            if not second:
                return
            if not second[-1]:  # the first premise ends: the second starts
                second[-1] = True
                owed[-1] = 0
                out.append(" ")
                return
            second.pop()
            owed.pop()

    def exchange(run):
        out.extend(map(ex_head, run))
        owed[-1] += len(run)

    def text() -> str:
        return "".join(out)

    return add, exchange, text


def _proof_stack():
    """The one stack step of both tree builders: `close(rule, arg)` builds
    a rule by its constructor over the latest proofs of the list `built`,
    which are its premises, in their place.  Returns `close` and `built`."""
    built: list[SequentProof] = []

    def close(rule, arg):
        n = _ARITY[rule]
        if n == 2:
            second = built.pop()
            built[-1] = SequentProof(rule, (built[-1], second), arg)
        elif n:
            built[-1] = SequentProof(rule, (built[-1],), arg)
        else:
            built.append(SequentProof(rule, (), arg))

    return close, built


def tree_builder():
    """The text writer's sink interface, building the proof tree instead:
    `add` and `exchange` take rules in print order, each rule is built by
    its constructor as soon as its last premise is, and `proof()` returns
    the root."""
    close, built = _proof_stack()
    pending: list[list] = []  # open rules: [rule, arg, premises still missing]

    def add(rule, arg):
        if _ARITY[rule]:
            pending.append([rule, arg, _ARITY[rule]])
            return
        close(rule, arg)
        while pending:
            top = pending[-1]
            top[2] -= 1
            if top[2]:
                break
            pending.pop()
            rule, arg = top[0], top[1]
            if rule == EX_RULE:  # a run, built innermost first in place
                p, make = built[-1], SequentProof
                for position in reversed(arg):
                    p = make(rule, (p,), position)
                built[-1] = p
            else:
                close(rule, arg)

    def exchange(run):
        pending.append([EX_RULE, run, 1])

    def proof() -> SequentProof:
        return built[-1]

    return add, exchange, proof


def format_proof_expr(p: SequentProof) -> str:
    """The s-expression of a proof: the text writer fed by a pre-order walk
    on an explicit stack, so that proofs nested deeper than the
    interpreter's stack still print."""
    add, exchange, text = text_writer()
    stack = [p]
    while stack:
        q = stack.pop()
        rule = q.rule
        if rule == EX_RULE:
            run = []
            while rule == EX_RULE:
                run.append(q.arg)
                q = q.premises[0]
                rule = q.rule
            exchange(run)
        add(rule, q.arg)
        if q.premises:
            stack += q.premises[::-1]
    return text()


def proof_file(expr: str, frag: Fragment) -> str:
    """The proof file format: a fragment header, then one s-expression."""
    return f"fragment: {frag.value}\n{expr}\n"


def format_proof(p: SequentProof, frag: Fragment = Fragment.MLLU) -> str:
    return proof_file(format_proof_expr(p), frag)


# a parenthesis, a quoted string, a quote never closed, or a word; \s is
# exactly str.isspace, so only whitespace falls between the tokens
_PROOF_TOKEN = re.compile(r'[()]|"[^"]*"|"|[^\s()]+')


def _token_text(tok) -> str:
    """A token as errors name it: a quoted string as ('str', its text)."""
    return repr(("str", tok[1:-1]) if tok and tok[0] == '"' else tok)


def _read_rules(text: str, add) -> Fragment:
    """Read the proof file format, a fragment header then one s-expression,
    calling `add(rule, arg)` for each rule as its ')' closes, so premises
    come first; returns the header's fragment.  A ProofBuildError from
    `add` is reported at the rule's name."""
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

    def error(message: str, i: int) -> ParseError:
        """The error at the i-th token, or just past the text; the offsets
        are found only here."""
        starts = [m.start() for m in _PROOF_TOKEN.finditer(body)] + [len(body)]
        return ParseError(message, starts[i] + 1)

    tokens: list = _PROOF_TOKEN.findall(body)
    if '"' in tokens:
        raise error("unterminated string", tokens.index('"'))
    # every quoted string of a proof is an ax or cut formula
    formulas = parse_formulas([tok[1:-1] for tok in tokens if tok[0] == '"'])
    tokens.append(None)
    positions: dict = {}  # each distinct ex position token, read once

    # The rules whose premises are still being read wait on an explicit
    # stack, with the number of premises each still lacks, so nesting is
    # bounded by memory only.
    pending: list[tuple] = []
    i = 0  # the next token
    while True:
        # '(', a rule name and its argument
        if tokens[i] != "(":
            raise error("expected '('", i)
        head, at = tokens[i + 1], i + 1
        i += 2
        arg = None
        if head in (AX_RULE, CUT_RULE, EX_RULE):
            tok = tokens[i]
            i += 1
            if head == EX_RULE:
                arg = positions.get(tok)
                if arg is None:
                    try:
                        arg = positions[tok] = read_int(tok) - 1
                    except (TypeError, ValueError):
                        raise error("ex takes a 1-based position", i - 1) from None
            elif tok is None or tok[0] != '"':
                raise error(f"{head} takes a quoted formula", i - 1)
            else:
                arg = formulas[tok[1:-1]]
                if isinstance(arg, ParseError):
                    raise arg
        elif head not in _ARITY:
            raise error(f"unknown rule {_token_text(head)}", at)
        missing = _ARITY[head]
        # close each rule whose premises are all read, innermost first
        while not missing:
            try:
                add(head, arg)
            except ProofBuildError as exc:
                raise error(str(exc), at) from None
            if tokens[i] != ")":
                raise error("expected ')'", i)
            i += 1
            if not pending:
                break
            head, at, arg, missing = pending.pop()
            missing -= 1
        else:  # the rule waits for its next premise
            pending.append((head, at, arg, missing))
            continue
        break  # the root rule is closed
    if tokens[i] is not None:
        raise error(f"unexpected {_token_text(tokens[i])}", i)
    return frag


def parse_proof(text: str) -> tuple[Fragment, SequentProof]:
    """Read the proof file format into a proof tree."""
    close, built = _proof_stack()
    frag = _read_rules(text, close)
    return frag, built[0]


# -- desequentialization -----------------------------------------------------


@dataclass
class DeseqResult:
    """A desequentialized net, which reports the fragment discipline of the
    proof it was built from."""

    ps: ProofStructure

    def report(self, frag: Fragment) -> ValidationReport:
        """The fragment discipline of the proof this net was built from:
        every formula inside `frag`, and no ax or cut rule in icomll.

        The arc types are the formulas the rules introduce, each arc's tail
        is its rule's node, labelled by the rule's name, and node and arc
        ids grow in rule order.  So the lines sorted by id give each rule's
        icomll ax or cut line, at its node, then one line per failing
        formula it introduces, at its arc (an ax's A, then A^).  One fold
        over the arc types gives the verdicts; each failing formula is
        formatted once, and a net inside `frag` builds no message."""
        ps = self.ps
        failing = {f: f"formula {format_formula(f)} outside {frag.value}"
                   for f, (ok, _) in in_fragments(ps.types.values(), frag).items() if not ok}
        nodes, arcs = ps.nodes, ps.arcs
        lines = [(a, nodes[arcs[a][0]], failing[f])
                 for a, f in ps.types.items() if f in failing] if failing else []
        if frag is Fragment.ICOMLL:
            lines += [(n, rule, f"{rule} rule is not available in icomll")
                      for n, rule in nodes.items() if rule in (AX, CUT)]
        return ValidationReport([("fragment", rule, message)
                                 for _, rule, message in sorted(lines)])


def _net_builder():
    """The one net builder: `add(rule, arg)` applies one closed rule to the
    subproofs built so far, premises first, and `finish()` returns the net.

    Axioms and units become single nodes, tensor and cut join the two
    latest sub-structures, par and bot extend the latest one, and an
    exchange swaps two of its conclusions in place.  Node and arc ids come
    from one counter: each rule takes its node, then its dots, then its
    new arcs.  Each new arc's type is the formula the rule introduces, and
    `add` raises the proof constructor's ProofBuildError on an ill-formed
    rule.
    """
    nodes: dict[int, str] = {}
    arcs: dict[int, tuple[int, int]] = {}
    premise_order: dict[int, tuple[int, int]] = {}
    types: dict[int, Formula] = {}
    built: list[list[int]] = []  # conclusions of the finished subproofs
    next_id = 0

    def plug(arc, node):
        """Re-head a conclusion arc from its dot onto `node`."""
        tail, dot = arcs[arc]
        del nodes[dot]
        arcs[arc] = (tail, node)

    def conclude(node, dot, arc, f) -> int:
        nodes[dot] = DOT
        arcs[arc] = (node, dot)
        types[arc] = f
        return arc

    def add(rule, arg):
        nonlocal next_id
        n = next_id  # the rule's node, then its dots, then its new arcs
        if rule == EX_RULE:
            c = built[-1]
            _check_rule(rule, arg, len(c))
            c[arg], c[arg + 1] = c[arg + 1], c[arg]
            return
        nodes[n] = rule
        if rule == AX_RULE:
            built.append([conclude(n, n + 1, n + 3, arg),
                          conclude(n, n + 2, n + 4, negate(arg))])
            next_id = n + 5
            return
        if rule == ONE_RULE:
            built.append([])
            f = ONE_F
        elif rule == BOT_RULE:
            f = BOT_F
        elif rule == PAR_RULE:
            c = built[-1]
            _check_rule(rule, arg, len(c))
            right, left = c.pop(), c.pop()
            plug(left, n)
            plug(right, n)
            premise_order[n] = (left, right)
            f = par_f(types[left], types[right])
        else:  # tensor and cut join the two latest structures
            c1, c2 = built[-2:]
            _check_rule(rule, arg, len(c1), types[c1[-1]] if c1 else None,
                        types[c2[0]] if c2 else None)
            built.pop()
            left, right = c1.pop(), c2[0]
            plug(left, n)
            plug(right, n)
            if rule == CUT_RULE:
                next_id = n + 1
            else:
                premise_order[n] = (left, right)
                c1.append(conclude(n, n + 1, n + 2, tensor_f(types[left], types[right])))
                next_id = n + 3
            c1 += c2[1:]
            return
        built[-1].append(conclude(n, n + 1, n + 2, f))
        next_id = n + 3

    def finish() -> DeseqResult:
        ps = ProofStructure._adopt(nodes, arcs, premise_order, tuple(built.pop()), types, {})
        return DeseqResult(ps)

    return add, finish


def _self_check(ps: ProofStructure) -> None:
    """A desequentialized net is valid and passes accw."""
    report = validate(ps)
    if not report.ok:
        raise AssertionError(f"desequentialization failed validation: {report}")
    if not check(ps, "accw").holds:
        raise AssertionError("desequentialization violates the component-count criterion")


def desequentialize(proof: SequentProof, verify: bool = True) -> DeseqResult:
    """Build the typed structure of a proof, feeding the net builder from a
    walk of the tree.

    With `verify`, the result is validated and must pass the acyclicity-
    plus-component-count criterion; `report` on the result decides its
    fragment.
    """
    add, finish = _net_builder()
    _walk(proof, add)
    result = finish()
    if verify:
        _self_check(result.ps)
    return result


def desequentialize_text(text: str, verify: bool = True) -> tuple[Fragment, DeseqResult]:
    """The fragment of a proof text and the typed structure of its proof,
    read straight into the net builder with no proof tree: the same
    result as `desequentialize(parse_proof(text)[1], verify)`, and the same
    ParseError on a text `parse_proof` rejects.  `report` on the result
    reports the proof's fragment discipline.
    """
    add, finish = _net_builder()
    frag = _read_rules(text, add)
    result = finish()
    if verify:
        _self_check(result.ps)
    return frag, result


def check_proof(proof: SequentProof, frag: Fragment = Fragment.MLLU) -> ValidationReport:
    """The fragment discipline of a proof tree: every formula inside `frag`,
    and no axiom or cut rule in icomll, reported off its net."""
    return desequentialize(proof, verify=False).report(frag)
