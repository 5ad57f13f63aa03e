"""Sequent-calculus proof streams, rule checking and desequentialization.

The rules are defined once: each but the exchange is named by the label
of the node desequentialization makes of it, `_ARITY` gives every rule's
premise count, and `_check_rule` checks a rule instance for the proof
buffers, the net builder and the sequentialization skeleton alike.

A proof is its rule stream, premises first.  A `_Buffer` keeps streams as
parallel arrays of rule labels, args, subtree sizes and conclusion
lengths, so a sub-proof is the slice that ends at its rule (J. I. Munro
and V. Raman, SIAM J. Comput. 31(3), 2001), and checks and applies each
rule it appends on the conclusion lists it keeps, so every proof, built by
hand, read from a file or generated, is correct by construction.  A
`SequentProof` is an immutable view of one slice.

One token loop, `_read_rules`, reads the proof text format and hands each
rule to a sink when its ')' closes, so premises come first: `parse_proof`
fills one buffer, and `desequentialize_text` feeds the net builder.

One text writer, `text_writer`, prints the format.  It takes rules in
print order, each rule before its premises, and runs of exchanges at
once, and closes each rule by its arity as the token loop does.  It has
two drivers: `format_proof` scans a proof's arrays, and the
sequentialization skeleton hands it each move's rules as it makes the
move, so a structure is printed with no proof in between.  `_proof_sink`
takes the same stream into a buffer for the skeleton's public callers.
Exchanges turn a permutation into adjacent swaps in one place,
`exchange_positions`, which `exchange_to` and the skeleton share.

One net builder, `_net_builder`, turns rules into a typed structure one
closed rule at a time: axioms and units become single nodes, tensor and
cut join the two latest sub-structures, par and bot extend the latest
one, and an exchange is one swap in place in the open conclusion list.
Each new arc's type is the formula the rule introduces, so no formula is
read back from a sequent, and the builder checks each rule on its own
conclusion lists.  Two streams feed it: `desequentialize` scans a proof's
arrays, and `desequentialize_text` runs the token loop, so a proof text
becomes a net with no proof in between.  The net's arc types are exactly
the formulas the rules introduce, each arc's tail is the node of the rule
that introduces it, and node and arc ids grow in rule order, so
`DeseqResult.report` reads the fragment discipline (formulas inside the
fragment, no ax or cut rule in icomll) off the net alone, in id order:
each failing formula once, at the rule that introduces it.  `check_proof`
is that report on a proof's net; `sequentialize.nets_equivalent` raises it.
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


class _Buffer:
    """Post-order arrays of rule labels, args, subtree sizes and conclusion
    lengths, the proof ending at e being the slice [e - sizes[e - 1], e),
    and `built`, the conclusion lists of the latest complete proofs, on
    which `add` checks and applies a rule; `exchange` appends a run, first
    applied first, unchecked."""

    __slots__ = ("rules", "args", "sizes", "lengths", "built")

    def __init__(self):
        self.rules, self.args, self.sizes, self.lengths, self.built = [], [], [], [], []

    def add(self, rule, arg) -> None:
        built, sizes = self.built, self.sizes
        if rule == AX_RULE or rule == ONE_RULE:
            c = [arg, negate(arg)] if rule == AX_RULE else [ONE_F]
            built.append(c)
            size = 1
        elif _ARITY[rule] == 1:
            c = built[-1]
            _check_rule(rule, arg, len(c))
            if rule == EX_RULE:
                c[arg], c[arg + 1] = c[arg + 1], c[arg]
            elif rule == PAR_RULE:
                c[-2:] = [par_f(c[-2], c[-1])]
            else:
                c.append(BOT_F)
            size = sizes[-1] + 1
        else:  # tensor and cut join the two latest proofs
            c, c2 = built[-2:]
            _check_rule(rule, arg, len(c), c[-1] if c else None, c2[0] if c2 else None)
            built.pop()
            if rule == TENSOR_RULE:
                c[-1] = tensor_f(c[-1], c2[0])
            else:
                c.pop()
            c += c2[1:]
            size = sizes[-1 - sizes[-1]] + sizes[-1] + 1  # both premises' and its own
        self.rules.append(rule)
        self.args.append(arg)
        sizes.append(size)
        self.lengths.append(len(c))

    def exchange(self, run) -> None:
        if not run:  # the generator's moves often need no exchange
            return
        c, base = self.built[-1], self.sizes[-1]
        for i in run:
            c[i], c[i + 1] = c[i + 1], c[i]
        self.rules.extend([EX_RULE] * len(run))
        self.args.extend(run)
        self.sizes.extend(range(base + 1, base + 1 + len(run)))
        self.lengths.extend([len(c)] * len(run))


def _append(buf: _Buffer, src: _Buffer, end: int) -> None:
    """Copy the proof that ends `src` at `end` onto `buf`, in bulk."""
    start = end - src.sizes[end - 1]
    buf.rules.extend(src.rules[start:end])
    buf.args.extend(src.args[start:end])
    buf.sizes.extend(src.sizes[start:end])
    buf.lengths.extend(src.lengths[start:end])
    buf.built.append(list(src.built[-1]))


def _premise_ends(buf: _Buffer, end: int) -> tuple[int, ...]:
    """The ends of the premises of the rule at `end - 1`, left to right."""
    top = end - 1
    n = _ARITY[buf.rules[top]]
    return (top - buf.sizes[top - 1], top) if n == 2 else (top,) * n


class SequentProof:
    """A rule instance over the sub-proofs of its premises: the slice of a
    buffer that ends at its rule.  `arg` is the axiom or cut formula or the
    0-based exchange position, and None for the other rules.

    The constructor raises ProofBuildError on an unknown rule, a wrong
    premise count or an ill-formed instance.  It appends in place when the
    first premise ends its buffer, and copies that premise otherwise, and a
    second premise always; a rejected rule leaves the first premise's
    buffer as it was.  `length` reads one array entry.  Equality, the hash
    and pickling read the slice, so none recurses."""

    __slots__ = ("_buf", "_end")

    rule = property(lambda p: p._buf.rules[p._end - 1])
    arg = property(lambda p: p._buf.args[p._end - 1])
    cut_formula = property(lambda p: p.arg if p.rule == CUT_RULE else None)
    position = property(lambda p: p.arg if p.rule == EX_RULE else None)

    def __new__(cls, rule: str, premises=(), arg=None):
        premises = [p._ending() for p in premises]
        arity = _ARITY.get(rule)
        if arity is None:
            raise ProofBuildError(f"unknown rule {rule!r}")
        if len(premises) != arity:
            raise ProofBuildError(f"{rule} rule has {len(premises)} premise(s), "
                                  f"expected {arity}")
        buf = premises[0]._buf if premises else _Buffer()
        if arity == 2:
            end = len(buf.rules)
            _append(buf, premises[1]._buf, premises[1]._end)
            try:
                buf.add(rule, arg)
            except ProofBuildError:
                # drop the copy, so that the first premise still ends the buffer
                for entries in (buf.rules, buf.args, buf.sizes, buf.lengths):
                    del entries[end:]
                buf.built.pop()
                raise
        else:
            buf.add(rule, arg)
        return _view(buf, len(buf.rules))

    def __setattr__(self, name, value):
        raise AttributeError(f"SequentProof is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"SequentProof is immutable: cannot delete {name!r}")

    def _stream(self) -> tuple[list, list]:
        """The proof's rule labels and args, in post-order."""
        buf, end = self._buf, self._end
        start = end - buf.sizes[end - 1]
        return buf.rules[start:end], buf.args[start:end]

    def _ending(self) -> SequentProof:
        """This proof if it ends its buffer, else a copy that ends a new one."""
        return self if self._end == len(self._buf.rules) else _replayed(*self._stream())

    conclusion = property(lambda p: tuple(p._ending()._buf.built[-1]),
                          doc="The buffer's conclusion list when the proof ends its "
                              "buffer; otherwise the slice is replayed, in time "
                              "linear in the rule count.")
    length = property(lambda p: p._buf.lengths[p._end - 1])
    premises = property(lambda p: tuple(_view(p._buf, e) for e in _premise_ends(p._buf, p._end)))

    def __eq__(self, other):
        if not isinstance(other, SequentProof):
            return NotImplemented
        return self.rule_count() == other.rule_count() and self._stream() == other._stream()

    def __hash__(self):
        return hash(tuple(map(tuple, self._stream())))

    def __reduce__(self):
        # its rule stream, each rule checked again when it is unpickled
        return _replayed, self._stream()

    def rule_count(self) -> int:
        return self._buf.sizes[self._end - 1]

    def subproofs(self):
        """Every subproof, this one first, in depth-first pre-order."""
        stack = [self]
        while stack:
            p = stack.pop()
            yield p
            stack.extend(reversed(p.premises))

    def __repr__(self):
        return f"SequentProof({_expression(self)})"


# the slot setters, which bypass the immutable __setattr__
_set_buf, _set_end = (SequentProof.__dict__[slot].__set__ for slot in SequentProof.__slots__)


def _view(buf: _Buffer, end: int) -> SequentProof:
    """The proof that ends at `end` in `buf`."""
    p = object.__new__(SequentProof)
    _set_buf(p, buf)
    _set_end(p, end)
    return p


def _replayed(rules, args) -> SequentProof:
    """The proof of a post-order rule stream, in a buffer of its own."""
    buf = _Buffer()
    for rule, arg in zip(rules, args):
        buf.add(rule, arg)
    return _view(buf, len(buf.rules))


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

    The writer checks nothing: its rules come from a proof or from the
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


def _proof_sink():
    """The text writer's sink interface, appending each rule to one buffer
    once its last premise is, a run of exchanges at once; `finish()` views it."""
    buf = _Buffer()
    pending: list[list] = []  # open rules: [rule, arg, premises still missing]

    def add(rule, arg):
        if _ARITY[rule]:
            pending.append([rule, arg, _ARITY[rule]])
            return
        buf.add(rule, arg)
        while pending:
            top = pending[-1]
            top[2] -= 1
            if top[2]:
                break
            pending.pop()
            if top[0] == EX_RULE:  # a run, given outermost first
                buf.exchange(top[1][::-1])
            else:
                buf.add(top[0], top[1])

    def exchange(run):
        pending.append([EX_RULE, run, 1])

    return add, exchange, lambda: _view(buf, len(buf.rules))


def _expression(p: SequentProof) -> str:
    """The s-expression of a proof: its arrays scanned into the text writer
    in print order, on an explicit stack of premise ends."""
    add, exchange, text = text_writer()
    buf, stack = p._buf, [p._end]
    rules, args = buf.rules, buf.args
    while stack:
        top = stack.pop() - 1
        run = []
        while rules[top] == EX_RULE:
            run.append(args[top])
            top -= 1
        exchange(run)
        add(rules[top], args[top])
        stack += reversed(_premise_ends(buf, top + 1))
    return text()


def proof_file(expr: str, frag: Fragment) -> str:
    """The proof file format: a fragment header, then one s-expression."""
    return f"fragment: {frag.value}\n{expr}\n"


def format_proof(p: SequentProof, frag: Fragment = Fragment.MLLU) -> str:
    return proof_file(_expression(p), frag)


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
    """Read the proof file format into one buffer."""
    buf = _Buffer()
    frag = _read_rules(text, buf.add)
    return frag, _view(buf, len(buf.rules))


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
    """Build the typed structure of a proof, feeding the net builder its
    rule stream.

    With `verify`, the result is validated and must pass the acyclicity-
    plus-component-count criterion; `report` on the result decides its
    fragment.
    """
    add, finish = _net_builder()
    for rule, arg in zip(*proof._stream()):
        add(rule, arg)
    result = finish()
    if verify:
        _self_check(result.ps)
    return result


def desequentialize_text(text: str, verify: bool = True) -> tuple[Fragment, DeseqResult]:
    """The fragment of a proof text and the typed structure of its proof,
    read straight into the net builder with no proof: the same
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
    """The fragment discipline of a proof: every formula inside `frag`,
    and no axiom or cut rule in icomll, reported off its net."""
    return desequentialize(proof, verify=False).report(frag)
