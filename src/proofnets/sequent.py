"""Sequent-calculus proof trees, rule checking and desequentialization.

Proofs are immutable trees; each node records its rule, its premises, the
rule's argument and the conclusion sequent the rule derives.  The
constructor derives that conclusion itself and rejects ill-formed
instances, so every proof, built by hand or read from a file, is correct by
construction.  `check_proof` adds only the fragment discipline: all
formulas inside the fragment, decided by one fold over every conclusion
formula, and no axiom or cut rules in the constant-only intuitionistic
fragment.

Desequentialization turns a proof into a typed structure rule by rule,
premises first: axioms and units become single nodes, tensor and cut join
the two sub-structures, par and bot extend one, and exchange only reorders
the conclusions.  Each new arc's type is read from the rule's conclusion,
so no formula is built.  Node and arc ids are allocated premises first, so
the ids allocated while a bot rule's premise sub-proof was built form a
range that ends at the bot node.  The result records that range as the bot
rule's scope: its ids that are still nodes are the nodes built from the
premise sub-proof.  The jump-aware relation between proofs and jump-total
structures checks jump targets against those scopes.
Reading, checking, printing and desequentializing walk proofs on explicit
stacks, so their depth is bounded by memory, not by the interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .canonical import isomorphisms
from .errors import ParseError, ProofNetError
from .formulas import (BOT as BOT_F, Formula, Fragment, format_formula,
                       fragment_from_name, in_fragments, negate, parse_formula)
from .formulas import ONE as ONE_F, par as par_f, tensor as tensor_f
from .structure import (AX, BOT, CUT, DOT, ONE, PAR, TENSOR, ProofStructure,
                        ValidationReport, jump_total, validate)
from .switching import check

AX_RULE = "ax"
CUT_RULE = "cut"
EX_RULE = "ex"
TENSOR_RULE = "tensor"
ONE_RULE = "one"
PAR_RULE = "par"
BOT_RULE = "bot"

_ARITY = {AX_RULE: 0, ONE_RULE: 0, CUT_RULE: 2, TENSOR_RULE: 2,
          EX_RULE: 1, PAR_RULE: 1, BOT_RULE: 1}


class ProofBuildError(ProofNetError):
    """A rule was applied to premises of the wrong shape."""


@dataclass(frozen=True, init=False, eq=False)
class SequentProof:
    """A rule instance over the sub-proofs of its premises.

    `arg` is the axiom or cut formula or the 0-based exchange position, and
    None for the other rules.  The constructor derives the conclusion (so it
    takes no part in equality) and raises ProofBuildError on an unknown
    rule, a wrong premise count or an ill-formed instance.  Two proofs are
    equal when their rules, arguments and premises are; the hash is
    computed once, from the stored hashes of the premises, and equality
    walks an explicit stack, so neither recurses with the depth of the
    proof.
    """

    rule: str
    premises: tuple[SequentProof, ...]
    arg: Formula | int | None
    conclusion: tuple[Formula, ...] = field(compare=False)
    cut_formula = property(lambda p: p.arg if p.rule == CUT_RULE else None)
    position = property(lambda p: p.arg if p.rule == EX_RULE else None)

    def __init__(self, rule: str, premises=(), arg=None):
        premises = tuple(premises)
        if rule not in _ARITY:
            raise ProofBuildError(f"unknown rule {rule!r}")
        if len(premises) != _ARITY[rule]:
            raise ProofBuildError(f"{rule} rule has {len(premises)} premise(s), "
                                  f"expected {_ARITY[rule]}")
        c = premises[0].conclusion if premises else ()
        if rule == AX_RULE:
            conclusion = (arg, negate(arg))
        elif rule == ONE_RULE:
            conclusion = (ONE_F,)
        elif rule == BOT_RULE:
            conclusion = c + (BOT_F,)
        elif rule == PAR_RULE:
            if len(c) < 2:
                raise ProofBuildError("par rule needs two formulas to combine")
            conclusion = c[:-2] + (par_f(c[-2], c[-1]),)
        elif rule == EX_RULE:
            if not 0 <= arg <= len(c) - 2:
                raise ProofBuildError(f"exchange position {arg} out of range")
            conclusion = c[:arg] + (c[arg + 1], c[arg]) + c[arg + 2:]
        elif rule == TENSOR_RULE:
            c2 = premises[1].conclusion
            if not c or not c2:
                raise ProofBuildError("tensor rule needs a formula on each side")
            conclusion = c[:-1] + (tensor_f(c[-1], c2[0]),) + c2[1:]
        else:
            c2 = premises[1].conclusion
            if not c or c[-1] is not arg:
                raise ProofBuildError("cut formula must close the first premise")
            if not c2 or c2[0] is not negate(arg):
                raise ProofBuildError("dual of the cut formula must open the second premise")
            conclusion = c[:-1] + c2[1:]
        # the dataclass is frozen: fill its fields past its __setattr__
        vars(self).update(rule=rule, premises=premises, arg=arg, conclusion=conclusion,
                          _hash=hash((rule, arg, premises)))

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
        count, stack = 0, [self]
        while stack:
            count += 1
            stack.extend(stack.pop().premises)
        return count

    def subproofs(self):
        """Every subproof, this one first, in depth-first pre-order."""
        stack = [self]
        while stack:
            p = stack.pop()
            yield p
            stack.extend(reversed(p.premises))

    def __repr__(self):
        return f"SequentProof({format_proof_expr(self)})"


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


def exchange_to(p: SequentProof, order: list[int]) -> SequentProof:
    """Compose adjacent exchanges so the i-th formula of the result is the
    order[i]-th formula of p's conclusion."""
    if sorted(order) != list(range(len(p.conclusion))):
        raise ProofBuildError("exchange target is not a permutation")
    current = list(range(len(p.conclusion)))
    position = list(current)  # position[x] is the index of x in current
    for i, want in enumerate(order):
        j = position[want]
        while j > i:
            p = ex_rule(j - 1, p)
            moved = current[j - 1]
            current[j - 1], current[j] = want, moved
            position[want], position[moved] = j - 1, j
            j -= 1
    return p


def check_proof(proof: SequentProof, frag: Fragment = Fragment.MLLU) -> ValidationReport:
    """The fragment discipline: every conclusion formula inside `frag`, and
    no axiom or cut rule in icomll.  Rules are reported premises first."""
    # the reverse of a pre-order pushing premises in order is a post-order
    order, stack = [], [proof]
    while stack:
        p = stack.pop()
        order.append(p)
        stack.extend(p.premises)
    order.reverse()
    # one fold decides every distinct formula, sharing the subformulas
    verdicts = in_fragments((f for p in order for f in p.conclusion), frag)
    v = []
    for p in order:
        for f in p.conclusion:
            if not verdicts[f][0]:
                v.append(("fragment", p.rule,
                          f"formula {format_formula(f)} outside {frag.value}"))
        if frag is Fragment.ICOMLL and p.rule in (AX_RULE, CUT_RULE):
            v.append(("fragment", p.rule, f"{p.rule} rule is not available in icomll"))
    return ValidationReport(v)


# -- text format -------------------------------------------------------------


def format_proof_expr(p: SequentProof) -> str:
    """The s-expression of a proof, built without recursion so that proofs
    nested deeper than the interpreter's stack still print."""
    out: list[str] = []
    stack: list = [p]
    while stack:
        q = stack.pop()
        if isinstance(q, str):
            out.append(q)
        elif q.rule == AX_RULE:
            out.append(f'(ax "{format_formula(q.conclusion[0])}")')
        elif q.rule == ONE_RULE:
            out.append("(one)")
        else:
            if q.rule == EX_RULE:
                out.append(f"(ex {q.position + 1} ")
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


def format_proof(p: SequentProof, frag: Fragment = Fragment.MLLU) -> str:
    return f"fragment: {frag.value}\n{format_proof_expr(p)}\n"


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
            try:
                arg = int(tok) - 1
            except (TypeError, ValueError):
                raise ParseError("ex takes a 1-based position", at2) from None
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


# -- desequentialization -----------------------------------------------------


@dataclass
class DeseqResult:
    ps: ProofStructure
    bot_scopes: dict[int, range] = field(default_factory=dict)


def desequentialize(proof: SequentProof, frag: Fragment | None = None,
                    verify: bool = True) -> DeseqResult:
    """Build the typed structure of a proof.

    With `verify`, the result is validated (inside `frag` when given) and
    the acyclicity-plus-component-count criterion is checked on it.
    """
    next_id = 0
    nodes: dict[int, str] = {}
    arcs: dict[int, tuple[int, int]] = {}
    premise_order: dict[int, tuple[int, int]] = {}
    types: dict[int, Formula] = {}
    bot_scopes: dict[int, range] = {}

    def fresh():
        nonlocal next_id
        next_id += 1
        return next_id - 1

    def conclude(node, dot_node, f) -> int:
        a = fresh()
        nodes[dot_node] = DOT
        arcs[a] = (node, dot_node)
        types[a] = f
        return a

    def plug(arc, node):
        """Re-head a conclusion arc from its dot onto `node`."""
        tail, dot = arcs[arc]
        del nodes[dot]
        arcs[arc] = (tail, node)

    # A rule with premises is visited twice on an explicit stack: before
    # them, to note where a bot rule's scope starts, and after them, to add
    # its own nodes.  Ids are thus allocated premises first.
    built: list[tuple[int, ...]] = []  # conclusions of the finished subproofs
    stack = [(proof, None)]  # (p, next_id when p's premises began or None)
    while stack:
        p, start = stack.pop()
        if start is None and p.premises:
            stack.append((p, next_id))
            stack.extend([(q, None) for q in reversed(p.premises)])
            continue
        if p.rule == AX_RULE:
            ax, d1, d2 = fresh(), fresh(), fresh()
            nodes[ax] = AX
            built.append((conclude(ax, d1, p.conclusion[0]),
                          conclude(ax, d2, p.conclusion[1])))
        elif p.rule == ONE_RULE:
            one, d = fresh(), fresh()
            nodes[one] = ONE
            built.append((conclude(one, d, ONE_F),))
        elif p.rule == BOT_RULE:
            b, d = fresh(), fresh()
            nodes[b] = BOT
            bot_scopes[b] = range(start, b)
            built.append(built.pop() + (conclude(b, d, BOT_F),))
        elif p.rule == EX_RULE:
            c = list(built.pop())
            i = p.position
            c[i], c[i + 1] = c[i + 1], c[i]
            built.append(tuple(c))
        elif p.rule == PAR_RULE:
            c1 = built.pop()
            left, right = c1[-2], c1[-1]
            node, d = fresh(), fresh()
            for arc in (left, right):
                plug(arc, node)
            nodes[node] = PAR
            premise_order[node] = (left, right)
            built.append(c1[:-2] + (conclude(node, d, p.conclusion[-1]),))
        else:  # binary rules joining two structures
            c2, c1 = built.pop(), built.pop()
            left, right = c1[-1], c2[0]
            node = fresh()
            for arc in (left, right):
                plug(arc, node)
            if p.rule == TENSOR_RULE:
                d = fresh()
                nodes[node] = TENSOR
                premise_order[node] = (left, right)
                a = conclude(node, d, p.conclusion[len(c1) - 1])
                built.append(c1[:-1] + (a,) + c2[1:])
            else:
                nodes[node] = CUT
                built.append(c1[:-1] + c2[1:])

    conclusions = built.pop()
    ps = ProofStructure(nodes, arcs, premise_order, conclusions, types)
    if verify:
        report = validate(ps, frag)
        if not report.ok:
            raise AssertionError(f"desequentialization failed validation: {report}")
        if not check(ps, "accw").holds:
            raise AssertionError("desequentialization violates the component-count criterion")
    return DeseqResult(ps, bot_scopes)


def deseq_relation_holds(proof: SequentProof, ps: ProofStructure) -> bool:
    """Jump-aware correspondence between a proof and a jump-total structure.

    Holds when the jump-stripped structure is isomorphic to the proof's
    desequentialization and some witnessing isomorphism sends every bot
    rule's jump into the image of that rule's premise sub-proof.
    """
    if not jump_total(ps):
        raise ProofNetError("relation requires a jump-total structure")
    d = desequentialize(proof, verify=False)
    stripped = ps.without_jumps()
    for sigma in isomorphisms(d.ps, stripped):
        ok = True
        for b, scope in d.bot_scopes.items():
            image = {sigma[t] for t in scope if t in sigma}
            if ps.jumps[sigma[b]] not in image:
                ok = False
                break
        if ok:
            return True
    return False
