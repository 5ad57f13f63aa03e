"""Seeded random generation of proofs and structures.

Everything here is a pure function of its parameters: the same seed gives
the same object on every run and platform, which makes the random property
suites reproducible.  Proof generation is goal-free: it grows a pool of
proofs bottom-up and combines them with rules whose principal formula stays
inside the requested fragment.  Structure generation grows a frontier of
open conclusions and caps them with dots, so it produces valid structures
that need not satisfy any correctness criterion.

Both generators run in time linear in the size they draw.  Each run keeps
one fragment fold table (`formulas._fragment_test`) that every membership
test of the run reads and extends.  Every conclusion of a pooled proof and
every open arc's type is a leaf or a connective the run has tested, so a
new connective is built from two sides already in the table, and one fold
step decides it, where folding each tested formula afresh made a run
quadratic.  A cut also tests negations of conclusions; the subformulas of
those are negations of subformulas in the table, each folded once per run,
so they at most double the steps.  A cut finds its dual pairs through an
index of the second proof's conclusions, not by negating every pair.  A
structure's cut test negates the type of an open arc; the run holds each
negation it makes, so `negate` stops at the negations of the type's sides
and negates each subformula once, where a negation dropped after its test
was redone over the whole type.  The open arcs, whose ids grow, stay
sorted, so closing one is a bisection.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass

from .formulas import (BOT as BOT_F, Formula, Fragment, ONE as ONE_F, _fragment_test,
                       atom, negate, par as par_f, tensor as tensor_f)
from .sequent import (SequentProof, ax_rule, bot_rule, cut_rule, ex_rule, one_rule,
                      par_rule, tensor_rule)
from .structure import (AX, BOT, CUT, DOT, ONE, PAR, TENSOR, ProofStructure,
                        ensure_valid)

_ATOM_NAMES = ("X", "Y", "Z")


@dataclass(frozen=True)
class GenParams:
    fragment: Fragment | None = Fragment.MLLU
    max_rules: int = 12
    max_nodes: int = 12
    cut_probability: float = 0.0
    seed: int = 0


def random_formula(rng: random.Random, depth: int = 2) -> Formula:
    """Small random formula of the unrestricted language.  The draws wait
    on an explicit stack and come as in a recursive descent: above depth 0
    the leaf test, then the connective, then the left side before the right."""
    stack, values = [depth], []  # depths to draw at, connectives to apply
    while stack:
        top = stack.pop()
        if not isinstance(top, int):
            right = values.pop()
            values.append(top(values.pop(), right))
        elif top == 0 or rng.random() < 0.4:
            choice = rng.randrange(3)
            values.append(atom(rng.choice(_ATOM_NAMES), dual=rng.random() < 0.5)
                          if choice == 0 else ONE_F if choice == 1 else BOT_F)
        else:
            stack += (tensor_f if rng.random() < 0.5 else par_f, top - 1, top - 1)
    return values[0]


def _leaf(rng: random.Random, frag: Fragment) -> SequentProof:
    if frag is Fragment.ICOMLL:
        return one_rule()
    if frag is Fragment.MLL:
        return ax_rule(atom(rng.choice(_ATOM_NAMES), dual=rng.random() < 0.5))
    roll = rng.random()
    if roll < 0.45:
        return one_rule()
    if roll < 0.9 or frag in (Fragment.IMLL,):
        return ax_rule(atom(rng.choice(_ATOM_NAMES), dual=rng.random() < 0.5))
    return ax_rule(ONE_F)  # the 1/bot axiom pair


def random_proof(params: GenParams) -> SequentProof:
    """A valid proof in the requested fragment, deterministic per seed."""
    frag = params.fragment or Fragment.MLLU
    rng = random.Random(params.seed)
    pool = [_leaf(rng, frag)]
    rules = pool[0].rule_count()
    fragment_ok = _fragment_test(frag)

    while rules < params.max_rules:
        action = rng.random()
        grown = None
        if action < 0.15 and len(pool) < 4:
            grown = _leaf(rng, frag)
            pool.append(grown)
        elif action < 0.35 and frag is not Fragment.MLL:
            target = rng.randrange(len(pool))
            grown = bot_rule(pool[target])
            pool[target] = grown
        elif action < 0.60:
            target = rng.randrange(len(pool))
            p = pool[target]
            if p.length >= 2:
                grown = _try_par(rng, p, fragment_ok)
                if grown is not None:
                    pool[target] = grown
        elif action < 0.85 and len(pool) >= 2:
            i, j = rng.sample(range(len(pool)), 2)
            grown = _try_tensor(rng, pool[i], pool[j], fragment_ok)
            if grown is not None:
                pool[i] = grown
                pool.pop(j)
        elif rng.random() < params.cut_probability and frag is not Fragment.ICOMLL:
            if len(pool) >= 2:
                i, j = rng.sample(range(len(pool)), 2)
            else:
                i, j = 0, None
            grown, consumed = _try_cut(rng, pool[i],
                                       pool[j] if j is not None else None,
                                       fragment_ok)
            if grown is not None:
                pool[i] = grown
                if consumed:
                    pool.pop(j)
        elif len(pool) and pool[-1].length >= 2:
            p = pool[-1]
            position = rng.randrange(p.length - 1)
            grown = ex_rule(position, p)
            pool[-1] = grown
        if grown is None:
            rules += 1  # no applicable move this round; spend budget anyway
        else:
            rules = max(rules + 1, sum(p.rule_count() for p in pool))
    return max(pool, key=lambda q: q.rule_count())


def _bring_last(p: SequentProof, index: int) -> SequentProof:
    for i in range(index, p.length - 1):
        p = ex_rule(i, p)
    return p


def _bring_first(p: SequentProof, index: int) -> SequentProof:
    for i in range(index, 0, -1):
        p = ex_rule(i - 1, p)
    return p


def _try_par(rng, p, fragment_ok):
    k = p.length
    i, j = rng.randrange(k), rng.randrange(k)
    if i == j:
        return None
    a, b = p.conclusion[i], p.conclusion[j]
    if not fragment_ok(par_f(a, b)):
        return None
    p = _bring_last(p, i)
    p = _bring_last(p, j - 1 if j > i else j)
    return par_rule(p)


def _try_tensor(rng, p1, p2, fragment_ok):
    i = rng.randrange(p1.length)
    j = rng.randrange(p2.length)
    a, b = p1.conclusion[i], p2.conclusion[j]
    if not fragment_ok(tensor_f(a, b)):
        return None
    return tensor_rule(_bring_last(p1, i), _bring_first(p2, j))


def _try_cut(rng, p1, p2, fragment_ok):
    if p2 is not None:
        positions: dict[Formula, list[int]] = {}  # where each formula concludes p2
        for j, b in enumerate(p2.conclusion):
            positions.setdefault(b, []).append(j)
        pairs = [(i, j)
                 for i, a in enumerate(p1.conclusion)
                 for j in positions.get(negate(a), ())
                 if fragment_ok(a) and fragment_ok(p2.conclusion[j])]
        if pairs:
            i, j = rng.choice(pairs)
            a = p1.conclusion[i]
            return cut_rule(a, _bring_last(p1, i), _bring_first(p2, j)), True
    # no dual pair available: cut against a fresh axiom instead
    candidates = [i for i, a in enumerate(p1.conclusion) if fragment_ok(negate(a))]
    if not candidates:
        return None, False
    i = rng.choice(candidates)
    a = p1.conclusion[i]
    return cut_rule(a, _bring_last(p1, i), ax_rule(negate(a))), False


# -- random structures --------------------------------------------------------


def random_ps(params: GenParams) -> ProofStructure:
    """A valid structure, typed when a fragment is given, untyped otherwise.

    Nothing forces the result to satisfy any correctness criterion; that is
    the point of the generator.
    """
    rng = random.Random(params.seed)
    frag = params.fragment
    nodes: dict[int, str] = {}
    arcs: dict[int, tuple[int, int]] = {}
    premise_order: dict[int, tuple[int, int]] = {}
    types = {} if frag is not None else None
    open_arcs: list[int] = []  # conclusion arcs waiting for a head

    def new_node(label):
        n = len(nodes)
        nodes[n] = label
        return n

    def new_arc(tail, f=None):
        a = len(arcs)
        arcs[a] = (tail, -1)  # head patched later
        if types is not None:
            types[a] = f
        open_arcs.append(a)
        return a

    def leaf():
        roll = rng.random()
        if frag is Fragment.ICOMLL:
            label = ONE if roll < 0.5 else BOT
        elif frag is Fragment.MLL:
            label = AX
        else:
            label = AX if roll < 0.4 else (ONE if roll < 0.7 else BOT)
        n = new_node(label)
        if label == AX:
            base = atom(rng.choice(_ATOM_NAMES), dual=rng.random() < 0.5)
            new_arc(n, base)
            new_arc(n, negate(base))
        elif label == ONE:
            new_arc(n, ONE_F)
        else:
            new_arc(n, BOT_F)

    def close(arc, head):
        arcs[arc] = (arcs[arc][0], head)
        # arc ids grow, so open_arcs stays sorted
        del open_arcs[bisect_left(open_arcs, arc)]

    connective_ok = _fragment_test(frag or Fragment.MLLU)
    negations: dict[Formula, Formula] = {}

    def dual(f):
        # held for the run, so negate finds the negations of f's sides and
        # negates each subformula once
        neg = negations[f] = negate(f)
        return neg

    leaf_budget = max(1, params.max_nodes // 3)
    for _ in range(rng.randint(1, leaf_budget)):
        leaf()

    spins = 0
    while len(nodes) < params.max_nodes:
        spins += 1
        if spins > 100 * params.max_nodes:
            break
        roll = rng.random()
        if roll < 0.25 or len(open_arcs) < 2:
            if len(nodes) + 1 >= params.max_nodes:
                break
            leaf()
            continue
        a, b = rng.sample(open_arcs, 2)
        if rng.random() < params.cut_probability:
            if types is None or types[a] == dual(types[b]):
                n = new_node(CUT)
                close(a, n)
                close(b, n)
                continue
        label = TENSOR if rng.random() < 0.5 else PAR
        if types is not None:
            build = tensor_f if label == TENSOR else par_f
            f = build(types[a], types[b])
            if not connective_ok(f):
                continue
        else:
            f = None
        n = new_node(label)
        premise_order[n] = (a, b)
        close(a, n)
        close(b, n)
        new_arc(n, f)

    conclusion_order = list(open_arcs)
    rng.shuffle(conclusion_order)
    for a in conclusion_order:
        d = new_node(DOT)
        arcs[a] = (arcs[a][0], d)
    ps = ProofStructure(nodes, arcs, premise_order, conclusion_order, types)
    ensure_valid(ps)
    return ps
