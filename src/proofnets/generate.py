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
proof's cut tests negate conclusions and a structure's the type of an open
arc; the run holds each negation it makes, so `negate` stops at the
negations known and negates each subformula once, where a negation dropped
after its test was redone.  The open arcs, whose ids grow, stay sorted, so
closing one is a bisection.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass

from .formulas import (BOT as BOT_F, Formula, Fragment, ONE as ONE_F, _fragment_test,
                       atom, negate, par as par_f, tensor as tensor_f)
from .sequent import EX_RULE, SequentProof, _append, _Buffer, _view
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


def _entry(rule: str, arg=None) -> _Buffer:
    """A pool entry of one ax or one rule."""
    p = _Buffer()
    p.add(rule, arg)
    return p


def _leaf(rng: random.Random, frag: Fragment) -> _Buffer:
    if frag is Fragment.ICOMLL:
        return _entry(ONE)
    if frag is Fragment.MLL:
        return _entry(AX, atom(rng.choice(_ATOM_NAMES), dual=rng.random() < 0.5))
    roll = rng.random()
    if roll < 0.45:
        return _entry(ONE)
    if roll < 0.9 or frag in (Fragment.IMLL,):
        return _entry(AX, atom(rng.choice(_ATOM_NAMES), dual=rng.random() < 0.5))
    return _entry(AX, ONE_F)  # the 1/bot axiom pair


def random_proof(params: GenParams) -> SequentProof:
    """A valid proof in the requested fragment, deterministic per seed."""
    frag = params.fragment or Fragment.MLLU
    rng = random.Random(params.seed)
    pool = [_leaf(rng, frag)]
    rules = len(pool[0].rules)
    fragment_ok = _fragment_test(frag)
    negations: dict[Formula, Formula] = {}

    def dual(f):  # held for the run, so the cut tests negate each conclusion once
        return negations.get(f) or negations.setdefault(f, negate(f))

    while rules < params.max_rules:
        action = rng.random()
        grown = None
        if action < 0.15 and len(pool) < 4:
            grown = _leaf(rng, frag)
            pool.append(grown)
        elif action < 0.35 and frag is not Fragment.MLL:
            grown = pool[rng.randrange(len(pool))]
            grown.add(BOT, None)
        elif action < 0.60:
            p = pool[rng.randrange(len(pool))]
            if len(p.built[-1]) >= 2:
                grown = _try_par(rng, p, fragment_ok)
        elif action < 0.85 and len(pool) >= 2:
            i, j = rng.sample(range(len(pool)), 2)
            grown = _try_tensor(rng, pool[i], pool[j], fragment_ok)
            if grown is not None:
                pool.pop(j)
        elif rng.random() < params.cut_probability and frag is not Fragment.ICOMLL:
            if len(pool) >= 2:
                i, j = rng.sample(range(len(pool)), 2)
            else:
                i, j = 0, None
            grown, consumed = _try_cut(rng, pool[i],
                                       pool[j] if j is not None else None,
                                       fragment_ok, dual)
            if consumed:
                pool.pop(j)
        elif len(pool) and len(pool[-1].built[-1]) >= 2:
            grown = pool[-1]
            grown.add(EX_RULE, rng.randrange(len(grown.built[-1]) - 1))
        if grown is None:
            rules += 1  # no applicable move this round; spend budget anyway
        else:
            rules = max(rules + 1, sum([len(p.rules) for p in pool]))
    best = max(pool, key=lambda q: len(q.rules))
    return _view(best, len(best.rules))


def _join(rule: str, arg, p1: _Buffer, i: int, p2: _Buffer, j: int) -> _Buffer:
    """p1, its formula at i moved last, joined in place to p2's at j."""
    p1.exchange(range(i, len(p1.built[-1]) - 1))
    p2.exchange(range(j - 1, -1, -1))
    _append(p1, p2, len(p2.rules))
    p1.add(rule, arg)
    return p1


def _try_par(rng, p, fragment_ok):
    c = p.built[-1]
    k = len(c)
    i, j = rng.randrange(k), rng.randrange(k)
    if i == j or not fragment_ok(par_f(c[i], c[j])):
        return None
    p.exchange(range(i, k - 1))
    p.exchange(range(j - 1 if j > i else j, k - 1))
    p.add(PAR, None)
    return p


def _try_tensor(rng, p1, p2, fragment_ok):
    c1, c2 = p1.built[-1], p2.built[-1]
    i, j = rng.randrange(len(c1)), rng.randrange(len(c2))
    if not fragment_ok(tensor_f(c1[i], c2[j])):
        return None
    return _join(TENSOR, None, p1, i, p2, j)


def _try_cut(rng, p1, p2, fragment_ok, dual):
    c1 = p1.built[-1]
    if p2 is not None:
        positions: dict[Formula, list[int]] = {}  # where each formula concludes p2
        for j, b in enumerate(p2.built[-1]):
            positions.setdefault(b, []).append(j)
        # every pooled conclusion is inside the fragment, so each pair is
        pairs = [(i, j) for i, a in enumerate(c1) for j in positions.get(dual(a), ())]
        if pairs:
            i, j = rng.choice(pairs)
            return _join(CUT, c1[i], p1, i, p2, j), True
    # no dual pair available: cut against a fresh axiom instead
    candidates = [i for i, a in enumerate(c1) if fragment_ok(dual(a))]
    if not candidates:
        return None, False
    i = rng.choice(candidates)
    return _join(CUT, c1[i], p1, i, _entry(AX, dual(c1[i])), 0), False


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
