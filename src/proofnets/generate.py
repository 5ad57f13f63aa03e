"""Seeded random generation of proofs, structures and proof perturbations.

Everything here is a pure function of its parameters: the same seed gives
the same object on every run and platform, which makes the random property
suites reproducible.  Proof generation is goal-free: it grows a pool of
proofs bottom-up and combines them with rules whose principal formula stays
inside the requested fragment.  Structure generation grows a frontier of
open conclusions and caps them with dots, so it produces valid structures
that need not satisfy any correctness criterion.  Rule perturbation applies
a fixed, deliberately small set of desequentialization-preserving rewrites
and asserts after each one that the desequentialization did not move.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .canonical import iso
from .formulas import (BOT as BOT_F, Formula, Fragment, ONE as ONE_F, atom,
                       in_fragment, negate, par as par_f, tensor as tensor_f)
from .sequent import (BOT_RULE, CUT_RULE, EX_RULE, PAR_RULE, SequentProof,
                      TENSOR_RULE, ax_rule, bot_rule, cut_rule,
                      desequentialize, ex_rule, one_rule, par_rule, tensor_rule)
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
    """Small random formula of the unrestricted language."""
    if depth == 0 or rng.random() < 0.4:
        choice = rng.randrange(3)
        if choice == 0:
            return atom(rng.choice(_ATOM_NAMES), dual=rng.random() < 0.5)
        return ONE_F if choice == 1 else BOT_F
    build = tensor_f if rng.random() < 0.5 else par_f
    return build(random_formula(rng, depth - 1), random_formula(rng, depth - 1))


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

    def fragment_ok(f: Formula) -> bool:
        return in_fragment(f, frag)[0]

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
            if len(p.conclusion) >= 2:
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
        elif len(pool) and len(pool[-1].conclusion) >= 2:
            p = pool[-1]
            position = rng.randrange(len(p.conclusion) - 1)
            grown = ex_rule(position, p)
            pool[-1] = grown
        if grown is None:
            rules += 1  # no applicable move this round; spend budget anyway
        else:
            rules = max(rules + 1, sum(p.rule_count() for p in pool))
    return max(pool, key=lambda q: q.rule_count())


def _bring_last(p: SequentProof, index: int) -> SequentProof:
    for i in range(index, len(p.conclusion) - 1):
        p = ex_rule(i, p)
    return p


def _bring_first(p: SequentProof, index: int) -> SequentProof:
    for i in range(index, 0, -1):
        p = ex_rule(i - 1, p)
    return p


def _try_par(rng, p, fragment_ok):
    k = len(p.conclusion)
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
    i = rng.randrange(len(p1.conclusion))
    j = rng.randrange(len(p2.conclusion))
    a, b = p1.conclusion[i], p2.conclusion[j]
    if not fragment_ok(tensor_f(a, b)):
        return None
    return tensor_rule(_bring_last(p1, i), _bring_first(p2, j))


def _try_cut(rng, p1, p2, fragment_ok):
    if p2 is not None:
        pairs = [(i, j)
                 for i, a in enumerate(p1.conclusion)
                 for j, b in enumerate(p2.conclusion)
                 if b == negate(a) and fragment_ok(a) and fragment_ok(b)]
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
        open_arcs.remove(arc)

    def connective_ok(f):
        return frag is None or in_fragment(f, frag)[0]

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
            if types is None or types[a] == negate(types[b]):
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


# -- proof perturbation --------------------------------------------------------


def _rebuild(p: SequentProof, path: tuple[int, ...], replacement) -> SequentProof:
    """Replace the subproof at `path` (child indices from the root)."""
    spine = [p]
    for i in path:
        spine.append(spine[-1].premises[i])
    q = replacement(spine.pop())
    for i, parent in zip(reversed(path), reversed(spine)):
        premises = list(parent.premises)
        premises[i] = q
        q = SequentProof(parent.rule, premises, parent.arg)
    return q


def _swap_sites(p: SequentProof):
    """Sites where one of the documented rule swaps applies, in pre-order."""
    sites = []
    stack = [((), p)]
    while stack:
        path, p = stack.pop()
        if p.rule in (TENSOR_RULE, CUT_RULE) and p.premises[1].rule == BOT_RULE \
                and len(p.premises[1].conclusion) >= 2:
            sites.append((path, "sink-bot"))
        if p.rule == BOT_RULE and p.premises[0].rule in (TENSOR_RULE, CUT_RULE):
            sites.append((path, "lift-bot"))
        if p.rule == BOT_RULE and p.premises[0].rule == PAR_RULE:
            sites.append((path, "bot-under-par"))
        if p.rule == EX_RULE and p.premises[0].rule == EX_RULE \
                and abs(p.position - p.premises[0].position) >= 2:
            sites.append((path, "ex-commute"))
        if p.rule == EX_RULE and p.premises[0].rule == EX_RULE \
                and p.position == p.premises[0].position:
            sites.append((path, "ex-cancel"))
        if len(p.conclusion) >= 2:
            sites.append((path, "ex-insert"))
        # children pushed last first, so they are visited in order
        stack += [(path + (i,), q) for i, q in reversed(list(enumerate(p.premises)))]
    return sites


def _apply_swap(p: SequentProof, kind: str, rng) -> SequentProof:
    if kind == "sink-bot":
        # join(P, bot(Q))  ->  bot(join(P, Q))
        joiner = tensor_rule if p.rule == TENSOR_RULE else \
            (lambda x, y: cut_rule(p.cut_formula, x, y))
        return bot_rule(joiner(p.premises[0], p.premises[1].premises[0]))
    if kind == "lift-bot":
        # bot(join(P, Q))  ->  join(P, bot(Q))
        inner = p.premises[0]
        joiner = tensor_rule if inner.rule == TENSOR_RULE else \
            (lambda x, y: cut_rule(inner.cut_formula, x, y))
        return joiner(inner.premises[0], bot_rule(inner.premises[1]))
    if kind == "bot-under-par":
        # bot(par(P))  ->  ex(par(ex(ex(bot(P)))))
        inner = p.premises[0].premises[0]
        k = len(inner.conclusion) - 2
        q = bot_rule(inner)
        q = ex_rule(k + 1, q)
        q = ex_rule(k, q)
        q = par_rule(q)
        return ex_rule(k, q)
    if kind == "ex-commute":
        inner = p.premises[0]
        return ex_rule(inner.position, ex_rule(p.position, inner.premises[0]))
    if kind == "ex-cancel":
        return p.premises[0].premises[0]
    # ex-insert
    position = rng.randrange(len(p.conclusion) - 1)
    return ex_rule(position, ex_rule(position, p))


def permute_rules(p: SequentProof, seed: int, rounds: int = 4) -> SequentProof:
    """Apply random desequentialization-preserving rule swaps.

    The swap set is fixed and deliberately smaller than full rule
    permutation: bot rules migrate through tensor, cut and par rules, and
    exchanges commute, cancel or get inserted in cancelling pairs.  After
    each rewrite the desequentializations are checked isomorphic.
    """
    rng = random.Random(seed)
    before = desequentialize(p, verify=False).ps
    current = p
    for _ in range(rounds):
        sites = _swap_sites(current)
        sites = [s for s in sites if s[1] != "ex-insert"] or sites
        if not sites:
            break
        path, kind = sites[rng.randrange(len(sites))]
        candidate = _rebuild(current, path,
                             lambda sub: _apply_swap(sub, kind, rng))
        after = desequentialize(candidate, verify=False).ps
        if not iso(before, after):
            raise AssertionError(f"swap {kind} changed the desequentialization")
        current = candidate
    return current
