"""Proof permutations and the jump-aware relation between proofs and nets:
test-only code, kept out of the package.

`permute_rules` applies a fixed, deliberately small set of
desequentialization-preserving rule swaps to a proof and checks after each
one that the desequentialization did not move; the tests use it to make
proofs that `equiv` must find equivalent.  `deseq_relation_holds` decides
the jump-aware correspondence between a proof and a jump-total structure,
reading each bot rule's scope off the reference desequentialization.
"""

from __future__ import annotations

import random

from proofnets.canonical import iso, isomorphisms
from proofnets.errors import ProofNetError
from proofnets.sequent import (BOT_RULE, CUT_RULE, EX_RULE, PAR_RULE, TENSOR_RULE,
                               SequentProof, bot_rule, cut_rule, desequentialize,
                               ex_rule, par_rule, tensor_rule)
from proofnets.structure import ProofStructure, jump_total

import reference_desequentialize


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
                and p.premises[1].length >= 2:
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
        if p.length >= 2:
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
        k = inner.length - 2
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
    position = rng.randrange(p.length - 1)
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


# -- the jump-aware relation ---------------------------------------------------


def deseq_relation_holds(proof: SequentProof, ps: ProofStructure) -> bool:
    """Jump-aware correspondence between a proof and a jump-total structure.

    Holds when the jump-stripped structure is isomorphic to the proof's
    desequentialization and some witnessing isomorphism sends every bot
    rule's jump into the image of that rule's premise sub-proof.
    """
    if not jump_total(ps):
        raise ProofNetError("relation requires a jump-total structure")
    net, scopes = reference_desequentialize.desequentialize(proof)
    return any(all(ps.jumps[sigma[b]] in {sigma[t] for t in scope if t in sigma}
                   for b, scope in scopes.items())
               for sigma in isomorphisms(net, ps.without_jumps()))
