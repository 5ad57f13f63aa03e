"""Scaling families: the shapes that walls and count and clock gates are
stated on, one function per shape, taking its size.  A proof shape returns
a SequentProof, any other a ProofStructure numbered as the net builder
numbers it.  Only `proofnets` is imported, so scripts can use the module
with `PYTHONPATH=src:tests`.  `WALLS` holds, for each wall of the
ROADMAP's table still standing, the family, the operation the table times
on it, a small size and the operation's result there."""

import random

from proofnets import (ProofStructure, SequentProof, atom, ax_rule, bot_rule,
                       canonical_form, canonical_jumps_btenll, check, cut_rule,
                       desequentialize, erasing_nodes, one_rule, par_rule,
                       sequentialize_btenll, sequentialize_icomll, sequentialize_text,
                       tensor_rule)
from proofnets.formulas import BOT, ONE


def _net(p: SequentProof) -> ProofStructure:
    return desequentialize(p, verify=False).ps


def nested_bots(k: int, leaf: SequentProof | None = None) -> SequentProof:
    """k nested bot rules over `leaf`, a one rule by default."""
    p = leaf or one_rule()
    for _ in range(k):
        p = bot_rule(p)
    return p


def par_bot_chain(k: int, leaf: SequentProof | None = None) -> SequentProof:
    """k times a bot rule then a par rule over `leaf`, a one rule by default."""
    p = leaf or one_rule()
    for _ in range(k):
        p = par_rule(bot_rule(p))
    return p


def closed_cuts(k: int, leaf: SequentProof | None = None) -> SequentProof:
    """k nested cuts of a bot against a one over `leaf`, by default a one."""
    p = leaf or one_rule()
    for _ in range(k):
        p = cut_rule(BOT, bot_rule(p), one_rule())
    return p


def jumped_closed_cuts(k: int) -> ProofStructure:
    """The net of `closed_cuts(k)` over an ax, whose canonical btenll jumps
    tie each closed component to the main part."""
    ps = _net(closed_cuts(k, ax_rule(atom("A"))))
    erasing = erasing_nodes(ps)
    return canonical_jumps_btenll(ps, min(n for n, label in ps.nodes.items()
                                          if n not in erasing and label != "dot"))


def tensor_chain(k: int) -> ProofStructure:
    """k tensors, each joining the last axiom to a new one: k nested splits."""
    p = ax_rule(atom("X"))
    for _ in range(k):
        p = tensor_rule(p, ax_rule(atom("X", dual=True)))
    return _net(p)


def one_chain(k: int) -> ProofStructure:
    """k nested tensors over one rules, the icomll form of `tensor_chain`."""
    p = one_rule()
    for _ in range(k):
        p = tensor_rule(p, one_rule())
    return _net(p)


def bot_chain(k: int) -> ProofStructure:
    """A one node and k terminal bots, the least bot last: k nested bot
    rules, each peeled without an exchange."""
    nodes = {0: "one", **{b: "bot" for b in range(1, k + 1)}}
    arcs = {n: (n, k + 1 + n) for n in nodes}
    types = {n: ONE if n == 0 else BOT for n in nodes}
    nodes.update({k + 1 + n: "dot" for n in range(k + 1)})
    return ProofStructure(nodes, arcs, {}, (0, *range(k, 0, -1)), types)


def par_tensor_chain(k: int, joined: bool = False) -> ProofStructure:
    """k `(par (tensor … (ax "Bi")))` rules over an ax, under one bot, which
    `joined` puts under a tensor with a one, failing wten."""
    p = ax_rule(atom("A"))
    for i in range(k):
        p = par_rule(tensor_rule(p, ax_rule(atom(f"B{i}"))))
    p = bot_rule(p)
    return _net(tensor_rule(p, one_rule()) if joined else p)


def leaf_jumped_chain(k: int, joined: bool = False) -> ProofStructure:
    """`par_tensor_chain` with its bot jumping to its least ax, the leaf:
    every par then has two erasing-compatible premises."""
    ps = par_tensor_chain(k, joined)
    (bot,) = ps.bottom_nodes()
    return ps.with_jumps({bot: min(ps.nodes_with_label("ax"))})


def jumped_chain(k: int) -> ProofStructure:
    """`par_tensor_chain(k)` beside an ax whose two conclusions are dots,
    the bot jumping to that ax: a jumped structure that holds cwforall."""
    ps = par_tensor_chain(k)
    ax, arc, (bot,) = ps.fresh_node_id(), ps.fresh_arc_id(), ps.bottom_nodes()
    types = {**ps.types, arc: atom("C"), arc + 1: atom("C", dual=True)}
    return ProofStructure({**ps.nodes, ax: "ax", ax + 1: "dot", ax + 2: "dot"},
                          {**ps.arcs, arc: (ax, ax + 1), arc + 1: (ax, ax + 2)},
                          ps.premise_order, (*ps.conclusions, arc, arc + 1), types, {bot: ax})


def joined_chain(k: int, second=()) -> ProofStructure:
    """The untyped net of `par_bot_chain(k)` over an ax, its two conclusions
    joined under a tensor, so each switching graph has a cycle or too few
    components.  The pars at the indices in `second`, deepest first, list
    their chain premise second, so a cycle must take that premise."""
    ps = _net(par_bot_chain(k, ax_rule(atom("A"))))
    a, b = ps.conclusions
    tensor, joined = ps.fresh_node_id(), ps.fresh_arc_id()
    nodes = {n: label for n, label in ps.nodes.items() if n not in (ps.head(a), ps.head(b))}
    nodes.update({tensor: "tensor", tensor + 1: "dot"})
    arcs = {**ps.arcs, a: (ps.tail(a), tensor), b: (ps.tail(b), tensor),
            joined: (tensor, tensor + 1)}
    order = {**ps.premise_order, tensor: (a, b)}
    pars = ps.par_nodes()
    for i in second:
        order[pars[i]] = order[pars[i]][::-1]
    return ProofStructure(nodes, arcs, order, (joined,))


def half_flipped_chain(k: int) -> ProofStructure:
    """`joined_chain(k)` with about half of its pars, drawn by
    `random.Random(1)`, listing their chain premise second."""
    rng = random.Random(1)
    return joined_chain(k, [i for i in range(k) if rng.random() < 0.5])


# the walls of ROADMAP items 17 (three rows), 4, 8 and 12
WALLS = (
    (tensor_chain, lambda ps: sequentialize_text(ps, "wten")[0], 2,
     'fragment: mllu\n(tensor (ax "X") (tensor (ax "X^") (ax "X^")))\n'),
    (tensor_chain, lambda ps: sequentialize_btenll(ps, 0)[0].rule_count(), 2, 5),
    (one_chain, lambda ps: sequentialize_icomll(ps)[0].rule_count(), 2, 5),
    (jumped_closed_cuts, canonical_form, 2,
     b"g2|c|ndot|au:A|nax|A0|ad:A^|ndot|A1|c|N2|k|nbot|ad:bot|ncut|A2|au:one|none|A3"
     b"|k|nbot|ad:bot|ncut|A4|au:one|none|A5|J3>1|J6>1|z9,6"),
    (jumped_chain, lambda ps: check(ps, "cwforall", 30).holds, 4, True),
    (half_flipped_chain, lambda ps: check(ps, "accw").holds, 8, False),
)
