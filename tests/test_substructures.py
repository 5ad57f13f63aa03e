"""Sub-structures cut out of a structure: the peel and split parts of the
decomposition oracle and the parts of the canonical-form engine, pinned
field by field on a seeded corpus."""

import hashlib
import random
from itertools import islice

import pytest

from conftest import build_ps
from proofnets.canonical import _parts
from proofnets.formulas import Fragment, format_formula
from proofnets.generate import GenParams, random_proof, random_ps
from proofnets.sequent import desequentialize
from proofnets.sequentialize import canonical_jumps_btenll, split_parts
from proofnets.structure import (BOT, CUT, DOT, PAR, TENSOR, ProofStructure, erasing_nodes,
                                 restrict, validate)
from reference_oracles import _peel, _raw_split_assignments


def corpus():
    """Untyped, mllu and mll structures, most with cuts (so that some
    components are closed), btenll nets with canonical jumps, and a copy
    of each with random jumps from its bots."""
    rng = random.Random(17)
    out = []
    for seed in range(50):
        for frag in (None, Fragment.MLLU, Fragment.MLL):
            out.append(random_ps(GenParams(fragment=frag, max_nodes=6 + seed % 10, seed=seed,
                                           cut_probability=0.5 * (seed % 3 != 0))))
        ps = desequentialize(random_proof(GenParams(fragment=Fragment.BTENLL, max_rules=10,
                                                    seed=seed)), verify=False).ps
        erasing = erasing_nodes(ps)
        anchor = min(n for n, lab in ps.nodes.items() if n not in erasing and lab != DOT)
        out.append(canonical_jumps_btenll(ps, anchor))
    for ps in list(out):
        if ps.bottom_nodes():
            jumped = ps.copy()
            jumped.jumps = {b: rng.choice([n for n in ps.nodes if n != b])
                            for b in ps.bottom_nodes()}
            out.append(jumped)
    return out


def describe(ps):
    """Every field of a structure, ids included, independent of dict order."""
    types = None if ps.types is None else sorted(
        (a, format_formula(f)) for a, f in ps.types.items())
    return repr((sorted(ps.nodes.items()), sorted(ps.arcs.items()),
                 sorted(ps.premise_order.items()), ps.conclusions, types,
                 sorted(ps.jumps.items())))


def peels(ps):
    for n in ps.terminal_nodes():
        if ps.nodes[n] in (BOT, PAR):
            dropped = {n, ps.head(ps.conclusions_of(n)[0])}
            # the oracle peels jump-free structures only; where a jump enters
            # a dropped node, peel the jump-free view, elsewhere keep jumps
            source = ps.without_jumps() if dropped & set(ps.jumps.values()) else ps
            yield _peel(source, n)


def splits(ps):
    for n in ps.terminal_nodes():
        if ps.nodes[n] in (CUT, TENSOR):
            for asn in islice(_raw_split_assignments(ps, n), 4):
                yield from split_parts(ps, asn)


def parts(ps):
    main, closed = _parts(ps)
    yield main
    yield from closed


@pytest.mark.parametrize("cut_out, count, digest", [
    (peels, 312, "61eb45c7147517dbbed3f76e1fdae9c3df2d9e893d5af0f4d10c9cb8b4e513a2"),
    (splits, 900, "c3f243fe4d2d2f247826cf6f46a92ebc16e4e9c759371e3789f6b7e5802e27f6"),
    (parts, 405, "1bf8693873a15ae9c9ed7c5f501f135c9be555804cfe4c2fc43cb74b0347f9ce"),
], ids=["peel", "split", "parts"])
def test_sub_structures_are_pinned(cut_out, count, digest):
    # digests taken from the builders `restrict` replaced: the private
    # `_peel`, `split_parts` and `canonical._restrict` copies
    h, seen = hashlib.sha256(), 0
    for ps in corpus():
        for sub in cut_out(ps):
            h.update(describe(sub).encode())
            seen += 1
    assert (seen, h.hexdigest()) == (count, digest)


def test_restrict_caps_leaving_conclusions_and_drops_cut_jumps():
    # an ax under a par, and a bot jumping to the par
    ps = build_ps({0: "ax", 1: "par", 2: "dot", 3: "bot", 4: "dot"},
                  {0: (0, 1), 1: (0, 1), 2: (1, 2), 3: (3, 4)},
                  prem={1: (1, 0)}, concl=(2, 3), jumps={3: 1})
    whole = restrict(ps, ps.nodes, ps.conclusions)
    assert describe(whole) == describe(ps)
    # the par's premises leave the kept nodes: fresh dots 5 and 6, in the
    # order of the conclusions; the jump into the par goes with it
    peeled = restrict(ps, {0, 3, 4}, (3, 1, 0))
    assert describe(peeled) == describe(ProofStructure(
        {0: "ax", 3: "bot", 4: "dot", 5: "dot", 6: "dot"},
        {0: (0, 6), 1: (0, 5), 3: (3, 4)}, {}, (3, 1, 0)))
    assert validate(peeled).ok
    assert describe(_peel(ps, 1)) == describe(peeled)
