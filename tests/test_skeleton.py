"""The in-place peel/split skeleton against the copying one it replaced.

`copying_skeleton` keeps the skeleton that built a `ProofStructure` per
peel and split; both must print the same proofs and fail with the same
errors on the seeded corpora of all three sequentializers.
"""

import functools

import pytest

import copying_skeleton as reference
from conftest import build_ps
from proofnets import sequentialize
from proofnets.formulas import Fragment
from proofnets.generate import GenParams, random_ps
from proofnets.structure import DOT, arc_polarities, erasing_nodes


@pytest.mark.parametrize("mode", reference.MODES)
def test_in_place_skeleton_matches_the_copying_one(mode):
    proofs = errors = 0
    for ps, m in reference.corpus(mode):
        got = reference.outcome(lambda: reference.run(mode, ps, m))
        assert got == reference.outcome(lambda: reference.run_reference(mode, ps, m)), m
        if isinstance(got, str):
            proofs += 1
        else:
            errors += 1
    assert proofs > 150 and errors > 20, (proofs, errors)


def _policies(ps):
    """(new policy, reference policy) pairs for running the bare skeletons."""
    return [(sequentialize._general_move, reference.general_move),
            (functools.partial(sequentialize._bten_move, erasing=erasing_nodes(ps)),
             reference.bten_move),
            (functools.partial(sequentialize._icomll_move, polarities=arc_polarities(ps)),
             reference.icomll_move)]


def test_bare_skeletons_fail_alike():
    # typed structures that skip the criteria, so the skeletons' own
    # errors are reached
    failures = set()
    for frag in (Fragment.MLLU, Fragment.BTENLL, Fragment.ICOMLL):
        for seed in range(150):
            ps = random_ps(GenParams(fragment=frag, seed=seed, cut_probability=0.3))
            for new, old in _policies(ps)[:1 if frag is Fragment.MLLU else 3]:
                got = reference.outcome(lambda: sequentialize._sequentialize(ps, new))
                assert got == reference.outcome(lambda: reference.skeleton(ps, old)), seed
                if not isinstance(got, str):
                    failures.add(got[1].split(" node ")[0])
    assert len(failures) >= 4, failures


@pytest.mark.parametrize("mode", reference.MODES)
def test_parts_keep_the_erasing_nodes_of_the_structure(mode):
    # what the btenll policy relies on to compute the erasing set once
    def observe(s):
        non_dots = {n for n, lab in s.nodes.items() if lab != DOT}
        assert erasing_nodes(s) & non_dots == erasing & non_dots
        seen.append(s)

    seen = []
    for ps, m in reference.corpus(mode):
        erasing = erasing_nodes(ps)
        reference.outcome(lambda: reference.run_reference(mode, ps, m, observe))
    assert len(seen) > 1000


def _tensor_beside_an_axiom():
    """A tensor of two axioms beside a third axiom: the part less the
    tensor has three components, so the tensor splits nothing, though a
    search from its two premises closes a side before they meet."""
    nodes = {0: "ax", 1: "ax", 2: "tensor", 3: "ax", **{d: "dot" for d in range(4, 9)}}
    arcs = {0: (0, 2), 1: (0, 4), 2: (1, 2), 3: (1, 5), 4: (2, 6), 5: (3, 7), 6: (3, 8)}
    return build_ps(nodes, arcs, prem={2: (0, 2)}, concl=(1, 3, 4, 5, 6),
                    types={0: "X", 1: "X^", 2: "Y", 3: "Y^", 4: "(X tensor Y)",
                           5: "Z", 6: "Z^"})


def test_splits_in_parts_of_several_components_fail_alike(monkeypatch):
    # the lockstep answer holds only in a connected part; elsewhere the
    # component count decides, and an icomll input tensor whose input side
    # closes first searches its output side alone
    several, fallbacks = [], []
    determined = sequentialize._determined_sides
    lockstep = sequentialize._lockstep

    def counting_sides(ps, part, n):
        if part.pieces > 1:
            first, second = (ps.arcs[a][0] for a in ps.premises_of(n))
            if lockstep(ps, part.nodes, n, first, second)[1] is not None:
                several.append(n)
        return determined(ps, part, n)

    def counting_lockstep(ps, nodes, n, *starts):
        if len(starts) == 1:
            fallbacks.append(n)
        return lockstep(ps, nodes, n, *starts)

    monkeypatch.setattr(sequentialize, "_determined_sides", counting_sides)
    monkeypatch.setattr(sequentialize, "_lockstep", counting_lockstep)
    lone = _tensor_beside_an_axiom()
    assert reference.outcome(lambda: sequentialize._sequentialize(
        lone, sequentialize._general_move)) == (
            "SequentializationError", "no splitting cut or tensor node found")
    assert several == [2]
    for frag, policy in ((Fragment.MLLU, 0), (Fragment.ICOMLL, 2)):
        for seed in range(150):
            ps = random_ps(GenParams(fragment=frag, seed=seed, cut_probability=0.3))
            new, old = _policies(ps)[policy]
            got = reference.outcome(lambda: sequentialize._sequentialize(ps, new))
            assert got == reference.outcome(lambda: reference.skeleton(ps, old)), seed
    for ps, m in reference.corpus("icomll"):
        assert reference.outcome(lambda: reference.run("icomll", ps, m)) == (
            reference.outcome(lambda: reference.run_reference("icomll", ps, m)))
    assert len(several) > 100 and len(fallbacks) > 50, (len(several), len(fallbacks))
