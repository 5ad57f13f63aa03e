"""The in-place peel/split skeleton against the copying one it replaced.

`copying_skeleton` keeps the skeleton that built a `ProofStructure` per
peel and split; both must print the same proofs and fail with the same
errors on the seeded corpora of all three sequentializers.
"""

import functools

import pytest

import copying_skeleton as reference
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
