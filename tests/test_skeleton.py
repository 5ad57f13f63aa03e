"""The in-place peel/split skeleton against the copying one it replaced.

`copying_skeleton` keeps the skeleton that built a `ProofStructure` per
peel and split.  The in-place skeleton runs with both of its sinks: the
proof it builds and the text it prints with no tree must each equal
the reference's printed proof, or fail with the same error, on the seeded
corpora of all three sequentializers, and every printed text must read
back, through every constructor check, to the same text.
"""

import functools

import pytest

import copying_skeleton as reference
from conftest import build_ps
from proofnets import sequentialize
from proofnets.formulas import Fragment
from proofnets.generate import GenParams, random_ps
from proofnets.sequent import _proof_sink, parse_proof, text_writer
from proofnets.structure import DOT, arc_polarities, erasing_nodes
from reference_proof_parser import format_proof_expr


def _reads_back(got):
    """`got`, after checking that a printed proof parses back to itself."""
    if isinstance(got, str):
        assert format_proof_expr(parse_proof(f"fragment: mllu\n{got}\n")[1]) == got
    return got


def _both_sinks(ps, policy):
    """The outcomes of the bare skeleton under `policy` with the tree sink
    and with the text sink."""
    return [_reads_back(reference.outcome(
                lambda: sequentialize._sequentialize(ps, policy, sink())))
            for sink in (_proof_sink, text_writer)]


@pytest.mark.parametrize("mode", reference.MODES)
def test_in_place_skeleton_matches_the_copying_one(mode):
    proofs = errors = 0
    for ps, m in reference.corpus(mode):
        want = reference.outcome(lambda: reference.run_reference(mode, ps, m))
        assert reference.outcome(lambda: reference.run(mode, ps, m)) == want, m
        printed = reference.outcome(lambda: reference.run_text(mode, ps, m))
        assert _reads_back(printed) == want, m
        if isinstance(want, str):
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
                want = reference.outcome(lambda: reference.skeleton(ps, old))
                assert _both_sinks(ps, new) == [want, want], seed
                if not isinstance(want, str):
                    failures.add(want[1].split(" node ")[0])
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
    assert _both_sinks(lone, sequentialize._general_move) == [
        ("SequentializationError", "no splitting cut or tensor node found")] * 2
    assert several == [2, 2]
    for frag, policy in ((Fragment.MLLU, 0), (Fragment.ICOMLL, 2)):
        for seed in range(150):
            ps = random_ps(GenParams(fragment=frag, seed=seed, cut_probability=0.3))
            new, old = _policies(ps)[policy]
            want = reference.outcome(lambda: reference.skeleton(ps, old))
            assert _both_sinks(ps, new) == [want, want], seed
    for ps, m in reference.corpus("icomll"):
        want = reference.outcome(lambda: reference.run_reference("icomll", ps, m))
        assert reference.outcome(lambda: reference.run("icomll", ps, m)) == want
        printed = reference.outcome(lambda: reference.run_text("icomll", ps, m))
        assert _reads_back(printed) == want
    assert len(several) > 200 and len(fallbacks) > 100, (len(several), len(fallbacks))
