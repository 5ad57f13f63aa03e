"""The incidence index of a structure against a brute-force arc scan.

Every layer reads premises and conclusions through the index a structure
builds on first use.  These tests compare it with the plain definition on
every kind of structure the package builds, and check that reassigning the
indexed attributes rebuilds it.
"""

import ast
from pathlib import Path

import pytest

import copying_skeleton as reference
import proofnets
from proofnets import fixtures, sequentialize
from proofnets.cutelim import find_redexes, reduce_step
from proofnets.formulas import Fragment
from proofnets.generate import GenParams, random_proof, random_ps
from proofnets.sequent import desequentialize
from proofnets.sequentialize import split_parts, splitting_candidates
from proofnets.structure import ProofStructure, strip, validate


def scanned_premises(ps, n):
    if n in ps.premise_order:
        return list(ps.premise_order[n])
    return sorted(a for a, (_, h) in ps.arcs.items() if h == n)


def scanned_conclusions(ps, n):
    return sorted(a for a, (t, _) in ps.arcs.items() if t == n)


def assert_index_matches(ps):
    for n in list(ps.nodes) + [max(ps.nodes, default=0) + 1]:
        assert ps.premises_of(n) == scanned_premises(ps, n), n
        assert ps.conclusions_of(n) == scanned_conclusions(ps, n), n
    assert ps.par_nodes() == sorted(n for n, lab in ps.nodes.items() if lab == "par")


def desequentialized(frag, seeds, cut_probability=0.0, max_rules=14):
    for seed in seeds:
        proof = random_proof(GenParams(fragment=frag, max_rules=max_rules, seed=seed,
                                       cut_probability=cut_probability))
        yield desequentialize(proof, verify=False).ps


@pytest.mark.parametrize("name", fixtures.NAMES)
def test_index_on_fixtures(name):
    ps = fixtures.load(name)
    assert_index_matches(ps)
    for view in (ps.without_jumps(), ps.without_types(), strip(ps)):
        assert view._index is ps._index
        assert_index_matches(view)


def test_index_on_random_structures():
    for seed in range(100):
        for frag, cuts in ((None, 0.3), (Fragment.MLLU, 0.0)):
            assert_index_matches(random_ps(GenParams(fragment=frag, seed=seed,
                                                     cut_probability=cuts)))


def test_index_on_desequentializations_and_cut_steps():
    for ps in desequentialized(Fragment.MLLU, range(30), cut_probability=0.6):
        assert_index_matches(ps)
        for _ in range(40):
            redexes, _ = find_redexes(ps)
            if not redexes:
                break
            ps = reduce_step(ps, redexes[0])
            assert_index_matches(ps)


def test_index_on_split_parts():
    seen = 0
    for ps in desequentialized(Fragment.MLLU, range(30), cut_probability=0.3):
        for asn in splitting_candidates(ps):
            for part in split_parts(strip(ps), asn):
                assert_index_matches(part)
                seen += 1
    assert seen > 30


@pytest.mark.parametrize("mode", reference.MODES)
def test_parts_match_peeled_and_split_copies(mode, monkeypatch):
    # each part the in-place skeleton moves on, against the structure the
    # copying skeleton builds with _peel or split_parts at the same move
    parts, copies = [], []

    def recording(move):
        def wrapper(ps, part, *args, **kwargs):
            parts.append((part.nodes.copy(), part.conclusions, part.terminal.copy()))
            return move(ps, part, *args, **kwargs)
        return wrapper

    def observe(s):
        assert_index_matches(s)
        copies.append(({n for n, lab in s.nodes.items() if lab != "dot"},
                       s.conclusions, set(s.terminal_nodes())))

    for name in ("_general_move", "_bten_move", "_icomll_move"):
        monkeypatch.setattr(sequentialize, name, recording(getattr(sequentialize, name)))
    moves = 0
    for ps, m in reference.corpus(mode):
        reference.outcome(lambda: reference.run(mode, ps, m))
        reference.outcome(lambda: reference.run_reference(mode, ps, m, observe))
        assert parts == copies, m
        moves += len(parts)
        parts.clear()
        copies.clear()
    assert moves > 1000


def test_reassigning_indexed_attributes_rebuilds_the_index():
    ps = fixtures.load("wten-cut")
    assert_index_matches(ps)
    node_map = {n: n + 100 for n in ps.nodes}
    ps.nodes = {node_map[n]: lab for n, lab in ps.nodes.items()}
    ps.arcs = {a: (node_map[t], node_map[h]) for a, (t, h) in ps.arcs.items()}
    ps.premise_order = {node_map[n]: pair for n, pair in ps.premise_order.items()}
    assert_index_matches(ps)
    arc_map = {a: a + 50 for a in ps.arcs}
    ps.arcs = {arc_map[a]: ends for a, ends in ps.arcs.items()}
    assert_index_matches(ps)


def test_index_keeps_arcs_with_missing_ends():
    ps = ProofStructure({0: "one"}, {0: (0, 7)})
    assert ps.premises_of(7) == [0]
    assert ("arc-ends", 0, "arc 0 references missing node 7") in validate(ps).violations


def test_no_assert_statements_in_the_package():
    root = Path(proofnets.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(root.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found, found


# Walkers that still recurse once per level of their input.  A function
# converted to an explicit stack leaves this list; a new recursive one
# fails the test below until it is converted or listed here.
RECURSIVE_WALKERS = [
    "formulas._bten_kind", "formulas._bten_star_kinds", "formulas.polarity",
    "generate._rebuild", "generate._swap_sites", "generate.random_formula",
    "sequentialize.infer_types.concretize", "sequentialize.infer_types.occurs",
    "sequentialize.infer_types.unify", "sequentialize.is_sequential_oracle.seq",
    "switching.switching_paths.walk",
]


def test_recursive_functions_are_listed():
    # A function counts as recursive when its body loads its own name.
    # Mutual recursion (parse_term calling parse_expr calling parse_term)
    # and recursion through an attribute (self.method) are not detected.
    root = Path(proofnets.__file__).parent
    found = []
    for path in sorted(root.glob("*.py")):
        stack = [(path.stem, ast.parse(path.read_text()))]
        while stack:
            prefix, node = stack.pop()
            for child in ast.iter_child_nodes(node):
                name = prefix
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    name = f"{prefix}.{child.name}"
                if isinstance(child, ast.FunctionDef) and any(
                        isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                        and n.id == child.name for n in ast.walk(child)):
                    found.append(name)
                stack.append((name, child))
    assert sorted(found) == RECURSIVE_WALKERS
