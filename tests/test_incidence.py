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
from proofnets.sequentialize import split_parts
from proofnets.structure import ProofStructure, strip, validate
from reference_oracles import splitting_candidates


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
RECURSIVE_WALKERS = []


def _functions(tree, module):
    """(qualified name, binding, enclosing, node) for every function of a
    module.  The binding is the scope whose bare name reaches the function:
    None for the module, else the qualified name of the enclosing function
    or class.  The enclosing function (None at the module) is the next scope
    a name loaded in the body is looked up in; class bodies are skipped."""
    found, stack = [], [(module, None, None, tree)]
    while stack:
        prefix, binding, enclosing, node = stack.pop()
        for child in ast.iter_child_nodes(node):
            name, inner, outer = prefix, binding, enclosing
            if isinstance(child, ast.ClassDef):
                name = inner = f"{prefix}.{child.name}"
            elif isinstance(child, ast.FunctionDef):
                name = inner = outer = f"{prefix}.{child.name}"
                found.append((name, binding, enclosing, child))
            stack.append((name, inner, outer, child))
    return found


def _own_nodes(fn):
    """The nodes of a function's body, outside the functions it defines."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _cyclic_functions(tree, module):
    """The functions on a cycle of a module's call graph.

    A call is a load of a function's bare name where that name reaches it:
    the innermost enclosing function (or the module) that defines it, unless
    a parameter or assignment of a scope on the way shadows it.  Calls
    through an attribute (self.method) are not seen."""
    functions = _functions(tree, module)
    parent = {name: enclosing for name, _, enclosing, _ in functions}
    defined = {(binding, fn.name): name for name, binding, _, fn in functions}
    local = {}
    for name, _, _, fn in functions:
        args = fn.args
        local[name] = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                       + [args.vararg, args.kwarg] if a is not None}
        local[name] |= {n.id for n in _own_nodes(fn)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    calls = {}
    for name, _, _, fn in functions:
        calls[name] = set()
        for n in _own_nodes(fn):
            if not (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)):
                continue
            scope = name
            while scope is not None:
                if (scope, n.id) in defined or n.id in local[scope]:
                    break
                scope = parent[scope]
            if (scope, n.id) in defined:
                calls[name].add(defined[scope, n.id])
    cyclic = []
    for start in calls:
        seen, stack = set(), list(calls[start])
        while stack:
            f = stack.pop()
            if f == start:
                cyclic.append(start)
                break
            if f not in seen:
                seen.add(f)
                stack.extend(calls[f])
    return cyclic


def test_recursive_functions_are_listed():
    root = Path(proofnets.__file__).parent
    found = []
    for path in sorted(root.glob("*.py")):
        found += _cyclic_functions(ast.parse(path.read_text()), path.stem)
    assert sorted(found) == RECURSIVE_WALKERS


def test_the_recursion_scan_sees_mutual_and_nested_calls():
    tree = ast.parse("""
def parse_term(s):
    return parse_expr(s)

def parse_expr(s):
    return parse_term(s)

def outer(xs):
    def walk(x):
        return walk(x)
    return walk(xs)

def shadowed(parse_term):
    return parse_term

class Box:
    def outer(self):
        return outer(self)
""")
    assert sorted(_cyclic_functions(tree, "m")) == [
        "m.outer.walk", "m.parse_expr", "m.parse_term"]
