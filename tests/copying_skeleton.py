"""The copying peel/split skeleton, kept as the reference of the in-place one.

Every part here is a fresh `ProofStructure` built by `_peel` or
`split_parts`, and every move reads `terminal_nodes()` of it.  `wten`,
`btenll` and `icomll` repeat the checks of the package's three
sequentializers and then run this skeleton under the policy each used
before parts became node sets.  `observe(s)`, when given, sees every
structure a policy is asked about, in the order the skeleton asks.
"""

from proofnets.errors import SequentializationError
from proofnets.formulas import Fragment, polarity
from proofnets.generate import GenParams, random_proof, random_ps
from proofnets.sequent import (ax_rule, bot_rule, cut_rule, desequentialize,
                               exchange_to, one_rule, par_rule, tensor_rule)
from proofnets.sequentialize import (SplitAssignment, canonical_jumps_btenll,
                                     canonical_jumps_icomll, infer_types,
                                     sequentialize_btenll, sequentialize_icomll,
                                     sequentialize_text, sequentialize_wten,
                                     split_parts)
from proofnets.structure import (AX, BOT, CUT, DOT, ONE, PAR, TENSOR, ProofStructure,
                                 ensure_valid, erasing_nodes, induced_components,
                                 is_wten, jump_free)
from proofnets.switching import check
from reference_oracles import _peel, _raw_split_assignments
from reference_proof_parser import format_proof_expr


def _determined_split(ps, n):
    assignments = _raw_split_assignments(ps, n)
    first = next(assignments, None)
    return first if next(assignments, None) is None else None


def _base_case(ps):
    non_dots = [m for m, lab in ps.nodes.items() if lab != DOT]
    if len(non_dots) != 1 or ps.nodes[non_dots[0]] not in (AX, ONE):
        raise SequentializationError(
            "structure is neither splittable nor a single axiom or one node")
    if ps.nodes[non_dots[0]] == ONE:
        return one_rule()
    return ax_rule(ps.types[ps.conclusions[0]])


def _split_move(ps, n):
    assignment = _determined_split(ps, n)
    if assignment is None:
        raise SequentializationError(
            f"node {n} does not split the structure into two determined parts")
    return n, assignment


def skeleton(ps, choose, observe=None):
    proofs = []
    stack = [ps]
    while stack:
        top = stack.pop()
        if isinstance(top, ProofStructure):
            if observe is not None:
                observe(top)
            move = choose(top)
            if move is None:
                proofs.append(_base_case(top))
                continue
            n, assignment = move
            if assignment is None:
                stack += [(top, n, None), _peel(top, n)]
            else:
                left, right = split_parts(top, assignment)
                stack += [(top, n, (left, right)), right, left]
            continue
        s, n, parts = top
        if parts is None:
            arc = s.conclusions_of(n)[0]
            joined = (bot_rule if s.nodes[n] == BOT else par_rule)(proofs.pop())
            current = [c for c in s.conclusions if c != arc] + [arc]
        else:
            left, right = parts
            proof_right, proof_left = proofs.pop(), proofs.pop()
            if s.nodes[n] == TENSOR:
                joined = tensor_rule(proof_left, proof_right)
                middle = s.conclusions_of(n)
            else:
                joined = cut_rule(s.types[s.premises_of(n)[0]], proof_left, proof_right)
                middle = []
            current = list(left.conclusions[:-1]) + middle + list(right.conclusions[1:])
        proofs.append(exchange_to(joined, [current.index(c) for c in s.conclusions]))
    return proofs.pop()


def general_move(ps):
    terminal = ps.terminal_nodes()
    unary = [n for n in terminal if ps.nodes[n] in (BOT, PAR)]
    if unary:
        return min(unary), None
    splitters = [n for n in terminal if ps.nodes[n] in (CUT, TENSOR)]
    if not splitters:
        return None
    for n in splitters:
        assignment = _determined_split(ps, n)
        if assignment is not None:
            return n, assignment
    raise SequentializationError("no splitting cut or tensor node found")


def bten_move(ps):
    erasing = erasing_nodes(ps)
    terminal = ps.terminal_nodes()
    unary = ([n for n in terminal if n in erasing]
             or [n for n in terminal if ps.nodes[n] == PAR])
    if unary:
        return min(unary), None
    tensors = [n for n in terminal if ps.nodes[n] == TENSOR]
    return _split_move(ps, min(tensors)) if tensors else None


def icomll_move(ps):
    def arc_pol(a):
        return polarity(ps.types[a])

    terminal = ps.terminal_nodes()
    inputs = [n for n in terminal if arc_pol(ps.conclusions_of(n)[0]) == "I"]
    if inputs:
        n = min(inputs)
        if ps.nodes[n] in (BOT, PAR):
            return n, None
        prem = ps.premise_order[n]
        out_side = [a for a in prem if arc_pol(a) == "O"]
        if len(out_side) != 1:
            raise SequentializationError("an input tensor has exactly one output premise")
        removed = {n, ps.head(ps.conclusions_of(n)[0])}
        comps = induced_components(ps, (x for x in ps.nodes if x not in removed))
        out_comp = next(c for c in comps if ps.tail(out_side[0]) in c)
        in_side = next(a for a in prem if a not in out_side)
        if ps.tail(in_side) in out_comp:
            raise SequentializationError(
                f"input tensor {n} does not split the structure")
        rest = set().union(*(c for c in comps if c is not out_comp))
        if ps.tail(prem[0]) in out_comp:
            return n, SplitAssignment(n, frozenset(out_comp), frozenset(rest))
        return n, SplitAssignment(n, frozenset(rest), frozenset(out_comp))
    if len(ps.conclusions) != 1:
        raise SequentializationError(
            "every terminal node is an output but several conclusions remain")
    n = ps.tail(ps.conclusions[0])
    if ps.nodes[n] == ONE:
        return None
    if ps.nodes[n] == PAR:
        return n, None
    return _split_move(ps, n)


def wten(ps, observe=None):
    ensure_valid(ps)
    ok, witness = is_wten(ps)
    if not ok:
        raise SequentializationError(
            f"premise {witness[1]} of node {witness[0]} comes from an erasing node",
            witness)
    verdict = check(ps, "accw")
    if not verdict.holds:
        raise SequentializationError("structure fails the accw criterion", verdict)
    typed = ps if ps.types is not None else infer_types(ps)
    return skeleton(typed.without_jumps(), general_move, observe)


def btenll(ps, m, observe=None):
    if not jump_free(ps):
        raise SequentializationError("expected a jump-free structure")
    if ps.nodes_with_label(CUT):
        raise SequentializationError("cut-free structure expected")
    canonical_jumps_btenll(ps, m)
    verdict = check(ps, "accw")
    if not verdict.holds:
        raise SequentializationError("structure fails the accw criterion", verdict)
    return skeleton(ps, bten_move, observe)


def icomll(ps, observe=None):
    if not jump_free(ps):
        raise SequentializationError("expected a jump-free structure")
    canonical_jumps_icomll(ps)
    return skeleton(ps, icomll_move, observe)


# -- the corpora both skeletons are compared on ---------------------------------


def _nets(frag, seeds, rules, cuts=0.0):
    for seed in seeds:
        p = random_proof(GenParams(fragment=frag, max_rules=rules, seed=seed,
                                   cut_probability=cuts))
        yield desequentialize(p, verify=False).ps


def _non_erasing(ps):
    erasing = erasing_nodes(ps)
    return [n for n, lab in sorted(ps.nodes.items()) if n not in erasing and lab != DOT]


def corpus(mode):
    """(structure, anchor) pairs; the anchor is None outside btenll mode."""
    if mode == "wten":
        for frag in (Fragment.MLL, Fragment.MLLU, Fragment.BTENLL):
            for ps in _nets(frag, range(40), 16, cuts=0.3):
                yield ps, None
                yield ps.without_types(), None
        for seed in range(200):
            yield random_ps(GenParams(fragment=None, seed=seed, cut_probability=0.3)), None
    elif mode == "btenll":
        for ps in _nets(Fragment.BTENLL, range(60), 14):
            for m in _non_erasing(ps):
                yield ps, m
        for seed in range(200):
            ps = random_ps(GenParams(fragment=Fragment.BTENLL, seed=seed))
            yield ps, (_non_erasing(ps) or [0])[0]
    else:
        for ps in _nets(Fragment.ICOMLL, range(80), 16):
            yield ps, None
        for seed in range(200):
            yield random_ps(GenParams(fragment=Fragment.ICOMLL, seed=seed)), None


MODES = ("wten", "btenll", "icomll")


def run(mode, ps, m):
    """The package's sequentializer of that mode."""
    if mode == "wten":
        return sequentialize_wten(ps)
    if mode == "btenll":
        return sequentialize_btenll(ps, m)[0]
    return sequentialize_icomll(ps)[0]


def run_text(mode, ps, m):
    """The s-expression of the proof file that the package prints in that
    mode with no proof tree, once its header is checked."""
    text = sequentialize_text(ps, mode, m)[0]
    header = f"fragment: {'mllu' if mode == 'wten' else mode}\n"
    if not (text.startswith(header) and text.endswith(")\n")):
        raise AssertionError(f"not a {mode} proof file: {text!r}")
    return text[len(header):-1]


def run_reference(mode, ps, m, observe=None):
    """The reference of `run`."""
    if mode == "wten":
        return wten(ps, observe)
    if mode == "btenll":
        return btenll(ps, m, observe)
    return icomll(ps, observe)


def outcome(run):
    """The s-expression of the proof run() returns, by the reference
    printer, or the one run() prints, or the type and message of its
    error."""
    try:
        result = run()
    except Exception as exc:  # the reference must fail the same way
        return type(exc).__name__, str(exc)
    return result if isinstance(result, str) else format_proof_expr(result)
