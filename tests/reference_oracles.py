"""The exhaustive searches that certified the package's polynomial
decisions, kept as test oracles.

From `sequentialize`: `_peel` and `_raw_split_assignments` cut a structure
into the copies a peel or a split makes; `splitting_candidates` lists every
way a terminal cut or tensor node splits a structure; `is_sequential_oracle`
decides the recursive decomposition by trying every terminal node and every
component distribution; `rewiring_reachable` searches the single-jump
redirections breadth first.  From `switching`: `output_stats` counts the
components of every switching graph, and `switching_paths` enumerates the
simple paths under a path discipline.  Each is exponential in the worst
case and meant for small structures.

From `sequent`: `check_proof` reports the fragment discipline from its own
walk of the proof tree, reading the formulas each rule introduces off the
rule's conclusion and listing each failing one at that rule, independently
of the net the package reads its report off.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

from proofnets.canonical import canonical_form, isomorphisms
from proofnets.errors import FragmentError, SequentializationError
from proofnets.formulas import Fragment, format_formula, in_fragments
from proofnets.sequent import AX_RULE, CUT_RULE, EX_RULE, TENSOR_RULE, SequentProof
from proofnets.sequentialize import SplitAssignment, jump_correct, split_parts
from proofnets.structure import (AX, BOT, CUT, DOT, ONE, PAR, TENSOR, ProofStructure,
                                 ValidationReport, arc_polarities, ensure_valid,
                                 erasing_nodes, induced_components, restrict, strip,
                                 validate)
from proofnets.switching import DEFAULT_MAX_PAR, _components, _has_switching_cycle, check
from reference_switching import ALL, switchings


# -- peeling and splitting -----------------------------------------------------


def _peel(ps: ProofStructure, n: int) -> ProofStructure:
    """ps less the terminal bot or par node n, its conclusion arc and that
    arc's dot; a par's two premises become the last conclusions, each
    capped by a fresh dot."""
    arc = ps.conclusions_of(n)[0]
    conclusions = tuple(c for c in ps.conclusions if c != arc)
    return restrict(ps, set(ps.nodes) - {n, ps.head(arc)},
                    conclusions + ps.premise_order.get(n, ()))



def _raw_split_assignments(ps: ProofStructure, n: int):
    """Distributions of the components of ps minus n over the two sides,
    generated one at a time: the first puts every free component right."""
    prem = ps.premises_of(n)
    removed = {n}
    for c in ps.conclusions_of(n):
        removed.add(ps.head(c))
    comps = induced_components(ps, (m for m in ps.nodes if m not in removed))
    left_tail, right_tail = ps.tail(prem[0]), ps.tail(prem[1])
    base_left = next(c for c in comps if left_tail in c)
    base_right = next(c for c in comps if right_tail in c)
    if base_left is base_right:
        return
    free = [c for c in comps if c is not base_left and c is not base_right]
    for k in range(len(free) + 1):
        for chosen in combinations(range(len(free)), k):
            left = set(base_left)
            right = set(base_right)
            for i, c in enumerate(free):
                (left if i in chosen else right).update(c)
            yield SplitAssignment(n, frozenset(left), frozenset(right))



def splitting_candidates(ps: ProofStructure) -> list[SplitAssignment]:
    """Every way a terminal cut or tensor node splits the structure.

    Free components (touching neither premise) may go to either side;
    distributions whose two parts coincide up to isomorphism with those of
    an earlier one are reported once.
    """
    ensure_valid(ps)
    base = strip(ps)
    out = []
    for n in base.terminal_nodes():
        if base.nodes[n] not in (CUT, TENSOR):
            continue
        seen_keys = set()
        for asn in _raw_split_assignments(base, n):
            left, right = split_parts(base, asn)
            key = (canonical_form(left), canonical_form(right))
            if key in seen_keys:
                continue
            seen_keys.add(key)
            out.append(asn)
    return out


# -- the brute-force sequentiality oracle --------------------------------------


_MISSING = object()


def is_sequential_oracle(ps: ProofStructure) -> tuple[bool, dict | None]:
    """Exact, exponential decision of the recursive decomposition.

    Tries every terminal node and every component distribution, memoized
    on canonical forms.  Types, jumps and the conclusion order are
    irrelevant to the decomposition and are ignored.
    """
    ensure_valid(ps)
    memo: dict[bytes, dict | None] = {}

    def seq(s: ProofStructure):
        key = canonical_form(s)
        cached = memo.get(key, _MISSING)
        if cached is not _MISSING:
            return cached
        result = None
        non_dots = [m for m, lab in s.nodes.items() if lab != DOT]
        if len(non_dots) == 1 and s.nodes[non_dots[0]] in (AX, ONE):
            result = {"node": non_dots[0], "kind": s.nodes[non_dots[0]]}
        if result is None:
            for n in s.terminal_nodes():
                lab = s.nodes[n]
                if lab in (BOT, PAR):
                    sub = seq(_peel(s, n))
                    if sub is not None:
                        result = {"node": n, "kind": lab, "parts": [sub]}
                elif lab in (CUT, TENSOR):
                    for asn in _raw_split_assignments(s, n):
                        left, right = split_parts(s, asn)
                        sub_l = seq(left)
                        if sub_l is None:
                            continue
                        sub_r = seq(right)
                        if sub_r is not None:
                            result = {"node": n, "kind": lab,
                                      "parts": [sub_l, sub_r]}
                            break
                if result is not None:
                    break
        memo[key] = result
        return result

    decomposition = seq(strip(ps))
    return decomposition is not None, decomposition



# -- rewiring ------------------------------------------------------------------


def rewiring_reachable(r1: ProofStructure, r2: ProofStructure, *,
                       max_states: int = 50_000) -> bool:
    """Breadth-first oracle over single-jump redirections, each intermediate
    structure re-checked jump-correct.  Exact but exponential; meant for
    small instances."""
    if not all(map(jump_correct, (r1, r2))):
        raise SequentializationError("rewiring oracle needs jump-correct inputs")
    base1, base2 = r1.without_jumps(), r2.without_jumps()
    goals = set()
    for sigma in isomorphisms(base2, base1):
        goals.add(frozenset((sigma[s], sigma[t]) for s, t in r2.jumps.items()))
    if not goals:
        return False

    start = frozenset(r1.jumps.items())
    if start in goals:
        return True
    frontier = deque([start])
    seen = {start}
    while frontier:
        state = frontier.popleft()
        current = dict(state)
        for src in current:
            for tgt in r1.nodes:
                if tgt in (src, current[src]):
                    continue
                new_map = dict(current)
                new_map[src] = tgt
                key = frozenset(new_map.items())
                if key in seen:
                    continue
                seen.add(key)
                if len(seen) > max_states:
                    raise SequentializationError("rewiring search exceeded its budget")
                if not check(r1.with_jumps(new_map), "acc").holds:
                    continue
                if key in goals:
                    return True
                frontier.append(key)
    return False


# -- output statistics ---------------------------------------------------------


@dataclass
class OutputStats:
    bots: int
    outputs: int
    acyclic: bool
    components_per_switching: list[int]


def output_stats(ps: ProofStructure, max_par: int = DEFAULT_MAX_PAR) -> OutputStats:
    """Bot count, output-conclusion count and per-switching components for
    a structure typed in the intuitionistic fragment.

    Every switching is enumerated, so past `max_par` par nodes this raises
    `SwitchingLimitError`.  Acyclicity comes from the contraction; when
    every switching graph is acyclic, the component count is checked to
    equal bots + outputs - jumps on each.
    """
    report = validate(ps, Fragment.IMLL)
    if not report.ok:
        raise FragmentError("output statistics require a valid imll typing")
    bots = len(ps.bottom_nodes())
    polarities = arc_polarities(ps)
    outputs = sum(1 for a in ps.conclusions if polarities[a] == "O")
    erasing = erasing_nodes(ps)
    counts = [len(_components(ps, sw, erasing)) for sw in switchings(ps, ALL, max_par)]
    acyclic = not _has_switching_cycle(ps)
    if acyclic and any(cc != bots + outputs - len(ps.jumps) for cc in counts):
        raise AssertionError("component count law violated on an acyclic switching graph")
    return OutputStats(bots, outputs, acyclic, counts)


# -- path enumeration ----------------------------------------------------------

SWITCHING_PATH = "switching"
W_SWITCHING_PATH = "w-switching"
DIRECTED_PATH = "directed"


@dataclass(frozen=True)
class Path:
    nodes: tuple[int, ...]
    arcs: tuple[int, ...]

    def __len__(self):
        return len(self.arcs)


def switching_paths(ps: ProofStructure, src: int, dst: int | None = None,
                    flavor: str = SWITCHING_PATH) -> list[Path]:
    """Enumerate simple paths from src (to dst, or to anywhere when dst is
    None) under a path discipline.

    `switching` paths never use two premises of the same par node;
    `w-switching` paths additionally avoid any arc that is the unique
    erasing premise of its par node; `directed` paths follow arc direction.
    Paths never repeat a node; the empty path is included when src == dst
    or dst is None.
    """
    if flavor not in (SWITCHING_PATH, W_SWITCHING_PATH, DIRECTED_PATH):
        raise ValueError(f"unknown path flavor {flavor!r}")
    erasing = erasing_nodes(ps)
    forbidden = set()
    if flavor == W_SWITCHING_PATH:
        for n in ps.par_nodes():
            prem = ps.premises_of(n)
            erasing_prem = [a for a in prem if ps.tail(a) in erasing]
            if len(erasing_prem) == 1:
                forbidden.add(erasing_prem[0])

    incoming, outgoing = ps.incidence()

    results: list[Path] = []
    if dst is None or dst == src:
        results.append(Path((src,), ()))

    def premises_used_ok(arcs_used, candidate):
        if ps.nodes[ps.head(candidate)] != PAR:
            return True
        twin = [a for a in ps.premises_of(ps.head(candidate)) if a != candidate]
        return not (twin and twin[0] in arcs_used)

    def around(node):
        return iter(sorted(outgoing[node] if flavor == DIRECTED_PATH
                           else outgoing[node] + incoming[node]))

    # a depth-first walk with one arc iterator per node of the current path
    path_nodes, path_arcs = [src], []
    nodes_seen, arcs_used = {src}, set()
    walking = [around(src)]
    while walking:
        a = next(walking[-1], None)
        if a is None:
            walking.pop()
            if path_arcs:
                nodes_seen.remove(path_nodes.pop())
                arcs_used.remove(path_arcs.pop())
            continue
        if a in arcs_used or a in forbidden:
            continue
        t, h = ps.arcs[a]
        nxt = h if path_nodes[-1] == t else t
        if nxt in nodes_seen:
            continue
        if flavor != DIRECTED_PATH and not premises_used_ok(arcs_used, a):
            continue
        path_nodes.append(nxt)
        path_arcs.append(a)
        nodes_seen.add(nxt)
        arcs_used.add(a)
        if dst is None or nxt == dst:
            results.append(Path(tuple(path_nodes), tuple(path_arcs)))
        if dst is None or nxt != dst:
            walking.append(around(nxt))
        else:
            nodes_seen.remove(path_nodes.pop())
            arcs_used.remove(path_arcs.pop())
    return results


# -- the fragment discipline on a proof tree ------------------------------------


def _post_order(proof: SequentProof) -> list[SequentProof]:
    """Every subproof, premises first and left to right."""
    # the reverse of a pre-order pushing premises in order is a post-order
    order, stack = [], [proof]
    while stack:
        p = stack.pop()
        order.append(p)
        stack.extend(p.premises)
    order.reverse()
    return order


def _introduced(p: SequentProof) -> tuple:
    """The formulas a rule adds to its sequent, read off its conclusion: an
    ax its A and A^, a one or a bot its unit, a par or a tensor the formula
    it builds, a cut or an exchange none.  Every formula of a conclusion is
    introduced at or above it."""
    if p.rule == AX_RULE:
        return p.conclusion
    if p.rule == TENSOR_RULE:
        return (p.conclusion[p.premises[0].length - 1],)
    if p.rule == EX_RULE or p.rule == CUT_RULE:
        return ()
    return (p.conclusion[-1],)


def check_proof(proof: SequentProof, frag: Fragment = Fragment.MLLU) -> ValidationReport:
    """The fragment discipline: every formula inside `frag`, and no axiom or
    cut rule in icomll.  Rules are reported premises first, each with its
    icomll ax or cut line, then a line for each formula outside `frag` that
    it introduces."""
    order = _post_order(proof)
    # one fold decides every distinct formula, sharing the subformulas
    verdicts = in_fragments((f for p in order for f in _introduced(p)), frag)
    v = []
    for p in order:
        if frag is Fragment.ICOMLL and p.rule in (AX_RULE, CUT_RULE):
            v.append(("fragment", p.rule, f"{p.rule} rule is not available in icomll"))
        v += [("fragment", p.rule, f"formula {format_formula(f)} outside {frag.value}")
              for f in _introduced(p) if not verdicts[f][0]]
    return ValidationReport(v)
