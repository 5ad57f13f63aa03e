"""Output checks built from how each input was constructed.

Nothing here imports the package under test: the checks read the CLI's
text output and compare it with facts the generator knew when it built
the input.  Proof texts are read without recursion, because sequentializer
output nests several hundred rules deep.
"""

from __future__ import annotations

import json
import re
from collections import Counter

CAP_MESSAGE = "par nodes exceed the enumeration cap 20"


class CheckFailed(Exception):
    """An operation's output contradicts what its input was built to give."""


# -- formulas as text --------------------------------------------------------

_FORMULA_TOKEN = re.compile(r"\s*(\(|\)|[A-Za-z0-9_]+\^?)")


def _parse_formula(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _FORMULA_TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise CheckFailed(f"unreadable formula {text!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    at = 0

    def term():
        nonlocal at
        tok = tokens[at]
        at += 1
        if tok == "(":
            inner = expr()
            if tokens[at] != ")":
                raise CheckFailed(f"unbalanced formula {text!r}")
            at += 1
            return inner
        if tok in ("one", "1"):
            return ("one",)
        if tok == "bot":
            return ("bot",)
        if tok.endswith("^"):
            return ("atom", tok[:-1], True)
        return ("atom", tok, False)

    def expr():
        nonlocal at
        left = term()
        while at < len(tokens) and tokens[at] in ("tensor", "par"):
            op = tokens[at]
            at += 1
            left = (op, left, term())
        return left

    tree = expr()
    if at != len(tokens):
        raise CheckFailed(f"trailing text in formula {text!r}")
    return tree


def _format(f) -> str:
    if f[0] == "atom":
        return f[1] + ("^" if f[2] else "")
    if f[0] in ("one", "bot"):
        return f[0]
    return f"({_format(f[1])} {f[0]} {_format(f[2])})"


def _negate(f):
    if f[0] == "atom":
        return ("atom", f[1], not f[2])
    if f[0] == "one":
        return ("bot",)
    if f[0] == "bot":
        return ("one",)
    dual = "par" if f[0] == "tensor" else "tensor"
    return (dual, _negate(f[1]), _negate(f[2]))


def dual_text(text: str) -> str:
    return _format(_negate(_parse_formula(text)))


# -- proof texts ---------------------------------------------------------------

_PROOF_TOKEN = re.compile(r'\s*(\(|\)|"[^"]*"|[^\s()"]+)')


def read_proof(text: str) -> tuple[Counter, tuple[str, ...]]:
    """Rule counts and derived conclusion sequence of a proof file.

    Conclusions are recomputed from the rules, so a proof whose recorded
    shape differs from what its rules derive is caught here.
    """
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if lines and lines[0].strip().lower().startswith("fragment:"):
        lines = lines[1:]
    body = "\n".join(lines)
    counts: Counter = Counter()
    stack: list[list] = []  # frames: [head, args...]
    result = None
    pos = 0
    while pos < len(body):
        m = _PROOF_TOKEN.match(body, pos)
        if not m:
            if body[pos:].strip():
                raise CheckFailed("unreadable proof text")
            break
        tok = m.group(1)
        pos = m.end()
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if not stack or not stack[-1]:
                raise CheckFailed("unbalanced proof text")
            frame = stack.pop()
            conclusion = _derive(frame[0], frame[1:])
            counts[frame[0]] += 1
            if stack:
                stack[-1].append(conclusion)
            elif result is None:
                result = conclusion
            else:
                raise CheckFailed("several proofs in one file")
        else:
            if not stack:
                raise CheckFailed(f"token {tok!r} outside any rule")
            stack[-1].append(tok[1:-1] if tok.startswith('"') else tok)
    if stack or result is None:
        raise CheckFailed("proof text ends inside a rule")
    return counts, result


def _derive(head, args):
    try:
        if head == "ax":
            (f,) = args
            return (f, dual_text(f))
        if head == "one":
            if args:
                raise CheckFailed("one takes no premise")
            return ("one",)
        if head == "bot":
            (p,) = args
            return p + ("bot",)
        if head == "par":
            (p,) = args
            if len(p) < 2:
                raise CheckFailed("par rule on fewer than two formulas")
            return p[:-2] + (f"({p[-2]} par {p[-1]})",)
        if head == "tensor":
            p, q = args
            return p[:-1] + (f"({p[-1]} tensor {q[0]})",) + q[1:]
        if head == "cut":
            f, p, q = args
            if p[-1] != f or q[0] != dual_text(f):
                raise CheckFailed("cut formulas are not dual")
            return p[:-1] + q[1:]
        if head == "ex":
            n, p = args
            i = int(n) - 1
            if not 0 <= i < len(p) - 1:
                raise CheckFailed(f"exchange position {n} out of range")
            c = list(p)
            c[i], c[i + 1] = c[i + 1], c[i]
            return tuple(c)
    except (ValueError, TypeError, IndexError) as exc:
        raise CheckFailed(f"malformed {head} rule: {exc}") from None
    raise CheckFailed(f"unknown rule {head!r}")


# -- structures ----------------------------------------------------------------


def label_counts(doc: dict) -> Counter:
    return Counter(rec["label"] for rec in doc["nodes"])


def conclusion_types(doc: dict) -> list[str]:
    types = doc.get("types", {})
    return [types.get(str(a)) for a in doc["conclusions"]]


def breaks_criterion(doc: dict, switching: dict[str, int]) -> bool:
    """True iff the switching graph of `doc` under `switching` has a cycle
    or a component count other than #bot + 1 (the structures checked here
    carry no jumps)."""
    labels = {int(rec["id"]): rec["label"] for rec in doc["nodes"]}
    arcs = {int(rec["id"]): [int(rec["tail"]), int(rec["head"])] for rec in doc["arcs"]}
    premises = {int(n): [int(a) for a in pair] for n, pair in doc["premises"].items()}
    pars = sorted(n for n, lab in labels.items() if lab == "par")
    if sorted(int(n) for n in switching) != pars:
        raise CheckFailed("counterexample does not switch exactly the par nodes")
    nodes = set(labels)
    fresh = max(nodes) + 1
    for n in pars:
        chosen = int(switching[str(n)])
        if chosen not in premises[n]:
            raise CheckFailed(f"counterexample picks arc {chosen}, not a premise of par {n}")
        for a in premises[n]:
            if a != chosen:
                arcs[a][1] = fresh
                nodes.add(fresh)
                fresh += 1
    parent = {n: n for n in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = len(nodes)
    cyclic = False
    for tail, head in arcs.values():
        rt, rh = find(tail), find(head)
        if rt == rh:
            cyclic = True
        else:
            parent[rh] = rt
            components -= 1
    bots = sum(1 for lab in labels.values() if lab == "bot")
    return cyclic or components != bots + 1


# -- per-workload verdicts -------------------------------------------------------


def capped(call) -> bool:
    """The one failure the workloads keep: the switching enumeration cap."""
    return call.rc == 2 and CAP_MESSAGE in call.err


def check_check(expect: dict, calls) -> None:
    (call,) = calls
    if call.rc != expect["verdict"]:
        raise CheckFailed(f"exit {call.rc}, built to give {expect['verdict']}: {call.err.strip()[:200]}")
    doc = json.loads(call.out)
    if doc.get("criterion") != "accw" or doc.get("holds") is not (expect["verdict"] == 0):
        raise CheckFailed(f"verdict document disagrees with the exit code: {call.out[:200]}")
    if expect["verdict"] == 1:
        if "counterexample" not in doc:
            raise CheckFailed("failing verdict without a counterexample")
        if not breaks_criterion(expect["doc"], doc["counterexample"]):
            raise CheckFailed("counterexample switching graph is acyclic with #bot + 1 components")


class _Net:
    """A structure as plain dictionaries, rewritten step by step."""

    def __init__(self, doc: dict):
        self.labels = {int(rec["id"]): rec["label"] for rec in doc["nodes"]}
        self.arcs = {int(rec["id"]): (int(rec["tail"]), int(rec["head"])) for rec in doc["arcs"]}
        self.order = {int(n): [int(a) for a in pair] for n, pair in doc["premises"].items()}
        self.types = {int(a): t for a, t in doc.get("types", {}).items()}

    def out_of(self, node: int) -> list[int]:
        return [a for a, (t, _) in self.arcs.items() if t == node]

    def reaches(self, starts, target: int) -> bool:
        heads: dict[int, list[int]] = {}
        for t, h in self.arcs.values():
            heads.setdefault(t, []).append(h)
        seen, stack = set(), list(starts)
        while stack:
            n = stack.pop()
            if n == target:
                return True
            if n not in seen:
                seen.add(n)
                stack.extend(heads.get(n, ()))
        return False

    def drop(self, arcs, nodes) -> None:
        for a in arcs:
            del self.arcs[a]
            self.types.pop(a, None)
        for n in nodes:
            del self.labels[n]
            self.order.pop(n, None)

    def shape(self) -> Counter:
        """Node labels and typed arcs between labels: what the net is up to ids."""
        return (Counter(self.labels.values())
                + Counter((self.labels[t], self.labels[h], self.types.get(a))
                          for a, (t, h) in self.arcs.items()))

    def step(self, kind: str, cut: int) -> None:
        """Apply one traced step: `cut` must be a redex of that kind now.
        Every step removes 2 arcs, and 2, 3 or 1 nodes for an axiom, unit or
        multiplicative step."""
        if self.labels.get(cut) != "cut":
            raise CheckFailed(f"{kind} step at node {cut}, which is not a cut")
        prem = sorted(a for a, (_, h) in self.arcs.items() if h == cut)
        if len(prem) != 2:
            raise CheckFailed(f"cut {cut} has {len(prem)} premises")
        sources = [(self.arcs[a][0], a) for a in prem]
        labels = {self.labels[n] for n, _ in sources}
        # an axiom side needs the shared arc to be its only path to the cut
        ax_sides = [(n, a) for n, a in sources if self.labels[n] == "ax"
                    and not self.reaches([self.arcs[b][1] for b in self.out_of(n) if b != a], cut)]
        shape = ("axiom" if ax_sides else "unit" if labels == {"one", "bot"}
                 else "multiplicative" if labels == {"tensor", "par"} else "clash")
        if shape != kind:
            raise CheckFailed(f"{kind} step at cut {cut}, which is a {shape}")
        if kind == "axiom":
            ax, shared = min(ax_sides)
            other = next(a for a in prem if a != shared)
            outer = next(a for a in self.out_of(ax) if a != shared)
            self.arcs[outer] = (self.arcs[other][0], self.arcs[outer][1])
            self.drop(prem, (ax, cut))
        elif kind == "unit":
            self.drop(prem, [cut] + [n for n, _ in sources])
        else:
            tensor = next(n for n, _ in sources if self.labels[n] == "tensor")
            par = next(n for n, _ in sources if self.labels[n] == "par")
            fresh = max(self.labels) + 1
            self.labels[fresh] = self.labels[fresh + 1] = "cut"
            for side, new_cut in ((0, fresh), (1, fresh + 1)):
                for a in (self.order[tensor][side], self.order[par][side]):
                    self.arcs[a] = (self.arcs[a][0], new_cut)
            self.drop(prem, (cut, tensor, par))


def check_normalize(expect: dict, calls, trace_text: str) -> None:
    """Replays the trace on the input, one step at a time, and requires the
    replay to end on the printed normal form."""
    (call,) = calls
    if call.rc != 0:
        raise CheckFailed(f"exit {call.rc}: {call.err.strip()[:200]}")
    normal = json.loads(call.out)
    if label_counts(normal)["cut"]:
        raise CheckFailed("normal form still has a cut node")
    if conclusion_types(normal) != conclusion_types(expect["doc"]):
        raise CheckFailed("normal form conclusion types differ from the input's")
    steps = [json.loads(line) for line in trace_text.splitlines() if line.strip()]
    if not steps:
        raise CheckFailed("input built with cuts normalized in zero steps")
    net = _Net(expect["doc"])
    for i, step in enumerate(steps):
        try:
            net.step(step["kind"], step["cutNode"])
        except (KeyError, TypeError) as exc:
            raise CheckFailed(f"trace line {i + 1} unreadable: {exc}") from None
    if net.shape() != _Net(normal).shape():
        raise CheckFailed(f"the {len(steps)} traced steps do not lead to the printed normal form")


_RULE_TO_LABEL = {"ax": "ax", "one": "one", "bot": "bot", "par": "par",
                  "tensor": "tensor", "cut": "cut"}


def check_roundtrip(expect: dict, calls, structure_text: str, proof_text: str) -> int:
    """Returns the number of rules in the sequentialized proof."""
    deseq, seq, equiv = calls
    for name, call in (("deseq", deseq), ("sequentialize", seq), ("equiv", equiv)):
        if call.rc != 0:
            raise CheckFailed(f"{name} exit {call.rc}: {call.err.strip()[:200]}")
    doc = json.loads(structure_text)
    labels = label_counts(doc)
    rules = expect["rules"]
    for rule, label in _RULE_TO_LABEL.items():
        if labels[label] != rules.get(rule, 0):
            raise CheckFailed(f"{labels[label]} {label} nodes for {rules.get(rule, 0)} {rule} rules")
    if labels["dot"] != len(expect["conclusions"]):
        raise CheckFailed("dot nodes do not match the proof's conclusions")
    if conclusion_types(doc) != expect["conclusions"]:
        raise CheckFailed("structure conclusion types differ from the proof's conclusions")
    counts, conclusions = read_proof(proof_text)
    for rule in _RULE_TO_LABEL:
        if counts[rule] != rules.get(rule, 0):
            raise CheckFailed(f"sequentialized proof has {counts[rule]} {rule} rules, "
                              f"the input {rules.get(rule, 0)}")
    if list(conclusions) != expect["conclusions"]:
        raise CheckFailed("sequentialized proof derives other conclusions")
    if equiv.out.strip() != "true":
        raise CheckFailed(f"equiv printed {equiv.out.strip()!r}")
    return sum(counts.values())
