"""Seeded inputs for the three workloads, built round by round.

A round is a fixed list of strata, so every round of a workload has the
same make-up whatever the seed: only the random proofs drawn inside each
stratum change.  Round `r` of seed `s` is drawn from its own generator,
so the same seed always gives the same inputs.

Every input is a desequentialized random proof (or a proof) built with the
package's public generator and rule constructors; the expected outputs
come from that construction, not from running the command under test.
"""

from __future__ import annotations

import copy
import importlib
import json
import random
import time
from collections import Counter
from dataclasses import dataclass, field

WORKLOADS = ("check", "normalize", "roundtrip")

# check: structures with k = 1..13 par nodes, each once correct (two
# conclusions joined under a par) and once incorrect (joined under a
# tensor).  Structures with up to 4 pars come twelve times, so the median
# latency falls in a block of like inputs.
CHECK_PAIRS = {k: 12 if k <= 4 else 1 for k in range(1, 14)}
# Ten more correct structures with 10 pars make a block where the 90th
# percentile falls.  Incorrect ones are left out of it: they may stop at
# the first switching that fails, so their time is not like the others'.
CHECK_P90_PARS, CHECK_P90_BLOCK = 10, 10
CHECK_DRAWS_PER_SLOT = 4
# correct bot;par chains, one per round, all above the 90th-percentile block.
CHECK_CHAIN_PARS = (11, 12, 13)
# bot;par chains with more pars than the enumeration cap accepts: 7 of the
# 132 operations of a round, whatever the seed.
CAP_CHAIN_PARS = tuple(range(21, 31))
CHECK_CAPPED_PER_ROUND = 7

# normalize: per stratum, a fragment and a max_rules interval that the
# generator draws from (cut probability 0.6).  The intervals tile each
# range, so sizes spread evenly: 100-260 for mll, 100-340 for the cheaper
# mllu.  The largest mll nets come in the 90th-percentile block below.
NORMALIZE_STRATA = (tuple(("mll", 100 + 40 * i, 140 + 40 * i) for i in range(4))
                    + tuple(("mllu", 100 + 40 * i, 140 + 40 * i) for i in range(6)))
NORMALIZE_NODES = (50, 320)
# A net's cost: its cuts times the total length of its arc types.  It
# predicts the normalization time of an mll net within about 14 % (the node
# count alone, or cuts times nodes, within 25-37 %), where nets drawn from
# one max_rules interval differ in cost up to sevenfold.  Each stratum's net
# is the middle one by cost of three draws.
NORMALIZE_DRAWS = 3
# Two blocks of like inputs: eight mll nets where the median latency falls,
# and four large ones, as a rule costlier than any stratum's, where the
# 90th percentile falls.  Each net is the one of several draws whose cost is
# nearest to the block's target, near the middle of what its interval
# gives, so a block's nets cost nearly the same whatever the seed.
# (stratum, nets, draws per net, target cost)
NORMALIZE_BLOCKS = ((("mll", 110, 150), 8, 5, 60_000),
                    (("mll", 260, 300), 4, 6, 1_000_000))

# roundtrip: btenll random proofs by max_rules, and tensor compositions of
# small random proofs by number of parts; at most 8 pars and 130 nodes.
# Two blocks of like compositions: thirteen of 5 parts where the median
# latency falls, and six of 11 parts, the costliest of a round, where the
# 90th percentile falls.  Each is the one of its draws nearest to the
# block's par count, then to its node count (the switchings, and so the
# cost, double with each par).  Two bot;par chains past the cap make 2 of
# the 30 operations of a round.
ROUNDTRIP_RANDOM_RULES = (30, 60, 90, 120)
ROUNDTRIP_COMPOSE_PARTS = (3, 5, 7, 9, 11)
# (parts, compositions, draws per composition, (pars, nodes))
ROUNDTRIP_BLOCKS = ((5, 13, 3, (4, 40)), (11, 6, 6, (8, 110)))
ROUNDTRIP_CAPPED_PER_ROUND = 2
ROUNDTRIP_MAX_PARS = 8
ROUNDTRIP_MAX_NODES = 130
ROUNDTRIP_DRAWS = 3

_ATTEMPTS = 5000


class Program:
    """The package under test, imported afresh."""

    def __init__(self):
        self.cli = importlib.import_module("proofnets.cli")
        self.formulas = importlib.import_module("proofnets.formulas")
        self.generate = importlib.import_module("proofnets.generate")
        self.sequent = importlib.import_module("proofnets.sequent")
        self.structure = importlib.import_module("proofnets.structure")


@dataclass
class Op:
    """One operation: CLI calls over input files written under a prefix.

    `argv` entries may contain `{p}`, replaced by the op's file prefix.
    """
    stratum: str
    files: dict[str, str]
    argv: list[list[str]]
    expect: dict = field(default_factory=dict)


class Corpus:
    def __init__(self, prog: Program, workload: str, seed: int, small: bool = False):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.prog = prog
        self.workload = workload
        self.seed = seed
        self.small = small
        self.random_proof_s = 0.0

    def round(self, r: int) -> list[Op]:
        return getattr(self, f"_{self.workload}_round")(r)

    # -- shared ------------------------------------------------------------

    def _rng(self, r: int, stratum) -> random.Random:
        return random.Random(f"{self.workload}:{self.seed}:{r}:{stratum}")

    def _random_proof(self, frag: str, max_rules: int, rng: random.Random,
                      cut_probability: float = 0.0):
        g = self.prog.generate
        params = g.GenParams(fragment=self.prog.formulas.fragment_from_name(frag),
                             max_rules=max_rules, cut_probability=cut_probability,
                             seed=rng.randrange(2 ** 31))
        t0 = time.perf_counter()
        proof = g.random_proof(params)
        self.random_proof_s += time.perf_counter() - t0
        return proof

    def _structure_doc(self, proof) -> dict:
        ps = self.prog.sequent.desequentialize(proof, verify=False).ps
        return self.prog.structure.to_json_dict(ps)

    def _chain(self, k: int):
        """The proof bot;par repeated k times over a one rule."""
        s = self.prog.sequent
        p = s.one_rule()
        for _ in range(k):
            p = s.par_rule(s.bot_rule(p))
        return p

    # -- check ---------------------------------------------------------------

    def _check_round(self, r: int) -> list[Op]:
        pairs = {1: 3, 2: 3, 3: 3} if self.small else CHECK_PAIRS
        # (k, join label, pars of the proof before the join)
        slots = [(k, label, k - 1 if label == "par" else k)
                 for k, n in pairs.items() for _ in range(n) for label in ("par", "tensor")]
        if not self.small:
            slots += [(CHECK_P90_PARS, "par", CHECK_P90_PARS - 1)] * CHECK_P90_BLOCK
        pool = self._proof_pool(self._rng(r, "pool"), [p for _, _, p in slots])
        ops = []
        for k, label, p in slots:
            doc = pool[p].pop(0)
            ops.append(self._check_op(f"pars={k:02d}", join(doc, label), 1 if label == "tensor" else 0))
        chain = 2 if self.small else CHECK_CHAIN_PARS[r % len(CHECK_CHAIN_PARS)]
        ops.append(self._check_op("chain", self._structure_doc(self._chain(chain)), 0))
        for i in range(1 if self.small else CHECK_CAPPED_PER_ROUND):
            k = CAP_CHAIN_PARS[(CHECK_CAPPED_PER_ROUND * r + i) % len(CAP_CHAIN_PARS)]
            ops.append(self._check_op("capped", self._structure_doc(self._chain(k)), 0))
        return ops

    def _proof_pool(self, rng: random.Random, wanted: list[int]) -> dict[int, list[dict]]:
        """Desequentialized mllu proofs with two or more conclusions, by par count.

        A fixed number of draws, aimed in turn at each wanted par count, so
        that the cost of a round barely depends on the seed; every count
        then keeps the proofs whose size is closest to its typical size.
        """
        hits: dict[int, list[dict]] = {p: [] for p in wanted}

        def draw(p):
            proof = self._random_proof("mllu", rng.randint(6 + 9 * p, 16 + 14 * p), rng)
            if len(proof.conclusion) >= 2:
                doc = self._structure_doc(proof)
                got = label_count(doc, "par")
                if got in hits:
                    hits[got].append(doc)

        for i in range(CHECK_DRAWS_PER_SLOT * len(wanted)):
            draw(wanted[i % len(wanted)])
        for p in wanted:
            for _ in range(_ATTEMPTS):
                if len(hits[p]) >= wanted.count(p):
                    break
                draw(p)
            else:
                raise RuntimeError(f"no proof with {p} pars after {_ATTEMPTS} draws")
        typical = {p: 8 + 4.1 * p for p in hits}
        return {p: sorted(docs, key=lambda d: abs(len(d["nodes"]) - typical[p]))
                for p, docs in hits.items()}

    def _check_op(self, stratum: str, doc: dict, verdict: int) -> Op:
        return Op(stratum, {"in.json": json.dumps(doc, indent=2)},
                  [["check", "{p}in.json", "--criterion", "accw"]],
                  {"verdict": verdict, "doc": doc})

    # -- normalize -------------------------------------------------------------

    def _normalize_round(self, r: int) -> list[Op]:
        strata = [(s, NORMALIZE_DRAWS, None) for s in NORMALIZE_STRATA]
        for stratum, nets, draws, target in NORMALIZE_BLOCKS:
            strata += [(stratum, draws, target)] * nets
        if self.small:
            strata = [strata[0], strata[4]]
        ops = []
        for i, ((frag, lo, hi), draws, target) in enumerate(strata):
            rng = self._rng(r, i)
            doc = self._normalizable(rng, frag, lo, hi, draws, target)
            n = len(doc["nodes"])
            band = n // 50 * 50
            ops.append(Op(f"{frag} nodes {band:03d}-{band + 49:03d}",
                          {"in.json": json.dumps(doc, indent=2)},
                          [["normalize", "{p}in.json", "--trace", "{p}steps.jsonl"]],
                          {"doc": doc}))
        return ops

    def _normalizable(self, rng: random.Random, frag: str, lo: int, hi: int,
                      draws: int, target: int | None) -> dict:
        """Of `draws` nets within the bounds, the one whose cost is nearest to
        `target`, or the middle one by cost without a target."""
        fewest, most = NORMALIZE_NODES
        drawn = []
        for _ in range(_ATTEMPTS):
            doc = self._structure_doc(self._random_proof(frag, rng.randrange(lo, hi), rng, 0.6))
            if fewest <= len(doc["nodes"]) <= most and label_count(doc, "cut"):
                drawn.append((net_cost(doc), doc))
                if len(drawn) == draws:
                    if target is not None:
                        return min(drawn, key=lambda cd: abs(cd[0] - target))[1]
                    return sorted(drawn, key=lambda cd: cd[0])[draws // 2][1]
        raise RuntimeError(f"no {frag} proof of {fewest}-{most} nodes at max_rules {lo}-{hi}")

    # -- roundtrip ---------------------------------------------------------------

    def _roundtrip_round(self, r: int) -> list[Op]:
        random_rules = ROUNDTRIP_RANDOM_RULES[:1] if self.small else ROUNDTRIP_RANDOM_RULES
        parts = ROUNDTRIP_COMPOSE_PARTS[:1] if self.small else ROUNDTRIP_COMPOSE_PARTS
        ops = []
        for max_rules in random_rules:
            rng = self._rng(r, f"random{max_rules}")
            ops.append(self._roundtrip_op(self._bounded(rng, lambda: self._random_proof(
                "btenll", max_rules, rng), ROUNDTRIP_DRAWS)))
        composed = [(n, ROUNDTRIP_DRAWS, None) for n in parts]
        for n_parts, count, draws, shape in () if self.small else ROUNDTRIP_BLOCKS:
            composed += [(n_parts, draws, shape)] * count
        for i, (n_parts, draws, shape) in enumerate(composed):
            rng = self._rng(r, f"compose{i}")
            ops.append(self._roundtrip_op(self._bounded(rng, lambda: self._composition(
                rng, n_parts), draws, shape)))
        for i in range(1 if self.small else ROUNDTRIP_CAPPED_PER_ROUND):
            k = CAP_CHAIN_PARS[(ROUNDTRIP_CAPPED_PER_ROUND * r + i) % len(CAP_CHAIN_PARS)]
            ops.append(self._roundtrip_op(self._chain(k), capped=True))
        return ops

    def _bounded(self, rng, draw, draws: int, shape=None):
        """Of `draws` draws (more only when none is within the roundtrip
        bounds), the first within the bounds, or the one nearest to
        `shape` = (pars, nodes).  The fixed number of draws keeps the cost of
        a round nearly independent of the seed."""
        found = []
        for attempt in range(_ATTEMPTS):
            if found and attempt >= draws:
                break
            proof = draw()
            doc = self._structure_doc(proof)
            if (label_count(doc, "par") <= ROUNDTRIP_MAX_PARS
                    and len(doc["nodes"]) <= ROUNDTRIP_MAX_NODES):
                found.append((proof, doc))
        else:
            raise RuntimeError("no btenll proof within the roundtrip bounds")
        if shape is None:
            return found[0][0]
        pars, nodes = shape
        return min(found, key=lambda pd: (abs(label_count(pd[1], "par") - pars),
                                          abs(len(pd[1]["nodes"]) - nodes)))[0]

    def _composition(self, rng: random.Random, n_parts: int):
        """Tensor n small random proofs together on formulas of kind A."""
        s, f = self.prog.sequent, self.prog.formulas
        btenll = f.Fragment.BTENLL

        def kind_a(proof):
            return [i for i, x in enumerate(proof.conclusion) if f.in_fragment(x, btenll)[1] == "A"]

        q = self._random_proof("btenll", rng.randint(6, 24), rng)
        for _ in range(n_parts - 1):
            p = self._random_proof("btenll", rng.randint(6, 24), rng)
            left, right = kind_a(q), kind_a(p)
            if not left or not right:
                continue
            i, j = rng.choice(left), rng.choice(right)
            q = s.exchange_to(q, [x for x in range(len(q.conclusion)) if x != i] + [i])
            p = s.exchange_to(p, [j] + [x for x in range(len(p.conclusion)) if x != j])
            q = s.tensor_rule(q, p)
        return q

    def _roundtrip_op(self, proof, capped: bool = False) -> Op:
        f = self.prog.formulas
        rules = Counter()
        stack = [proof]
        while stack:
            q = stack.pop()
            rules[q.rule] += 1
            stack.extend(q.premises)
        doc = self._structure_doc(proof)
        band = len(doc["nodes"]) // 30 * 30
        stratum = "capped" if capped else f"nodes {band:03d}-{band + 29:03d}"
        text = self.prog.sequent.format_proof(proof, f.Fragment.BTENLL)
        return Op(stratum, {"P.proof": text},
                  [["deseq", "{p}P.proof", "--out", "{p}D.json"],
                   ["sequentialize", "{p}D.json", "--out", "{p}Q.proof"],
                   ["equiv", "{p}P.proof", "{p}Q.proof"]],
                  {"rules": dict(rules),
                   "conclusions": [f.format_formula(x) for x in proof.conclusion]})


def net_cost(doc: dict) -> int:
    """Cuts times the total length of the arc types: see NORMALIZE_DRAWS."""
    return label_count(doc, "cut") * sum(len(t) for t in doc["types"].values())


def label_count(doc: dict, label: str) -> int:
    return sum(1 for rec in doc["nodes"] if rec["label"] == label)


def join(doc: dict, label: str) -> dict:
    """Join the last two conclusions of a structure under a new node.

    Under a par the result is the desequentialization of a par rule, so it
    is correct.  Under a tensor every switching graph gains one arc and no
    node, so it gets a cycle or loses a component: it is incorrect.
    """
    doc = copy.deepcopy(doc)
    a, b = doc["conclusions"][-2:]
    arcs = {rec["id"]: rec for rec in doc["arcs"]}
    dots = {arcs[a]["head"], arcs[b]["head"]}
    node = max(rec["id"] for rec in doc["nodes"]) + 1
    arc = max(arcs) + 1
    doc["nodes"] = [rec for rec in doc["nodes"] if rec["id"] not in dots]
    doc["nodes"] += [{"id": node, "label": label}, {"id": node + 1, "label": "dot"}]
    arcs[a]["head"] = arcs[b]["head"] = node
    doc["arcs"].append({"id": arc, "tail": node, "head": node + 1})
    doc["premises"][str(node)] = [a, b]
    doc["types"][str(arc)] = f"({doc['types'][str(a)]} {label} {doc['types'][str(b)]})"
    doc["conclusions"] = doc["conclusions"][:-2] + [arc]
    return doc
