import json
import re

import pytest

from proofnets import fixtures
from proofnets.errors import ProofNetError
from proofnets.formulas import Fragment, parse_formula
from proofnets.generate import GenParams, random_proof
from proofnets.sequent import format_proof
from proofnets.sequentialize import sequentialize_wten
from proofnets.structure import ProofStructure, validate


def build_ps(nodes, arcs, prem=None, concl=(), types=None, jumps=None,
             expect_valid=True):
    """Terse structure builder for tests; types given as surface strings."""
    parsed = {a: parse_formula(s) for a, s in types.items()} if types else None
    ps = ProofStructure(nodes, arcs, prem or {}, concl, parsed, jumps)
    if expect_valid:
        report = validate(ps)
        assert report.ok, report.violations
    return ps


def relabel(ps, rng):
    """Random node/arc id permutation."""
    node_map = dict(zip(sorted(ps.nodes), rng.sample(range(1000, 2000), len(ps.nodes))))
    arc_map = dict(zip(sorted(ps.arcs), rng.sample(range(5000, 6000), len(ps.arcs))))
    out = ProofStructure()
    out.nodes = {node_map[n]: lab for n, lab in ps.nodes.items()}
    out.arcs = {arc_map[a]: (node_map[t], node_map[h]) for a, (t, h) in ps.arcs.items()}
    out.premise_order = {node_map[n]: (arc_map[x], arc_map[y])
                         for n, (x, y) in ps.premise_order.items()}
    out.conclusions = tuple(arc_map[a] for a in ps.conclusions)
    if ps.types is not None:
        out.types = {arc_map[a]: f for a, f in ps.types.items()}
    out.jumps = {node_map[n]: node_map[m] for n, m in ps.jumps.items()}
    return out


def count_proof_objects(monkeypatch):
    """From now on, the number of SequentProof objects made, in a one-item
    list: `sequent._view` makes every one, the constructors' included."""
    from proofnets import sequent
    made = [0]
    view = sequent._view

    def counted_view(buf, end):
        made[0] += 1
        return view(buf, end)

    monkeypatch.setattr(sequent, "_view", counted_view)
    return made


def count_search_visits(monkeypatch):
    """From now on, the nodes each component search of the sequentializers
    reaches, one count per search, in a list: the lockstep searches and
    the whole-part searches of `induced_components`."""
    from proofnets import sequentialize
    visits = []
    lockstep, components = sequentialize._lockstep, sequentialize.induced_components

    def counted_lockstep(*args):
        found, side = lockstep(*args)
        visits.append(sum(map(len, found)))
        return found, side

    def counted_components(*args, **kwargs):
        comps = components(*args, **kwargs)
        visits.append(sum(map(len, comps)))
        return comps

    monkeypatch.setattr(sequentialize, "_lockstep", counted_lockstep)
    monkeypatch.setattr(sequentialize, "induced_components", counted_components)
    return visits


def _json_paths(doc, prefix=()):
    """Every position in a JSON document, containers included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _json_paths(value, prefix + (key,))


def mutated_documents(doc):
    """Copies of a JSON document with one position replaced by a value of
    the wrong shape, each with its path and value."""
    for where in _json_paths(doc):
        for value in (5, "x", None, [1], [1, 2, 3]):
            mutant = json.loads(json.dumps(doc))
            parent = mutant
            for key in where[:-1]:
                parent = parent[key]
            parent[where[-1]] = value
            yield where, value, mutant


def proof_texts():
    """Printed proofs: the sequentialized fixtures, and seeded random
    proofs of every fragment with cuts."""
    for name in fixtures.NAMES:
        ps = fixtures.load(name)
        try:
            yield format_proof(sequentialize_wten(ps))
        except ProofNetError:
            pass
    for frag in Fragment:
        for seed in range(30):
            p = random_proof(GenParams(fragment=frag, max_rules=24, seed=seed,
                                       cut_probability=0.3))
            yield format_proof(p, frag)


_WORD = re.compile(r'"[^"]*"|[^\s()"]+|[()]')
_NOISE = ['(', ')', '"', ' ', '\t', '\n', 'x', '1', '^', '\u00a0', '\u2028', '\x1c',
          '\u3000', 'é', 'ex', 'ax', 'cut', 'par', '"X"', '"X tensor"']
_BAD_POSITIONS = ["0", "-1", "99", "x", "1_0", "\u0663", "", '"1"', "(", ")"]
_TRAILING = ["(one)", ")", '"X"', "foo", "(", '"', "ex 1"]


def mutations(text, rng):
    """Seeded damage to one proof text, one change at a time."""
    for _ in range(3):
        i = rng.randrange(len(text))
        yield text[:i] + text[i + 1:]
        yield text[:i] + rng.choice(_NOISE) + text[i:]
    words = list(_WORD.finditer(text))
    for _ in range(3):
        w = rng.choice(words)
        yield text[:w.start()] + text[w.end():]
        at = rng.choice(words).start()
        yield text[:at] + w[0] + " " + text[at:]
    quotes = [m.start() for m in re.finditer('"', text)]
    if quotes:
        i = rng.choice(quotes)
        yield text[:i] + text[i + 1:]
    for m in list(re.finditer(r"\(ex (\d+)", text))[:3]:
        yield text[:m.start(1)] + rng.choice(_BAD_POSITIONS) + text[m.end(1):]
        yield text[:m.start(1)] + str(int(m[1]) + rng.randrange(1, 4)) + text[m.end(1):]
    yield text + rng.choice(_TRAILING)
    yield text.replace("fragment: ", rng.choice(["fragment: bogus", "", "# c\nfragment: "]), 1)
    # rules of the wrong shape: a par over one formula, a cut on a formula
    # its first premise does not end with
    ones = [m.start() for m in re.finditer(r"\(one\)", text)]
    if ones:
        i = rng.choice(ones)
        yield text[:i] + "(par (one))" + text[i + len("(one)"):]
    cuts = list(re.finditer(r'\(cut ("[^"]*")', text))
    if cuts:
        m = rng.choice(cuts)
        other = rng.choice(re.findall(r'"[^"]*"', text))
        yield text[:m.start(1)] + other + text[m.end(1):]


@pytest.fixture
def single_ax():
    return build_ps({0: "ax", 1: "dot", 2: "dot"},
                    {0: (0, 1), 1: (0, 2)}, concl=(0, 1),
                    types={0: "X", 1: "X^"})


@pytest.fixture
def single_one():
    return build_ps({0: "one", 1: "dot"}, {0: (0, 1)}, concl=(0,),
                    types={0: "one"})


@pytest.fixture
def single_bot():
    return build_ps({0: "bot", 1: "dot"}, {0: (0, 1)}, concl=(0,),
                    types={0: "bot"})
