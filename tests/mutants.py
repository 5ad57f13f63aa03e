"""Standing mutants: planted faults that the tests must catch.

Each mutant names a source file under `src/`, an exact snippet of it, the
text that replaces the snippet, and the tests that must fail once it is
replaced.  A mutant is killed when those tests fail, and survives when they
pass; a survivor means a test no longer guards what it once did.

    python tests/mutants.py [NAME ...]

copies `src/` to a temporary directory for each named mutant (every
mutant by default), applies it there, runs its tests in a subprocess on
the copy and prints one line per mutant.  It exits 1 when a mutant
survives or its tests cannot run, 2 on an unknown name, and 0 when every
mutant is killed.  The working tree is never modified.

A tier-1 test checks that each snippet occurs exactly once in the current
source, so a change that rewrites a snippet's code must re-express or
retire its mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    why: str  # the fault, and what the tests that kill it guard
    file: str  # relative to src/
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = (
    Mutant(
        "fresh-fold-table",
        "each membership test of a generator run folds its formula afresh, "
        "so typed generation is quadratic again; the join-count gate fails",
        "proofnets/formulas.py",
        "_fold((f,), leaf, join, values)[f]",
        "_fold((f,), leaf, join)[f]",
        ("tests/test_generate.py::test_typed_generation_folds_in_linear_time",),
    ),
    Mutant(
        "cwforall-cap-counts-every-par",
        "the cwforall enumeration lists every par, so its cap counts them "
        "all and a jump-free chain past the cap is refused",
        "proofnets/switching.py",
        "            if ps.jumps and len(compatible) > 1:\n"
        "                choices[n] = compatible\n",
        "            choices[n] = compatible if ps.jumps else compatible[:1]\n",
        ("tests/test_switching.py::test_cwforall_of_a_jump_free_chain_is_never_capped",
         "tests/test_cli.py::test_cwforall_caps_only_the_pars_it_enumerates"),
    ),
    Mutant(
        "cwforall-skips-two-erasing-premises",
        "on a jumped structure, cwforall keeps a par whose premises are both "
        "erasing on its first premise instead of enumerating it",
        "proofnets/switching.py",
        "            if len(compatible) != 1:\n"
        "                compatible = prem\n",
        "            if len(compatible) != 1:\n"
        "                compatible = prem if compatible else prem[:1]\n",
        ("tests/test_switching.py::"
         "test_cwforall_caps_the_pars_with_two_erasing_compatible_premises",),
    ),
    Mutant(
        "exchange-run-outermost-first",
        "the tree builder applies a run of nested exchanges outermost first, "
        "so the proofs the sequentializers return permute their conclusions",
        "proofnets/sequent.py",
        "for position in reversed(arg):",
        "for position in arg:",
        ("tests/test_sequentialize.py::test_sequentializer_output_is_pinned",
         "tests/test_skeleton.py::test_in_place_skeleton_matches_the_copying_one"),
    ),
    Mutant(
        "per-par-contraction",
        "the search for the first cyclic switching advances one par per "
        "contraction instead of galloping, which is quadratic on long chains",
        "proofnets/switching.py",
        "            step *= 2\n",
        "            step = 1\n",
        ("tests/test_cli.py::"
         "test_accw_refutes_an_outermost_second_premise_in_log_contractions",),
    ),
    Mutant(
        "cut-test-drops-negations",
        "a structure's cut test drops each negation it makes, so the next "
        "test negates the whole type again; the negation-count gate fails",
        "proofnets/generate.py",
        "neg = negations[f] = negate(f)",
        "neg = negate(f)",
        ("tests/test_generate.py::test_structures_with_cuts_negate_in_linear_time",),
    ),
)

BY_NAME = {m.name: m for m in MUTANTS}


def source(m: Mutant, src: Path = ROOT / "src") -> str:
    return (src / m.file).read_text(encoding="utf-8")


def run(m: Mutant) -> str:
    """'killed' when each of the mutant's tests fails (one of its items, for
    a parametrized test), 'survived: ...' naming the tests that pass, or
    'error: ...' when the mutant cannot be applied or its tests do not run
    to a verdict."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        text = source(m, src)
        if text.count(m.snippet) != 1:
            return f"error: the snippet occurs {text.count(m.snippet)} times in {m.file}"
        (src / m.file).write_text(text.replace(m.snippet, m.replacement), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *m.tests],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    # pytest exits 1 when a test failed and 0 when all passed; any other
    # code (no test collected, a usage or internal error) is no verdict
    if done.returncode not in (0, 1):
        return f"error: pytest exited {done.returncode}\n{done.stdout}"
    failed = {line.split(" ", 1)[1].split(" - ", 1)[0] for line in done.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))}
    passing = [t for t in m.tests
               if not any(f == t or f.startswith(t + "[") for f in failed)]
    return f"survived: {', '.join(passing)} passed" if passing else "killed"


def main(argv: list[str]) -> int:
    unknown = [name for name in argv if name not in BY_NAME]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}; known: {', '.join(BY_NAME)}",
              file=sys.stderr)
        return 2
    ok = True
    for m in [BY_NAME[name] for name in argv] or MUTANTS:
        outcome = run(m)
        print(f"{m.name}: {outcome}", flush=True)
        ok = ok and outcome == "killed"
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
