"""The checked-in structure corpus used by tests, docs and the CLI.

Each fixture is a JSON file under `data/`; expected verdicts live
alongside them in `expected_verdicts.json`.  The brute-force decomposition
oracle that certified them is a test oracle, in the test suite's
`reference_oracles` module.

  split-choice       two one/bot pairs under a tensor; its splitting node
                     admits three component distributions
  regnier            the classical counterexample: passes the count
                     criterion, not sequentializable
  counterexample-io  the intuitionistic counterexample with one atom pair
  jumps-units        canonical-jump example in the bottom-restricted
                     fragment (two bots under a par tree with an atom pair)
  jumps-constants    canonical-jump example in the constant-only
                     intuitionistic fragment
  wten-cut           an erasing-safe structure with a cut, two terminal
                     bots and a switched par; sequentializable
"""

from __future__ import annotations

from importlib import resources

from .structure import ProofStructure, decode_json, from_json

NAMES = ("split-choice", "regnier", "counterexample-io",
         "jumps-units", "jumps-constants", "wten-cut")


def _data(filename: str) -> str:
    return resources.files("proofnets.data").joinpath(filename).read_text()


def load(name: str) -> ProofStructure:
    if name not in NAMES:
        raise KeyError(f"unknown fixture {name!r}; known: {', '.join(NAMES)}")
    return from_json(_data(name + ".json"))


def expected_verdicts() -> dict:
    return decode_json(_data("expected_verdicts.json"), "verdicts file")
