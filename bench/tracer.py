"""Layer timing from outside the package.

The tracer replaces selected public functions of the package by wrappers,
in every module namespace where a caller looks the name up (for example
`proofnets.cli.check` and `proofnets.switching.check`, which the
desequentializer imports at call time), and puts the originals back on
`uninstall`.  A timed wrapper keeps a stack of open calls, so each call's
self time is its duration minus the time of the wrapped calls it made.
Boundary calls are also kept as spans (name, start, end, parent) in memory;
calls made thousands of times per operation are only summed.  Counted
wrappers add a call count and no timing.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (module, attribute, span): timed calls; span=False sums without a span.
TIMED = (
    ("cli", "main", True),
    ("cli", "build_parser", True),
    ("structure", "load_structure", True),
    ("structure", "validate", True),
    ("structure", "ProofStructure.premises_of", False),
    ("structure", "ProofStructure.conclusions_of", False),
    ("switching", "check", True),
    ("cutelim", "normalize", True),
    ("cutelim", "find_redexes", True),
    ("cutelim", "reduce_step", True),
    ("sequent", "parse_proof", True),
    ("sequent", "check_proof", True),
    ("sequent", "desequentialize", True),
    ("sequent", "format_proof", True),
    ("sequentialize", "sequentialize_wten", True),
    ("sequentialize", "proofs_equivalent", True),
    ("canonical", "canonical_form", True),
)

COUNTED = (
    ("formulas", "negate"),
    ("formulas", "in_fragment"),
    ("switching", "switching_graph"),
    ("sequentialize", "split_parts"),
)

_PACKAGE = "proofnets"


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, op)
        self.op = None
        self._stack: list[list] = []  # open calls: [child seconds, span id]
        self._next_id = 0
        self._patched: list[tuple] = []

    # -- wrappers ------------------------------------------------------------

    def _timed(self, name, fn, span):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            if span:
                sid = self._next_id
                self._next_id += 1
            else:
                sid = parent
            frame = [0.0, sid]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                calls[name] += 1
                self_s[name] += took - frame[0]
                if stack:
                    stack[-1][0] += took
                if span:
                    self.spans.append((sid, name, start, end, parent, self.op))

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == _PACKAGE or n.startswith(_PACKAGE + "."))]
        targets = [(mod, attr, True, span) for mod, attr, span in TIMED]
        targets += [(mod, attr, False, False) for mod, attr in COUNTED]
        for mod_name, attr, timed, span in targets:
            module = sys.modules[f"{_PACKAGE}.{mod_name}"]
            name = f"{mod_name}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._patched.append((cls, meth, orig))
                setattr(cls, meth, self._timed(name, orig, span) if timed
                        else self._counted(name, orig))
                continue
            orig = getattr(module, attr)
            wrapper = self._timed(name, orig, span) if timed else self._counted(name, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patched.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    # -- results -----------------------------------------------------------------

    def snapshot(self) -> tuple[dict, dict]:
        return dict(self.calls), dict(self.self_s)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
