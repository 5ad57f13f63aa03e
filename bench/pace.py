"""The host's speed, read from a fixed pure-Python kernel.

The benchmark shares a few cores of a host whose speed drifts by up to
about 1.8x within minutes, often between two levels.  The drift slows the
kernel and the program alike, and process CPU time follows wall time, so
the process is slowed, not descheduled.  The run times this kernel just
before and just after every operation and set-up, and reports each time
scaled to the reference speed, at which one kernel call takes
`REFERENCE_MS`:

    scaled time = measured time * REFERENCE_MS / (median of those kernel times)

A change to the program moves its scaled times in full; a change of the
host's speed moves the kernel too and cancels.  The kernel does the kind of
work the package does (small dicts and lists, tuples, function calls,
string building and JSON), on fixed data and with the garbage collector
off, so that neither the seed nor the package's heap changes its cost.
Changing this file changes every scaled time: keep it fixed.
"""

from __future__ import annotations

import gc
import json
import statistics
import time

REFERENCE_MS = 2.0  # one kernel call at the reference speed

_NODES = 60
_DOC = {
    "nodes": [{"id": i, "label": ("ax", "par", "tensor", "cut", "dot")[i % 5]}
              for i in range(_NODES)],
    "arcs": [{"id": i, "tail": i, "head": (i * 7 + 3) % _NODES} for i in range(2 * _NODES)],
    "types": {str(i): f"(a{i % 9} par b{i % 4}^)" for i in range(2 * _NODES)},
}
_TEXT = json.dumps(_DOC)


def _components(n_nodes: int, arcs) -> tuple[int, bool]:
    parent = list(range(n_nodes))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    count, cyclic = n_nodes, False
    for tail, head in arcs:
        a, b = find(tail), find(head)
        if a == b:
            cyclic = True
        else:
            parent[b] = a
            count -= 1
    return count, cyclic


def _kernel() -> int:
    doc = json.loads(_TEXT)
    labels = {rec["id"]: rec["label"] for rec in doc["nodes"]}
    arcs = [(rec["tail"] % _NODES, rec["head"]) for rec in doc["arcs"]]
    total = 0
    for switch in range(40):
        kept = [(t, h) for i, (t, h) in enumerate(arcs) if (i + switch) % 3]
        count, cyclic = _components(_NODES, kept)
        total += count + cyclic
    words = sorted(t.replace("^", "").split()[0] for t in doc["types"].values())
    by_label: dict[str, list[int]] = {}
    for n, lab in labels.items():
        by_label.setdefault(lab, []).append(n)
    return total + len(words) + len(json.dumps(by_label))


def kernel_seconds() -> float:
    """Wall time of one kernel call, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def sample(busy_s: float, share: float) -> list[float]:
    """Kernel times, taken until they add up to `share` of `busy_s` (at least one).

    Called after each operation, so the samples are spread over a run in
    proportion to the time its operations take.
    """
    samples = [kernel_seconds()]
    while sum(samples) < share * busy_s:
        samples.append(kernel_seconds())
    return samples


def scale(samples: list[float]) -> float:
    """The factor that takes times measured among `samples` to the reference speed."""
    return REFERENCE_MS / 1000 / statistics.median(samples)
