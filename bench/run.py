"""Benchmark of the proofnets CLI: accw checks, cut elimination and the
sequentialization round trip.

    python3 bench/run.py --workload check|normalize|roundtrip --seed N \
        --seconds S --trace 0|1
    python3 bench/run.py --self-test

Run from the root of a checkout that holds `src/proofnets`.  The workload
runs in this one process and thread: it drives `proofnets.cli.main`
in-process on input files generated from the seed, one round at a time,
until `--seconds` have passed (and, untraced, at least 100 operations have
been verified).  Every output is checked against what its input was built
to give.  Every time is scaled to a reference speed of the host, read from
a fixed kernel run just before and after each operation (see pace.py).
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  The median scaled time
per stratum, and the end-to-end metrics as measured, unscaled, go to
standard error.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
RESULTS = BENCH / "results"

sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import pace  # noqa: E402
from corpus import WORKLOADS, Corpus, Program  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUPS = 5          # set-ups per run, one per first round; setup_s is their median
MIN_OPS = 100       # verified operations an untraced run holds at least
HARD_LIMIT_S = 140  # no new round starts after this many seconds of a run
COUNTED_ROUNDS = {"check": 2, "normalize": 2, "roundtrip": 4}
PACE_SHARE = 0.05   # kernel time taken after each operation, as a share of its time


@dataclass
class Call:
    rc: int
    out: str
    err: str
    seconds: float


@dataclass
class Outcome:
    stratum: str
    seconds: float
    status: str          # "ok", "capped" (the kept failure) or "bad"
    detail: str = ""
    proof_rules: int = 0
    scaled: float = 0.0  # seconds at the reference speed (see pace.py)


def run_cli(main, argv) -> Call:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        rc = main(argv)
        took = time.perf_counter() - start
    return Call(rc, out.getvalue(), err.getvalue(), took)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def write_round(ops, directory: Path) -> list[str]:
    """Write each op's input files; return the per-op file prefixes."""
    directory.mkdir(parents=True)
    prefixes = []
    for i, op in enumerate(ops):
        prefix = str(directory / f"{i:03d}-")
        for name, text in op.files.items():
            with open(prefix + name, "w", encoding="utf-8") as fh:
                fh.write(text)
        prefixes.append(prefix)
    return prefixes


def run_op(prog: Program, workload: str, op, prefix: str) -> Outcome:
    calls = []
    try:
        for argv in op.argv:
            call = run_cli(prog.cli.main, [a.replace("{p}", prefix) for a in argv])
            calls.append(call)
            if call.rc != 0:
                break
    except Exception as exc:  # a traceback is a wrong output, not a crash of the run
        where = traceback.extract_tb(exc.__traceback__)[-1]
        took = sum(c.seconds for c in calls)
        return Outcome(op.stratum, took, "bad", f"{type(exc).__name__} at "
                       f"{Path(where.filename).name}:{where.lineno}: {exc}")
    took = sum(c.seconds for c in calls)
    if op.stratum == "capped" and checks.capped(calls[-1]):
        return Outcome(op.stratum, took, "capped")
    try:
        if len(calls) != len(op.argv):
            raise checks.CheckFailed(f"{op.argv[len(calls) - 1][0]} exit {calls[-1].rc}: "
                                     f"{calls[-1].err.strip()[:200]}")
        if workload == "check":
            checks.check_check(op.expect, calls)
        elif workload == "normalize":
            checks.check_normalize(op.expect, calls, _read(prefix + "steps.jsonl"))
        else:
            rules = checks.check_roundtrip(op.expect, calls, _read(prefix + "D.json"),
                                           _read(prefix + "Q.proof"))
            return Outcome(op.stratum, took, "ok", proof_rules=rules)
    except (checks.CheckFailed, ValueError, KeyError, TypeError, OSError) as exc:
        return Outcome(op.stratum, took, "bad", f"{type(exc).__name__}: {exc}")
    return Outcome(op.stratum, took, "ok")


def import_program() -> Program:
    """Import the package afresh, so each set-up pays for its imports."""
    for name in [n for n in sys.modules if n == "proofnets" or n.startswith("proofnets.")]:
        del sys.modules[name]
    return Program()


# -- metrics ---------------------------------------------------------------------


def end_to_end(outcomes, setup_times, scaled: bool) -> dict:
    """The end-to-end metrics, from the scaled or the measured times."""
    times = [o.scaled if scaled else o.seconds for o in outcomes]
    ok = [t for o, t in zip(outcomes, times) if o.status == "ok"]
    total = sum(times)
    ms = [s * 1000 for s in ok]
    return {
        "ops_per_s": {"value": len(ok) / total if total else 0.0, "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(ms) if ms else 0.0, "unit": "ms"},
        "latency_p90_ms": {"value": statistics.quantiles(ms, n=10)[-1] if len(ms) > 1 else 0.0,
                           "unit": "ms"},
        "setup_s": {"value": statistics.median(setup_times[scaled]), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }


def per_layer(calls: dict, self_s: dict, proof_rules: int, random_proof_s: float,
              overhead_s: float, untraced_s: float, factor: float) -> dict:
    """The per-layer metrics; times are multiplied by `factor`, the run's
    ratio of scaled to measured time."""

    def count(*names):
        return sum(calls.get(n, 0) for n in names)

    def secs(*names):
        return sum(self_s.get(n, 0.0) for n in names) * factor

    steps, scans = count("cutelim.reduce_step"), count("cutelim.find_redexes")
    incidence = ("structure.premises_of", "structure.conclusions_of")
    values = {
        "formulas.negate_calls": (count("formulas.negate"), "count"),
        "formulas.in_fragment_calls": (count("formulas.in_fragment"), "count"),
        "structure.load_s": (secs("structure.load_structure"), "s"),
        "structure.validate_calls": (count("structure.validate"), "count"),
        "structure.validate_s": (secs("structure.validate"), "s"),
        "structure.incidence_calls": (count(*incidence), "count"),
        "structure.incidence_s": (secs(*incidence), "s"),
        "switching.check_calls": (count("switching.check"), "count"),
        "switching.graphs_built": (count("switching.switching_graph"), "count"),
        "switching.check_s": (secs("switching.check"), "s"),
        "cutelim.steps": (steps, "count"),
        "cutelim.find_redexes_calls": (scans, "count"),
        "cutelim.steps_per_scan": (steps / scans if scans else 0.0, "ratio"),
        "cutelim.find_redexes_s": (secs("cutelim.find_redexes"), "s"),
        "cutelim.reduce_step_s": (secs("cutelim.reduce_step"), "s"),
        "sequent.parse_s": (secs("sequent.parse_proof"), "s"),
        "sequent.check_proof_s": (secs("sequent.check_proof"), "s"),
        "sequent.desequentialize_s": (secs("sequent.desequentialize"), "s"),
        "sequent.format_s": (secs("sequent.format_proof"), "s"),
        "sequentialize.sequentialize_s": (secs("sequentialize.sequentialize_wten"), "s"),
        "sequentialize.splits": (count("sequentialize.split_parts"), "count"),
        "sequentialize.proof_rules": (proof_rules, "count"),
        "canonical.canonical_form_calls": (count("canonical.canonical_form"), "count"),
        "canonical.canonical_form_s": (secs("canonical.canonical_form"), "s"),
        "cli.build_parser_s": (secs("cli.build_parser"), "s"),
        "generate.random_proof_s": (random_proof_s, "s"),
        "trace.overhead_s": (overhead_s * factor, "s"),
        "trace.overhead_pct": (100 * overhead_s / untraced_s if untraced_s else 0.0, "%"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def strata_table(outcomes) -> str:
    groups: dict[str, list[float]] = {}
    for o in outcomes:
        if o.status != "bad":
            groups.setdefault(o.stratum, []).append(o.scaled * 1000)
    lines = [f"{'stratum':<24} {'ops':>5} {'median_ms':>10}"]
    for stratum in sorted(groups):
        ms = groups[stratum]
        lines.append(f"{stratum:<24} {len(ms):>5} {statistics.median(ms):>10.2f}")
    return "\n".join(lines)


# -- one run ------------------------------------------------------------------------


def _remove(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    with contextlib.suppress(OSError):  # another run may still use WORK
        WORK.rmdir()


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    work = WORK / f"{workload}-s{seed}-p{os.getpid()}"
    try:
        return _run(workload, seed, seconds, trace, work)
    finally:
        _remove(work)


def _run(workload, seed, seconds, trace, work: Path) -> int:
    # Set-up r imports the package afresh and makes round r.  Rounds differ
    # in generation cost, so the median over several rounds varies far less
    # from seed to seed than one round would.
    # Each set-up is scaled by kernel samples taken just before and after it.
    setup_times = {False: [], True: []}
    random_proof_times, prepared = [], []
    for r in range(SETUPS):
        before = [pace.kernel_seconds()]
        start = time.perf_counter()
        prog = import_program()
        corpus = Corpus(prog, workload, seed)
        ops = corpus.round(r)
        prepared.append((ops, write_round(ops, work / f"r{r}")))
        took = time.perf_counter() - start
        factor = pace.scale(before + pace.sample(took, PACE_SHARE))
        setup_times[False].append(took)
        setup_times[True].append(took * factor)
        random_proof_times.append(corpus.random_proof_s * factor)

    tracer = Tracer() if trace else None
    counted = None
    proof_rules = 0
    # Each operation is scaled by the kernel samples taken just before and
    # after it; the samples after an operation take PACE_SHARE of its time.
    before = [pace.kernel_seconds()]
    kernel_samples = list(before)
    pass_seconds = {False: 0.0, True: 0.0}
    outcomes: list[Outcome] = []
    loop_start = time.perf_counter()
    r = 0
    while True:
        if r < SETUPS:
            ops, prefixes = prepared[r]
            prepared[r] = None
        else:
            ops = corpus.round(r)
            prefixes = write_round(ops, work / f"r{r}")
        passes = [(False, prefixes)]
        if trace:
            passes.append((True, write_round(ops, work / f"r{r}-traced")))
            if r % 2:
                passes.reverse()
        for traced, pass_prefixes in passes:
            if traced:
                tracer.install()
            try:
                for i, (op, prefix) in enumerate(zip(ops, pass_prefixes)):
                    if traced:
                        tracer.op = f"{r}.{i}"
                    outcome = run_op(prog, workload, op, prefix)
                    after = pace.sample(outcome.seconds, PACE_SHARE)
                    outcome.scaled = outcome.seconds * pace.scale(before + after)
                    kernel_samples += after
                    before = after
                    outcomes.append(outcome)
                    pass_seconds[traced] += outcome.seconds
                    if traced and r < COUNTED_ROUNDS[workload]:
                        proof_rules += outcome.proof_rules
            finally:
                if traced:
                    tracer.uninstall()
        shutil.rmtree(work / f"r{r}", ignore_errors=True)
        shutil.rmtree(work / f"r{r}-traced", ignore_errors=True)
        r += 1
        if trace and r == COUNTED_ROUNDS[workload]:
            counted = tracer.snapshot()
        elapsed = time.perf_counter() - loop_start
        if elapsed >= HARD_LIMIT_S:
            print(f"warning: stopped at the {HARD_LIMIT_S} s limit after {r} rounds",
                  file=sys.stderr)
            break
        if elapsed >= seconds:
            if trace and r >= COUNTED_ROUNDS[workload]:
                break
            verified = sum(o.status == "ok" for o in outcomes)
            if not trace and (verified >= MIN_OPS or any(o.status == "bad" for o in outcomes)):
                break

    bad = [o for o in outcomes if o.status == "bad"]
    for o in bad[:5]:
        print(f"wrong output ({o.stratum}): {o.detail}", file=sys.stderr)
    print(strata_table(outcomes), file=sys.stderr)
    print(f"median kernel time {statistics.median(kernel_samples) * 1000:.4g} ms",
          file=sys.stderr)
    if trace:
        calls, self_s = counted if counted is not None else tracer.snapshot()
        metrics = per_layer(calls, self_s, proof_rules, statistics.median(random_proof_times),
                            pass_seconds[True] - pass_seconds[False], pass_seconds[False],
                            sum(o.scaled for o in outcomes) / sum(o.seconds for o in outcomes))
        RESULTS.mkdir(exist_ok=True)
        tracer.write_spans(RESULTS / f"spans-{workload}-seed{seed}.jsonl")
    else:
        measured = end_to_end(outcomes, setup_times, scaled=False)
        print("measured wall times, not scaled: " + ", ".join(
            f"{k} {v['value']:.4g}" for k, v in measured.items() if k != "peak_rss_mb"),
            file=sys.stderr)
        metrics = end_to_end(outcomes, setup_times, scaled=True)
    print(json.dumps({"correct": not bad, "attempted": len(outcomes),
                      "failed": sum(o.status != "ok" for o in outcomes),
                      "metrics": metrics}))
    return 0


# -- self-test ------------------------------------------------------------------------


def self_test() -> int:
    """Run the smallest round of each workload with every check, and make
    sure each check rejects a wrong output."""
    failures = []
    work = WORK / f"self-test-p{os.getpid()}"
    try:
        prog = import_program()
        for workload in WORKLOADS:
            ops = Corpus(prog, workload, seed=0, small=True).round(0)
            prefixes = write_round(ops, work / workload)
            statuses = []
            for op, prefix in zip(ops, prefixes):
                outcome = run_op(prog, workload, op, prefix)
                statuses.append(outcome.status)
                want = "capped" if op.stratum == "capped" else "ok"
                if outcome.status != want:
                    failures.append(f"{workload} {op.stratum}: {outcome.status} {outcome.detail}")
            failures += _rejections(prog, workload, ops, prefixes)
            print(f"{workload}: {len(ops)} ops, {statuses.count('ok')} verified, "
                  f"{statuses.count('capped')} capped", file=sys.stderr)
    finally:
        _remove(work)
    for f in failures:
        print(f"self-test: {f}", file=sys.stderr)
    print("self-test " + ("failed" if failures else "passed"), file=sys.stderr)
    return 1 if failures else 0


def _rejections(prog, workload, ops, prefixes) -> list[str]:
    """Feed each check a corrupted output; every one must be rejected."""
    op, prefix = next((o, p) for o, p in zip(ops, prefixes) if o.stratum != "capped")
    calls = [run_cli(prog.cli.main, [a.replace("{p}", prefix) for a in argv]) for argv in op.argv]
    cases, missed = [], []
    if workload == "check":
        wrong = dict(op.expect, verdict=1 - op.expect["verdict"])
        cases.append(("flipped verdict", lambda: checks.check_check(wrong, calls)))
        doc = op.expect["doc"]
        first = {str(n): pair[0] for n, pair in doc["premises"].items()
                 if any(r["id"] == int(n) and r["label"] == "par" for r in doc["nodes"])}
        if op.expect["verdict"] == 0 and checks.breaks_criterion(doc, first):
            missed.append("union-find check rejects a switching of a correct structure")
    elif workload == "normalize":
        steps = _read(prefix + "steps.jsonl")
        first, rest = steps.split("\n", 1)
        cases.append(("dropped step", lambda: checks.check_normalize(op.expect, calls, rest)))
        kind = json.loads(first)["kind"]
        relabelled = first.replace(kind, "unit" if kind != "unit" else "axiom") + "\n" + rest
        cases.append(("relabelled step", lambda: checks.check_normalize(
            op.expect, calls, relabelled)))
        with_cut = json.loads(calls[0].out)
        with_cut["nodes"].append({"id": -1, "label": "cut"})
        bad_call = Call(0, json.dumps(with_cut), "", 0.0)
        cases.append(("cut left", lambda: checks.check_normalize(op.expect, [bad_call], steps)))
    else:
        structure, proof = _read(prefix + "D.json"), _read(prefix + "Q.proof")
        rotated = dict(op.expect, conclusions=op.expect["conclusions"][1:] + ["one"])
        cases.append(("other conclusions", lambda: checks.check_roundtrip(
            rotated, calls, structure, proof)))
        false = calls[:2] + [Call(0, "false\n", "", 0.0)]
        cases.append(("equiv false", lambda: checks.check_roundtrip(
            op.expect, false, structure, proof)))
        cases.append(("truncated proof", lambda: checks.check_roundtrip(
            op.expect, calls, structure, proof.rstrip()[:-1])))
    for name, case in cases:
        try:
            case()
        except checks.CheckFailed:
            continue
        missed.append(f"{workload} check accepts a wrong output ({name})")
    return missed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the smallest inputs of each workload and exit")
    args = parser.parse_args(argv)
    if not (SRC / "proofnets" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
