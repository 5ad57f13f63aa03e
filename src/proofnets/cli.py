"""Command-line surface: check, normalize, sequentialize, jumps, equiv,
deseq, gen, dot.

Exit codes are stable: 0 for success (criterion holds, proofs equivalent),
1 when a decided property fails, 2 for malformed or invalid input.  An
error's report, when it carries one, follows its line one violation a line.

`main` hands a command line that starts with a command's exact name
straight to that command's parser (see `_parse`), with the same result as
the top-level parser gives, in half the time.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import fixtures
from .errors import ParseError, ProofNetError, ValidationError
from .formulas import fragment_from_name
from .generate import GenParams, random_proof, random_ps
from .render import export_dot
from .sequent import desequentialize_text, format_proof
from .sequentialize import (canonical_jumps_btenll, canonical_jumps_icomll, nets_equivalent,
                            sequentialize_text)
from .structure import (ProofStructure, decode_json, ensure_valid, is_wten,
                        load_structure, read_int, to_dsl, to_json)
from .switching import DEFAULT_MAX_PAR, check
from .cutelim import normalize


def _read(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        name = "standard input" if path == "-" else path
        raise ParseError(f"{name} is not UTF-8 text: {exc.reason}",
                         exc.start + 1) from None


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_ps(path: str) -> ProofStructure:
    ps = load_structure(_read(path))
    ensure_valid(ps)
    return ps


def _emit_ps(ps: ProofStructure, fmt: str, out: str | None) -> None:
    if fmt == "dsl":
        _write(out, to_dsl(ps))
    elif fmt == "dot":
        _write(out, export_dot(ps))
    else:
        _write(out, to_json(ps))


def _cmd_check(args) -> int:
    ps = _load_ps(args.file)
    if args.criterion == "wten":
        ok, witness = is_wten(ps)
        doc = {"criterion": "wten", "holds": ok}
        if witness is not None:
            doc["witness"] = {"node": witness[0], "premise": witness[1]}
        print(json.dumps(doc))
        return 0 if ok else 1
    verdict = check(ps, args.criterion, args.max_parr)
    print(verdict.to_json())
    return 0 if verdict.holds else 1


def _cmd_normalize(args) -> int:
    # normalize validates its input itself
    ps = load_structure(_read(args.file))
    trace = normalize(ps, seed=args.seed)
    if args.trace:
        _write(args.trace, trace.to_json_lines() + "\n")
    _emit_ps(trace.normal_form, args.format, args.out)
    return 0


def _anchor(args) -> int:
    """The anchor node of btenll mode, which `--m` must give."""
    if args.m is None:
        raise ProofNetError("--m NODE is required in btenll mode")
    return args.m


def _cmd_sequentialize(args) -> int:
    # the wten mode validates its input itself, with the same error
    ps = load_structure(_read(args.file)) if args.mode == "wten" else _load_ps(args.file)
    anchor = _anchor(args) if args.mode == "btenll" else None
    # printed straight from the sequentializer: no proof tree is built
    text, jumps = sequentialize_text(ps, args.mode, anchor)
    _write(args.out, text)
    if args.jumps_out:
        _write(args.jumps_out, json.dumps({str(n): m for n, m in sorted(jumps.items())}) + "\n")
    return 0


def _cmd_jumps(args) -> int:
    ps = _load_ps(args.file)
    jumped = (canonical_jumps_btenll(ps, _anchor(args)) if args.mode == "btenll"
              else canonical_jumps_icomll(ps))
    _emit_ps(jumped, args.format, args.out)
    return 0


def _cmd_equiv(args) -> int:
    # `proofs_equivalent` on the nets the texts read into
    result = nets_equivalent(*(desequentialize_text(_read(path), verify=False)[1]
                               for path in (args.proof1, args.proof2)))
    print("true" if result else "false")
    return 0 if result else 1


def _cmd_deseq(args) -> int:
    frag, result = desequentialize_text(_read(args.proof))
    # a proof outside its fragment is reported off its net, each failing
    # formula at the rule that introduces it
    report = result.report(frag)
    if not report.ok:
        raise ValidationError(report)
    _emit_ps(result.ps, args.format, args.out)
    return 0


def _cmd_gen(args) -> int:
    if args.fixture:
        _emit_ps(fixtures.load(args.fixture), args.format, args.out)
        return 0
    frag = fragment_from_name(args.fragment) if args.fragment else None
    params = GenParams(fragment=frag, max_rules=args.max_rules,
                       max_nodes=args.max_nodes,
                       cut_probability=args.cut_probability, seed=args.seed)
    if args.kind == "proof":
        if frag is None:
            raise ProofNetError("proof generation needs --fragment")
        proof = random_proof(params)
        _write(args.out, format_proof(proof, frag))
    else:
        _emit_ps(random_ps(params), args.format, args.out)
    return 0


def _load_switching(path: str) -> dict[int, int]:
    """A switching file: one JSON object from par node ids to arc ids."""
    raw = decode_json(_read(path), "switching")
    if not isinstance(raw, dict):
        raise ParseError("malformed switching: expected a JSON object")
    try:
        return {read_int(n): read_int(a) for n, a in raw.items()}
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed switching: {exc}") from None


def _cmd_dot(args) -> int:
    ps = _load_ps(args.file)
    switching = _load_switching(args.switching) if args.switching else None
    _write(args.out, export_dot(ps, switching))
    return 0


def _int(text: str) -> int:
    """An argparse type: a whole number written as every reader takes one
    (`read_int`), so ASCII digits after an optional sign."""
    try:
        return read_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _count(text: str) -> int:
    """An argparse type: a whole number of at least 0."""
    value = _int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _probability(text: str) -> float:
    """An argparse type: a number in [0, 1]."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0 <= value <= 1:  # rejects nan too
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {text}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser; built once, as parsing leaves it unchanged.
    Its `commands` maps each command name to that command's parser."""
    parser = argparse.ArgumentParser(
        prog="proofnets",
        description="Check, rewrite and sequentialize proof-structures.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, fmt=True):
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if fmt:
            p.add_argument("--format", choices=("json", "dsl", "dot"),
                           default="json")

    p = sub.add_parser("check", help="decide a correctness criterion")
    p.add_argument("file")
    p.add_argument("--criterion", required=True,
                   choices=("accw", "ac", "cw", "cwforall", "wten"))
    p.add_argument("--max-parr", type=_count, default=DEFAULT_MAX_PAR,
                   help="cap on the pars a criterion enumerates: for cw, those with "
                        "a premise on a cycle, when a switching graph is cyclic; for "
                        "cwforall, those with two erasing-compatible premises, on a "
                        "structure with jumps. ac, accw and wten run uncapped")
    add_common(p, fmt=False)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("normalize", help="run cut elimination to normal form")
    p.add_argument("file")
    p.add_argument("--seed", type=_int, default=None,
                   help="random strategy seed (default: smallest cut first)")
    p.add_argument("--trace", default=None, help="write the step trace here")
    add_common(p)
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("sequentialize", help="extract a sequent proof")
    p.add_argument("file")
    p.add_argument("--mode", choices=("wten", "btenll", "icomll"), default="wten")
    p.add_argument("--m", type=_int, default=None,
                   help="non-erasing anchor node (btenll mode)")
    p.add_argument("--jumps-out", default=None, help="write the jump map here")
    add_common(p, fmt=False)
    p.set_defaults(func=_cmd_sequentialize)

    p = sub.add_parser("jumps", help="attach canonical jumps")
    p.add_argument("file")
    p.add_argument("--mode", choices=("btenll", "icomll"), required=True)
    p.add_argument("--m", type=_int, default=None)
    add_common(p)
    p.set_defaults(func=_cmd_jumps)

    p = sub.add_parser("equiv", help="decide permutation equivalence of two proofs")
    p.add_argument("proof1")
    p.add_argument("proof2")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("deseq", help="desequentialize a proof file")
    p.add_argument("proof")
    add_common(p)
    p.set_defaults(func=_cmd_deseq)

    p = sub.add_parser("gen", help="generate random proofs/structures or fixtures")
    p.add_argument("--kind", choices=("ps", "proof"), default="ps")
    p.add_argument("--fragment", default=None)
    p.add_argument("--seed", type=_int, default=0)
    p.add_argument("--max-rules", type=_count, default=12)
    p.add_argument("--max-nodes", type=_count, default=12)
    p.add_argument("--cut-probability", type=_probability, default=0.0)
    p.add_argument("--fixture", choices=fixtures.NAMES, default=None,
                   help="emit a named fixture instead of a random object")
    add_common(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("dot", help="export DOT")
    p.add_argument("file")
    p.add_argument("--switching", default=None,
                   help="JSON switching map to render the induced graph")
    add_common(p, fmt=False)
    p.set_defaults(func=_cmd_dot)

    parser.commands = sub.choices  # command name -> its parser; see _parse
    return parser


def _parse(argv) -> argparse.Namespace:
    """The parsed command line.

    A line that starts with a command's exact name goes straight to that
    command's parser, which is what the top-level parser would hand it, so
    argparse runs once; leftover arguments get the top-level parser's
    error.  Any other line (none, an option, an unknown or abbreviated
    command) goes through the top-level parser.
    """
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        return args.func(args)
    except ProofNetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.report is not None:  # one write: stderr is line-buffered
            sys.stderr.write("".join(f"  [{rule}] {message}\n"
                                     for rule, _, message in exc.report.violations))
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
