import contextlib
import hashlib
import inspect
import io
import json
import os
import random
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

import pytest

import proofnets
from conftest import (count_proof_objects, count_search_visits, mutated_documents, mutations,
                      proof_texts)
from families import (closed_cuts, joined_chain, leaf_jumped_chain, nested_bots, one_chain,
                      par_bot_chain, par_tensor_chain, tensor_chain)
from proofnets import cli, fixtures, sequent, sequentialize
from proofnets.canonical import iso
from proofnets.cli import _parse, build_parser, main
from proofnets.errors import FragmentError, ParseError, ValidationError
from proofnets.formulas import Fragment, atom, in_fragment
from proofnets.generate import GenParams, random_proof, random_ps
from proofnets.sequent import (ax_rule, cut_rule, desequentialize, exchange_to, format_proof,
                               one_rule, par_rule, parse_proof, tensor_rule)
from proofnets.sequentialize import (canonical_jumps_btenll, canonical_jumps_icomll,
                                     sequentialize_btenll, sequentialize_icomll,
                                     sequentialize_wten)
from proofnets.render import export_dot
from proofnets.structure import erasing_nodes, from_dsl, from_json, to_dsl, to_json, validate
from proofnets.switching import CriterionVerdict
import reference_oracles
import reference_switching
from reference_switching import switchings


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_fixture(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(to_json(fixtures.load(name)))
    return str(path)


def _write_net(tmp_path, ps):
    path = tmp_path / "family.json"
    path.write_text(to_json(ps))
    return str(path)


def _write_proof(tmp_path, proof, frag=Fragment.MLLU):
    path = tmp_path / "in.proof"
    path.write_text(format_proof(proof, frag))
    return str(path)


def test_check_holds(tmp_path, capsys):
    path = write_fixture(tmp_path, "split-choice")
    code, out, _ = run(capsys, "check", path, "--criterion", "accw")
    assert code == 0
    doc = json.loads(out)
    assert doc["holds"] is True and doc["criterion"] == "accw"


def test_check_fails_with_witness(tmp_path, capsys):
    path = write_fixture(tmp_path, "regnier")
    code, out, _ = run(capsys, "check", path, "--criterion", "wten")
    assert code == 1
    doc = json.loads(out)
    assert doc["holds"] is False and "witness" in doc


def test_check_counterexample_serialized(tmp_path, capsys):
    path = write_fixture(tmp_path, "split-choice")
    code, out, _ = run(capsys, "check", path, "--criterion", "cwforall")
    assert code == 1
    assert "census" in json.loads(out)


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for text in ("{ not json", '{"nodes": ' + "[" * 3000 + "]" * 3000 + "}", "[1]"):
        bad.write_text(text)
        code, out, err = run(capsys, "check", str(bad), "--criterion", "accw")
        assert (code, out) == (2, "") and err.startswith("error: "), text[:20]


def test_validation_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.psl"
    bad.write_text("node 0 par\nnode 1 dot\narc 0 0 1\nconclusions 0\n")
    code, _, err = run(capsys, "check", str(bad), "--criterion", "ac")
    assert code == 2 and "binary par" in err


def test_repeated_ids_exit_2(tmp_path, capsys):
    # a second record under an id used to replace the first one silently
    doc = json.loads(to_json(fixtures.load("split-choice")))
    twice_node = {**doc, "nodes": doc["nodes"] + [dict(doc["nodes"][1]), doc["nodes"][0]]}
    twice_arc = {**doc, "arcs": doc["arcs"][:3] + [{**doc["arcs"][2], "id": "2"}]
                 + doc["arcs"][3:]}
    path = tmp_path / "twice.json"
    for bad, message in ((twice_node, "node id 1 is repeated"),
                         (twice_arc, "arc id 2 is repeated")):
        path.write_text(json.dumps(bad))
        for argv in (["check", str(path), "--criterion", "accw"], ["normalize", str(path)]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err == f"error: malformed structure document: {message}\n"
    # the last of two keys used to win: this ax was read as typed X, X^
    # and passed accw
    path.write_text('{"nodes": [{"id": 0, "label": "ax"}, {"id": 1, "label": "dot"},'
                    ' {"id": 2, "label": "dot"}], "arcs": [{"id": 0, "tail": 0, "head": 1},'
                    ' {"id": 1, "tail": 0, "head": 2}], "conclusions": [0, 1],'
                    ' "types": {"0": "X", "1": "Y", "1": "X^"}}')
    for criterion in ("ac", "accw"):
        assert run(capsys, "check", str(path), "--criterion", criterion) == (
            2, "", "error: malformed structure document: key '1' is repeated\n")
    dsl = tmp_path / "twice.psl"
    ax = "node 0 ax\nnode 1 dot\nnode 2 dot\narc 0 0 1\narc 1 0 2\n"
    for text, message in (("node 0 one\nnode 1 dot\nnode 0 bot\n", "line 3: node id 0 is repeated"),
                          ("node 0 one\nnode 1 dot\narc 0 0 1\narc 0 0 1\n",
                           "line 4: arc id 0 is repeated"),
                          # the second line used to replace the first: this ax
                          # was read as typed X, X^ and passed accw
                          (ax + "conclusions 0 1\ntype 0 Y\ntype 1 X^\ntype 0 X\n",
                           "line 9: type of arc 0 is repeated"),
                          (ax + "conclusions 0 1\nconclusions 0\n",
                           "line 7: conclusions are repeated from line 6"),
                          ("node 0 bot\nnode 1 dot\narc 0 0 1\njump 0 1\njump 0 0\n",
                           "line 5: jump of node 0 is repeated")):
        dsl.write_text(text)
        for criterion in ("ac", "accw"):
            code, out, err = run(capsys, "check", str(dsl), "--criterion", criterion)
            assert (code, out, err) == (2, "", f"error: {message}\n")


def test_a_label_that_is_no_string_is_a_parse_error(tmp_path, capsys):
    # such a label used to be read, then rejected as an unknown label, and
    # neither writer could give it back
    doc = json.loads(to_json(fixtures.load("split-choice")))
    path = tmp_path / "label.json"
    for label in (5, None, [1], {"ax": 0}):
        bad = {**doc, "nodes": [doc["nodes"][0], {**doc["nodes"][1], "label": label},
                                *doc["nodes"][2:]]}
        path.write_text(json.dumps(bad))
        for cmd in ("check", "normalize", "sequentialize", "dot"):
            argv = [cmd, str(path), *(["--criterion", "accw"] if cmd == "check" else [])]
            assert run(capsys, *argv) == (2, "", "error: malformed structure document: "
                                          "label of node 1 is not a string\n"), (label, cmd)


# a JSON literal that is no integer, and how the error names it
_NOT_INTEGERS = [("1e999", "1e999"), ("-Infinity", "-Infinity"), ("NaN", "NaN"),
                 ("1.5", "1.5"), ("2.0", "2.0"), ("true", "True"), ("false", "False"),
                 ('"1_0"', "'1_0'"), ('"\\u0663"', "'\u0663'")]
# a word or key that int() reads, but no reader does
_NOT_ASCII_INTEGERS = ["1_0", "\u0663", "+\u0663", "\u0661\u0660", " 3"]


def _with_literal(doc, path, literal):
    """The JSON text of `doc` with the value at `path` written as `literal`."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = "@"
    return json.dumps(doc).replace('"@"', literal)


def _with_key(obj, key, new):
    """The object `obj` with its key `key` renamed to `new`."""
    return {new if k == key else k: v for k, v in obj.items()}


def test_every_reader_takes_integers_only(tmp_path, capsys):
    # a float, NaN, Infinity, a bool, or a string of digits that are not
    # ASCII or hold an underscore, in any id or position of any reader, is a
    # parse error (exit 2); none escapes as a traceback or is truncated
    doc = {**json.loads(to_json(fixtures.load("jumps-units"))), "jumps": {"4": 0}}
    path = tmp_path / "doc.json"
    malformed = "error: malformed structure document: "
    values = [("nodes", 1, "id"), ("arcs", 1, "id"), ("arcs", 1, "tail"), ("arcs", 1, "head"),
              ("premises", "2", 0), ("premises", "2", 1), ("conclusions", 0), ("jumps", "4")]
    for where in values:
        for literal, shown in _NOT_INTEGERS:
            path.write_text(_with_literal(doc, where, literal), encoding="utf-8")
            want = (2, "", f"{malformed}{shown} is not an integer\n")
            assert run(capsys, "check", str(path), "--criterion", "accw") == want, where
    for field, key in (("premises", "2"), ("types", "0"), ("jumps", "4")):
        for bad in _NOT_ASCII_INTEGERS:
            path.write_text(json.dumps({**doc, field: _with_key(doc[field], key, bad)}),
                            encoding="utf-8")
            want = (2, "", f"{malformed}{bad!r} is not an integer\n")
            assert run(capsys, "check", str(path), "--criterion", "accw") == want, (field, bad)
    # the switching file of dot: a value, then a key
    net, switching = write_fixture(tmp_path, "jumps-units"), tmp_path / "switching.json"
    good = {"3": 0, "6": 5, "7": 4}
    texts = [(_with_literal(good, ("7",), literal), shown) for literal, shown in _NOT_INTEGERS]
    texts += [(json.dumps(_with_key(good, "7", bad)), repr(bad)) for bad in _NOT_ASCII_INTEGERS]
    for text, shown in texts:
        switching.write_text(text, encoding="utf-8")
        assert run(capsys, "dot", net, "--switching", str(switching)) == (
            2, "", f"error: malformed switching: {shown} is not an integer\n"), text
    # each number of each line of the DSL
    lines = to_dsl(fixtures.load("jumps-units")).splitlines() + ["jump 4 0"]
    dsl = tmp_path / "doc.psl"
    for i, line in enumerate(lines):
        kind, *words = line.split()
        # every word of arc, conclusions and jump lines; a node's id and
        # premises; a type's arc
        numbers = ([0] if kind == "type" else [0, 2, 3][:len(words) - 1] if kind == "node"
                   else range(len(words)))
        for j in numbers:
            for bad in _NOT_ASCII_INTEGERS[:-1]:  # a DSL word holds no space
                changed = " ".join([kind, *words[:j], bad, *words[j + 1:]])
                dsl.write_text("\n".join([*lines[:i], changed, *lines[i + 1:]]) + "\n",
                               encoding="utf-8")
                assert run(capsys, "check", str(dsl), "--criterion", "accw") == (
                    2, "", f"error: line {i + 1}: {bad!r} is not an integer\n"), changed
    # an exchange position, in range once read by int(); a sign or a
    # leading zero still reads
    proof = tmp_path / "ex.proof"
    for position in ("\u0661", "0_1", "+\u0661", "\u0967"):
        proof.write_text(f'fragment: mllu\n(ex {position} (ax "A"))\n', encoding="utf-8")
        err = "error: ex takes a 1-based position (at offset 5)\n"
        assert run(capsys, "deseq", str(proof)) == (2, "", err), position
        assert run(capsys, "equiv", str(proof), str(proof)) == (2, "", err), position
    for position in ("1", "+1", "01"):
        proof.write_text(f'fragment: mllu\n(ex {position} (ax "A"))\n', encoding="utf-8")
        assert run(capsys, "equiv", str(proof), str(proof)) == (0, "true\n", ""), position


def test_normalize_writes_trace_and_normal_form(tmp_path, capsys):
    path = write_fixture(tmp_path, "wten-cut")
    trace_path = tmp_path / "trace.jsonl"
    code, out, _ = run(capsys, "normalize", path, "--trace", str(trace_path))
    assert code == 0
    nf = from_json(out)
    assert not nf.nodes_with_label("cut")
    steps = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert steps and steps[0]["kind"] == "axiom"


def test_sequentialize_and_deseq_round_trip(tmp_path, capsys):
    path = write_fixture(tmp_path, "wten-cut")
    code, out, _ = run(capsys, "sequentialize", path)
    assert code == 0
    proof_path = tmp_path / "proof.txt"
    proof_path.write_text(out)
    code, out2, _ = run(capsys, "deseq", str(proof_path))
    assert code == 0
    back = from_json(out2)
    original = fixtures.load("wten-cut")
    from proofnets.structure import strip
    assert iso(strip(back), strip(original))


def test_sequentialize_btenll_emits_jump_map(tmp_path, capsys):
    path = write_fixture(tmp_path, "jumps-units")
    jumps_path = tmp_path / "jumps.json"
    code, out, _ = run(capsys, "sequentialize", path, "--mode", "btenll",
                       "--m", "0", "--jumps-out", str(jumps_path))
    assert code == 0
    assert out.startswith("fragment: btenll")
    assert json.loads(jumps_path.read_text()) == {"4": 3, "5": 3}


def test_sequentialize_rejects_regnier(tmp_path, capsys):
    path = write_fixture(tmp_path, "regnier")
    code, _, err = run(capsys, "sequentialize", path)
    assert code == 2 and "erasing" in err


def test_sequentialize_validates_once(tmp_path, capsys, monkeypatch):
    import proofnets.structure as structure

    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return validate(*args, **kwargs)

    validate = structure.validate
    monkeypatch.setattr(structure, "validate", counting)
    path = write_fixture(tmp_path, "wten-cut")
    assert run(capsys, "sequentialize", path)[0] == 0
    assert len(calls) == 1
    # a tensor without a premise order: the same report in every mode
    bad = tmp_path / "bad.dsl"
    bad.write_text("node 0 ax\nnode 1 ax\nnode 2 tensor\nnode 3 dot\nnode 4 dot\n"
                   "node 5 dot\narc 0 0 2\narc 1 0 3\narc 2 1 2\narc 3 1 4\n"
                   "arc 4 2 5\nconclusions 1 3 4\n")
    results = {run(capsys, "sequentialize", str(bad), "--mode", mode, "--m", "0")
               for mode in ("wten", "btenll", "icomll")}
    assert results == {(2, "", "error: 1 violation(s): tensor node 2 lacks a premise order\n"
                               "  [premise-order] tensor node 2 lacks a premise order\n")}


def test_jumps_subcommand_round_trips(tmp_path, capsys):
    path = write_fixture(tmp_path, "jumps-constants")
    code, out, _ = run(capsys, "jumps", path, "--mode", "icomll")
    assert code == 0
    jumped = from_json(out)
    assert jumped.jumps == {0: 3, 5: 3}


def test_equiv_true_and_false(tmp_path, capsys):
    from proofnets.formulas import Fragment
    from proofnets.generate import GenParams, random_proof
    from proofnets.sequent import format_proof
    from proof_permutations import permute_rules
    p = random_proof(GenParams(fragment=Fragment.BTENLL, max_rules=12, seed=4))
    q = permute_rules(p, seed=5)
    p1 = tmp_path / "p1.proof"
    p2 = tmp_path / "p2.proof"
    p1.write_text(format_proof(p, Fragment.BTENLL))
    p2.write_text(format_proof(q, Fragment.BTENLL))
    code, out, _ = run(capsys, "equiv", str(p1), str(p2))
    assert code == 0 and out.strip() == "true"

    r = random_proof(GenParams(fragment=Fragment.BTENLL, max_rules=12, seed=6))
    p3 = tmp_path / "p3.proof"
    p3.write_text(format_proof(r, Fragment.BTENLL))
    code, out, _ = run(capsys, "equiv", str(p1), str(p3))
    assert code == 1 and out.strip() == "false"


def test_gen_ps_deterministic(tmp_path, capsys):
    code, out1, _ = run(capsys, "gen", "--kind", "ps", "--seed", "9")
    code2, out2, _ = run(capsys, "gen", "--kind", "ps", "--seed", "9")
    assert code == code2 == 0
    assert out1 == out2
    assert from_json(out1).nodes


def test_gen_proof_parses(capsys):
    code, out, _ = run(capsys, "gen", "--kind", "proof", "--fragment", "icomll",
                       "--seed", "2")
    assert code == 0
    frag, proof = parse_proof(out)
    assert frag.value == "icomll"


def test_gen_fixture_and_dsl_format(capsys):
    code, out, _ = run(capsys, "gen", "--fixture", "regnier", "--format", "dsl")
    assert code == 0
    assert iso(from_dsl(out), fixtures.load("regnier"))


def test_dot_deterministic_and_switched(tmp_path, capsys):
    path = write_fixture(tmp_path, "jumps-units")
    code, out1, _ = run(capsys, "dot", path)
    _, out2, _ = run(capsys, "dot", path)
    assert code == 0 and out1 == out2
    assert "digraph" in out1 and "headport=nw" in out1

    switching = tmp_path / "sw.json"
    switching.write_text(json.dumps({"3": 0, "6": 5, "7": 4}))
    code, out3, _ = run(capsys, "dot", path, "--switching", str(switching))
    assert code == 0
    assert out3.count("shape=point") > out1.count("shape=point")


def test_dot_renders_jumps_dashed(tmp_path, capsys):
    ps = fixtures.load("jumps-units")
    ps.jumps = {4: 3, 5: 3}
    path = tmp_path / "jumped.json"
    path.write_text(to_json(ps))
    code, out, _ = run(capsys, "dot", str(path))
    assert code == 0 and out.count("style=dashed") == 2


# sha256 of every `dot` output below, taken before `switching_graph` shared
# the census's re-heading
DOT_SWITCHED_CORPUS = "1ff8632644abb108ba7f5d4544f0965ee2b320fbffd78bcfcffe5297872aa4d8"


def _dot_corpus():
    """The fixtures and 60 seeded `random_ps` structures, each also with a
    seeded jump from every bot."""
    rng = random.Random(0)
    bases = [fixtures.load(name) for name in fixtures.NAMES]
    bases += [random_ps(GenParams(fragment=frag, seed=seed))
              for seed in range(30) for frag in (None, Fragment.MLLU)]
    for ps in bases:
        yield ps
        if bots := ps.bottom_nodes():
            yield ps.with_jumps({b: rng.choice([n for n in sorted(ps.nodes) if n != b])
                                 for b in bots})


def test_dot_switched_output_is_pinned(tmp_path, capsys):
    # each structure drawn plainly and under its first 6 switchings
    net, sw = tmp_path / "net.json", tmp_path / "sw.json"
    digest, renders = hashlib.sha256(), 0
    for ps in _dot_corpus():
        net.write_text(to_json(ps))
        for switching in [None, *islice(switchings(ps, max_par=100), 6)]:
            argv = ["dot", str(net)]
            if switching is not None:
                sw.write_text(json.dumps({str(n): a for n, a in switching.items()}))
                argv += ["--switching", str(sw)]
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, ""), argv
            digest.update(out.encode())
            renders += 1
    assert renders > 300, renders
    assert digest.hexdigest() == DOT_SWITCHED_CORPUS


def test_out_flag_writes_files(tmp_path, capsys):
    src = write_fixture(tmp_path, "split-choice")
    out = tmp_path / "copy.json"
    code, stdout, _ = run(capsys, "gen", "--fixture", "split-choice",
                          "--out", str(out))
    assert code == 0 and stdout == ""
    assert iso(from_json(out.read_text()), fixtures.load("split-choice"))
    dot_out = tmp_path / "net.dot"
    code, _, _ = run(capsys, "dot", src, "--out", str(dot_out))
    assert code == 0 and dot_out.read_text().startswith("digraph")


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/net.json",
                       "--criterion", "ac")
    assert code == 2 and "error" in err


def test_main_reuses_its_parser_across_calls(tmp_path, capsys):
    # one process runs several commands; each must behave as in a fresh one
    path = write_fixture(tmp_path, "wten-cut")
    commands = [["check", path, "--criterion", "accw"],
                ["normalize", path, "--trace", "-"],
                ["gen", "--kind", "proof", "--fragment", "btenll", "--seed", "3"],
                ["check", path, "--criterion", "cwforall"]]
    env = dict(os.environ, PYTHONPATH=str(Path(proofnets.__file__).parents[1]))
    for argv in commands:
        code, out, _ = run(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "proofnets.cli", *argv],
                               capture_output=True, text=True, env=env)
        assert (code, out) == (fresh.returncode, fresh.stdout), argv
    assert build_parser() is build_parser()


def _parser_argvs():
    """Command lines for the parser's fast path and the top-level one."""
    argvs = [[name, "-h"] for name in build_parser().commands]
    argvs += [
        [], ["-h"], ["--help"], ["--he"], ["-h", "check"], ["nope"], ["chec"], ["CHECK"],
        ["--", "check", "f", "--criterion", "ac"], ["--version"],
        # missing required arguments
        ["check"], ["check", "f"], ["check", "--criterion", "ac"], ["equiv", "a"],
        ["jumps", "f"], ["deseq"], ["normalize"], ["dot"],
        # bad choices and bad values
        ["check", "f", "--criterion", "nope"], ["gen", "--fixture", "nope"],
        ["sequentialize", "f", "--mode", "x"], ["normalize", "f", "--format", "svg"],
        ["gen", "--max-rules", "-1"], ["gen", "--cut-probability", "2"],
        ["check", "f", "--criterion", "ac", "--max-parr", "x"], ["normalize", "f", "--seed", "1.5"],
        # abbreviations and = forms
        ["check", "f", "--crit", "accw"], ["check", "f", "--criterion=accw"],
        ["check", "f", "--cri=ac", "--max", "3"], ["check", "--c", "cw", "f"],
        ["gen", "--max", "3"], ["jumps", "f", "--mode", "btenll", "--m", "4"],
        # --
        ["check", "--", "f", "--criterion", "ac"], ["check", "--criterion", "ac", "--", "-f"],
        ["check", "--criterion", "ac", "--", "f"], ["equiv", "--", "a", "b"],
        # extra positionals and unknown options
        ["check", "a", "b", "--criterion", "ac"], ["equiv", "a", "b", "c"],
        ["check", "f", "--criterion", "ac", "--bogus"],
        ["check", "f", "--bogus=1", "--criterion", "ac"],
        ["gen", "-x"], ["gen", "stray", "--seed", "2", "-q"], ["check", "f", "-h", "--bogus"],
        # well-formed lines of every command
        ["check", "f", "--criterion", "wten", "--max-parr", "0", "--out", "o"],
        ["normalize", "f", "--seed", "4", "--trace", "t", "--format", "dsl"],
        ["sequentialize", "f", "--mode", "btenll", "--m", "2", "--jumps-out", "j"],
        ["jumps", "f", "--mode", "icomll", "--format", "dot"], ["equiv", "a", "b"],
        ["deseq", "p", "--out", "o"], ["dot", "f", "--switching", "s"], ["gen"],
        ["gen", "--kind", "proof", "--fragment", "mll", "--seed", "-3", "--cut-probability", "0.5"],
    ]
    return argvs


def _parsed(parse, argv):
    """What parsing a command line gives: the namespace without its handler
    or the exit code, and the text written to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = vars(parse(argv))
            args.pop("func", None)
            result = ("args", args)
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


def test_commands_parse_as_through_the_top_level_parser():
    exits = 0
    for argv in _parser_argvs():
        expected = _parsed(build_parser().parse_args, argv)
        assert _parsed(_parse, argv) == expected, argv
        exits += expected[0][0] == "exit"
    assert 30 < exits < len(_parser_argvs()) - 10


def test_console_entry_reads_sys_argv(tmp_path, capsys):
    # `python -m proofnets.cli` calls main() with no argv: the fast path
    # then reads sys.argv, and its errors match the in-process ones
    path = write_fixture(tmp_path, "regnier")
    env = dict(os.environ, PYTHONPATH=str(Path(proofnets.__file__).parents[1]))
    for argv in (["check", path, "--criterion", "accw"], ["check"],
                 ["check", path, "extra", "--criterion", "accw"]):
        fresh = subprocess.run([sys.executable, "-m", "proofnets.cli", *argv],
                               capture_output=True, text=True, env=env)
        try:
            code, out, err = run(capsys, *argv)
        except SystemExit as exc:
            captured = capsys.readouterr()
            code, out, err = exc.code, captured.out, captured.err
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == (code, out, err), argv
        assert code == (0 if argv[1:] == [path, "--criterion", "accw"] else 2), argv


def test_gen_deep_proof_round_trips(capsys):
    code, out, _ = run(capsys, "gen", "--kind", "proof", "--fragment", "mllu",
                       "--max-rules", "700", "--seed", "0")
    assert code == 0
    _, proof = parse_proof(out)
    expected = random_proof(GenParams(fragment=Fragment.MLLU, max_rules=700, seed=0))
    assert proof.rule_count() == expected.rule_count() == 720


def _balanced(proofs, rule):
    while len(proofs) > 1:
        proofs = [rule(proofs[i], proofs[i + 1]) for i in range(0, len(proofs), 2)]
    return proofs[0]


def test_canonical_budget_exits_2(tmp_path, capsys, monkeypatch):
    # one closed component: a cut between a balanced par tree of 8 bots and
    # the dual tensor tree of ones.  Colours cannot tell the 8 bots apart,
    # so the traversal tries each as its start.
    p = nested_bots(8)
    while len(p.conclusion) > 2:
        # pair the last two conclusions and move their par next to the one
        p = par_rule(p)
        last = len(p.conclusion) - 1
        p = exchange_to(p, [0, last] + list(range(1, last)))
    proof = cut_rule(p.conclusion[-1], p, _balanced([one_rule()] * 8, tensor_rule))
    path = tmp_path / "closed.proof"
    path.write_text(format_proof(proof, Fragment.BTENLL))
    code, out, _ = run(capsys, "equiv", str(path), str(path))
    assert (code, out) == (0, "true\n")
    monkeypatch.setattr("proofnets.canonical._CHOICE_BUDGET", 5)
    code, out, err = run(capsys, "equiv", str(path), str(path))
    assert code == 2 and out == "" and "symmetric alternatives" in err


def _counted(monkeypatch, module, name, most):
    """The calls of `module.name` from now on, in a list.  A call past the
    first `most` fails at once, so a run that has lost its bound ends."""
    target, calls = getattr(module, name), []

    def counting(*args, **kwargs):
        calls.append(args)
        if len(calls) > most:
            raise AssertionError(f"{name} ran more than {most} times")
        return target(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_cwforall_of_a_jump_free_chain_takes_one_census(tmp_path, capsys, monkeypatch):
    # a jump-free structure is decided by its first erasing-compatible
    # switching, so one census is taken, not one for each of the 2^k
    from proofnets import switching
    for k in (14, 20):
        net = _write_net(tmp_path, par_tensor_chain(k))
        calls = _counted(monkeypatch, switching, "_components", 1)
        assert run(capsys, "check", net, "--criterion", "cwforall") == (
            0, '{"criterion": "cwforall", "holds": true, "census": []}\n', "")
        assert len(calls) == 1
        monkeypatch.undo()


def test_cwforall_caps_only_the_pars_it_enumerates(tmp_path, capsys):
    # jump-free, the first erasing-compatible switching decides under any
    # cap: the verdict is wten's, and a failing one prints that switching
    for k in (21, 25, 40):
        for joined in (False, True):
            net = _write_net(tmp_path, par_tensor_chain(k, joined))
            wten = run(capsys, "check", net, "--criterion", "wten")[0]
            assert wten == joined
            # the enumeration stops at once on a failing chain only
            expected = (reference_switching.cwforall(from_json(Path(net).read_text()), max_par=k)
                        if joined else CriterionVerdict("cwforall", True))
            for cap in ("0", "20"):
                assert run(capsys, "check", net, "--criterion", "cwforall", "--max-parr", cap) == (
                    wten, expected.to_json() + "\n", ""), (k, joined, cap)
    # with a jump, the 40 pars with two erasing-compatible premises are
    # enumerated, so the default cap bites; 3 of them under a cap of 3 do not
    net = _write_net(tmp_path, leaf_jumped_chain(40))
    assert run(capsys, "check", net, "--criterion", "cwforall") == (
        2, "", "error: 40 par nodes with two erasing-compatible premises exceed "
               "the enumeration cap 20\n")
    for joined in (False, True):
        net = _write_net(tmp_path, leaf_jumped_chain(3, joined))
        code, out, err = run(capsys, "check", net, "--criterion", "cwforall", "--max-parr", "2")
        assert (code, out) == (2, ""), joined
        assert "3 par nodes with two erasing-compatible premises exceed" in err
        expected = reference_switching.cwforall(from_json(Path(net).read_text()))
        assert run(capsys, "check", net, "--criterion", "cwforall", "--max-parr", "3") == (
            1 - expected.holds, expected.to_json() + "\n", ""), joined


def test_equiv_of_identical_closed_components(tmp_path, capsys):
    # the closed components are canonicalized apart instead of permuted
    for k in (9, 200):
        path = _write_proof(tmp_path, closed_cuts(k), Fragment.BTENLL)
        start = time.perf_counter()
        code, out, _ = run(capsys, "equiv", path, path)
        assert (code, out) == (0, "true\n")
        assert time.perf_counter() - start < 1.0, k


@pytest.mark.parametrize("k", [9, 200])
def test_equiv_of_identical_closed_components_traverses_each_once(tmp_path, capsys,
                                                                 monkeypatch, k):
    # the clock gate above, counted: each proof's net is traversed once for
    # its main part and once per closed component; permuting the k equal
    # components would take k! traversals
    from proofnets import canonical

    path = _write_proof(tmp_path, closed_cuts(k), Fragment.BTENLL)
    calls = _counted(monkeypatch, canonical, "_traverse", 2 * k + 2)
    assert run(capsys, "equiv", path, path) == (0, "true\n", "")
    assert len(calls) == 2 * k + 2, len(calls)


def test_sequentialize_prints_deeply_nested_proofs(tmp_path, capsys):
    # k nested bot rules come back with k(k-1)/2 nested exchanges
    for k in (20, 45):
        proof = _write_proof(tmp_path, nested_bots(k))
        net = tmp_path / f"bots{k}.json"
        assert run(capsys, "deseq", proof, "--out", str(net))[0] == 0
        code, out, _ = run(capsys, "sequentialize", str(net))
        assert code == 0
        assert out.count("(bot ") == k and out.count("(ex ") == k * (k - 1) // 2
        if k == 20:
            _, back = parse_proof(out)
            assert format_proof(back) == out


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux's VmHWM")
def test_sequentialize_of_400_nested_bots_stays_small(tmp_path):
    # 400 nested bot rules come back under 79 800 exchanges, which store no
    # conclusion.  The command runs in a fresh process and reads the peak
    # resident size of its own memory map: ru_maxrss would also count the
    # parent's, which a vfork child holds until its exec.
    net = tmp_path / "bots.json"
    net.write_text(to_json(desequentialize(nested_bots(400, ax_rule(atom("A")))).ps))
    child = ("import contextlib, hashlib, io, re, sys\n"
             "from pathlib import Path\n"
             "from proofnets.cli import main\n"
             "out = io.StringIO()\n"
             "with contextlib.redirect_stdout(out):\n"
             "    code = main(['sequentialize', sys.argv[1]])\n"
             "peak = re.search(r'VmHWM:\\s*(\\d+) kB', Path('/proc/self/status').read_text())[1]\n"
             "print(code, hashlib.sha256(out.getvalue().encode()).hexdigest(), peak)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(proofnets.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", child, str(net)], capture_output=True,
                          text=True, env=env, check=True)
    code, digest, peak_kb = done.stdout.split()
    assert (code, digest) == (
        "0", "3dce79dd6b0871962fff7098401554760bec5286987c41933748dab99c294475")
    assert int(peak_kb) < 100 * 1024


def test_dot_rejects_bad_switching_files(tmp_path, capsys):
    path = write_fixture(tmp_path, "regnier")
    switching = tmp_path / "sw.json"
    for text in ("{}", '{"3": "x"}', "[1]", "{not json", "[" * 3000 + "]" * 3000):
        switching.write_text(text)
        code, out, err = run(capsys, "dot", path, "--switching", str(switching))
        assert (code, out) == (2, ""), text
        assert err.startswith("error: "), text


def test_equiv_reads_back_the_sequentializer_output(tmp_path, capsys):
    # 45 nested bot rules come back under 990 nested exchanges
    proof = _write_proof(tmp_path, nested_bots(45))
    net, back = tmp_path / "bots.json", tmp_path / "back.proof"
    assert run(capsys, "deseq", proof, "--out", str(net))[0] == 0
    assert run(capsys, "sequentialize", str(net), "--out", str(back))[0] == 0
    assert run(capsys, "equiv", proof, str(back)) == (0, "true\n", "")


def test_deep_proofs_parse_check_and_desequentialize(tmp_path, capsys, monkeypatch):
    k = 1200
    proof = _write_proof(tmp_path, nested_bots(k, ax_rule(atom("A"))))
    built = count_proof_objects(monkeypatch)
    code, out, _ = run(capsys, "deseq", proof)
    assert code == 0
    assert [n["label"] for n in json.loads(out)["nodes"]].count("bot") == k
    assert run(capsys, "equiv", proof, proof) == (0, "true\n", "")
    assert built == [0]  # read straight into nets
    # proof nesting depth 1250, with 54 par rules
    code, out, _ = run(capsys, "gen", "--kind", "proof", "--fragment", "mllu",
                       "--max-rules", "1500", "--seed", "0")
    assert code == 0
    generated = tmp_path / "gen.proof"
    generated.write_text(out)
    code, out, err = run(capsys, "deseq", str(generated))
    assert (code, err) == (0, "")
    assert [n["label"] for n in json.loads(out)["nodes"]].count("par") == 54


def _composition(rng, parts):
    """`parts` random btenll proofs tensored together on formulas of kind A,
    as the roundtrip benchmark composes them."""
    def draw():
        return random_proof(GenParams(fragment=Fragment.BTENLL, max_rules=rng.randint(6, 24),
                                      seed=rng.randrange(2 ** 31)))

    def kind_a(p):
        return [i for i, x in enumerate(p.conclusion)
                if in_fragment(x, Fragment.BTENLL)[1] == "A"]

    q = draw()
    for _ in range(parts - 1):
        p = draw()
        left, right = kind_a(q), kind_a(p)
        if left and right:
            i, j = rng.choice(left), rng.choice(right)
            q = exchange_to(q, [x for x in range(q.length) if x != i] + [i])
            p = exchange_to(p, [j] + [x for x in range(p.length) if x != j])
            q = tensor_rule(q, p)
    return q


def test_deseq_and_equiv_build_proof_trees_only_to_report(tmp_path, capsys, monkeypatch):
    composed = _composition(random.Random(3), 11)
    assert composed.rule_count() > 100
    path, net, back = tmp_path / "c.proof", tmp_path / "c.json", tmp_path / "back.proof"
    path.write_text(format_proof(composed, Fragment.BTENLL))
    built = count_proof_objects(monkeypatch)
    assert run(capsys, "deseq", str(path), "--out", str(net))[0] == 0
    assert built == [0]
    assert run(capsys, "sequentialize", str(net), "--out", str(back))[0] == 0
    built[0] = 0
    assert run(capsys, "equiv", str(path), str(back)) == (0, "true\n", "")
    assert built == [0]
    # a proof outside its fragment is reported off its net, with no tree
    # either and no second read of its text: each command reads each of its
    # texts once; equiv reports the first proof outside btenll
    reads = []
    read_rules = sequent._read_rules
    monkeypatch.setattr(sequent, "_read_rules",
                        lambda *args: reads.append(1) or read_rules(*args))
    outside = random_proof(GenParams(fragment=Fragment.MLLU, max_rules=24, seed=4))
    assert not reference_oracles.check_proof(outside, Fragment.BTENLL).ok
    bad = tmp_path / "bad.proof"
    bad.write_text(format_proof(outside, Fragment.BTENLL))
    for argv in (("deseq", bad), ("equiv", bad, path), ("equiv", path, bad), ("equiv", bad, bad)):
        built[0] = 0
        reads.clear()
        code, out, err = run(capsys, *map(str, argv))
        assert (code, out) == (2, "") and err.startswith("error: ")
        assert built == [0] and len(reads) == len(argv) - 1, argv


def test_deseq_formats_each_failing_formula_once(tmp_path, capsys, monkeypatch):
    # the report lists a failing formula at each rule that introduces it,
    # but prints the text of each distinct one once, and its stderr is
    # shorter than the proof text
    calls = []
    fmt = sequent.format_formula
    monkeypatch.setattr(sequent, "format_formula", lambda f: calls.append(f) or fmt(f))
    path = tmp_path / "outside.proof"
    for rules in (400, 1600):
        proof = random_proof(GenParams(fragment=Fragment.MLLU, max_rules=rules,
                                       max_nodes=10 ** 6, seed=1, cut_probability=0.3))
        want = reference_oracles.check_proof(proof, Fragment.BTENLL).violations
        distinct = {message for _, _, message in want}
        assert len(want) > len(distinct) > 0, rules
        text = format_proof(proof, Fragment.BTENLL)
        path.write_text(text)
        calls.clear()
        code, out, err = run(capsys, "deseq", str(path))
        assert (code, out, err.count("\n")) == (2, "", 1 + len(want)), rules
        assert len(calls) <= len(distinct), rules
        assert len(err) < len(text), rules


def _report_lines(report) -> str:
    return "".join(f"  [{rule}] {message}\n" for rule, _, message in report.violations)


def test_fragment_errors_print_their_report_line_by_line(tmp_path, capsys):
    # equiv of a proof outside btenll, and jumps or sequentialize of a
    # structure outside its mode's fragment, print the error's first line,
    # then one line per violation of its report, as deseq does
    outside = random_proof(GenParams(fragment=Fragment.MLLU, max_rules=24, seed=4))
    report = reference_oracles.check_proof(outside, Fragment.BTENLL)
    assert len(report.violations) > 1
    bad, good = tmp_path / "bad.proof", tmp_path / "good.proof"
    bad.write_text(format_proof(outside, Fragment.BTENLL))
    good.write_text('fragment: btenll\n(ax "A")\n')
    want = (2, "", "error: proof outside btenll\n" + _report_lines(report))
    for pair in ((bad, bad), (bad, good), (good, bad)):
        assert run(capsys, "equiv", *map(str, pair)) == want, pair
    for name, frag, argv in (("jumps-units", Fragment.ICOMLL, ["--mode", "icomll"]),
                             ("jumps-constants", Fragment.BTENLL, ["--mode", "btenll", "--m", "3"])):
        report = validate(fixtures.load(name), frag)
        assert len(report.violations) > 1, name
        want = (2, "", f"error: not a valid {frag.value} structure\n" + _report_lines(report))
        path = write_fixture(tmp_path, name)
        for command in ("jumps", "sequentialize"):
            assert run(capsys, command, path, *argv) == want, (name, command)
    with pytest.raises(FragmentError) as exc:
        canonical_jumps_icomll(fixtures.load("jumps-units"))
    assert exc.value.report.violations == validate(fixtures.load("jumps-units"),
                                                   Fragment.ICOMLL).violations


@pytest.mark.parametrize("argv", [
    ["deseq", "PROOF"], ["normalize", "IN:wten-cut"],
    ["jumps", "IN:jumps-units", "--mode", "btenll", "--m", "0"],
    ["jumps", "IN:jumps-constants", "--mode", "icomll"],
    *(["gen", "--fixture", name] for name in fixtures.NAMES),
], ids=" ".join)
def test_dot_format_draws_the_json_output(tmp_path, capsys, argv):
    # --format dot prints, or writes with --out, export_dot of the structure
    # that --format json prints
    proof = tmp_path / "in.proof"
    proof.write_text(format_proof(sequentialize_wten(fixtures.load("wten-cut")), Fragment.MLLU))
    argv = [str(proof) if a == "PROOF" else write_fixture(tmp_path, a[3:])
            if a.startswith("IN:") else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    want = export_dot(from_json(out))
    assert run(capsys, *argv, "--format", "dot") == (0, want, "")
    path = tmp_path / "out.dot"
    assert run(capsys, *argv, "--format", "dot", "--out", str(path)) == (0, "", "")
    assert path.read_text(encoding="utf-8") == want
    assert ("style=dashed" in want) == (argv[0] == "jumps")


def test_sequentialize_prints_with_no_proof_tree(tmp_path, capsys, monkeypatch):
    # the command prints straight from the skeleton in every mode; the
    # public sequentializers append every rule to one buffer and make one
    # SequentProof object: 600 nested bots over an ax come back under
    # 179 700 exchanges
    tensors, ones = tensor_chain(1600), one_chain(1600)
    bots, composed = (desequentialize(p, verify=False).ps for p in (
        nested_bots(600, ax_rule(atom("A"))), _composition(random.Random(3), 11)))
    assert len(composed.nodes) > 100
    ax = tensors.nodes_with_label("ax")[0]
    anchor = min(n for n, lab in composed.nodes.items()
                 if lab != "dot" and n not in erasing_nodes(composed))
    cases = [(tensors, "wten", None), (tensors, "btenll", ax), (ones, "icomll", None),
             (bots, "wten", None), (composed, "wten", None), (composed, "btenll", anchor)]
    path = tmp_path / "net.json"
    built = count_proof_objects(monkeypatch)
    for ps, mode, m in cases:
        path.write_text(to_json(ps))
        built[0] = 0
        code, out, err = run(capsys, "sequentialize", str(path), "--mode", mode,
                             *(["--m", str(m)] if m is not None else []))
        assert (code, err, built) == (0, "", [0]), mode
        proof = (sequentialize_wten(ps) if mode == "wten" else
                 sequentialize_btenll(ps, m)[0] if mode == "btenll" else
                 sequentialize_icomll(ps)[0])
        assert built == [1] and proof.rule_count() > 100, mode
        assert out == format_proof(proof, Fragment.MLLU if mode == "wten" else Fragment(mode))


def test_a_failing_sequentialize_writes_nothing(tmp_path, capsys):
    # the proof is written only once the skeleton has finished: a failure
    # leaves stdout empty and creates neither output file
    accw = tmp_path / "accw.dsl"
    accw.write_text("node 0 bot\nnode 1 dot\narc 0 0 1\nconclusions 0\n")
    two_outputs = tmp_path / "outputs.dsl"
    two_outputs.write_text("node 0 one\nnode 1 one\nnode 2 dot\nnode 3 dot\n"
                           "arc 0 0 2\narc 1 1 3\nconclusions 0 1\ntype 0 one\ntype 1 one\n")
    units = write_fixture(tmp_path, "jumps-units")
    cases = [(accw, [], "error: structure fails the accw criterion\n"),
             (write_fixture(tmp_path, "regnier"), [], "error: premise "),
             (units, ["--mode", "btenll", "--m", "4"],
              "error: node 4 is not a non-erasing node\n"),
             (units, ["--mode", "btenll", "--m", "99"],
              "error: node 99 is not a non-erasing node\n"),
             (two_outputs, ["--mode", "icomll"],
              "error: structure has 2 output conclusions, expected 1\n")]
    out, jumps = tmp_path / "out.proof", tmp_path / "jumps.json"
    for path, argv, message in cases:
        for extra in ([], ["--out", str(out), "--jumps-out", str(jumps)]):
            code, stdout, err = run(capsys, "sequentialize", str(path), *argv, *extra)
            assert (code, stdout) == (2, "") and err.startswith(message), (path, argv)
            assert not out.exists() and not jumps.exists()


def _tree_deseq(args) -> int:
    """`deseq` through the proof tree: parse, check with the reference
    check_proof, desequentialize."""
    frag, proof = parse_proof(cli._read(args.proof))
    report = reference_oracles.check_proof(proof, frag)
    if not report.ok:
        raise ValidationError(report)
    cli._emit_ps(desequentialize(proof).ps, args.format, args.out)
    return 0


def _tree_equiv(args) -> int:
    """`equiv` through the proof trees: each checked with the reference
    check_proof, then their desequentializations compared."""
    _, p1 = parse_proof(cli._read(args.proof1))
    _, p2 = parse_proof(cli._read(args.proof2))
    for p in (p1, p2):
        report = reference_oracles.check_proof(p, Fragment.BTENLL)
        if not report.ok:
            raise FragmentError("proof outside btenll", report)
    result = iso(desequentialize(p1, verify=False).ps, desequentialize(p2, verify=False).ps)
    print("true" if result else "false")
    return 0 if result else 1


@contextlib.contextmanager
def _tree_path():
    """`deseq` and `equiv` run through the proof tree."""
    commands = build_parser().commands
    saved = {name: commands[name].get_default("func") for name in ("deseq", "equiv")}
    commands["deseq"].set_defaults(func=_tree_deseq)
    commands["equiv"].set_defaults(func=_tree_equiv)
    try:
        yield
    finally:
        for name, func in saved.items():
            commands[name].set_defaults(func=func)


def test_deseq_and_equiv_print_what_the_tree_path_prints(tmp_path, capsys, monkeypatch):
    # every printed proof and mutation under every fragment header through
    # deseq, each proof through equiv with itself and with one mutation
    rng = random.Random(11)
    headers = [f"fragment: {f.value}" for f in Fragment]

    def reads(text):
        try:
            parse_proof(text)
        except ParseError:
            return False
        return True

    texts, pairs = [], []
    for text in proof_texts():
        header = text.split("\n", 1)[0]
        variants = [text, *mutations(text, rng)]
        # A variant runs under the five other headers only when it reads
        # under its own.  No case is lost: `_read_rules` reads the header
        # before the body, all six headers are valid, and nothing that reads
        # the body depends on the fragment, so a read error is the same
        # under every header.
        texts += dict.fromkeys(v.replace(header, h, 1) for v in variants
                               for h in (headers if reads(v) else [header]))
        pairs += [(text, text), (text, rng.choice(variants[1:]))]
    first, second = tmp_path / "first.proof", tmp_path / "second.proof"

    def outcomes():
        got = []
        for text in texts:
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            got.append(run(capsys, "deseq", "-"))
        for text1, text2 in pairs:
            first.write_text(text1, encoding="utf-8")
            second.write_text(text2, encoding="utf-8")
            got.append(run(capsys, "equiv", str(first), str(second)))
        return got

    by_net = outcomes()
    with _tree_path():
        by_tree = outcomes()
    for argv, got, want in zip(texts + pairs, by_net, by_tree):
        assert got == want, argv
    codes = [code for code, _, _ in by_net]
    assert codes.count(0) > 1500 and codes.count(1) > 0 and codes.count(2) > 4000


def test_deep_formulas_normalize(tmp_path, capsys):
    # an ax typed by a 1200-deep tensor chain and its dual: parsing,
    # duality and printing all run without recursion
    k = 1200
    chain = "(" * k + "X" + " tensor X)" * k
    dual = "(" * k + "X^" + " par X^)" * k
    doc = {"nodes": [{"id": 0, "label": "ax"}, {"id": 1, "label": "dot"},
                     {"id": 2, "label": "dot"}],
           "arcs": [{"id": 0, "tail": 0, "head": 1}, {"id": 1, "tail": 0, "head": 2}],
           "conclusions": [0, 1], "types": {"0": chain, "1": dual}}
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "normalize", str(path))
    assert (code, err) == (0, "")
    assert json.loads(out)["types"] == {"0": chain, "1": dual}
    code, out, err = run(capsys, "check", str(path), "--criterion", "accw")
    assert (code, err) == (0, "")
    assert json.loads(out)["holds"] is True


def _deseq_doc(tmp_path, capsys, proof):
    code, out, err = run(capsys, "deseq", _write_proof(tmp_path, proof))
    assert (code, err) == (0, "")
    return json.loads(out)


def test_deseq_has_no_par_cap(tmp_path, capsys):
    doc = _deseq_doc(tmp_path, capsys, par_bot_chain(22))
    assert [n["label"] for n in doc["nodes"]].count("par") == 22


def test_deseq_of_1200_nested_pars_is_pinned(tmp_path, capsys):
    # the text printed when each par type was built anew from its premises
    proof = tmp_path / "chain.proof"
    proof.write_text(format_proof(par_bot_chain(1200), Fragment.BTENLL))
    code, out, err = run(capsys, "deseq", str(proof))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ffc742e7206c31b9d48a4a003e86567f06b334b698da628991d6d5bc1d9f1eab")


# stdout digests of `jumps` and `sequentialize` on k nested (par (bot …))
# rules over (one), taken from the per-bot descent walks that one bottom-up
# pass replaced; at icomll k = 1 200 those walks ran with `polarity`
# memoized, as they fold every arc's type anew and take minutes there
@pytest.mark.parametrize("frag, k, digests", [
    ("icomll", 100, ("97322f6790a29dde340e48b8feda46c48b22340bc228f940e10bb4400367f00c",
                     "e12398ef2a6546809b9873f41c05d4eba51d71032bb188596296d9515677381a")),
    ("btenll", 100, ("89fc7a46f11cf59a8f3b7648451fc14a3f39eaa497579fca88f9cba190b6966c",
                     "58d035377c7c8bd1f18c4c0e9dca5e6b62de4559bdd4afc4adff9dee45c8b5f5")),
    ("icomll", 1200, ("a9759e4044c68eb4283d12006c3b8e292794d6b2ad11e79ccc128531921670ec",
                      "688c7d369413671d185a6cefb4902cd76b2931b36dff572702b59876e11ca974")),
    ("btenll", 2400, ("1761961d66b7771abd008487b307ece04ce145324d1342b05b068e67fc9fdbdb",
                      "d2377e08fa79083db28b461502f271396c8993b02eee89c9257cef1cda64d9f6")),
])
def test_jumps_and_refined_sequentializers_are_linear_in_depth(tmp_path, capsys,
                                                               frag, k, digests):
    proof, net = tmp_path / "chain.proof", tmp_path / "chain.json"
    proof.write_text(format_proof(par_bot_chain(k), Fragment(frag)))
    assert run(capsys, "deseq", str(proof), "--out", str(net))[0] == 0
    anchor = []
    if frag == "btenll":  # anchored at the one node
        anchor = ["--m", str(from_json(net.read_text()).nodes_with_label("one")[0])]
    for command, digest in zip(("jumps", "sequentialize"), digests):
        start = time.perf_counter()
        code, out, err = run(capsys, command, str(net), "--mode", frag, *anchor)
        took = time.perf_counter() - start
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command
        assert took < 1.0, (command, took)


@pytest.mark.parametrize("frag, k", [("icomll", 100), ("btenll", 100),
                                     ("icomll", 1200), ("btenll", 2400)])
def test_refined_sequentializers_move_and_search_linearly_in_depth(tmp_path, capsys,
                                                                    monkeypatch, frag, k):
    # the clock gate above, counted: each of the 2k rules is one peel, and
    # the one node is the base case; the searches reach the 2k + 1 nodes
    # once, to count the components, and then each par's bot side and the
    # par below it, so they reach 8k - 5 nodes, where one whole-part search
    # per par would reach k^2
    proof, net = tmp_path / "chain.proof", tmp_path / "chain.json"
    proof.write_text(format_proof(par_bot_chain(k), Fragment(frag)))
    assert run(capsys, "deseq", str(proof), "--out", str(net))[0] == 0
    anchor = []
    if frag == "btenll":
        anchor = ["--m", str(from_json(net.read_text()).nodes_with_label("one")[0])]
    move = "_bten_move" if frag == "btenll" else "_icomll_move"
    moves = _counted(monkeypatch, sequentialize, move, 2 * k + 1)
    visits = count_search_visits(monkeypatch)
    code, _, err = run(capsys, "sequentialize", str(net), "--mode", frag, *anchor)
    assert (code, err) == (0, "")
    assert (len(moves), sum(visits)) == (2 * k + 1, 8 * k - 5)


def test_btenll_mode_requires_an_anchor(tmp_path, capsys):
    path = write_fixture(tmp_path, "jumps-units")
    for command in ("jumps", "sequentialize"):
        assert run(capsys, command, path, "--mode", "btenll") == (
            2, "", "error: --m NODE is required in btenll mode\n")


# an ax of type one and bot, and a one/bot cut beside a one: both are typed
# in icomll, where neither node kind is available
_UNIT_AX = ("node 0 ax\nnode 1 dot\nnode 2 dot\narc 0 0 1\narc 1 0 2\n"
            "conclusions 0 1\ntype 0 one\ntype 1 bot\n")
_UNIT_CUT = ("node 0 one\nnode 1 bot\nnode 2 cut\nnode 3 one\nnode 4 dot\n"
             "arc 0 0 2\narc 1 1 2\narc 2 3 4\nconclusions 2\n"
             "type 0 one\ntype 1 bot\ntype 2 one\n")


@pytest.mark.parametrize("text, argv, message", [
    (_UNIT_AX, ["sequentialize", "IN", "--mode", "icomll"],
     "ax nodes are not available in icomll"),
    (_UNIT_AX, ["jumps", "IN", "--mode", "icomll"], "ax nodes are not available in icomll"),
    (_UNIT_CUT, ["sequentialize", "IN", "--mode", "icomll"],
     "cut nodes are not available in icomll"),
    (_UNIT_CUT, ["jumps", "IN", "--mode", "icomll"], "cut nodes are not available in icomll"),
    (_UNIT_CUT, ["sequentialize", "IN", "--mode", "btenll", "--m", "3"],
     "cut-free structure expected"),
    (to_json(canonical_jumps_icomll(fixtures.load("jumps-constants"))),
     ["sequentialize", "IN", "--mode", "icomll"], "expected a jump-free structure"),
    (to_json(canonical_jumps_btenll(fixtures.load("jumps-units"), 0)),
     ["sequentialize", "IN", "--mode", "btenll", "--m", "0"], "expected a jump-free structure"),
    (None, ["gen", "--kind", "proof"], "proof generation needs --fragment"),
    ("node 0 one\nfoo 1\n", ["check", "IN", "--criterion", "ac"],
     "line 2: unknown directive 'foo'"),
    ("node 0 one 3\nnode 1 dot\narc 0 0 1\nconclusions 0\n",
     ["check", "IN", "--criterion", "ac"],
     "line 1: node takes an id, a label and optionally two premise arcs"),
])
def test_precondition_errors_exit_2(tmp_path, capsys, text, argv, message):
    path = tmp_path / "in"
    if text is not None:
        path.write_text(text)
    argv = [str(path) if a == "IN" else a for a in argv]
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_par_cap_is_an_option_of_check_alone(tmp_path, capsys):
    for name in ("sequentialize_wten", "sequentialize_btenll", "sequentialize_icomll",
                 "canonical_jumps_btenll", "canonical_jumps_icomll", "jump_correct",
                 "rewiring_equivalent"):
        assert "max_par" not in inspect.signature(getattr(sequentialize, name)).parameters
    reachable = inspect.signature(reference_oracles.rewiring_reachable).parameters
    assert "max_par" not in reachable
    budget = reachable["max_states"]
    assert budget.kind is inspect.Parameter.KEYWORD_ONLY

    net = tmp_path / "two-par.json"
    net.write_text(json.dumps(_deseq_doc(tmp_path, capsys, par_bot_chain(2))))
    proof = tmp_path / "in.proof"  # the 2-par proof, written by _deseq_doc
    for argv in (["normalize", str(net)], ["sequentialize", str(net)],
                 ["jumps", str(net), "--mode", "icomll"], ["deseq", str(proof)],
                 ["gen"], ["dot", str(net)]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--max-parr", "5"])
        assert exc.value.code == 2, argv
        assert "unrecognized arguments: --max-parr 5" in capsys.readouterr().err

    # an acyclic structure: cw needs no enumeration, so the cap never bites
    for criterion in ("cw", "accw"):
        code, out, _ = run(capsys, "check", str(net), "--criterion", criterion,
                           "--max-parr", "0")
        assert (code, json.loads(out)["holds"]) == (0, True), criterion
    # both pars of the joined 2-par chain have a premise on its cycle
    joined = _write_net(tmp_path, joined_chain(2))
    code, out, err = run(capsys, "check", joined, "--criterion", "cw", "--max-parr", "1")
    assert (code, out) == (2, "")
    assert "2 par nodes with a premise on a cycle exceed the enumeration cap 1" in err
    code, out, _ = run(capsys, "check", joined, "--criterion", "cw", "--max-parr", "2")
    assert (code, json.loads(out)["holds"]) == (1, False)


def test_out_of_range_options_are_usage_errors(tmp_path, capsys):
    net = write_fixture(tmp_path, "regnier")
    for argv, message in (
            (["gen", "--cut-probability", "2"], "--cut-probability: must lie in [0, 1], got 2"),
            (["gen", "--cut-probability", "-1"], "--cut-probability: must lie in [0, 1], got -1"),
            (["gen", "--cut-probability", "nan"], "--cut-probability: must lie in [0, 1]"),
            (["gen", "--cut-probability", "x"], "--cut-probability: invalid float value: 'x'"),
            (["gen", "--max-rules", "-3"], "--max-rules: must be at least 0, got -3"),
            (["gen", "--max-nodes", "-1"], "--max-nodes: must be at least 0, got -1"),
            (["gen", "--max-nodes", "1.5"], "--max-nodes: invalid int value: '1.5'"),
            (["check", net, "--criterion", "cwforall", "--max-parr", "-1"],
             "--max-parr: must be at least 0, got -1")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, ""), argv
        assert f"error: argument {message}" in err, argv
    # the bounds themselves are in range
    for argv in (["gen", "--cut-probability", "0", "--max-nodes", "0"],
                 ["gen", "--cut-probability", "1", "--max-nodes", "4"],
                 ["gen", "--kind", "proof", "--fragment", "mll", "--max-rules", "0"]):
        assert run(capsys, *argv)[0] == 0, argv
    assert run(capsys, "check", net, "--criterion", "accw", "--max-parr", "0")[:2] == run(
        capsys, "check", net, "--criterion", "accw")[:2]


@pytest.mark.parametrize("argv, option, bad, good", [
    (["sequentialize", "units", "--mode", "btenll"], "--m", "٠", "0"),
    (["jumps", "units", "--mode", "btenll"], "--m", "0_0", "0"),
    (["normalize", "regnier"], "--seed", "١", "1"),
    (["gen"], "--seed", "١", "1"),
    (["check", "regnier", "--criterion", "cw"], "--max-parr", "٣", "3"),
    (["gen"], "--max-rules", " 5", "5"),
    (["gen"], "--max-nodes", "٥", "5"),
], ids=["sequentialize-m", "jumps-m", "normalize-seed", "gen-seed", "max-parr",
        "max-rules", "max-nodes"])
def test_integer_options_take_ascii_digits_only(tmp_path, capsys, argv, option, bad, good):
    # an integer option is read as every reader reads an id: `int` would
    # also take non-ASCII digits, underscores and surrounding blanks
    files = {"units": write_fixture(tmp_path, "jumps-units"),
             "regnier": write_fixture(tmp_path, "regnier")}
    argv = [files.get(word, word) for word in argv]
    code, _, err = run(capsys, *argv, option, good)
    assert (code, err) == (0, "")
    with pytest.raises(SystemExit) as exc:
        main(argv + [option, bad])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.endswith(f"error: argument {option}: invalid int value: {bad!r}\n")


def test_accw_on_200_pars_takes_under_a_second(tmp_path, capsys):
    net = _write_net(tmp_path, desequentialize(par_bot_chain(200)).ps)
    start = time.perf_counter()
    code, out, _ = run(capsys, "check", net, "--criterion", "accw")
    took = time.perf_counter() - start
    assert (code, json.loads(out)["holds"]) == (0, True)
    assert took < 1.0, took


def test_accw_on_200_pars_contracts_once_and_walks_one_census(tmp_path, capsys, monkeypatch):
    # the clock gate above, counted: one contraction finds no cycle, the
    # count law decides, and the printed census walks the first switching
    from proofnets import switching

    net = _write_net(tmp_path, desequentialize(par_bot_chain(200)).ps)
    contractions = _counted(monkeypatch, switching, "_has_switching_cycle", 1)
    walks = _counted(monkeypatch, switching, "_components", 1)
    code, out, err = run(capsys, "check", net, "--criterion", "accw")
    assert (code, json.loads(out)["holds"], err) == (0, True, "")
    assert (len(contractions), len(walks)) == (1, 1)


def _timed_run(capsys, *argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    return code, out, err, time.perf_counter() - start


def test_accw_counterexample_on_200_pars_takes_under_a_second(tmp_path, capsys):
    ps = joined_chain(200)
    code, out, _, took = _timed_run(capsys, "check", _write_net(tmp_path, ps), "--criterion",
                                    "accw")
    verdict = json.loads(out)
    assert (code, verdict["holds"]) == (1, False)
    assert took < 1.0, took

    labels = ps.nodes
    pars = set(ps.par_nodes())
    chosen = {int(n): a for n, a in verdict["counterexample"].items()}
    assert set(chosen) == pars and len(pars) == 200
    parent = {n: n for n in labels}

    def root(n):
        while parent[n] != n:
            n = parent[n]
        return n

    cyclic, components = False, len(labels)
    for a, (tail, head) in sorted(ps.arcs.items()):
        if head in pars and chosen[head] != a:
            continue  # re-headed to a fresh dot: a pendant arc
        rt, rh = root(tail), root(head)
        if rt == rh:
            cyclic = True
        else:
            parent[rh] = rt
            components -= 1
    bots = sum(1 for lab in labels.values() if lab == "bot")
    assert cyclic or components != bots + 1


# sha256 of the parent's `check` output on the 1 000-par joined chains,
# which took it about 9 s each
JOINED_1000_ACCW = "4e5dd5f6e7b6389abb113f88d99b98f6792235b90596214aaa71d1872fb3d83e"


@pytest.mark.parametrize("deepest_second", [False, True])
def test_accw_refutes_1000_par_chains_within_a_tenth_of_a_second(tmp_path, capsys,
                                                                deepest_second):
    # the first switching is cyclic, or else one cycle needs the second
    # premise of the deepest par: either way a handful of contractions
    ps = joined_chain(1000, [0] if deepest_second else ())
    code, out, err, took = _timed_run(capsys, "check", _write_net(tmp_path, ps), "--criterion",
                                      "accw")
    assert (code, err) == (1, "")
    assert hashlib.sha256(out.encode()).hexdigest() == JOINED_1000_ACCW
    assert took < 0.1, took
    chosen = json.loads(out)["counterexample"]
    second = [n for n, a in chosen.items() if a != ps.premise_order[int(n)][0]]
    assert second == ([min(chosen, key=int)] if deepest_second else [])


@pytest.mark.parametrize("k", [200, 250, 800, 1000])
@pytest.mark.parametrize("deepest_second", [False, True])
def test_accw_refutes_joined_chains_in_at_most_5_contractions(tmp_path, capsys, monkeypatch,
                                                              k, deepest_second):
    # the clock gate above, counted: 2 contractions when the first switching
    # is cyclic and 5 when the deepest par takes its second premise, at
    # every k; a linear search would make one per par.  The printed census
    # walks the counterexample's switching graph once
    from proofnets import switching

    net = _write_net(tmp_path, joined_chain(k, [0] if deepest_second else ()))
    calls = _counted(monkeypatch, switching, "_has_switching_cycle", 5)
    walks = _counted(monkeypatch, switching, "_components", 1)
    code, _, err = run(capsys, "check", net, "--criterion", "accw")
    assert (code, err) == (1, "")
    assert (len(calls), len(walks)) == (5 if deepest_second else 2, 1)


@pytest.mark.parametrize("k", [200, 800])
def test_accw_refutes_an_outermost_second_premise_in_log_contractions(tmp_path, capsys,
                                                                      monkeypatch, k):
    # the only cycle takes the second premise of the last par in enumeration
    # order: the galloping search reaches it in about 2 log2 k contractions,
    # where fixing one par per contraction would make k of them
    from proofnets import switching

    ps = joined_chain(k, [k - 1])
    net = _write_net(tmp_path, ps)
    calls = _counted(monkeypatch, switching, "_has_switching_cycle", 2 * k.bit_length() + 4)
    code, out, err = run(capsys, "check", net, "--criterion", "accw")
    assert (code, err) == (1, "")
    chosen = json.loads(out)["counterexample"]
    second = [n for n, a in chosen.items() if a != ps.premise_order[int(n)][0]]
    assert second == [max(chosen, key=int)], len(calls)


def test_cw_on_a_16_par_chain_within_a_tenth_of_a_second(tmp_path, capsys):
    # an acyclic structure: the count law decides it, with no enumeration
    # and no cap (the enumeration took 3.5 s here)
    net = _write_net(tmp_path, desequentialize(par_bot_chain(16)).ps)
    code, out, err, took = _timed_run(capsys, "check", net, "--criterion", "cw")
    assert (code, out, err) == (0, '{"criterion": "cw", "holds": true, "census": []}\n', "")
    assert took < 0.1, took


@pytest.mark.parametrize("k", [16, 200])
def test_cw_on_par_chains_contracts_once_and_walks_no_switching(tmp_path, capsys,
                                                                monkeypatch, k):
    # the clock gate above, counted: one contraction and the count law, with
    # no switching enumerated and no census taken
    from proofnets import switching

    net = _write_net(tmp_path, desequentialize(par_bot_chain(k)).ps)
    contractions = _counted(monkeypatch, switching, "_has_switching_cycle", 1)
    walks = _counted(monkeypatch, switching, "_components", 0)
    assert run(capsys, "check", net, "--criterion", "cw") == (
        0, '{"criterion": "cw", "holds": true, "census": []}\n', "")
    assert (len(contractions), len(walks)) == (1, 0)


def test_non_utf8_input_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"nodes": [], "comment": "caf\u00e9"}'.encode("latin-1"))
    code, out, err = run(capsys, "check", str(path), "--criterion", "ac")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "UTF-8" in err


def _repeating(doc, where, key, value):
    """The JSON text of `doc` with `key` given again, with `value`, at the
    end of the object that the path `where` leads to."""
    if not where:
        pairs = [*doc.items(), (key, value)]
        return "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in pairs) + "}"
    step, *rest = where
    if isinstance(doc, list):
        return "[" + ", ".join(_repeating(v, rest, key, value) if i == step else json.dumps(v)
                               for i, v in enumerate(doc)) + "]"
    return "{" + ", ".join(f"{json.dumps(k)}: " + (_repeating(v, rest, key, value) if k == step
                                                  else json.dumps(v))
                           for k, v in doc.items()) + "}"


def test_mutated_documents_exit_cleanly(tmp_path, capsys):
    # one field of a fixture replaced by a value of the wrong shape: every
    # subcommand reports it, as a verdict or an error, never a traceback
    path = tmp_path / "mutant.json"
    codes = {}
    for name in fixtures.NAMES:
        for where, value, mutant in mutated_documents(json.loads(to_json(fixtures.load(name)))):
            path.write_text(json.dumps(mutant))
            for cmd in ("normalize", "sequentialize", "dot"):
                try:
                    code = main([cmd, str(path)])
                except Exception as exc:
                    raise AssertionError(f"{cmd} {name} {where}={value!r}") from exc
                capsys.readouterr()
                assert code in (0, 1, 2), (cmd, name, where, value)
                codes[code] = codes.get(code, 0) + 1
    assert codes[2] > codes.get(0, 0) > 0
    # a type, jump or conclusions line of the line DSL given twice, the
    # second time with its own value or that of the next line of its kind:
    # every subcommand names the second line
    path = tmp_path / "mutant.psl"
    repeats = 0
    for name in fixtures.NAMES:
        lines = to_dsl(fixtures.load(name)).splitlines()
        for i, line in enumerate(lines):
            kind, *fields = line.split()
            if kind not in ("type", "jump", "conclusions"):
                continue
            keyed = kind != "conclusions"  # a type or jump line names an id
            values = [other.split()[1 + keyed:] for other in lines[i:]
                      if other.split()[0] == kind][:2]
            for value in values:
                second = " ".join([kind, *fields[:keyed], *value])
                path.write_text("\n".join([*lines[:i + 1], second, *lines[i + 1:]]) + "\n")
                for cmd in ("check", "normalize", "sequentialize", "dot"):
                    argv = [cmd, str(path), *(["--criterion", "accw"] if cmd == "check" else [])]
                    code = main(argv)
                    err = capsys.readouterr().err
                    assert code == 2 and err.startswith(f"error: line {i + 2}: "), (name, second)
                    assert err.endswith(" repeated\n") or "repeated from" in err, err
                    repeats += 1
    assert repeats > 100, repeats
    # a key of a JSON object given twice, at the top level, in a node or
    # arc record or in the premises, types or jumps, the second time with
    # its own value or that of the object's next key: every subcommand
    # names the key
    path = tmp_path / "mutant.json"
    repeats = 0
    for name in fixtures.NAMES:
        ps = fixtures.load(name)
        doc = json.loads(to_json(ps.with_jumps({4: 3, 5: 3}) if name == "jumps-units" else ps))
        objects = [(), *[(key,) for key in ("premises", "types", "jumps") if key in doc]]
        objects += [(key, i) for key in ("nodes", "arcs") for i in range(len(doc[key]))]
        for where in objects:
            obj = doc
            for step in where:
                obj = obj[step]
            keys = list(obj)
            for i, key in enumerate(keys):
                for value in (obj[key], obj[keys[(i + 1) % len(keys)]]):
                    path.write_text(_repeating(doc, where, key, value))
                    for cmd in ("check", "normalize", "sequentialize", "dot"):
                        argv = [cmd, str(path), *(["--criterion", "accw"] if cmd == "check" else [])]
                        assert run(capsys, *argv) == (2, "", "error: malformed structure document: "
                                                      f"key {key!r} is repeated\n"), (name, where, key)
                        repeats += 1
    assert repeats > 1000, repeats


# sha256 of `dot` under the first-premise switching of each fixture with a
# par, taken while switching files were still read with plain json.loads
DOT_FIRST_PREMISES = "0ad9c9cbf1134d902edd2657b8885ef7b840fa30d376629d7749aace675694b3"


def test_repeated_switching_keys_exit_2(tmp_path, capsys):
    # a par of a fixture's first-premise switching given twice, the second
    # time with the same premise or the other one: dot names the key; the
    # file without the repeat draws the graph it drew before
    net, sw = tmp_path / "net.json", tmp_path / "sw.json"
    digest, repeats = hashlib.sha256(), 0
    for name in fixtures.NAMES:
        ps = fixtures.load(name)
        first = {str(n): ps.premises_of(n)[0] for n in ps.par_nodes()}
        if not first:
            continue
        net.write_text(to_json(ps))
        sw.write_text(json.dumps(first))
        code, out, err = run(capsys, "dot", str(net), "--switching", str(sw))
        assert (code, err) == (0, ""), name
        digest.update(out.encode())
        for key in first:
            for value in ps.premises_of(int(key)):
                sw.write_text(_repeating(first, (), key, value))
                assert run(capsys, "dot", str(net), "--switching", str(sw)) == (
                    2, "", f"error: malformed switching: key {key!r} is repeated\n"), (name, key)
                repeats += 1
    assert digest.hexdigest() == DOT_FIRST_PREMISES
    assert repeats == 16, repeats


def test_deep_formulas_get_fragment_kinds(tmp_path, capsys):
    # an ax typed by a 1200-deep par chain: the btenll and polarity kinds
    # are inferred without recursion, in every command that needs them
    k = 1200
    formula = "(" * k + "X" + " par X)" * k
    proofs = {}
    for frag in ("btenll", "imll"):
        proofs[frag] = tmp_path / f"{frag}.proof"
        proofs[frag].write_text(f'fragment: {frag}\n(ax "{formula}")\n')
        assert run(capsys, "equiv", str(proofs[frag]), str(proofs[frag])) == (0, "true\n", "")
    net = tmp_path / "net.json"
    assert run(capsys, "deseq", str(proofs["btenll"]), "--out", str(net)) == (0, "", "")
    code, out, err = run(capsys, "deseq", str(proofs["imll"]))
    assert (code, out) == (2, "") and err.endswith("outside imll\n")
    for cmd in ("jumps", "sequentialize"):
        code, _, err = run(capsys, cmd, str(net), "--mode", "btenll", "--m", "0")
        assert (code, err) == (0, ""), cmd
        code, out, err = run(capsys, cmd, str(net), "--mode", "icomll")
        assert (code, out) == (2, "") and "not a valid icomll structure" in err, cmd


def test_deep_untyped_nets_get_types(tmp_path, capsys):
    # unification and the naming of type variables run without recursion:
    # with the interpreter's stack cut to 200 frames above this test, an
    # untyped 300-deep par/bot chain still sequentializes
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    for leaf in (ax_rule(atom("X")), one_rule()):
        doc = _deseq_doc(tmp_path, capsys, par_bot_chain(300, leaf))
        del doc["types"]
        net = tmp_path / "untyped.json"
        net.write_text(json.dumps(doc))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 200)
        try:
            code, out, err = run(capsys, "sequentialize", str(net))
        finally:
            sys.setrecursionlimit(limit)
        assert (code, err) == (0, ""), leaf
        assert out.count("(par ") == out.count("(bot ") == 300, leaf
