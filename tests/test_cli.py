"""CLI tests: file formats, every subcommand, exit codes, output stability.

All invocations go through cli.main/run in-process with captured stdio, so
failures point at real code lines; two tests start a fresh interpreter to
see which modules an import loads.
"""

import gc
import io
import json
import os
import random
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import coax
from coax import cli
from coax.cli import (
    emit_system,
    json_pieces,
    main,
    parse_candidate_file,
    parse_system_file,
    run,
    system_from_file,
    tree_dot,
)
from coax.core import InferenceSystem, Judgement, Rule, Universe, generated
from coax.prooftree import PathTree, proof_graph, unfold, validate_approx_level
from coax import systems
from coax.systems import Abs, Term, Var, build_reach, parse_graph
from coax.regular import cycle_list, cycle_stream, finite_list, parse_eq_system

from oracles import (
    COMPLETE_10,
    DIST_8,
    GRAMMAR_12,
    StringSystemFile,
    as_strings,
    build_list_preds,
    premise_sets,
    random_eq_system,
    random_grammar,
    random_graph,
    random_lambda,
    random_list_term,
    random_system,
    string_parse_system_file,
    string_system_from_file,
)


LOOPY = """\
# a two-cycle hanging off an axiom
universe a b c
rule a <- b
rule b <- a
axiom c
coaxiom a
"""

# gen = {c}: the coaxiom lets a into the closure, consistency then evicts it
EVICT = """\
universe a b c
rule a <- b
axiom c
coaxiom a
"""


def write(tmp_path, name: str, content: str) -> str:
    p = tmp_path / name
    p.write_text(content)
    return str(p)


def json_text(obj) -> str:
    return "".join(json_pieces(obj))


def invoke(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- file format -----------------------------------------------------------------


def test_parse_system_file():
    sf = as_strings(parse_system_file(LOOPY))
    assert sf.universe == ("a", "b", "c")
    assert sf.rules == (("a", ("b",)), ("b", ("a",)), ("c", ()))
    assert sf.coaxioms == ("a",)
    assert sf.warnings == ()


def test_parse_system_file_infers_universe():
    sf = parse_system_file("rule a <- b\ncoaxiom c\n")
    assert sf.universe_ids is None and as_strings(sf).universe is None
    system = system_from_file(sf)
    assert {str(j) for j in system.universe} == {"a", "b", "c"}


def test_parse_system_file_warns_on_duplicates():
    sf = as_strings(parse_system_file("axiom c\naxiom c\ncoaxiom a\ncoaxiom a\nrule a <- b b\n"))
    assert len(sf.warnings) == 2
    assert "line 2" in sf.warnings[0] and "line 4" in sf.warnings[1]
    # premise multiplicity is not a duplicate rule
    assert sf.rules == (("c", ()), ("a", ("b",)))


# every line boundary of str.splitlines, which numbers the lines
_LINE_BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("brk", _LINE_BREAKS)
def test_parse_system_file_numbers_lines_at_every_line_break(brk):
    lines = ["# a comment", "axiom c", "", "rule a <- c", "axiom c", "coaxiom a"]
    sf = parse_system_file(brk.join(lines) + brk)
    assert sf.warnings == ("line 5: duplicate rule for c ignored",)
    with pytest.raises(ValueError) as exc:
        parse_system_file(brk.join(lines + ["frobnicate x"]))
    assert str(exc.value).startswith("line 7: unknown directive 'frobnicate'")


@pytest.mark.parametrize(
    "line",
    ["rule a", "rule a -> b", "axiom", "axiom a b", "coaxiom", "frobnicate x"],
)
def test_parse_system_file_rejects(line):
    with pytest.raises(ValueError) as exc:
        parse_system_file(f"axiom ok\n{line}\n")
    assert "line 2" in str(exc.value)


def test_system_from_file_checks_declared_universe():
    sf = parse_system_file("universe a\nrule a <- b\n")
    with pytest.raises(ValueError) as exc:
        system_from_file(sf)
    assert "b" in str(exc.value)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.booleans())
def test_hand_built_system_files_load_as_the_public_constructor_does(seed, declared):
    """A system file written by hand may list premises unsorted and
    repeated, and rules and coaxioms more than once; it loads as the system
    the public constructor builds from the same Rules.  Tokens
    outside a declared universe are rejected, the least of them named."""

    def parsed(universe, rules, coaxioms):
        lines = [] if universe is None else ["universe " + " ".join(universe)]
        lines += [f"rule {c} <- " + " ".join(prs) if prs else f"axiom {c}" for c, prs in rules]
        lines += [f"coaxiom {c}" for c in coaxioms]
        return parse_system_file("".join(line + "\n" for line in lines))

    rng = random.Random(seed)
    names = [f"j{i}" for i in range(rng.randint(1, 12))]  # j10 sorts before j2
    rules = [
        (rng.choice(names), tuple(rng.choices(names, k=rng.choice([0, 1, 2, 3, 4]))))
        for _ in range(rng.randint(0, 20))
    ]
    rules += rng.sample(rules, len(rules) // 3)
    rng.shuffle(rules)
    coaxioms = tuple(rng.choices(names, k=rng.randint(0, 4)))
    universe = tuple(rng.sample(names, len(names))) if declared else None
    system = system_from_file(parsed(universe, rules, coaxioms))

    of = {t: Judgement(t) for t in names}
    mentioned = {c for c, _ in rules}.union(*(prs for _, prs in rules), coaxioms)
    reference = InferenceSystem(
        Universe(map(of.get, names if declared else mentioned)),
        [Rule(of[c], tuple(map(of.get, prs))) for c, prs in rules],
        map(of.get, coaxioms),
    )
    assert system.universe == reference.universe
    assert list(system.rules()) == list(reference.rules())
    assert premise_sets(system) == premise_sets(reference)
    assert system.rule_count == reference.rule_count
    assert system.coaxioms == reference.coaxioms
    assert emit_system(system) == emit_system(reference)

    if declared:
        for extra_rules, extra_coaxioms, least in (
            ((("k1", ()),), (), "k1"),
            (((names[0], (names[-1], "k0", names[0])),), (), "k0"),
            ((), ("k2",), "k2"),
            ((("k3", ("k1",)),), ("k2",), "k1"),
        ):
            stray = parsed(universe, rules + list(extra_rules), coaxioms + extra_coaxioms)
            with pytest.raises(ValueError) as exc:
                system_from_file(stray)
            assert str(exc.value) == f"judgement {least} is not in the declared universe"


# judgement names that sort in an order unlike their first appearance, and
# names that are also keywords of the format
NAMES = ["j2", "j10", "a", "b!", "rule", "<-", "axiom", "dist(a,b,1)", "zz", "A"]


def render_system(rng: random.Random, where: str, stray: str | None) -> str:
    """A random system over NAMES written out by hand: universe lines first
    (sorted or not, split over lines), in the middle, last or missing;
    premises unsorted and repeated; rule, axiom and coaxiom lines repeated;
    comments, blank lines and stray whitespace; and, if ``stray`` names a
    place, one token outside the declared universe there."""
    names = rng.sample(NAMES, rng.randint(1, len(NAMES)))
    lines = []
    for _ in range(rng.randint(0, 14)):
        c = rng.choice(names)
        premises = rng.choices(names, k=rng.choice([0, 0, 1, 2, 3, 4]))
        if premises or rng.random() < 0.5:
            lines.append(f"rule {c} <- " + " ".join(premises))
        else:
            lines.append(f"axiom {c}")
    lines += [f"coaxiom {c}" for c in rng.choices(names, k=rng.randint(0, 3))]
    rng.shuffle(lines)
    for line in rng.sample(lines, len(lines) // 3):  # duplicates, some reordered
        head, *rest = line.split()
        if head == "rule" and rng.random() < 0.5:
            rest = rest[:2] + rng.sample(rest[2:], len(rest) - 2) + rest[2:3]
        lines.insert(rng.randint(0, len(lines)), " ".join([head] + rest))
    if stray is not None:
        if stray == "conclusion":
            lines.append(f"rule k0 <- {rng.choice(names)}")
        elif stray == "premise":
            lines.append(f"rule {rng.choice(names)} <- {rng.choice(names)} k1")
        else:
            lines.append("coaxiom k2")
    declared = sorted(names) if where == "first" else rng.sample(names, len(names))
    if where != "missing":
        universe = []
        while declared:
            k = rng.randint(0, len(declared))
            universe.append(" ".join(["universe"] + declared[:k]))
            del declared[:k]
        at = {"middle": len(lines) // 2, "last": len(lines)}.get(where, 0)
        lines[at:at] = universe
    out = []
    for line in lines:
        if rng.random() < 0.2:
            out.append(rng.choice(["", "   ", "# a comment", "  # indented comment"]))
        if rng.random() < 0.2:
            line = "  " + line.replace(" ", rng.choice(["  ", "\t", " "])) + " # trailing"
        out.append(line)
    return "\n".join(out) + rng.choice(["", "\n"])


def load_outcome(parse, load, text: str) -> tuple:
    """What a reader of ``text`` sees: an error message, or the warnings
    and the loaded system, rule by rule."""
    try:
        sf = parse(text)
    except ValueError as exc:
        return ("parse error", str(exc))
    try:
        system = load(sf)
    except ValueError as exc:
        return ("load error", str(exc), sf.warnings)
    strings = sf if isinstance(sf, StringSystemFile) else as_strings(sf)
    return (
        strings.warnings,
        strings.universe,
        sorted(strings.rules),
        strings.coaxioms,
        list(system.universe),
        list(system.rules()),
        premise_sets(system),
        system.coaxioms,
        emit_system(system),
    )


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 10**9),
    st.sampled_from(["first", "first-unsorted", "middle", "last", "missing"]),
    st.sampled_from([None, None, "conclusion", "premise", "coaxiom"]),
    st.sampled_from([None, None, None, "rule a", "rule a -> b", "axiom", "axiom a b",
                     "coaxiom", "coaxiom a b", "frobnicate x"]),
)
def test_loader_reads_files_as_the_string_reference(seed, where, stray, bad_line):
    """The one-pass loader and the two-step string reference agree on every
    rendering of a random system: the same rules, premise sets, coaxioms,
    warnings (text and order) and error messages."""
    rng = random.Random(seed)
    text = render_system(rng, where, stray)
    if bad_line is not None:
        lines = text.splitlines()
        lines.insert(rng.randint(0, len(lines)), bad_line)
        text = "\n".join(lines)
    want = load_outcome(string_parse_system_file, string_system_from_file, text)
    assert load_outcome(parse_system_file, system_from_file, text) == want


@settings(max_examples=500, deadline=None)
@given(
    st.lists(st.sampled_from(["a", "b", " ", "#", *_LINE_BREAKS]), max_size=24).map("".join),
    st.integers(1, 8),
)
@example("a\r\nb", 2)  # "\r\n" across the edge of the first chunk
@example("a\r", 2)  # "\r" at the end of the text
def test_a_stream_is_read_in_chunks_as_splitlines_splits_its_whole_text(text, chunk):
    with mock.patch.object(cli, "_CHUNK", chunk):
        batches = list(cli._line_batches(io.StringIO(text, newline="")))
    assert [line for _, lines in batches for line in lines] == text.splitlines()
    for comments, lines in batches:  # a batch with a "#" in a line says so
        assert comments or not any("#" in line for line in lines)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 10**9),
    st.sampled_from(["first", "first-unsorted", "middle", "last", "missing"]),
    st.sampled_from([None, None, "conclusion", "premise", "coaxiom"]),
    st.sampled_from([None, None, "rule a", "axiom a b", "frobnicate x"]),
    st.sampled_from([1, 3, 7]),
)
def test_a_system_file_read_from_a_stream_in_chunks_parses_as_its_text(
    seed, where, stray, bad_line, chunk
):
    """The same SystemFile, warnings and error text as the whole text gives,
    and as the string reference, whatever the chunk size."""
    rng = random.Random(seed)
    text = render_system(rng, where, stray)
    if bad_line is not None:
        lines = text.splitlines()
        lines.insert(rng.randint(0, len(lines)), bad_line)
        text = "\n".join(lines)

    def parsed(parse, source):
        try:
            return parse(source)
        except ValueError as exc:
            return str(exc)

    with mock.patch.object(cli, "_CHUNK", chunk):
        streamed = parsed(parse_system_file, io.StringIO(text))
        outcome = load_outcome(lambda t: parse_system_file(io.StringIO(t)), system_from_file, text)
    assert streamed == parsed(parse_system_file, text)
    assert outcome == load_outcome(string_parse_system_file, string_system_from_file, text)


def test_an_undecodable_system_file_exits_2_on_one_line(tmp_path, capsys):
    path = tmp_path / "bad.coax"
    path.write_bytes(b"axiom a\naxiom \xff\n")
    code, out, err = invoke(capsys, "solve", str(path))
    assert (code, out) == (2, "")
    assert err == "error: 'utf-8' codec can't decode byte 0xff in position 14: invalid start byte\n"


@pytest.mark.parametrize("argv", [
    ["solve", "-"], ["query", "-", "a"], ["prove", "-", "a"], ["check", "SYS", "-"],
    ["builtin", "reach", "-"],
], ids=["solve", "query", "prove", "check", "builtin"])
def test_undecodable_stdin_exits_2_on_one_line_under_the_c_locale(tmp_path, argv):
    """Under LC_ALL=C Python opens stdin with errors="surrogateescape", so an
    undecodable byte read from stdin must be refused as from a file."""
    argv = [write(tmp_path, "sys.coax", "axiom a\n") if a == "SYS" else a for a in argv]
    env = dict(os.environ, LC_ALL="C", PYTHONPATH=str(Path(coax.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-m", "coax.cli", *argv], input=b"axiom \xff\n",
                          capture_output=True, env=env)
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr.decode() == (
        "error: 'utf-8' codec can't decode byte 0xff in position 6: invalid start byte\n")


def test_unsorted_universe_is_remapped():
    """Ids follow first appearance, positions follow the text order; when
    they differ every id is remapped."""
    text = "universe zz b a\nrule a <- zz b\nrule b <- a a\naxiom zz\ncoaxiom b\n"
    sf = parse_system_file(text)
    assert sf.names == ["zz", "b", "a"]
    assert as_strings(sf).rules == (("a", ("b", "zz")), ("b", ("a",)), ("zz", ()))
    system = system_from_file(sf)
    a, b, zz = map(Judgement, ("a", "b", "zz"))
    assert list(system.universe) == [a, b, zz]
    assert premise_sets(system) == {a: ((b, zz),), b: ((a,),), zz: ((),)}
    assert list(system.coaxioms) == [b]
    assert load_outcome(parse_system_file, system_from_file, text) == load_outcome(
        string_parse_system_file, string_system_from_file, text
    )


def test_candidate_file():
    system = system_from_file(parse_system_file(LOOPY))
    s = parse_candidate_file("a  # the loop\nb\n", system.universe)
    assert {str(j) for j in s} == {"a", "b"}


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**9))
def test_emit_parse_round_trip(seed):
    rng = random.Random(seed)
    system = random_system(rng, max_size=8)
    back = system_from_file(parse_system_file(emit_system(system)))
    assert list(back.universe) == list(system.universe)
    assert list(back.rules()) == list(system.rules())
    assert back.coaxioms == system.coaxioms
    assert emit_system(back) == emit_system(system)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=3))
@example(["x#y"])
def test_emit_parse_round_trip_over_arbitrary_tokens(tokens):
    """A token is either rejected as a judgement text, or a system over it
    survives emit -> parse unchanged."""
    try:
        js = [Judgement(t) for t in tokens]
    except ValueError:
        return
    system = InferenceSystem(Universe(js), [Rule(js[0], tuple(js[1:])), Rule(js[-1])], [js[0]])
    back = system_from_file(parse_system_file(emit_system(system)))
    assert list(back.universe) == list(system.universe)
    assert list(back.rules()) == list(system.rules())
    assert back.coaxioms == system.coaxioms


# -- solve / query ------------------------------------------------------------------


def test_solve_modes(tmp_path, capsys):
    path = write(tmp_path, "loopy.coax", LOOPY)
    code, out, _ = invoke(capsys, "solve", path, "--mode", "ind")
    assert code == 0 and out.split() == ["c"]
    code, out, _ = invoke(capsys, "solve", path, "--mode", "coind")
    assert code == 0 and out.split() == ["a", "b", "c"]
    code, out, _ = invoke(capsys, "solve", path)  # gen is the default
    assert code == 0 and out.split() == ["a", "b", "c"]
    code, out, _ = invoke(capsys, "solve", write(tmp_path, "e.coax", EVICT))
    assert code == 0 and out.split() == ["c"]


def test_solve_trace_and_json(tmp_path, capsys):
    path = write(tmp_path, "loopy.coax", LOOPY)
    code, out, _ = invoke(capsys, "solve", path, "--mode", "ind", "--trace")
    lines = out.splitlines()
    assert lines[0] == "# step 0:"
    assert lines[1] == "# step 1: c"
    assert lines[-1] == "c"
    code, out, _ = invoke(capsys, "solve", path, "--format", "json", "--trace")
    payload = json.loads(out)
    assert payload["mode"] == "gen"
    assert payload["result"] == ["a", "b", "c"]
    assert payload["trace"][0] == ["a", "b", "c"]  # descent starts at the closure


JSON_PAYLOADS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(JSON_PAYLOADS)
def test_json_payloads_are_written_as_json_dumps_writes_them(payload):
    assert json_text(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def as_generators(payload):
    """The payload with every list, at any depth, made a generator."""
    if isinstance(payload, list):
        return (as_generators(item) for item in payload)
    if isinstance(payload, dict):
        return {key: as_generators(value) for key, value in payload.items()}
    return payload


@settings(max_examples=200, deadline=None)
@given(JSON_PAYLOADS)
@example({"empty": [], "nested": [[], {}]})
def test_generators_are_written_as_the_lists_they_yield(payload):
    assert json_text(as_generators(payload)) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_a_3000_deep_payload_is_written_as_json_dumps_writes_it():
    """The JSON writer does not recurse; json.dumps writes this payload only
    with a raised recursion limit, here on a thread with a large stack."""
    payload: object = {"leaf": ["x", 1, None]}
    for depth in range(3000):
        payload = [payload, depth] if depth % 3 else [{"b": True, "a": payload}]
    want = {}

    def dumps() -> None:
        sys.setrecursionlimit(20_000)
        want["text"] = json.dumps(payload, indent=2, sort_keys=True) + "\n"

    limit, stack = sys.getrecursionlimit(), threading.stack_size(128 << 20)
    try:
        thread = threading.Thread(target=dumps)
        thread.start()
        thread.join()
    finally:
        threading.stack_size(stack)
        sys.setrecursionlimit(limit)
    assert json_text(payload) == want["text"]


def test_solve_trace_prints_the_witness_when_nothing_dies(tmp_path, capsys):
    """A descent where nothing dies has one step: the closure and its
    stabilization witness are both printed."""
    path = write(tmp_path, "ring.coax", "rule a <- b\nrule b <- a\ncoaxiom a\n")
    code, out, _ = invoke(capsys, "solve", path, "--trace", "--mode", "gen")
    assert code == 0 and out.splitlines() == ["# step 0: a b", "# step 1: a b", "a", "b"]
    code, out, _ = invoke(capsys, "solve", path, "--trace", "--mode", "gen", "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["trace"] == [["a", "b"], ["a", "b"]]
    assert payload["result"] == ["a", "b"]


def test_solve_trace_does_not_carry_over_to_the_next_call(tmp_path, capsys):
    """The argument parser is built once per process; a flag of one call
    must not leak into the next."""
    path = write(tmp_path, "loopy.coax", LOOPY)
    code, traced, _ = invoke(capsys, "solve", path, "--trace")
    assert code == 0 and traced.startswith("# step 0")
    code, plain, _ = invoke(capsys, "solve", path)
    assert code == 0 and plain.split() == ["a", "b", "c"]


def test_solve_output_is_byte_stable(tmp_path, capsys):
    path = write(tmp_path, "loopy.coax", LOOPY)
    _, first, _ = invoke(capsys, "solve", path, "--format", "json", "--trace")
    _, second, _ = invoke(capsys, "solve", path, "--format", "json", "--trace")
    assert first == second


def test_solve_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(LOOPY))
    code, out, _ = invoke(capsys, "solve", "-", "--mode", "ind")
    assert code == 0 and out.split() == ["c"]


def test_solve_warns_on_duplicates(tmp_path, capsys):
    path = write(tmp_path, "dup.coax", "axiom c\naxiom c\n")
    code, out, err = invoke(capsys, "solve", path, "--mode", "ind")
    assert code == 0 and out.split() == ["c"]
    assert "duplicate" in err


def test_the_dist_pipeline_makes_no_judgement(capsys, monkeypatch):
    """`builtin dist` grounds, and `solve` loads, solves and prints, on
    texts and positions: neither makes a Judgement, in any output form."""
    made: list[str] = []
    check = Judgement.__post_init__

    def counted(self):
        made.append(self.text)
        check(self)

    monkeypatch.setattr(Judgement, "__post_init__", counted)
    graph = "node a\nnode b\nnode c\nedge a b 2\nedge b a 0\nedge b c 1\n"
    for fmt in ("text", "json"):
        monkeypatch.setattr("sys.stdin", io.StringIO(graph))
        code, emitted, _ = invoke(capsys, "builtin", "dist", "-", "--format", fmt)
        assert code == 0 and made == []
    monkeypatch.setattr("sys.stdin", io.StringIO(graph))
    _, emitted, _ = invoke(capsys, "builtin", "dist", "-")
    outputs = []
    for flags in ([], ["--format", "json"], ["--trace"], ["--trace", "--format", "json"]):
        monkeypatch.setattr("sys.stdin", io.StringIO(emitted))
        code, out, _ = invoke(capsys, "solve", "-", *flags)
        assert code == 0 and made == []
        outputs.append(out)
    assert outputs[0].split() == [
        "dist(a,a,0)", "dist(a,b,2)", "dist(a,c,3)", "dist(b,a,0)", "dist(b,b,0)",
        "dist(b,c,1)", "dist(c,a,inf)", "dist(c,b,inf)", "dist(c,c,0)",
    ]
    assert json.loads(outputs[1])["result"] == outputs[0].split()
    assert outputs[2].splitlines()[-9:] == outputs[0].splitlines()
    assert json.loads(outputs[3])["result"] == outputs[0].split()


def test_query_exit_codes(tmp_path, capsys):
    path = write(tmp_path, "loopy.coax", LOOPY)
    code, out, _ = invoke(capsys, "query", path, "b", "--mode", "gen")
    assert (code, out.strip()) == (0, "yes")
    code, out, _ = invoke(capsys, "query", path, "b", "--mode", "ind")
    assert (code, out.strip()) == (1, "no")
    code, out, _ = invoke(capsys, "query", path, "zzz")
    assert (code, out.strip()) == (1, "no")
    code, out, _ = invoke(capsys, "query", path, "c", "--format", "json")
    assert code == 0 and json.loads(out) == {
        "judgement": "c",
        "member": True,
        "mode": "gen",
    }


# -- prove ----------------------------------------------------------------------------


def test_prove_wf(tmp_path, capsys):
    path = write(tmp_path, "loopy.coax", LOOPY)
    code, out, _ = invoke(capsys, "prove", path, "c", "--wf")
    assert code == 0 and out.strip() == "c"
    code, out, _ = invoke(capsys, "prove", path, "a", "--wf")
    assert code == 1 and "no well-founded proof" in out
    code, out, _ = invoke(capsys, "prove", path, "c", "--wf", "--depth", "0")
    assert code == 0


def test_prove_level(tmp_path, capsys):
    path = write(tmp_path, "evict.coax", EVICT)
    # a sits in the closure (level 0) but is evicted at level 1
    code, out, _ = invoke(capsys, "prove", path, "a", "--level", "0")
    assert code == 0 and out.strip() == "a"
    code, out, _ = invoke(capsys, "prove", path, "a", "--level", "1")
    assert code == 1 and "no approximated proof of level 1" in out


def test_prove_level_at_universe_size_matches_query_gen(tmp_path, capsys):
    for content in (LOOPY, EVICT):
        path = write(tmp_path, "s.coax", content)
        system = system_from_file(parse_system_file(content))
        n = len(system.universe)
        for j in map(str, system.universe):
            level_code, _, _ = invoke(capsys, "prove", path, j, "--level", str(n))
            query_code, _, _ = invoke(capsys, "query", path, j, "--mode", "gen")
            assert level_code == query_code, (content, j)


def test_prove_level_tree_shape(tmp_path, capsys):
    path = write(tmp_path, "loopy.coax", LOOPY)
    code, out, _ = invoke(capsys, "prove", path, "a", "--level", "2", "--format", "json")
    assert code == 0
    tree = json.loads(out)
    assert tree["judgement"] == "a"
    assert tree["children"][0]["judgement"] == "b"
    assert tree["children"][0]["children"][0]["judgement"] == "a"


def _tree_from_nested(d: dict) -> PathTree:
    return PathTree.branch(Judgement(d["judgement"]), [_tree_from_nested(c) for c in d["children"]])


def test_prove_level_on_cyclic_reach(tmp_path, capsys):
    # below the cut the tree is a shortest proof modulo coaxioms; a tree that
    # follows the graph's cycles down to depth |U| grows exponentially
    graph = write(tmp_path, "g.graph", "edge a b\nedge a c\nedge b a\nedge c a\nedge c b\n")
    code, out, _ = invoke(capsys, "builtin", "reach", graph)
    assert code == 0
    path = write(tmp_path, "reach.coax", out)
    system = system_from_file(parse_system_file(out))
    for level in (0, 1, 3):
        code, out, _ = invoke(
            capsys, "prove", path, "reach(a,{a,b,c})", "--level", str(level), "--format", "json"
        )
        assert code == 0, level
        tree = _tree_from_nested(json.loads(out))
        assert tree.root == Judgement("reach(a,{a,b,c})")
        assert validate_approx_level(system, tree, level).ok, level


@pytest.mark.parametrize(
    "flags",
    [
        ["--level", "-3"],
        ["--level", "-1"],
        ["--graph", "--unfold", "-2"],
        ["--wf", "--depth", "-1"],
    ],
)
def test_prove_rejects_negative_depths(tmp_path, capsys, flags):
    path = write(tmp_path, "loopy.coax", LOOPY)
    code, out, err = invoke(capsys, "prove", path, "a", *flags)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


@pytest.mark.parametrize(
    "flags",
    [
        ["--unfold", "2"],
        ["--wf", "--unfold", "2"],
        ["--level", "1", "--unfold", "2"],
        ["--level", "1", "--depth", "3"],
        ["--graph", "--depth", "3"],
        ["--graph", "--unfold", "2", "--depth", "3"],
    ],
)
def test_prove_rejects_options_that_do_nothing(tmp_path, capsys, flags):
    """--unfold works only with --graph, and --depth only for --wf proofs."""
    path = write(tmp_path, "loopy.coax", LOOPY)
    code, out, err = invoke(capsys, "prove", path, "a", *flags)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: --")


def test_prove_graph(tmp_path, capsys):
    path = write(tmp_path, "loopy.coax", LOOPY)
    code, out, _ = invoke(capsys, "prove", path, "a", "--graph")
    assert code == 0
    assert "root: a" in out
    assert "a <- b" in out and "c <- (axiom)" in out
    code, out, _ = invoke(capsys, "prove", path, "a", "--graph", "--format", "json")
    g = json.loads(out)
    assert g["root"] == "a" and g["choice"]["b"] == ["a"]
    code, out, _ = invoke(capsys, "prove", path, "a", "--graph", "--unfold", "2")
    assert code == 0 and out.splitlines()[0] == "a"
    evict = write(tmp_path, "evict.coax", EVICT)
    code, out, _ = invoke(capsys, "prove", evict, "a", "--graph")
    assert code == 1 and "not in the generated interpretation" in out


def test_prove_dot_outputs(tmp_path, capsys):
    path = write(tmp_path, "loopy.coax", LOOPY)
    code, out, _ = invoke(capsys, "prove", path, "c", "--wf", "--format", "dot")
    assert code == 0 and out.startswith("digraph prooftree")
    code, out, _ = invoke(capsys, "prove", path, "a", "--graph", "--format", "dot")
    assert code == 0 and out.startswith("digraph proofgraph")
    assert "doubleoctagon" in out


def test_prove_unknown_judgement(tmp_path, capsys):
    path = write(tmp_path, "loopy.coax", LOOPY)
    for opts in ((), ("--level", "1"), ("--graph",)):
        code, out, err = invoke(capsys, "prove", path, "zzz", *opts)
        assert (code, out, err) == (2, "", "error: zzz is not in the universe\n")


# -- check ----------------------------------------------------------------------------


def test_check_modes(tmp_path, capsys):
    path = write(tmp_path, "loopy.coax", LOOPY)
    cand = write(tmp_path, "cand.txt", "a b\n")
    code, out, _ = invoke(capsys, "check", path, cand)
    assert code == 0 and "bounded-coinduction: ok" in out
    code, out, _ = invoke(capsys, "check", path, cand, "--closed")
    assert code == 1 and "FAILED" in out  # the axiom c escapes {a,b}
    code, out, _ = invoke(capsys, "check", path, cand, "--consistent")
    assert code == 0
    lone = write(tmp_path, "lone.txt", "a\n")
    code, out, _ = invoke(capsys, "check", path, lone, "--consistent", "--format", "json")
    payload = json.loads(out)
    assert code == 1
    assert payload == {
        "check": "consistent",
        "ok": False,
        "witness": "a",
        "reason": "a has no supporting rule inside the set",
    }


def test_check_rejects_unknown_candidate_judgement(tmp_path, capsys):
    path = write(tmp_path, "loopy.coax", LOOPY)
    cand = write(tmp_path, "cand.txt", "a zzz\n")
    code, _, err = invoke(capsys, "check", path, cand)
    assert code == 2 and "error" in err


# -- oracle ----------------------------------------------------------------------------


def test_oracle_agrees(tmp_path, capsys):
    path = write(tmp_path, "loopy.coax", LOOPY)
    code, out, _ = invoke(capsys, "oracle", path)
    assert code == 0 and "all equal" in out
    code, out, _ = invoke(capsys, "oracle", path, "--format", "json")
    payload = json.loads(out)
    assert payload["all_equal"] is True
    assert payload["matches"] == {"ind": True, "coind": True, "gen": True}


def test_oracle_cap_exit(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "loopy.coax", LOOPY)
    monkeypatch.setenv("COAX_ORACLE_CAP", "2")
    code, _, err = invoke(capsys, "oracle", path)
    assert code == 3 and "oracle cap" in err
    # a ring closed by a coaxiom, a chain from an axiom, and e, f dying in the descent
    mixed = write(tmp_path, "mixed.coax", "rule a <- b\nrule b <- a\ncoaxiom a\naxiom c\n"
                  "rule d <- c\nrule e <- f g\nrule f <- e\ncoaxiom e\n")
    monkeypatch.setenv("COAX_ORACLE_CAP", "3")
    assert invoke(capsys, "oracle", mixed) == (3, "", "error: universe has 7 judgements, "
                                               "oracle cap is 3 (override with COAX_ORACLE_CAP)\n")


# -- builtin ----------------------------------------------------------------------------


def test_builtin_reach_round_trips(tmp_path, capsys):
    graph = write(tmp_path, "g.graph", "edge a b\n")
    code, out, _ = invoke(capsys, "builtin", "reach", graph)
    assert code == 0
    back = system_from_file(parse_system_file(out))
    direct = build_reach(parse_graph("edge a b\n"))
    assert {str(j) for j in generated(back)} == {str(j) for j in generated(direct)}
    assert {str(j) for j in generated(back)} == {"reach(a,{a,b})", "reach(b,{b})"}


def test_builtin_rejects_an_edge_repeated_with_another_weight(tmp_path, capsys):
    graph = write(tmp_path, "g.graph", "edge a b 5\nedge a b 1\n")
    for builder in ("reach", "dist", "spath"):
        code, out, err = invoke(capsys, "builtin", builder, graph)
        assert (code, out) == (2, "")
        assert err == "error: line 2: edge a b has weight 1, an earlier line gave it 5\n"


def test_builtin_member(tmp_path, capsys):
    term = write(tmp_path, "ones.term", "c0 = cons 1 c0\n")
    code, out, _ = invoke(capsys, "builtin", "member", term, "1")
    assert code == 0
    back = system_from_file(parse_system_file(out))
    assert {str(j) for j in generated(back)} == {"member(1,s0,T)"}
    direct = build_list_preds(cycle_list([1]), 1)["member"]
    assert list(back.rules()) == list(direct.rules())


def test_builtin_list_predicate_grounds_only_the_one_printed(tmp_path, capsys):
    """`builtin member` on a 14-element list grounds 30 judgements; grounding
    `elems` too would make 2**14 * 15 of them."""
    items = list(range(1, 15))
    term = write(tmp_path, "l.term", finite_list(items).to_text() + "\n")
    tracemalloc.start()
    try:
        code, out, _ = invoke(capsys, "builtin", "member", term, "3")
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert code == 0
    assert out == emit_system(build_list_preds(finite_list(items), 3)["member"])
    assert len(out.splitlines()) == 46
    assert peak_mb <= 10, f"builtin member peaked at {peak_mb:.1f} MB"


def test_builtin_elems_past_its_element_cap_exits_3(tmp_path, capsys):
    """15 distinct elements would ground 2**15 * 16 judgements, one rule for
    the nil state and 2**15 for each of the 15 cons states."""
    term = write(tmp_path, "l.term", finite_list(list(range(1, 16))).to_text() + "\n")
    code, out, err = invoke(capsys, "builtin", "elems", term)
    assert (code, out) == (3, "")
    assert err == (
        "error: elems would ground 1015809 judgements and rule instances, cap is 1000000\n"
    )
    assert 2**15 * 16 + 1 + 15 * 2**15 == 1015809


def test_builtin_list_predicates(tmp_path, capsys):
    term = write(tmp_path, "l.term", "p0 = cons 2 p1\np1 = cons -1 e\ne = nil\n")
    for name, expect in [
        ("allpos", "allpos(s0,F)"),
        ("maxelem", "maxelem(s0,2)"),
        ("elems", "elems(s0,{-1,2})"),
    ]:
        code, out, _ = invoke(capsys, "builtin", name, term)
        assert code == 0
        back = system_from_file(parse_system_file(out))
        assert expect in {str(j) for j in generated(back)}, name


LIST_BUILDERS = {"member": systems.build_member, "allpos": systems.build_allpos,
                 "maxelem": systems.build_maxelem, "elems": systems.build_elems}


def lambda_source(t: Term, depth: int = 0) -> str:
    """A lambda term in `builtin bigstep`'s input syntax, binders named by depth."""
    if isinstance(t, Var):
        return f"x{depth - 1 - t.index}"
    if isinstance(t, Abs):
        return f"(\\x{depth}. {lambda_source(t.body, depth + 1)})"
    return f"({lambda_source(t.fn, depth)} {lambda_source(t.arg, depth)})"


def builtin_inputs(name: str, rng: random.Random) -> list[str]:
    """The texts of the input files of `coax builtin NAME` on one recipe draw;
    `member` also takes the element 1."""
    if name in ("reach", "dist", "spath"):
        g = random_graph(rng, max_nodes=5)
        return ["".join(f"node {v}\n" for v in g.nodes)
                + "".join(f"edge {u} {v} {w}\n" for (u, v), w in g.weights.items())]
    if name == "first":
        productions = random_grammar(rng).productions
        return ["".join(f"{h} -> {' '.join(b) or '.'}\n" for h, b in productions)]
    if name == "bigstep":
        goal = random_lambda(rng)
        assert systems.parse_lambda(lambda_source(goal)) == goal
        return [lambda_source(goal) + "\n"]
    if name == "add":
        return [cycle_stream([rng.randint(0, 9) for _ in range(rng.randint(1, 3))]).to_text() + "\n"
                for _ in range(3)]
    if name == "path0":  # a tree labelled 0 and 1
        t = random_eq_system(rng)
        while t.family != "tree" or any(t[s].args[0] not in (0, 1)
                                        for s in t.states if t[s].tag == "tree"):
            t = random_eq_system(rng)
        return [t.to_text() + "\n"]
    return [random_list_term(rng).to_text() + "\n"]


_INPUT_PARSERS = {"reach": systems.parse_graph, "dist": systems.parse_graph,
                  "spath": systems.parse_graph, "first": systems.parse_grammar,
                  "bigstep": systems.parse_lambda}


@pytest.mark.parametrize("name", cli._BUILTINS)
def test_each_builder_returns_the_system_builtin_prints(tmp_path, capsys, name):
    """`build_NAME` returns the InferenceSystem alone, whose text is what
    `coax builtin NAME` prints, on every recipe draw."""
    build = getattr(systems, f"build_{name}")
    parse = _INPUT_PARSERS.get(name, parse_eq_system)
    for seed in range(30):
        texts = builtin_inputs(name, random.Random(seed))
        paths = [write(tmp_path, f"in{i}", text) for i, text in enumerate(texts)]
        element = ["1"] if name == "member" else []
        code, out, err = invoke(capsys, "builtin", name, *paths, *element)
        assert (code, err) == (0, ""), seed
        system = build(*map(parse, texts), *map(int, element))
        assert isinstance(system, InferenceSystem), seed
        assert emit_system(system) == out, seed


@pytest.mark.parametrize("name", LIST_BUILDERS)
def test_builtin_list_predicate_prints_its_builder(tmp_path, capsys, name):
    """On every recipe list, `builtin NAME` prints what build_NAME grounds,
    member at element 1."""
    for seed in range(150):
        l = random_list_term(random.Random(seed))
        term = write(tmp_path, "l.term", l.to_text() + "\n")
        element = ("1",) if name == "member" else ()
        code, out, err = invoke(capsys, "builtin", name, term, *element)
        assert (code, err) == (0, ""), seed
        assert out == emit_system(LIST_BUILDERS[name](l, *map(int, element))), seed


def test_builtin_on_a_long_finite_list_is_fast(tmp_path, capsys):
    """A finite list of 4000 equal elements, whose states differ only in
    their distance to nil, is made canonical in near-linear time: `builtin
    allpos` on it took 14.6 s when each refinement round re-signed every
    state."""
    n = 4000
    text = "".join(f"n{i} = cons 1 n{i + 1}\n" for i in range(n)) + f"n{n} = nil\n"
    term = write(tmp_path, "long.term", text)
    started = time.perf_counter()
    code, out, err = invoke(capsys, "builtin", "allpos", term)
    seconds = time.perf_counter() - started
    assert (code, err) == (0, "")
    assert out.count("\n") > n
    assert seconds < 1, f"took {seconds:.2f} s"


@pytest.mark.parametrize("name", LIST_BUILDERS)
def test_builtin_list_predicate_refuses_an_ill_shaped_term(tmp_path, capsys, name):
    for text, said in (
        ("s = digit 1 s\n", "expected a list, got a stream"),
        ("l = cons m n\nm = cons 1 n\nn = nil\n", "list elements must be integer atoms here"),
    ):
        element = ("1",) if name == "member" else ()
        argv = ("builtin", name, write(tmp_path, "bad.term", text), *element)
        assert invoke(capsys, *argv) == (2, "", f"error: {said}\n")


def test_builtin_add(tmp_path, capsys):
    ones = write(tmp_path, "a.term", "c0 = digit 1 c0\n")
    twos = write(tmp_path, "b.term", "c0 = digit 2 c0\n")
    threes = write(tmp_path, "c.term", "c0 = digit 3 c0\n")
    code, out, _ = invoke(capsys, "builtin", "add", ones, twos, threes)
    assert code == 0
    back = system_from_file(parse_system_file(out))
    assert {str(j) for j in generated(back)} == {"add(s0,s0,s0,0)"}


def test_builtin_path0(tmp_path, capsys):
    term = write(tmp_path, "t.term", "t = tree 0 l\nl = cons t l\n")
    code, out, _ = invoke(capsys, "builtin", "path0", term)
    assert code == 0
    back = system_from_file(parse_system_file(out))
    assert "path0(s0)" in {str(j) for j in generated(back)}


def test_builtin_bigstep(tmp_path, capsys):
    term = write(tmp_path, "id.lam", "\\x. x\n")
    code, out, _ = invoke(capsys, "builtin", "bigstep", term, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert "eval(abs(x0,var(x0)),abs(x0,var(x0)))" in payload["universe"]
    assert payload["coaxioms"] == [
        "eval(abs(x0,var(x0)),inf)",
    ]


def test_builtin_cap_exits_3(tmp_path, capsys):
    """The cap bounds what a builder would ground, so a heavy edge grounds
    (dist: 408 judgements, 5 rules) where the old weight cap refused it."""
    heavy = write(tmp_path, "h.graph", "edge a b 100\n")
    code, out, _ = invoke(capsys, "builtin", "dist", heavy)
    assert code == 0 and "coaxiom dist(a,b,inf)" in out
    assert out.count("\nrule ") + out.count("\naxiom ") == 5
    code, out, _ = invoke(capsys, "builtin", "spath", heavy)
    assert code == 0 and "axiom spath(a,b,[a,b],100)" not in out
    assert "rule spath(a,b,[a,b],100) <- spath(b,b,[b],0)" in out
    code, out, err = invoke(capsys, "builtin", "reach", write(tmp_path, "k.graph", COMPLETE_10))
    assert (code, out) == (3, "") and err.count("\n") == 1 and "cap is 1000000" in err


def test_builtin_weight_past_the_int_digit_limit_exits_2(tmp_path, capsys):
    """A weight longer than int() reads is refused on one line by every graph
    builtin; one of 4300 digits is read, and grounds where its count and
    printed path weights allow."""
    before = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        long = write(tmp_path, "long.graph", f"edge a b {'9' * 4301}\n")
        for builder in ("reach", "dist", "spath"):
            assert invoke(capsys, "builtin", builder, long) == (
                2, "", "error: line 1: weight has more than 4300 digits, the most an int reads\n")
        at_limit = write(tmp_path, "at.graph", f"edge a b {'9' * 4300}\nedge b c {'9' * 4300}\n")
        code, out, _ = invoke(capsys, "builtin", "reach", at_limit)
        assert code == 0 and "axiom reach(c,{c})" in out
        code, out, err = invoke(capsys, "builtin", "dist", at_limit)
        assert (code, out) == (3, "") and err.startswith("error: dist would ground at least 2^")
        assert invoke(capsys, "builtin", "spath", at_limit) == (
            3, "", "error: spath path weights may exceed 4300 digits, the most an int prints\n")
    finally:
        sys.set_int_max_str_digits(before)


OVER_COUNT = {  # each inside the old per-family caps
    "dist-complete": ("dist", COMPLETE_10, "dist would ground 250191529527219290"),
    "spath-complete": ("spath", COMPLETE_10, "spath would ground at least 1000001"),
    "reach-complete": ("reach", COMPLETE_10, "reach would ground at least 2^90"),  # 1.2e28
    "first-grammar": ("first", GRAMMAR_12, "first would ground 4294970893"),
    "dist-8-nodes": ("dist", DIST_8, "dist would ground 21937098"),
}


@pytest.mark.parametrize("case", OVER_COUNT)
def test_builtin_past_the_ground_cap_exits_3_at_once(tmp_path, capsys, monkeypatch, case):
    """Each of these exhausted memory or ran for minutes when only input
    dimensions were capped; counted first, each exits 3 on one line before
    any of its judgement texts is made (first grounds nullable(A) before)."""
    builder, text, said = OVER_COUNT[case]
    real_universe = systems._universe

    def universe(texts):
        texts = list(texts)
        assert not any(t.startswith(builder + "(") for t in texts), "ground before the count"
        return real_universe(texts)

    monkeypatch.setattr(systems, "_universe", universe)
    code, out, err = invoke(capsys, "builtin", builder, write(tmp_path, "in.txt", text))
    assert (code, out) == (3, "")
    assert err == f"error: {said} judgements and rule instances, cap is 1000000\n"


def test_spath_weights_too_long_to_print_exit_3(tmp_path, capsys):
    """Two 4,300-digit weights make a path weight of 4,301 digits, more than
    Python turns into text: spath refuses the graph before it makes any."""
    graph = write(tmp_path, "long.graph", f"edge a b {10**4299}\nedge b c {9 * 10**4299}\n")
    code, out, err = invoke(capsys, "builtin", "spath", graph)
    assert (code, out) == (3, "")
    assert err == "error: spath path weights may exceed 4300 digits, the most an int prints\n"


CAP_FILES = {
    "grammar.txt": "S -> a B\nB -> b\nB -> c\n",
    "goal.lam": "(\\x. x) (\\y. y)\n",
    "graph.txt": "edge a b 1\nedge b c 2\n",
}


@pytest.mark.parametrize(
    "argv, builder, caps, status",
    [
        ("first grammar.txt --cap 1", "build_first", [], 2),
        ("first grammar.txt --cap 3", "build_first", [], 2),
        ("first grammar.txt", "build_first", [{}], 0),
        ("bigstep goal.lam --cap 1", "build_bigstep", [], 2),
        ("bigstep goal.lam", "build_bigstep", [{}], 0),
        ("spath graph.txt --node-cap 2", "build_spath", [], 2),
        ("spath graph.txt --node-cap 3", "build_spath", [], 2),
        ("spath graph.txt", "build_spath", [{}], 0),
        ("dist graph.txt --weight-cap 1", "build_dist", [], 2),
        ("reach graph.txt", "build_reach", [{}], 0),
    ],
)
def test_builtin_cap_flags_reach_their_builder(tmp_path, capsys, monkeypatch, argv, builder,
                                               caps, status):
    """No cap flag is left to reach a builder: each former one is a usage
    error, and every builder is called with no keyword, its cap counted from
    its input (bigstep's is a constant).  ``caps`` lists the keywords of
    each call the builder got."""
    for name, text in CAP_FILES.items():
        write(tmp_path, name, text)
    real, calls = getattr(systems, builder), []

    def spy(*args, **given):
        calls.append(given)
        return real(*args, **given)

    monkeypatch.setattr(systems, builder, spy)
    argv = [str(tmp_path / arg) if arg in CAP_FILES else arg for arg in argv.split()]
    if status == 2:  # argparse exits on an unknown flag
        with pytest.raises(SystemExit) as exited:
            main(["builtin", *argv])
        code, (out, err) = exited.value.code, capsys.readouterr()
        assert out == "" and "unrecognized arguments: --" in err
    else:
        code, out, err = invoke(capsys, "builtin", *argv)
        assert out.startswith("universe ") and err == ""
    assert (code, calls) == (status, caps), err


# -- error mapping ------------------------------------------------------------------------


def test_usage_errors_exit_2(tmp_path, capsys):
    bad = write(tmp_path, "bad.coax", "frobnicate x\n")
    code, _, err = invoke(capsys, "solve", bad)
    assert code == 2 and "line 1" in err
    code, _, err = invoke(capsys, "solve", str(tmp_path / "missing.coax"))
    assert code == 2
    badlam = write(tmp_path, "bad.lam", "\\x. y\n")
    code, _, err = invoke(capsys, "builtin", "bigstep", badlam)
    assert code == 2 and "free variable" in err
    # ill-sorted terms and a negative weight exit 2 on one line
    ok = write(tmp_path, "ok.term", "x = digit 1 x\n")
    for builder, text, extra, message in (
        ("allpos", "x = cons 1 5\n", [], "x: argument 1 of cons must be a list state"),
        ("maxelem", "x = cons 1 5\n", [], "x: argument 1 of cons must be a list state"),
        ("elems", "x = cons 1 5\n", [], "x: argument 1 of cons must be a list state"),
        ("allpos", "x = cons 1 y\ny = digit 2 y\n", [], "x: argument 1 of cons must be a list state"),
        ("add", "x = digit 1 5\n", [ok, ok], "x: argument 1 of digit must be a stream state"),
        ("path0", "t = tree 0 5\n", [], "t: argument 1 of tree must be a list state"),
        ("path0", "l = cons t t\nt = tree 0 l\n", [], "l: argument 1 of cons must be a list state"),
        ("dist", "node c\nedge a b -1\n", [], "line 2: weights are non-negative"),
    ):
        code, out, err = invoke(capsys, "builtin", builder, write(tmp_path, "bad.in", text), *extra)
        assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "term",
    [
        "(" * 400 + "\\x. x" + ")" * 400,
        "\\x. " * 1500 + "x",
        "\\x. " + " ".join(["x"] * 1501),
        "(" * 200 + "\\x. x" + ")" * 200,
        "\\x. " * 201 + "x",
        "\\x. " + " ".join(["x"] * 201),
    ],
    ids=["400-parens", "1500-binders", "1500-arguments", "200-parens", "201-binders", "200-arguments"],
)
def test_builtin_bigstep_rejects_terms_nested_too_deep(tmp_path, capsys, term):
    """Parentheses, binders and a left-nested application one level past
    LAMBDA_DEPTH_CAP, and far past it."""
    path = write(tmp_path, "deep.lam", term)
    code, out, err = invoke(capsys, "builtin", "bigstep", path)
    assert code == 2 and out == ""
    assert err == "error: lambda term nests deeper than 200 levels\n"


@pytest.mark.parametrize(
    "term",
    [
        "(" * 199 + "\\x. x" + ")" * 199,
        "\\x. " * 200 + "x",
        "\\x. " + " ".join(["x"] * 200),
        "(\\x. x) (" + "\\x. " * 199 + "x)",
    ],
    ids=["199-parens", "200-binders", "199-arguments", "redex-of-199-binders"],
)
def test_builtin_bigstep_builds_terms_at_the_depth_bound(tmp_path, capsys, term):
    path = write(tmp_path, "deep.lam", term)
    code, out, err = invoke(capsys, "builtin", "bigstep", path)
    assert code == 0 and err == ""
    assert run(["solve", write(tmp_path, "deep.coax", out)]) == 0


def test_builtin_rejects_node_names_that_would_collide(capsys, monkeypatch):
    """`a,a` would make the pairs (a, a,a) and (a,a, a) print the same."""
    monkeypatch.setattr("sys.stdin", io.StringIO("edge a a,a 1\nedge a,a a 1\n"))
    code, out, err = invoke(capsys, "builtin", "dist", "-")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: line 1: node name 'a,a'")


def test_builtin_first_rejects_reserved_grammar_symbols(tmp_path, capsys):
    grammar = write(tmp_path, "g.txt", "S -> a B\nB -> b,c\n")
    code, out, err = invoke(capsys, "builtin", "first", grammar)
    assert code == 2 and out == ""
    assert err == "error: line 2: grammar symbol 'b,c' contains one of , ( ) { } [ ]\n"


def test_builtin_term_rejects_reserved_state_names(tmp_path, capsys):
    term = write(tmp_path, "t.term", "# a cycle\nc0 = cons 1 c[1]\nc[1] = cons 2 c0\n")
    code, out, err = invoke(capsys, "builtin", "member", term, "1")
    assert code == 2 and out == ""
    assert err == "error: line 2: state name 'c[1]' contains one of , ( ) { } [ ]\n"


@pytest.mark.parametrize("text", ["x = cons 1 5\n5 = nil\n", "x = cons 1 x\n5 = nil\n"])
def test_builtin_term_rejects_numeric_state_names(tmp_path, capsys, text):
    code, out, err = invoke(capsys, "builtin", "allpos", write(tmp_path, "t.term", text))
    assert code == 2 and out == ""
    assert err == "error: line 2: state name '5' is a number, which reads as an atom\n"


def broken_command(args):
    raise RuntimeError("boom")


def test_unexpected_errors_exit_4_on_one_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("coax.cli.cmd_solve", broken_command)
    code, out, err = invoke(capsys, "solve", write(tmp_path, "l.coax", LOOPY))
    assert code == 4 and out == ""
    assert err == "error: internal error: RuntimeError: boom\n"


# -- the paused cyclic collector --------------------------------------------------

GC_FILES = {
    "sys.coax": LOOPY,
    "cand.txt": "a b c\n",
    "bad.coax": "rule a b\n",
    "graph.txt": "edge a b 1\nedge b a 2\n",
    "grammar.txt": "S -> a B\nB -> b\nB -> .\n",
    "tree.term": "t = tree 0 l\nl = cons t l\n",
    "list.term": "p0 = cons 2 p1\np1 = cons -1 e\ne = nil\n",
    "ones.term": "c0 = digit 1 c0\n",
    "twos.term": "c0 = digit 2 c0\n",
    "threes.term": "c0 = digit 3 c0\n",
    "goal.lam": "(\\f. \\x. f (f x)) (\\x. \\z. x x) (\\y. y)\n",
    "complete.txt": COMPLETE_10,
}

# (command line, exit status): every command, mode and output format
GC_COMMANDS = [
    *((f"solve sys.coax --mode {mode}{extra}", 0)
      for mode in ("ind", "coind", "gen") for extra in ("", " --trace", " --format json")),
    ("query sys.coax a", 0),
    *((f"prove sys.coax {j} {how} --format {fmt}", 0)
      for j, how in (("c", "--wf"), ("a", "--level 2"), ("a", "--graph"))
      for fmt in ("text", "json", "dot")),
    *((f"check sys.coax cand.txt{which}", 0) for which in ("", " --closed", " --consistent")),
    ("oracle sys.coax", 0),
    ("builtin reach graph.txt", 0),
    ("builtin first grammar.txt", 0),
    ("builtin dist graph.txt", 0),
    ("builtin spath graph.txt", 0),
    ("builtin path0 tree.term", 0),
    ("builtin add ones.term twos.term threes.term", 0),
    ("builtin bigstep goal.lam", 0),
    ("builtin member list.term 2", 0),
    *((f"builtin {name} list.term", 0) for name in ("allpos", "maxelem", "elems")),
    ("builtin dist graph.txt --format json", 0),
    ("solve bad.coax", 2),
    ("builtin dist complete.txt", 3),
]


@pytest.mark.parametrize("line, status", GC_COMMANDS, ids=[line for line, _ in GC_COMMANDS])
def test_commands_leave_no_cyclic_garbage(tmp_path, capsys, line, status):
    """`run` pauses the cyclic collector, so whatever a command leaves in a
    reference cycle would stay until the next collection."""
    for name, text in GC_FILES.items():
        write(tmp_path, name, text)
    argv = [str(tmp_path / arg) if arg in GC_FILES else arg for arg in line.split()]
    # argparse's help formatters leave cycles while the parser is built, once
    # per process
    coax.cli._parser()
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == status
        assert gc.collect() == 0
    finally:
        gc.enable()
    capsys.readouterr()


@pytest.mark.parametrize("enabled", [True, False])
def test_the_collector_is_left_as_the_caller_had_it(tmp_path, capsys, monkeypatch, enabled):
    loopy = write(tmp_path, "l.coax", LOOPY)
    graph = write(tmp_path, "g.txt", COMPLETE_10)
    cases = [
        (["solve", loopy], 0),
        (["query", loopy, "a", "--mode", "ind"], 1),
        (["solve", write(tmp_path, "bad.coax", "rule a b\n")], 2),
        (["builtin", "reach", graph], 3),
    ]
    (gc.enable if enabled else gc.disable)()
    try:
        for argv, status in cases:
            assert main(argv) == status
            assert gc.isenabled() is enabled, argv
        with pytest.raises(SystemExit):  # an argparse usage error, exit 2
            main(["solve"])
        assert gc.isenabled() is enabled
        monkeypatch.setattr("coax.cli.cmd_solve", broken_command)
        assert main(["solve", loopy]) == 4
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    capsys.readouterr()


def chain_file(length: int) -> str:
    return "axiom c0\n" + "".join(f"rule c{i + 1} <- c{i}\n" for i in range(length))


def chain_tree(length: int) -> PathTree:
    """The one proof of c<length>: c<length> down to the axiom c0."""
    labels = [Judgement(f"c{length - d}") for d in range(length + 1)]
    return PathTree(labels[0], frozenset(tuple(labels[1:d + 1]) for d in range(1, length + 1)))


def test_prove_on_a_deep_chain_ends_without_traceback(tmp_path, capsys):
    code, out, err = invoke(capsys, "prove", write(tmp_path, "chain.coax", chain_file(600)), "c600")
    assert code == 0 and err == ""
    assert out.splitlines() == ["  " * d + f"c{600 - d}" for d in range(601)]


@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
def test_prove_wf_on_a_1500_step_chain_in_every_format(tmp_path, capsys, fmt):
    path = write(tmp_path, "chain.coax", chain_file(1500))
    code, out, err = invoke(capsys, "prove", path, "c1500", "--wf", "--format", fmt)
    assert code == 0 and err == ""
    t = chain_tree(1500)
    assert out == {"text": t.render() + "\n", "json": json_text(t.to_nested()), "dot": tree_dot(t)}[fmt]


DEEP = "rule a <- b\nrule b <- a c\naxiom c\ncoaxiom a\n"


@pytest.fixture(scope="module")
def deep_tree() -> PathTree:
    system = system_from_file(parse_system_file(DEEP))
    return unfold(proof_graph(system, generated(system), Judgement("a")), 1500)


@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
def test_prove_a_1500_deep_unfold_in_every_format(tmp_path, capsys, deep_tree, fmt):
    path = write(tmp_path, "deep.coax", DEEP)
    code, out, err = invoke(capsys, "prove", path, "a", "--graph", "--unfold", "1500",
                            "--format", fmt)
    assert code == 0 and err == ""
    t = deep_tree
    assert out == {"text": t.render() + "\n", "json": json_text(t.to_nested()), "dot": tree_dot(t)}[fmt]


class _Writes:
    """A stdout that keeps each write apart."""

    def __init__(self) -> None:
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return len(text)

    def writelines(self, pieces) -> None:
        for piece in pieces:
            self.write(piece)

    def flush(self) -> None:
        pass


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_proof_goes_out_in_pieces(tmp_path, monkeypatch, fmt):
    """No single write holds the whole proof, so printing it never holds
    the whole text."""
    path = write(tmp_path, "chain.coax", chain_file(1500))
    out = _Writes()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["prove", path, "c1500", "--format", fmt]) == 0
    t = chain_tree(1500)
    whole = {"text": t.render() + "\n", "json": json_text(t.to_nested())}[fmt]
    assert "".join(out.writes) == whole
    assert len(out.writes) > 2 and max(map(len, out.writes)) < len(whole) / 2


# a DAG of 2 x 41 judgements whose proof tree, unshared, has 2**41 - 1 nodes,
# and a two-judgement cycle whose unfolding doubles at every level
DAG = "axiom x0\naxiom y0\n" + "".join(
    f"rule x{i + 1} <- x{i} y{i}\nrule y{i + 1} <- x{i} y{i}\n" for i in range(40)
)
BRANCHING = "rule a <- a b\nrule b <- a b\ncoaxiom a\ncoaxiom b\n"


@pytest.mark.parametrize("text, argv", [
    (DAG, ["x40"]),
    (BRANCHING, ["a", "--graph", "--unfold", "40"]),
], ids=["wf", "unfold"])
def test_a_proof_tree_past_the_node_cap_exits_3(tmp_path, capsys, text, argv):
    code, out, err = invoke(capsys, "prove", write(tmp_path, "big.coax", text), *argv)
    assert (code, out) == (3, "")
    assert err == "error: the proof tree exceeds 1000000 nodes\n"


@pytest.mark.parametrize("fmt, head", [
    ("text", "c5000\n  c4999\n    c4998"),
    ("json", '{\n  "children": [\n    {'),
    ("dot", 'digraph prooftree {\n  n0 [label="c5000"];'),
], ids=["text", "json", "dot"])
def test_a_reader_that_closes_stdout_early_ends_the_command_with_status_0(tmp_path, fmt, head):
    """`coax prove ... | head -c 20`: the proof of a 5000-step chain is
    larger than a pipe holds in every format, so the command is still
    writing when the reader closes the pipe."""
    path = write(tmp_path, "chain.coax", chain_file(5000))
    env = dict(os.environ, PYTHONPATH=str(Path(coax.__file__).resolve().parent.parent))
    proc = subprocess.Popen(
        [sys.executable, "-m", "coax.cli", "prove", path, "c5000", "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.read(20) == head[:20].encode()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == 0 and err == b""


def test_run_propagates_errors(tmp_path):
    bad = write(tmp_path, "bad.coax", "frobnicate x\n")
    with pytest.raises(ValueError):
        run(["solve", bad])


def fresh_python(script: str) -> str:
    """The output of ``script`` run by a new interpreter on this coax."""
    env = dict(os.environ, PYTHONPATH=str(Path(coax.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    return done.stdout


def test_importing_the_cli_loads_only_core():
    """The commands import the other modules they use, and the package
    imports a re-exported name's module on first use."""
    script = (
        "import sys, coax.cli\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'coax'))"
    )
    assert fresh_python(script).split() == ["coax", "coax.cli", "coax.core"]


def test_package_re_exports_resolve_on_first_use():
    """Every name in coax.__all__, and each defining module, read from a
    fresh interpreter that imported only the package."""
    script = (
        "import coax, sys\n"
        "for name in coax.__all__:\n"
        "    module = coax._MODULE_OF[name]\n"
        "    assert getattr(coax, name) is getattr(sys.modules['coax.' + module], name)\n"
        "for module in coax._EXPORTS:\n"
        "    assert getattr(coax, module) is sys.modules['coax.' + module]\n"
        "print(hasattr(coax, 'no_such_name'))"
    )
    assert fresh_python(script) == "False\n"
