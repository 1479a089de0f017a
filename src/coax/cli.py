"""Command-line front end.

Subcommands: ``solve`` (compute an interpretation), ``query`` (membership as
an exit code), ``prove`` (emit proof artifacts), ``check`` (run specification
checkers on a candidate set), ``oracle`` (brute-force cross-validation) and
``builtin`` (instantiate one of the bundled judgement families and emit it in
the extensional file format).

Exit codes: 0 success/derivable, 1 not derivable or check failed, 2 usage or
parse/validation errors, 3 a cap was exceeded, 4 an internal error (a fault
of the program, reported on one line).
"""

from __future__ import annotations

import argparse
import functools
import gc
import itertools
import json
import os
import sys as _sys
from collections import defaultdict
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _encode_text
from operator import lt
from types import GeneratorType
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Optional, Sequence, TextIO

from .core import (
    CapExceeded,
    CoaxError,
    InferenceSystem,
    IterationTrace,
    Judgement,
    JudgementSet,
    Universe,
    _mask,
    _token_lines,
    coinductive,
    generated,
    inductive,
)

# prooftree, verify, systems and regular are imported by the commands that
# use them, so that `solve` and `query` load only core
if TYPE_CHECKING:
    from .prooftree import PathTree, ProofGraph


# -- the extensional file format -----------------------------------------------


@dataclass(slots=True)
class SystemFile:
    """A parsed extensional system description, held as token ids.

    A file is read once, into ids: ``names[i]`` is the token with id ``i``,
    numbered in order of first appearance.  ``universe_ids`` lists the ids
    of the universe lines in their order (None when no universe line was
    given; the universe is then inferred from the mentioned judgements).
    ``rule_ids`` maps each conclusion id to its distinct premise-id tuples,
    each sorted and free of duplicates; ``coaxiom_ids`` are distinct.
    Duplicate rule/axiom/coaxiom lines are dropped and reported in
    ``warnings``.  ``system_from_file`` maps the ids to universe positions,
    and skips that remap when the ids are the positions already: when the
    names were first seen in sorted order, as sorted universe lines ahead of
    every rule (the way ``emit_system`` writes a file) make them.  Only
    ``parse_system_file`` makes a ``SystemFile`` from tokens.
    """

    names: list[str]
    universe_ids: Optional[tuple[int, ...]]
    rule_ids: Mapping[int, Iterable[tuple[int, ...]]]
    coaxiom_ids: tuple[int, ...]
    warnings: tuple[str, ...]


def _interner() -> tuple[dict[str, int], Callable[[str], int]]:
    """A token-to-id map and its lookup, which gives a new token the next id.

    The ids come from a counter, not from the map's own ``__len__``: a
    factory bound to the map would make a reference cycle, which only the
    cyclic collector frees, and ``run`` pauses that collector."""
    ids: defaultdict[str, int] = defaultdict(itertools.count().__next__)
    return ids, ids.__getitem__


_CHUNK = 1 << 16  # characters read from a system file at a time
# every character that ends a line for str.splitlines
_LINE_ENDS = frozenset("\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")


def _line_batches(source: str | TextIO) -> Iterator[tuple[bool, list[str]]]:
    """The lines of a text, or of a text stream read ``_CHUNK`` characters
    at a time, in batches, split exactly as ``str.splitlines()`` splits the
    whole text; with each batch, whether its text holds a ``#``.  A text is
    one batch.  A stream's last piece of a chunk waits for the next chunk
    when it ends in no line break, or in ``"\\r"``, which may begin
    ``"\\r\\n"``."""
    if isinstance(source, str):
        yield "#" in source, source.splitlines()
        return
    rest = ""
    while chunk := source.read(_CHUNK):
        text = rest + chunk
        lines = text.splitlines()
        last = text[-1]
        if last == "\r":
            rest = lines.pop() + last
        elif last in _LINE_ENDS:
            rest = ""
        else:
            rest = lines.pop()
        yield "#" in text, lines
    if rest:
        yield "#" in rest, rest.splitlines()


def parse_system_file(source: str | TextIO) -> SystemFile:
    """Read a system file from a text, or from a text stream in chunks of
    ``_CHUNK`` characters, so that no whole copy of a stream's text is held.
    Grammar, one directive per line, `#` starts a comment:

        universe j1 j2 ...      (repeatable; omit to infer)
        rule c <- p1 p2 ...
        axiom c
        coaxiom c

    Every token is interned as its line is read; duplicates are found on
    the ids.
    """
    ids, at = _interner()
    universe: Optional[list[int]] = None
    rules: defaultdict[int, dict[tuple[int, ...], None]] = defaultdict(dict)
    coaxioms: dict[int, None] = {}
    warnings: list[str] = []
    lineno = 0
    for comments, lines in _line_batches(source):
        for lineno, raw in enumerate(lines, start=lineno + 1):
            tokens = (raw.split("#", 1)[0] if comments else raw).split()
            if not tokens:
                continue
            head = tokens[0]
            if head == "rule":
                if len(tokens) < 3 or tokens[2] != "<-":
                    raise ValueError(f"line {lineno}: expected `rule c <- p1 p2 ...`")
                premise_sets = rules[at(tokens[1])]
                ps = tuple(map(at, tokens[3:]))
                # sorted only when not increasing already (the first pair decides
                # most); premises that emit_system writes come in increasing order
                if len(ps) > 1 and (
                    ps[0] >= ps[1] or len(ps) > 2 and not all(map(lt, ps[1:], ps[2:]))
                ):
                    ps = tuple(sorted(set(ps)))
            elif head == "axiom":
                if len(tokens) != 2:
                    raise ValueError(f"line {lineno}: expected `axiom c`")
                premise_sets = rules[at(tokens[1])]
                ps = ()
            elif head == "universe":
                if universe is None:
                    universe = []
                universe.extend(map(at, tokens[1:]))
                continue
            elif head == "coaxiom":
                if len(tokens) != 2:
                    raise ValueError(f"line {lineno}: expected `coaxiom c`")
                c = at(tokens[1])
                if c in coaxioms:
                    warnings.append(f"line {lineno}: duplicate coaxiom {tokens[1]} ignored")
                else:
                    coaxioms[c] = None
                continue
            else:
                raise ValueError(
                    f"line {lineno}: unknown directive {head!r} "
                    f"(expected universe/rule/axiom/coaxiom)"
                )
            if ps in premise_sets:
                warnings.append(f"line {lineno}: duplicate rule for {tokens[1]} ignored")
            else:
                premise_sets[ps] = None
    return SystemFile(
        list(ids),
        None if universe is None else tuple(universe),
        rules,
        tuple(coaxioms),
        tuple(warnings),
    )


def system_from_file(sf: SystemFile) -> InferenceSystem:
    """Load a parsed file: ids map to universe positions through one
    permutation.  It is the identity, and the remap is skipped, exactly
    when the names were first seen in sorted order, as sorted universe
    lines ahead of every rule make them; that is how ``emit_system`` writes
    a file.  Otherwise every id is remapped and each premise tuple sorted
    again.  A name outside a declared universe is rejected, the least one
    named."""
    names = sf.names
    declared = names if sf.universe_ids is None else map(names.__getitem__, sf.universe_ids)
    universe = Universe._from_texts(declared)
    perm = list(map(universe._index.get, names))
    if None in perm:
        stray = min(n for n, p in zip(names, perm) if p is None)
        raise ValueError(f"judgement {stray} is not in the declared universe")
    if perm == list(range(len(perm))):
        table = sf.rule_ids
    else:
        to = perm.__getitem__
        table = {
            to(c): [tuple(sorted(map(to, ps))) for ps in premise_sets]
            for c, premise_sets in sf.rule_ids.items()
        }
    coaxioms = _mask(map(perm.__getitem__, sf.coaxiom_ids))
    return InferenceSystem._from_table(universe, table, JudgementSet(universe, coaxioms))


_UNIVERSE_PER_LINE = 8  # judgements on each universe line that emit_system writes
_BATCH = 512  # lines, and JSON items, in each piece of output


def emit_system(sys: InferenceSystem) -> str:
    """Serialize in the extensional format; parsing the result reproduces the
    system exactly (universe, rules and coaxioms).  The text is the join of
    ``_system_pieces``, which ``coax builtin`` writes as it makes them."""
    return "".join(_system_pieces(sys))


def _system_pieces(sys: InferenceSystem) -> Iterator[str]:
    """The text of ``emit_system`` in pieces, each made when the one before
    it has been taken.  A piece ends after the first conclusion whose rules
    bring it to ``_BATCH`` lines; a check per line made ``builtin dist`` a
    tenth slower."""
    texts = sys.universe.texts
    lines = [
        "universe " + " ".join(texts[i : i + _UNIVERSE_PER_LINE])
        for i in range(0, len(texts), _UNIVERSE_PER_LINE)
    ] or ["universe"]
    text = list(texts).__getitem__  # a list's __getitem__ is called faster than a tuple's
    for c, premise_sets in sys._table.items():
        head = f"rule {texts[c]} <- "
        for prs in premise_sets:
            lines.append(head + " ".join(map(text, prs)) if prs else f"axiom {texts[c]}")
        if len(lines) >= _BATCH:
            lines.append("")  # each piece ends in a newline
            yield "\n".join(lines)
            lines = []
    lines += [f"coaxiom {c}" for c in sys.coaxioms.texts()]
    lines.append("")
    yield "\n".join(lines)


def parse_candidate_file(text: str, universe: Universe) -> JudgementSet:
    """A candidate set: whitespace-separated judgement tokens, `#` comments."""
    return universe.subset(Judgement(t) for _, tokens in _token_lines(text) for t in tokens)


# -- emission helpers ------------------------------------------------------------


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def tree_dot(t: PathTree) -> str:
    labels, _, kids = t.children_index()
    lines = ["digraph prooftree {"]
    for number, j in enumerate(labels):
        lines.append(f'  n{number} [label="{_dot_escape(str(j))}"];')
    for number, children in enumerate(kids):
        for child in children:
            lines.append(f"  n{number} -> n{child};")
    lines.append("}\n")
    return "\n".join(lines)


def graph_dot(g: ProofGraph) -> str:
    ids = {j: f"n{i}" for i, j in enumerate(g.support)}
    lines = ["digraph proofgraph {"]
    for j, nid in ids.items():
        shape = ' shape=doubleoctagon' if j == g.root else ""
        lines.append(f'  {nid} [label="{_dot_escape(str(j))}"{shape}];')
    for j, prs in sorted(g.choice.items()):
        for p in prs:
            lines.append(f"  {ids[j]} -> {ids[p]};")
    lines.append("}\n")
    return "\n".join(lines)


def json_pieces(obj: object) -> Iterator[str]:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"`` in pieces, for
    dicts with text keys, lists, and text, int, bool or None leaves; a
    generator is written as the list of what it yields, taken one item at a
    time as the output reaches it.  Each piece joins about ``_BATCH``
    items: a write per item made ``builtin dist --format json`` a third
    slower into a pipe.

    No recursion: each open container is a frame on an explicit stack, an
    iterator over its items with its depth and closing bracket, so no depth
    bounds the value.  Indentation is made as it is written, so the stack
    holds none of it.  json's own indenting encoder recurses, and builds a
    reference cycle of closures on every call, which only the cyclic
    collector frees (see ``run``)."""
    out: list[str] = []
    frames: list[tuple[Iterator[tuple[str, object]], int, str]] = []
    value, depth = obj, 0
    while True:
        if isinstance(value, dict):
            keys = sorted(value)
            heads = [_encode_text(key) + ": " for key in keys]
            frames.append((zip(heads, map(value.__getitem__, keys)), depth, "}"))
            sep = "{"
        elif isinstance(value, (list, GeneratorType)):
            frames.append((zip(itertools.repeat(""), value), depth, "]"))
            sep = "["
        else:
            out.append(_leaf(value))
            sep = ","
        # the next item of the innermost frame that has one; close the others
        while frames:
            items, depth, closer = frames[-1]
            item = next(items, None)
            if item is not None:
                break
            frames.pop()
            # a container closed right after it opened is empty: "[]" or "{}"
            out.append(sep + closer if sep != "," else "\n" + "  " * depth + closer)
            sep = ","
        else:
            break
        head, value = item
        depth += 1
        out.append(sep + "\n" + "  " * depth + head)
        if len(out) > _BATCH:
            yield "".join(out)
            out.clear()
    out.append("\n")
    yield "".join(out)


def _leaf(value: object) -> str:
    return _encode_text(value) if isinstance(value, str) else json.dumps(value)


def _read(path: str) -> str:
    if path == "-":
        return _sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


# -- subcommand implementations ----------------------------------------------------


def _emit(text: str) -> None:
    """Write ``text`` to stdout, and a newline after it unless it ends in one."""
    _sys.stdout.write(text)
    if not text.endswith("\n"):
        _sys.stdout.write("\n")


def _emit_json(obj: object) -> None:
    _sys.stdout.writelines(json_pieces(obj))


def _load_system(path: str) -> InferenceSystem:
    """Parse the system file at ``path``, or stdin for ``-``, from the open
    stream, whose text is never held whole, and load it."""
    if path == "-":
        sf = parse_system_file(_sys.stdin)
    else:
        with open(path, "r", encoding="utf-8") as fh:
            sf = parse_system_file(fh)
    for w in sf.warnings:
        print(f"warning: {w}", file=_sys.stderr)
    return system_from_file(sf)


def _solve(sys: InferenceSystem, mode: str) -> tuple[JudgementSet, IterationTrace]:
    if mode == "ind":
        return inductive(sys)
    if mode == "coind":
        return coinductive(sys)
    _, descent = sys._analyze()
    return descent.result, descent


def cmd_solve(args: argparse.Namespace) -> int:
    system = _load_system(args.system)
    result, trace = _solve(system, args.mode)
    if args.format == "json":
        payload: dict = {"mode": args.mode, "result": result.texts()}
        if args.trace:
            payload["trace"] = [step.texts() for step in trace]
        _emit_json(payload)
    else:
        if args.trace:
            for n, step in enumerate(trace):
                _emit(" ".join([f"# step {n}:", *step.texts()]))
        _emit("\n".join(result.texts()))
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    system = _load_system(args.system)
    j = Judgement(args.judgement)
    member = j in system.universe and j in _solve(system, args.mode)[0]
    if args.format == "json":
        _emit_json({"judgement": args.judgement, "mode": args.mode, "member": member})
    else:
        _emit("yes" if member else "no")
    return 0 if member else 1


def _emit_tree(t: PathTree, fmt: str) -> None:
    if fmt == "json":
        _emit_json(t.to_nested())
    elif fmt == "dot":
        _emit(tree_dot(t))
    else:
        _sys.stdout.writelines(t.render_pieces())


def cmd_prove(args: argparse.Namespace) -> int:
    from . import prooftree

    if args.unfold is not None and not args.graph:
        raise ValueError("--unfold needs --graph")
    if args.depth is not None and (args.level is not None or args.graph):
        raise ValueError("--depth bounds --wf proofs only")
    system = _load_system(args.system)
    j = Judgement(args.judgement)
    if j not in system.universe:
        raise ValueError(f"{j} is not in the universe")
    if args.level is not None:
        tree = prooftree.approx_proof(system, j, args.level)
        if tree is None:
            _emit(f"no approximated proof of level {args.level} for {j}")
            return 1
        _emit_tree(tree, args.format)
        return 0
    if args.graph:
        gen = generated(system)
        try:
            g = prooftree.proof_graph(system, gen, j)
        except ValueError:
            _emit(f"{j} is not in the generated interpretation")
            return 1
        if args.unfold is not None:
            _emit_tree(prooftree.unfold(g, args.unfold), args.format)
        elif args.format == "json":
            _emit_json(g.to_dict())
        elif args.format == "dot":
            _emit(graph_dot(g))
        else:
            _emit(f"root: {g.root}")
            for c in g.support:
                prs = g.choice[c]
                _emit(f"{c} <- " + " ".join(map(str, prs)) if prs else f"{c} <- (axiom)")
        return 0
    depth = args.depth if args.depth is not None else len(system.universe)
    tree = prooftree.wf_proof_search(system, j, depth)
    if tree is None:
        _emit(f"no well-founded proof of depth <= {depth} for {j}")
        return 1
    _emit_tree(tree, args.format)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from . import verify

    system = _load_system(args.system)
    candidate = parse_candidate_file(_read(args.candidate), system.universe)
    if args.closed:
        verdict = verify.check_closed(system, candidate)
        kind = "closed"
    elif args.consistent:
        verdict = verify.check_consistent(system, candidate)
        kind = "consistent"
    else:
        verdict = verify.bounded_coinduction(system, candidate)
        kind = "bounded-coinduction"
    if args.format == "json":
        witness = None if verdict.witness is None else str(verdict.witness)
        _emit_json({"check": kind, "ok": verdict.ok, "witness": witness, "reason": verdict.reason})
    else:
        _emit(f"{kind}: {'ok' if verdict.ok else 'FAILED'}")
        if not verdict.ok:
            _emit(f"witness: {verdict.witness}")
            _emit(verdict.reason)
    return 0 if verdict.ok else 1


def cmd_oracle(args: argparse.Namespace) -> int:
    from . import verify

    system = _load_system(args.system)
    res = verify.brute_force(system)
    ind, _ = inductive(system)
    coind, _ = coinductive(system)
    gen = generated(system)
    matches = {
        "ind": ind == res.mu,
        "coind": coind == res.nu,
        "gen": gen == res.gen,
    }
    ok = all(matches.values())
    if args.format == "json":
        _emit_json(
            {
                "universe_size": len(system.universe),
                "fixed_points": len(res.fixed_points),
                "matches": matches,
                "all_equal": ok,
            }
        )
    else:
        _emit(f"universe {len(system.universe)}, {len(res.fixed_points)} fixed points")
        for name, good in matches.items():
            _emit(f"{name}: {'equal' if good else 'MISMATCH'}")
        _emit("all equal" if ok else "MISMATCH FOUND")
    return 0 if ok else 1


# Each builtin once, in the order `coax builtin -h` lists them: its help, its positional
# arguments with their argparse keywords, and its build, called with systems, regular, the args
_BUILTINS: dict[str, tuple[str, dict[str, dict], Callable]] = {
    "reach": ("reachable node sets of a graph", {"graph": {}},
              lambda s, r, a: s.build_reach(s.parse_graph(_read(a.graph)))),
    "first": ("FIRST sets of a grammar", {"grammar": {}},
              lambda s, r, a: s.build_first(s.parse_grammar(_read(a.grammar)))),
    "dist": ("weighted distances", {"graph": {}},
             lambda s, r, a: s.build_dist(s.parse_graph(_read(a.graph)))),
    "spath": ("shortest paths", {"graph": {}},
              lambda s, r, a: s.build_spath(s.parse_graph(_read(a.graph)))),
    "path0": ("all-zero infinite path in a regular tree", {"term": {}},
              lambda s, r, a: s.build_path0(r.parse_eq_system(_read(a.term)))),
    "add": ("digitwise stream addition with carries", {"first": {}, "second": {}, "result": {}},
            lambda s, r, a: s.build_add(*(r.parse_eq_system(_read(path))
                                          for path in (a.first, a.second, a.result)))),
    "bigstep": ("call-by-value evaluation with divergence",
                {"term": {"help": "file holding one lambda term"}},
                lambda s, r, a: s.build_bigstep(s.parse_lambda(_read(a.term)))),
    "member": ("list membership", {"term": {}, "element": {"type": int}},
               lambda s, r, a: s.build_member(r.parse_eq_system(_read(a.term)), a.element)),
    "allpos": ("all elements positive", {"term": {}},
               lambda s, r, a: s.build_allpos(r.parse_eq_system(_read(a.term)))),
    "maxelem": ("greatest element", {"term": {}},
                lambda s, r, a: s.build_maxelem(r.parse_eq_system(_read(a.term)))),
    "elems": ("element set", {"term": {}},
              lambda s, r, a: s.build_elems(r.parse_eq_system(_read(a.term)))),
}


def cmd_builtin(args: argparse.Namespace) -> int:
    from . import regular, systems

    system, _ = _BUILTINS[args.builder][2](systems, regular, args)
    if args.format == "json":
        texts = system.universe.texts
        rules = (  # a generator: one rule's dict at a time
            {"conclusion": texts[c], "premises": [texts[p] for p in prs]}
            for c, premise_sets in system._table.items()
            for prs in premise_sets
        )
        _emit_json({"universe": list(texts), "rules": rules, "coaxioms": system.coaxioms.texts()})
    else:
        _sys.stdout.writelines(_system_pieces(system))
    return 0


# -- argument parsing ----------------------------------------------------------------


def _add_format(p: argparse.ArgumentParser, dot: bool = False) -> None:
    choices = ["text", "json"] + (["dot"] if dot else [])
    p.add_argument("--format", choices=choices, default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coax",
        description="Inductive, coinductive and coaxiom-generated interpretations "
        "of finite inference systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute an interpretation of a system file")
    p.add_argument("system", help="system file (- for stdin)")
    p.add_argument("--mode", choices=["ind", "coind", "gen"], default="gen")
    p.add_argument("--trace", action="store_true", help="also print the iteration steps")
    _add_format(p)

    p = sub.add_parser("query", help="membership of one judgement (exit 0/1)")
    p.add_argument("system")
    p.add_argument("judgement")
    p.add_argument("--mode", choices=["ind", "coind", "gen"], default="gen")
    _add_format(p)

    p = sub.add_parser("prove", help="emit a proof artifact for one judgement")
    p.add_argument("system")
    p.add_argument("judgement")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--wf", action="store_true", help="well-founded proof (default)")
    mode.add_argument("--level", type=int, help="approximated proof of this level")
    mode.add_argument("--graph", action="store_true", help="regular proof graph over Gen")
    p.add_argument("--depth", type=int, help="depth bound for --wf")
    p.add_argument("--unfold", type=int, help="unfold the proof graph to this depth")
    _add_format(p, dot=True)

    p = sub.add_parser("check", help="run a specification checker on a candidate set")
    p.add_argument("system")
    p.add_argument("candidate", help="file of judgement tokens (- for stdin)")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--bounded-coinduction", dest="bounded", action="store_true")
    which.add_argument("--closed", action="store_true")
    which.add_argument("--consistent", action="store_true")
    _add_format(p)

    p = sub.add_parser("oracle", help="cross-check the engine against brute force")
    p.add_argument("system")
    _add_format(p)

    p = sub.add_parser("builtin", help="instantiate a bundled judgement family")
    bsub = p.add_subparsers(dest="builder", required=True)

    for name, (help_, positionals, _) in _BUILTINS.items():
        b = bsub.add_parser(name, help=help_)
        for arg, keywords in positionals.items():
            b.add_argument(arg, **keywords)
        _add_format(b)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  It binds no command
    functions: ``run`` looks the command up by name on every call."""
    return build_parser()


def run(argv: Sequence[str]) -> int:
    """Parse arguments, dispatch, and let the command write to stdout as it
    makes its output: JSON goes out piece by piece, so no whole output is
    held in memory.

    A reader that closes stdout early (``coax prove ... | head``) ends the
    command at its next write: the rest of its output is dropped, stdout is
    pointed at ``os.devnull`` so that the final flush is silent, and the
    status is 0, with nothing on stderr.

    The cyclic garbage collector is paused for the command and switched back
    on afterwards only if it was on before.  A command makes no reference
    cycles (``tests/test_cli.py`` checks every one), so the collector would
    only rescan the live rule tables over and over; library calls leave it
    alone, since they do not own the process."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        args = _parser().parse_args(list(argv))
        command = {
            "solve": cmd_solve,
            "query": cmd_query,
            "prove": cmd_prove,
            "check": cmd_check,
            "oracle": cmd_oracle,
            "builtin": cmd_builtin,
        }[args.command]
        try:
            status = command(args)
            _sys.stdout.flush()
            return status
        except BrokenPipeError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, _sys.stdout.fileno())
            os.close(devnull)
            return 0
    finally:
        if was_enabled:
            gc.enable()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return run(_sys.argv[1:] if argv is None else argv)
    except (CoaxError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 3 if isinstance(exc, CapExceeded) else 2
    except Exception as exc:  # anything else is a fault of the program, not of its input
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=_sys.stderr)
        return 4


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
