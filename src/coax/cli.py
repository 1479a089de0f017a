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
import json
import sys as _sys
from collections import defaultdict
from dataclasses import dataclass, field
from operator import lt
from typing import Optional, Sequence

from .core import (
    CapExceeded,
    CoaxError,
    InferenceSystem,
    IterationTrace,
    Judgement,
    JudgementSet,
    Universe,
    coinductive,
    generated,
    inductive,
)
from .prooftree import (
    NotInGenerated,
    PathTree,
    ProofGraph,
    approx_proof,
    proof_graph,
    unfold,
    wf_proof_search,
)
from .verify import (
    UniverseTooLarge,
    bounded_coinduction,
    brute_force,
    check_closed,
    check_consistent,
)
from . import systems
from .regular import parse_eq_system


# -- the extensional file format -----------------------------------------------


@dataclass(frozen=True)
class SystemFile:
    """A parsed extensional system description.

    ``universe`` is None when no universe lines were given (it is then
    inferred from the mentioned judgements).  ``rules`` pairs a conclusion
    with its premises.  As ``parse_system_file`` makes it, the rules are
    distinct and each rule's premises are sorted and distinct; duplicate
    rule/axiom/coaxiom lines are dropped and reported in ``warnings``.
    ``system_from_file`` also accepts a hand-built file whose premises come
    in any order or repeat.
    """

    universe: Optional[tuple[str, ...]]
    rules: tuple[tuple[str, tuple[str, ...]], ...]
    coaxioms: tuple[str, ...]
    warnings: tuple[str, ...] = ()


def parse_system_file(text: str) -> SystemFile:
    """Grammar, one directive per line, `#` starts a comment:

        universe j1 j2 ...      (repeatable; omit to infer)
        rule c <- p1 p2 ...
        axiom c
        coaxiom c
    """
    universe: list[str] = []
    saw_universe = False
    rules: list[tuple[str, tuple[str, ...]]] = []
    coaxioms: list[str] = []
    seen_rules: set[tuple[str, tuple[str, ...]]] = set()
    seen_coax: set[str] = set()
    warnings: list[str] = []

    def add_rule(lineno: int, conclusion: str, premises: tuple[str, ...]) -> None:
        key = (conclusion, tuple(sorted(set(premises))))
        if key in seen_rules:
            warnings.append(f"line {lineno}: duplicate rule for {conclusion} ignored")
            return
        seen_rules.add(key)
        rules.append(key)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        if head == "universe":
            saw_universe = True
            universe.extend(tokens[1:])
        elif head == "rule":
            if len(tokens) < 3 or tokens[2] != "<-":
                raise ValueError(f"line {lineno}: expected `rule c <- p1 p2 ...`")
            add_rule(lineno, tokens[1], tuple(tokens[3:]))
        elif head == "axiom":
            if len(tokens) != 2:
                raise ValueError(f"line {lineno}: expected `axiom c`")
            add_rule(lineno, tokens[1], ())
        elif head == "coaxiom":
            if len(tokens) != 2:
                raise ValueError(f"line {lineno}: expected `coaxiom c`")
            if tokens[1] in seen_coax:
                warnings.append(f"line {lineno}: duplicate coaxiom {tokens[1]} ignored")
            else:
                seen_coax.add(tokens[1])
                coaxioms.append(tokens[1])
        else:
            raise ValueError(
                f"line {lineno}: unknown directive {head!r} "
                f"(expected universe/rule/axiom/coaxiom)"
            )
    return SystemFile(
        tuple(universe) if saw_universe else None,
        tuple(rules),
        tuple(coaxioms),
        tuple(warnings),
    )


def _mentioned(sf: SystemFile) -> set[str]:
    return {c for c, _ in sf.rules}.union(*(prs for _, prs in sf.rules), sf.coaxioms)


def system_from_file(sf: SystemFile) -> InferenceSystem:
    """Load a parsed file: every token maps straight to its universe position.

    The premises of a rule from ``parse_system_file`` are sorted and distinct
    already, and so are their positions, which follow the text order; the
    premises of a hand-built ``SystemFile`` are put in that form here.
    """
    tokens = _mentioned(sf) if sf.universe is None else sf.universe
    universe = Universe(map(Judgement, tokens))
    at = universe._index
    table: defaultdict[int, list[tuple[int, ...]]] = defaultdict(list)
    coaxioms = 0
    try:
        for c, prs in sf.rules:
            ps = tuple(map(at.__getitem__, prs))
            if len(ps) > 1 and not all(map(lt, ps, ps[1:])):
                ps = tuple(sorted(set(ps)))
            table[at[c]].append(ps)
        for c in sf.coaxioms:
            coaxioms |= 1 << at[c]
    except KeyError:
        stray = min(_mentioned(sf).difference(tokens))
        raise ValueError(f"judgement {stray} is not in the declared universe") from None
    return InferenceSystem._from_table(universe, table, JudgementSet(universe, coaxioms))


def emit_system(sys: InferenceSystem, per_line: int = 8) -> str:
    """Serialize in the extensional format; parsing the result reproduces the
    system exactly (universe, rules and coaxioms)."""
    lines = []
    members = [j.text for j in sys.universe]
    for i in range(0, len(members), per_line):
        lines.append("universe " + " ".join(members[i : i + per_line]))
    if not members:
        lines.append("universe")
    text = members.__getitem__
    for c, premise_sets in sys._table.items():
        head = f"rule {members[c]} <- "
        for prs in premise_sets:
            lines.append(head + " ".join(map(text, prs)) if prs else f"axiom {members[c]}")
    for c in sys.coaxioms:
        lines.append(f"coaxiom {c}")
    return "\n".join(lines) + "\n"


def parse_candidate_file(text: str, universe: Universe) -> JudgementSet:
    """A candidate set: whitespace-separated judgement tokens, `#` comments."""
    tokens = []
    for raw in text.splitlines():
        tokens.extend(raw.split("#", 1)[0].split())
    return universe.subset(Judgement(t) for t in tokens)


# -- emission helpers ------------------------------------------------------------


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def tree_dot(t: PathTree) -> str:
    paths, kids = t.children_index()
    lines = ["digraph prooftree {"]
    for number, path in enumerate(paths):
        lines.append(f'  n{number} [label="{_dot_escape(str(t.label(path)))}"];')
    for number, children in enumerate(kids):
        for child in children:
            lines.append(f"  n{number} -> n{child};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_dot(g: ProofGraph) -> str:
    ids = {j: f"n{i}" for i, j in enumerate(g.support)}
    lines = ["digraph proofgraph {"]
    for j, nid in ids.items():
        shape = ' shape=doubleoctagon' if j == g.root else ""
        lines.append(f'  {nid} [label="{_dot_escape(str(j))}"{shape}];')
    for j, prs in sorted(g.choice.items()):
        for p in prs:
            lines.append(f"  {ids[j]} -> {ids[p]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _json_dump(obj: object) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _set_lines(s: JudgementSet) -> str:
    return "\n".join(str(j) for j in s)


def _read(path: str) -> str:
    if path == "-":
        return _sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


# -- subcommand implementations ----------------------------------------------------


@dataclass
class _Io:
    out: list[str] = field(default_factory=list)

    def emit(self, text: str) -> None:
        self.out.append(text if text.endswith("\n") else text + "\n")


def _load_system(path: str) -> InferenceSystem:
    sf = parse_system_file(_read(path))
    for w in sf.warnings:
        print(f"warning: {w}", file=_sys.stderr)
    return system_from_file(sf)


def _solve(sys: InferenceSystem, mode: str) -> tuple[JudgementSet, Optional[IterationTrace]]:
    if mode == "ind":
        return inductive(sys)
    if mode == "coind":
        return coinductive(sys)
    descent = sys._analyze().descent
    return descent.result, descent


def cmd_solve(args: argparse.Namespace, io: _Io) -> int:
    system = _load_system(args.system)
    result, trace = _solve(system, args.mode)
    if args.format == "json":
        payload: dict = {"mode": args.mode, "result": [str(j) for j in result]}
        if args.trace and trace is not None:
            payload["trace"] = [[str(j) for j in step] for step in trace.steps]
        io.emit(_json_dump(payload))
    else:
        if args.trace and trace is not None:
            for n, step in enumerate(trace.steps):
                members = " ".join(str(j) for j in step)
                io.emit(f"# step {n}:" + (f" {members}" if members else ""))
        io.emit(_set_lines(result))
    return 0


def cmd_query(args: argparse.Namespace, io: _Io) -> int:
    system = _load_system(args.system)
    j = Judgement(args.judgement)
    member = j in system.universe and j in _solve(system, args.mode)[0]
    if args.format == "json":
        io.emit(_json_dump({"judgement": args.judgement, "mode": args.mode, "member": member}))
    else:
        io.emit("yes" if member else "no")
    return 0 if member else 1


def _emit_tree(t: PathTree, fmt: str, io: _Io) -> None:
    if fmt == "json":
        io.emit(_json_dump(t.to_nested()))
    elif fmt == "dot":
        io.emit(tree_dot(t))
    else:
        io.emit(t.render())


def cmd_prove(args: argparse.Namespace, io: _Io) -> int:
    system = _load_system(args.system)
    j = Judgement(args.judgement)
    if j not in system.universe:
        print(f"error: {j} is not in the universe", file=_sys.stderr)
        return 2
    if args.level is not None:
        tree = approx_proof(system, j, args.level)
        if tree is None:
            io.emit(f"no approximated proof of level {args.level} for {j}")
            return 1
        _emit_tree(tree, args.format, io)
        return 0
    if args.graph:
        gen = generated(system)
        try:
            g = proof_graph(system, gen, j)
        except ValueError:
            io.emit(f"{j} is not in the generated interpretation")
            return 1
        if args.unfold is not None:
            _emit_tree(unfold(g, args.unfold), args.format, io)
        elif args.format == "json":
            io.emit(_json_dump(g.to_dict()))
        elif args.format == "dot":
            io.emit(graph_dot(g))
        else:
            io.emit(f"root: {g.root}")
            for c in g.support:
                prs = g.choice[c]
                io.emit(f"{c} <- " + " ".join(map(str, prs)) if prs else f"{c} <- (axiom)")
        return 0
    depth = args.depth if args.depth is not None else len(system.universe)
    tree = wf_proof_search(system, j, depth)
    if tree is None:
        io.emit(f"no well-founded proof of depth <= {depth} for {j}")
        return 1
    _emit_tree(tree, args.format, io)
    return 0


def cmd_check(args: argparse.Namespace, io: _Io) -> int:
    system = _load_system(args.system)
    candidate = parse_candidate_file(_read(args.candidate), system.universe)
    if args.closed:
        verdict = check_closed(system, candidate)
        kind = "closed"
    elif args.consistent:
        verdict = check_consistent(system, candidate)
        kind = "consistent"
    else:
        verdict = bounded_coinduction(system, candidate)
        kind = "bounded-coinduction"
    if args.format == "json":
        io.emit(
            _json_dump(
                {
                    "check": kind,
                    "ok": verdict.ok,
                    "witness": None if verdict.witness is None else str(verdict.witness),
                    "reason": verdict.reason,
                }
            )
        )
    else:
        io.emit(f"{kind}: {'ok' if verdict.ok else 'FAILED'}")
        if not verdict.ok:
            io.emit(f"witness: {verdict.witness}")
            io.emit(verdict.reason)
    return 0 if verdict.ok else 1


def cmd_oracle(args: argparse.Namespace, io: _Io) -> int:
    system = _load_system(args.system)
    res = brute_force(system)
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
        io.emit(
            _json_dump(
                {
                    "universe_size": len(system.universe),
                    "fixed_points": len(res.fixed_points),
                    "matches": matches,
                    "all_equal": ok,
                }
            )
        )
    else:
        io.emit(
            f"universe {len(system.universe)}, {len(res.fixed_points)} fixed points"
        )
        for name, good in matches.items():
            io.emit(f"{name}: {'equal' if good else 'MISMATCH'}")
        io.emit("all equal" if ok else "MISMATCH FOUND")
    return 0 if ok else 1


def cmd_builtin(args: argparse.Namespace, io: _Io) -> int:
    name = args.builder
    if name == "reach":
        system, _ = systems.build_reach(systems.parse_graph(_read(args.graph)), cap=args.cap)
    elif name == "first":
        system, _ = systems.build_first(systems.parse_grammar(_read(args.grammar)), cap=args.cap)
    elif name == "dist":
        system, _ = systems.build_dist(
            systems.parse_graph(_read(args.graph)), args.node_cap, args.weight_cap
        )
    elif name == "spath":
        system, _ = systems.build_spath(
            systems.parse_graph(_read(args.graph)), args.node_cap, args.weight_cap
        )
    elif name == "path0":
        system, _ = systems.build_path0(parse_eq_system(_read(args.term)))
    elif name == "add":
        system, _ = systems.build_add(
            parse_eq_system(_read(args.first)),
            parse_eq_system(_read(args.second)),
            parse_eq_system(_read(args.result)),
        )
    elif name == "bigstep":
        system, _ = systems.build_bigstep(
            systems.parse_lambda(_read(args.term)), cap=args.cap
        )
    elif name in ("member", "allpos", "maxelem", "elems"):
        x = args.element if name == "member" else 0
        built = systems.build_list_preds(parse_eq_system(_read(args.term)), x)
        system, _ = built[name]
    else:  # pragma: no cover - argparse restricts the choices
        raise ValueError(f"unknown builder {name}")
    if args.format == "json":
        io.emit(
            _json_dump(
                {
                    "universe": [str(j) for j in system.universe],
                    "rules": [
                        {"conclusion": str(r.conclusion), "premises": [str(p) for p in r.premises]}
                        for r in system.rules()
                    ],
                    "coaxioms": [str(c) for c in system.coaxioms],
                }
            )
        )
    else:
        io.emit(emit_system(system))
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

    b = bsub.add_parser("reach", help="reachable node sets of a graph")
    b.add_argument("graph")
    b.add_argument("--cap", type=int, default=systems.REACH_NODE_CAP)
    _add_format(b)

    b = bsub.add_parser("first", help="FIRST sets of a grammar")
    b.add_argument("grammar")
    b.add_argument("--cap", type=int, default=systems.FIRST_TERMINAL_CAP)
    _add_format(b)

    for name, help_ in (("dist", "weighted distances"), ("spath", "shortest paths")):
        b = bsub.add_parser(name, help=help_)
        b.add_argument("graph")
        b.add_argument("--node-cap", type=int, default=systems.DIST_NODE_CAP)
        b.add_argument("--weight-cap", type=int, default=systems.DIST_WEIGHT_CAP)
        _add_format(b)

    b = bsub.add_parser("path0", help="all-zero infinite path in a regular tree")
    b.add_argument("term")
    _add_format(b)

    b = bsub.add_parser("add", help="digitwise stream addition with carries")
    b.add_argument("first")
    b.add_argument("second")
    b.add_argument("result")
    _add_format(b)

    b = bsub.add_parser("bigstep", help="call-by-value evaluation with divergence")
    b.add_argument("term", help="file holding one lambda term")
    b.add_argument("--cap", type=int, default=systems.BIGSTEP_CLOSURE_CAP)
    _add_format(b)

    b = bsub.add_parser("member", help="list membership")
    b.add_argument("term")
    b.add_argument("element", type=int)
    _add_format(b)

    for name, help_ in (
        ("allpos", "all elements positive"),
        ("maxelem", "greatest element"),
        ("elems", "element set"),
    ):
        b = bsub.add_parser(name, help=help_)
        b.add_argument("term")
        _add_format(b)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  It binds no command
    functions: ``run`` looks the command up by name on every call."""
    return build_parser()


def run(argv: Sequence[str]) -> int:
    """Parse arguments, dispatch, and write buffered output to stdout."""
    args = _parser().parse_args(list(argv))
    command = {
        "solve": cmd_solve,
        "query": cmd_query,
        "prove": cmd_prove,
        "check": cmd_check,
        "oracle": cmd_oracle,
        "builtin": cmd_builtin,
    }[args.command]
    io = _Io()
    try:
        status = command(args, io)
    finally:
        _sys.stdout.write("".join(io.out))
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return run(_sys.argv[1:] if argv is None else argv)
    except (CapExceeded, UniverseTooLarge) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 3
    except NotInGenerated as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    except (CoaxError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    except Exception as exc:  # anything else is a fault of the program, not of its input
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=_sys.stderr)
        return 4


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
