"""Builders that instantiate judgement families as concrete inference systems.

Each builder turns a finite structure (graph, grammar, regular term, lambda
term) into an ``(InferenceSystem, Universe)`` pair whose rules are the fully
instantiated meta-rules for that judgement, with the coaxiom set that gives
the intended semantics under the generated interpretation.

All builders keep the universe backward-closed (every premise of every rule is
itself a universe member) and emit space-free judgement texts, so every built
system can round-trip through the extensional file format.
"""

from __future__ import annotations

import itertools
import math
import re
import sys
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Mapping, NoReturn, Optional, Sequence, Union

from .core import (
    CapExceeded,
    InferenceSystem,
    JudgementSet,
    Universe,
    _check_name,
    _mask,
    _token_lines,
    inductive,
)
from .regular import EqSystem, ShapeMismatch, carrier

GROUND_CAP = 1_000_000  # judgements plus meta-rule instances one builder enumerates
BIGSTEP_CLOSURE_CAP = 2000  # terms; bigstep discovers its closure, so cannot count it first
LAMBDA_DEPTH_CAP = 200


# -- graphs --------------------------------------------------------------------


class Graph:
    """A finite directed graph with non-negative edge weights, 1 on every
    edge when no weights are given."""

    __slots__ = ("nodes", "adj", "weights")

    def __init__(
        self,
        nodes: Iterable[str],
        edges: Iterable[tuple[str, str]],
        weights: Optional[Mapping[tuple[str, str], int]] = None,
    ):
        self.nodes: tuple[str, ...] = tuple(sorted(set(nodes)))
        node_set = set(self.nodes)
        adj: dict[str, set[str]] = {v: set() for v in self.nodes}
        edge_set = set()
        for u, v in edges:
            if u not in node_set or v not in node_set:
                raise ValueError(f"edge {u}->{v} mentions an undeclared node")
            adj[u].add(v)
            edge_set.add((u, v))
        self.adj: dict[str, tuple[str, ...]] = {v: tuple(sorted(adj[v])) for v in self.nodes}
        if weights is None:
            weights = dict.fromkeys(self.edges, 1)
        elif set(weights) != edge_set:
            raise ValueError("weights must be given exactly on the edges")
        if any(w < 0 for w in weights.values()):
            raise ValueError("weights are non-negative")
        self.weights: dict[tuple[str, str], int] = dict(weights)

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        return tuple((u, v) for u in self.nodes for v in self.adj[u])

    def weight(self, u: str, v: str) -> int:
        return self.weights[(u, v)]


def parse_graph(text: str) -> Graph:
    """`node x` and `edge u v [w]` lines; `#` comments; nodes mentioned in
    edges are declared implicitly.  A missing weight counts as 1.  An edge
    may be repeated only with the same weight.  Node names may not contain
    `,` `(` `)` `{` or `}`, which delimit the judgements built from them."""
    nodes: set[str] = set()
    edges: list[tuple[str, str]] = []
    weights: dict[tuple[str, str], int] = {}
    for lineno, parts in _token_lines(text):
        if parts[0] == "node" and len(parts) == 2:
            names = parts[1:]
        elif parts[0] == "edge" and len(parts) in (3, 4):
            names = parts[1:3]
            w = 1
            if len(parts) == 4:
                try:
                    w = int(parts[3])
                except ValueError:
                    # only an int limit refuses a digit string, and a Python
                    # that has one has sys.get_int_max_str_digits too
                    if re.fullmatch(r"[+-]?\d+(_\d+)*", parts[3]):  # an int, too long to read
                        raise ValueError(f"line {lineno}: weight has more than "
                                         f"{sys.get_int_max_str_digits()} digits, "
                                         "the most an int reads") from None
                    raise ValueError(f"line {lineno}: weight must be an integer") from None
                if w < 0:
                    raise ValueError(f"line {lineno}: weights are non-negative")
            first = weights.setdefault((parts[1], parts[2]), w)
            if first != w:
                raise ValueError(
                    f"line {lineno}: edge {parts[1]} {parts[2]} has weight {w}, "
                    f"an earlier line gave it {first}"
                )
            edges.append((parts[1], parts[2]))
        else:
            raise ValueError(f"line {lineno}: expected `node x` or `edge u v [w]`")
        for name in names:
            _check_name(lineno, "node name", name, ",(){}")
        nodes.update(names)
    return Graph(nodes, edges, weights)


# -- grammars ------------------------------------------------------------------


class Grammar:
    """A context-free grammar; terminals are the body symbols that never head
    a production."""

    __slots__ = ("terminals", "nonterminals", "productions")

    def __init__(
        self,
        terminals: Iterable[str],
        nonterminals: Iterable[str],
        productions: Iterable[tuple[str, Sequence[str]]],
    ):
        self.terminals = frozenset(terminals)
        self.nonterminals = frozenset(nonterminals)
        if self.terminals & self.nonterminals:
            raise ValueError("terminals and nonterminals must be disjoint")
        prods: set[tuple[str, tuple[str, ...]]] = set()
        for head, body in productions:
            if head not in self.nonterminals:
                raise ValueError(f"production head {head!r} is not a nonterminal")
            body = tuple(body)
            for sym in body:
                if sym not in self.terminals and sym not in self.nonterminals:
                    raise ValueError(f"unknown symbol {sym!r} in a production body")
            prods.add((head, body))
        self.productions = tuple(sorted(prods))

    def bodies(self, head: str) -> tuple[tuple[str, ...], ...]:
        return tuple(b for h, b in self.productions if h == head)

    def nullables(self) -> frozenset[str]:
        """Nonterminals deriving the empty string, by the standard bottom-up
        worklist (an inductive inference system over judgements `nullable A`)."""
        texts = {a: f"nullable({a})" for a in self.nonterminals}
        system, _ = _ground(texts, (
            (head, body) for head, body in self.productions
            if all(sym in self.nonterminals for sym in body)
        ))
        derived = set(inductive(system)[0].texts())
        return frozenset(a for a, text in texts.items() if text in derived)


def parse_grammar(text: str) -> Grammar:
    """`A -> X Y Z` per production, `A -> .` for the empty body, `#` comments.
    Heads are the nonterminals; every other symbol is a terminal.  Symbols
    may not contain `,` `(` `)` `{` `}` `[` or `]`, which delimit the
    judgements built from them."""
    productions: list[tuple[str, tuple[str, ...]]] = []
    for lineno, parts in _token_lines(text):
        if len(parts) < 2 or parts[1] != "->":
            raise ValueError(f"line {lineno}: expected `A -> body` or `A -> .`")
        head, body = parts[0], () if parts[2:] == ["."] else tuple(parts[2:])
        for sym in (head, *body):
            _check_name(lineno, "grammar symbol", sym)
        productions.append((head, body))
    heads = {h for h, _ in productions}
    symbols = {s for _, body in productions for s in body}
    return Grammar(symbols - heads, heads, productions)


# -- lambda terms ----------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    index: int  # de Bruijn


@dataclass(frozen=True)
class Abs:
    body: "Term"


@dataclass(frozen=True)
class App:
    fn: "Term"
    arg: "Term"


Term = Union[Var, Abs, App]


def parse_lambda(text: str) -> Term:
    """Minimal lambda syntax: `\\x. body`, application by juxtaposition
    (left-associative), parentheses.  The term must be closed, and neither
    its binders and parentheses nor the term itself may nest deeper than
    ``LAMBDA_DEPTH_CAP`` levels: the parser, the builder, the printer and
    substitution all recurse on terms."""
    tokens = _lex_lambda(text)[::-1]  # a stack: the next token is last
    term = _parse_term(tokens, (), 0)
    if tokens:
        raise ValueError(f"trailing input from {tokens[-1]!r}")
    # applications nest to the left in the term, not in the parser
    stack = [(term, 0)]
    while stack:
        t, depth = stack.pop()
        _bound_depth(depth)
        if isinstance(t, Abs):
            stack.append((t.body, depth + 1))
        elif isinstance(t, App):
            stack += (t.fn, depth + 1), (t.arg, depth + 1)
    return term


def _bound_depth(depth: int) -> None:
    if depth > LAMBDA_DEPTH_CAP:
        raise ValueError(f"lambda term nests deeper than {LAMBDA_DEPTH_CAP} levels")


def _take(tokens: list[str], expected: Optional[str] = None) -> str:
    if not tokens:
        raise ValueError("unexpected end of lambda term")
    tok = tokens.pop()
    if expected is not None and tok != expected:
        raise ValueError(f"expected {expected!r}, found {tok!r}")
    return tok


# The parser is three module-level functions over one token stack, not
# closures: closures that call one another form reference cycles.
def _parse_term(tokens: list[str], env: tuple[str, ...], depth: int) -> Term:
    _bound_depth(depth)
    if tokens and tokens[-1] == "\\":
        tokens.pop()
        name = _take(tokens)
        if not name.isidentifier():
            raise ValueError(f"bad binder name {name!r}")
        _take(tokens, ".")
        return Abs(_parse_term(tokens, (name,) + env, depth + 1))
    return _parse_app(tokens, env, depth)


def _parse_app(tokens: list[str], env: tuple[str, ...], depth: int) -> Term:
    t = _parse_atom(tokens, env, depth)
    while tokens and tokens[-1] not in (")", "."):
        # a trailing abstraction extends as far right as possible
        nxt = _parse_term if tokens[-1] == "\\" else _parse_atom
        t = App(t, nxt(tokens, env, depth))
    return t


def _parse_atom(tokens: list[str], env: tuple[str, ...], depth: int) -> Term:
    tok = _take(tokens)
    if tok == "(":
        t = _parse_term(tokens, env, depth + 1)
        _take(tokens, ")")
        return t
    if not tok.isidentifier():
        raise ValueError(f"unexpected token {tok!r}")
    try:
        return Var(env.index(tok))
    except ValueError:
        raise ValueError(f"free variable {tok!r}: goal terms must be closed") from None


def _lex_lambda(text: str) -> list[str]:
    tokens: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "\\λ().":
            tokens.append("\\" if ch == "λ" else ch)
            i += 1
        elif ch.isalnum() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise ValueError(f"stray character {ch!r} in lambda term")
    return tokens


def substitute(body: Term, value: Term, depth: int = 0) -> Term:
    """body[x <- value] for the innermost binder, which is ``depth`` binders
    up; value must be closed, which makes capture impossible and no index
    shifting of value necessary."""
    if isinstance(body, Var):
        if body.index == depth:
            return value
        return Var(body.index - 1) if body.index > depth else body
    if isinstance(body, Abs):
        return Abs(substitute(body.body, value, depth + 1))
    return App(substitute(body.fn, value, depth), substitute(body.arg, value, depth))


def term_text(t: Term, depth: int = 0) -> str:
    """Canonical space-free serialization with binders named by depth, so
    alpha-equivalent terms print identically."""
    if isinstance(t, Var):
        return f"var(x{depth - 1 - t.index})"
    if isinstance(t, Abs):
        return f"abs(x{depth},{term_text(t.body, depth + 1)})"
    return f"app({term_text(t.fn, depth)},{term_text(t.arg, depth)})"


# -- shared text helpers ---------------------------------------------------------


def _universe(texts: Iterable[str]) -> Universe:
    """The universe of a builder's judgement texts, one per meta-judgement,
    which must be distinct: two meta-judgements that printed the same would
    silently be merged."""
    texts = list(texts)
    uni = Universe._from_texts(texts)
    if len(uni) != len(texts):
        seen: set[str] = set()
        twice = next(t for t in texts if t in seen or seen.add(t))
        raise ValueError(f"two different judgements print as {twice}")
    return uni


_Instance = tuple[Hashable, Iterable[Hashable]]


def _ground(texts: Mapping[Hashable, str], rules: Iterable[_Instance],
            coaxioms: Iterable[Hashable] = ()) -> tuple[InferenceSystem, Universe]:
    """The system of a builder's meta-rule instances, the grounding path every
    builder but ``build_dist`` shares.

    ``texts`` maps each meta-judgement's key to its judgement text; each
    instance is a conclusion key and its premise keys, in any order and with
    repeats; ``coaxioms`` are keys too.  Keys go to positions once, so no
    instance makes a ``Judgement`` or a ``Rule``.  Builders stream their
    instances: a generator holds one at a time, where a list of them all
    would be walked again and again by the cyclic garbage collector.
    """
    uni = _universe(texts.values())
    index = uni._index
    position = {key: index[t] for key, t in texts.items()}.__getitem__
    table: defaultdict[int, list[tuple[int, ...]]] = defaultdict(list)
    for conclusion, premises in rules:
        table[position(conclusion)].append(tuple(sorted(set(map(position, premises)))))
    mask = _mask(map(position, coaxioms))
    return InferenceSystem._from_table(uni, table, JudgementSet(uni, mask)), uni


def _refuse(family: str, count: object) -> NoReturn:
    raise CapExceeded(f"{family} would ground {count} judgements and rule "
                      f"instances, cap is {GROUND_CAP}")


def _check_ground(family: str, count: int) -> None:
    """Refuse, before any text is made, more than GROUND_CAP judgements plus
    meta-rule instances.  A count of 2^64 or more is named by a power of two:
    a long int may not print at all."""
    if count > GROUND_CAP:
        _refuse(family, count if count < 1 << 64 else f"at least 2^{count.bit_length() - 1}")


def _power(family: str, base: int, exp: int) -> int:
    """base ** exp, a term of a count, refused from 2^64 on before it is built:
    a star's hub alone can ask for 2^(10^10) reach instances, a 1.25 GB int."""
    bits = (base.bit_length() - 1) * exp  # base ** exp >= 2 ** bits
    if bits >= 64:
        _refuse(family, f"at least 2^{bits}")
    return base ** exp


def _set_text(items: Iterable[str]) -> str:
    return "{" + ",".join(sorted(items)) + "}"


def _int_set_text(items: Iterable[int]) -> str:
    return "{" + ",".join(str(i) for i in sorted(items)) + "}"


def _seq_text(symbols: Sequence[str]) -> str:
    return "[" + ",".join(symbols) + "]"


# -- reachability ----------------------------------------------------------------


def build_reach(g: Graph) -> tuple[InferenceSystem, Universe]:
    """Judgements `reach(v,N)`: N is the set of nodes reachable from v.

    One rule instance per node and per choice of a claimed reachable set for
    each neighbour; the conclusion joins the node with the claims.  Coaxioms
    claim the empty set for every node; the generated interpretation then
    pins N to the true reachable set.
    """
    n = len(g.nodes)
    _check_ground("reach", n * _power("reach", 2, n)
                  + sum(_power("reach", 2, n * len(g.adj[v])) for v in g.nodes))
    all_subsets = [frozenset(c) for r in range(len(g.nodes) + 1)
                   for c in itertools.combinations(g.nodes, r)]
    texts = {(v, ns): f"reach({v},{_set_text(ns)})" for v in g.nodes for ns in all_subsets}
    rules = (
        ((v, frozenset({v}.union(*claim))), zip(g.adj[v], claim))
        for v in g.nodes
        for claim in itertools.product(all_subsets, repeat=len(g.adj[v]))
    )
    return _ground(texts, rules, ((v, frozenset()) for v in g.nodes))


# -- first sets ------------------------------------------------------------------


def build_first(g: Grammar) -> tuple[InferenceSystem, Universe]:
    """Judgements `first(alpha,F)`: F is the set of terminals that can begin a
    string derived from the symbol sequence alpha.

    Sequences are the suffix closure of the production bodies plus every
    single nonterminal and the empty sequence.  Sequence rules decompose a
    leading terminal or nonterminal (with the nullable side condition);
    every nonterminal gets one rule per combination of claimed first sets for
    all its production bodies, concluding their union; coaxioms claim the
    empty first set for every nonterminal.

    Premise claims that no rule chain can ever establish (a terminal-headed
    body with a first set other than its head; the empty body with a nonempty
    set) are not instantiated; this leaves all interpretations unchanged and
    keeps the rule count polynomial in practice.
    """
    seqs = {body[i:] for _, body in g.productions for i in range(len(body) + 1)}
    seqs |= {(a,) for a in g.nonterminals} | {()}
    nullable = g.nullables()
    k = _power("first", 2, len(g.terminals))

    def headed(seq: tuple[str, ...]) -> bool:  # by a nonterminal: all k subsets are claims
        return bool(seq) and seq[0] in g.nonterminals

    # the instances rules() yields for each sequence, then for each nonterminal
    sequence_rules = sum(1 if not headed(seq) else 0 if len(seq) == 1
                         else k ** (1 + headed(seq[1:])) if seq[0] in nullable else k
                         for seq in seqs)
    _check_ground("first", len(seqs) * k + sequence_rules + sum(
        _power("first", k, sum(map(headed, g.bodies(a)))) for a in g.nonterminals))
    subsets = [frozenset(c) for r in range(len(g.terminals) + 1)
               for c in itertools.combinations(sorted(g.terminals), r)]
    texts = {(seq, fs): f"first({_seq_text(seq)},{_set_text(fs)})"
             for seq in seqs for fs in subsets}

    def claims(seq: tuple[str, ...]) -> list[frozenset[str]]:
        # first sets a derivation could actually assign to this sequence
        return subsets if headed(seq) else [frozenset(seq[:1])]

    def rules() -> Iterator[_Instance]:
        for seq in seqs:
            if not headed(seq):
                # the empty sequence, or one that starts with a terminal
                yield (seq, claims(seq)[0]), ()
                continue
            head, rest = (seq[0],), seq[1:]
            if not rest:
                continue  # single nonterminals are concluded from their productions
            if seq[0] not in nullable:
                yield from (((seq, fs), ((head, fs),)) for fs in subsets)
            else:
                yield from (((seq, fs | fs2), ((head, fs), (rest, fs2)))
                            for fs in subsets for fs2 in claims(rest))
        for a in g.nonterminals:
            bodies = g.bodies(a)
            # zero bodies contribute the single empty combination: first(A,{})
            for combo in itertools.product(*map(claims, bodies)):
                yield ((a,), frozenset().union(*combo)), zip(bodies, combo)

    return _ground(texts, rules(), (((a,), frozenset()) for a in g.nonterminals))


# -- list predicates ---------------------------------------------------------------


def _list_cells(l: EqSystem) -> tuple[EqSystem, list[str], list[str], dict[str, tuple[int, str]]]:
    """What the four list predicates ground over: the canonical form of a
    (possibly cyclic) list of integers, its sorted states, its nil states,
    and each cons state's integer head and tail state."""
    if l.family != "list":
        raise ShapeMismatch(f"expected a list, got a {l.family}")
    canon = l.canonical()
    names = sorted(canon.states)
    cons = {s: canon[s].args for s in names if canon[s].tag == "cons"}
    if any(isinstance(head, str) for head, _ in cons.values()):
        raise ShapeMismatch("list elements must be integer atoms here")
    nils = [s for s in names if canon[s].tag == "nil"]
    return canon, names, nils, cons  # type: ignore[return-value]


def build_member(l: EqSystem, x: int) -> tuple[InferenceSystem, Universe]:
    """Judgements `member(x,s,b)`: does x occur in the list at state s."""
    _, names, _, cons = _list_cells(l)
    return _ground(
        {(s, b): f"member({x},{s},{b})" for s in names for b in "TF"},
        itertools.chain(
            (((s, "T"), ()) for s, (head, _) in cons.items() if head == x),
            (((s, b), ((tail, b),)) for s, (head, tail) in cons.items() if head != x
             for b in "TF"),
        ),
        ((s, "F") for s in names),
    )


def build_allpos(l: EqSystem) -> tuple[InferenceSystem, Universe]:
    """Judgements `allpos(s,b)`: are all elements of the list at state s positive."""
    _, names, nils, cons = _list_cells(l)
    return _ground(
        {(s, b): f"allpos({s},{b})" for s in names for b in "TF"},
        itertools.chain(
            (((s, "T"), ()) for s in nils),
            (((s, "F"), ()) for s, (head, _) in cons.items() if head <= 0),
            (((s, b), ((tail, b),)) for s, (head, tail) in cons.items() if head > 0
             for b in "TF"),
        ),
        ((s, "T") for s in names),
    )


def build_maxelem(l: EqSystem) -> tuple[InferenceSystem, Universe]:
    """Judgements `maxelem(s,z)`: z is the greatest element of the list at
    state s, over the carrier, which binary max keeps closed.  The coaxioms
    guess the head, so the value is also attained, not just an upper bound."""
    canon, names, _, cons = _list_cells(l)
    car_sorted = sorted(carrier(canon))
    return _ground(
        {(s, z): f"maxelem({s},{z})" for s in names for z in car_sorted},
        itertools.chain(
            (((s, head), ()) for s, (head, tail) in cons.items() if canon[tail].tag == "nil"),
            (((s, max(head, y)), ((tail, y),)) for s, (head, tail) in cons.items()
             for y in car_sorted),
        ),
        ((s, head) for s, (head, _) in cons.items()),
    )


def build_elems(l: EqSystem) -> tuple[InferenceSystem, Universe]:
    """Judgements `elems(s,xs)`: xs is the set of elements of the list at
    state s, over the subsets of the carrier."""
    canon, names, nils, cons = _list_cells(l)
    car_sorted = sorted(carrier(canon))
    _check_ground("elems", (len(names) + len(cons)) * _power("elems", 2, len(car_sorted))
                  + len(nils))
    xs_all = [frozenset(c) for r in range(len(car_sorted) + 1)
              for c in itertools.combinations(car_sorted, r)]
    return _ground(
        {(s, xs): f"elems({s},{_int_set_text(xs)})" for s in names for xs in xs_all},
        itertools.chain(
            (((s, frozenset()), ()) for s in nils),
            (((s, xs | {head}), ((tail, xs),)) for s, (head, tail) in cons.items()
             for xs in xs_all),
        ),
        ((s, frozenset()) for s in names),
    )


# -- weighted distances and shortest paths -------------------------------------------


def build_dist(g: Graph) -> tuple[InferenceSystem, Universe]:
    """Judgements `dist(v,u,d)`: d is the least weight of a path from v to u,
    `inf` when unreachable.  Missing weights default to 1.

    Finite d ranges over 0..W with W the total edge weight: any simple path
    weighs at most W, and larger finite claims can never enter the generated
    interpretation, so dropping them loses nothing.  Coaxioms claim `inf` for
    every ordered pair of distinct nodes.
    """
    total = sum(g.weights.values())
    n, k = len(g.nodes), total + 2  # k claims per pair: 0..W and inf
    _check_ground("dist", n * n * k + sum(1 + (n - 1) * _power("dist", k, len(g.adj[v]))
                                          for v in g.nodes))
    # Costs are plain ints and `inf` is 2 * total + 1: an edge weight plus a
    # finite cost is at most 2 * total, so a sum reaches `inf` only through inf.
    inf = 2 * total + 1
    # claim i costs i for i <= total; the last claim, i = total + 1, is inf
    cost_text = [*map(str, range(total + 1)), "inf"]
    nodes = g.nodes
    claims = {(v, u): [f"dist({v},{u},{c})" for c in cost_text] for v in nodes for u in nodes}
    uni = _universe(itertools.chain.from_iterable(claims.values()))
    # position[(v, u)][i] is the position of dist(v,u,<claim i>)
    position = {pair: list(map(uni._index.__getitem__, ts)) for pair, ts in claims.items()}
    # For fixed (t, u), dist(t,u,c) sorts by the text of c, and for fixed u
    # every dist(t1,u,.) sorts before every dist(t2,u,.) exactly when t1+","
    # sorts before t2+"," (node names hold no ","); taken in these orders,
    # the product yields each conclusion's premise tuples sorted, in order.
    order = sorted(range(total + 2), key=lambda i: cost_text[i] + ")")
    table: dict[int, list[tuple[int, ...]]] = {}
    for v in nodes:
        targets = sorted(g.adj[v], key=lambda t: t + ",")
        # the conclusion cost of every claim combination, in one C-level
        # pass per v: it is the same for every u
        shifted = [[inf if i > total else g.weight(v, t) + i for i in order] for t in targets]
        conclusion_costs = list(map(min, itertools.product(*shifted))) if targets else []
        for u in nodes:
            conclusion_of = position[(v, u)]
            if v == u:
                table[conclusion_of[0]] = [()]
                continue
            if not targets:
                table[conclusion_of[-1]] = [()]
                continue
            # each rule goes to the bucket of its conclusion cost; a finite
            # claim beyond W, unreachable in any case, to a list thrown away
            buckets: list[list[tuple[int, ...]]] = [[] for _ in cost_text]
            route = buckets[:-1] + [[]] * total + buckets[-1:]
            rules = itertools.product(*([position[(t, u)][i] for i in order] for t in targets))
            deque(map(list.append, map(route.__getitem__, conclusion_costs), rules), maxlen=0)
            table.update((c, sets) for c, sets in zip(conclusion_of, buckets) if sets)
    coaxioms = _mask(here[-1] for (v, u), here in position.items() if v != u)
    return InferenceSystem._from_table(uni, table, JudgementSet(uni, coaxioms)), uni


def _simple_paths(g: Graph) -> dict[tuple[str, str], list[tuple[str, ...]]]:
    """All simple paths, grouped by first and final node (a node's trivial
    path under the node paired with itself), each group in depth-first order.
    First spath's count is checked, before any path is made: from each first
    node, the paths are counted one length at a time on (last node, node
    bitmask) states, each standing for every path that reaches it, after the
    `bot` claims of the pairs of distinct nodes, as judgements in `found`.
    A state of the next length counts as one path until its own paths are
    counted, so neither length's states held pass the cap."""
    found = len(g.nodes) * (len(g.nodes) - 1)
    if found > GROUND_CAP:  # before the bitmasks, which take n^2 / 16 bytes
        _refuse("spath", f"at least {found}")
    bit = {v: 1 << i for i, v in enumerate(g.nodes)}
    succ = {v: [(t, bit[t]) for t in g.adj[v]] for v in g.nodes}
    path_counts: defaultdict[tuple[str, str], int] = defaultdict(int)
    for source in g.nodes:
        layer = {(source, bit[source]): 1}  # the paths of one length, by state
        while layer:
            longer: dict[tuple[str, int], int] = {}
            for (v, seen), paths in layer.items():
                path_counts[source, v] += paths
                found += paths
                for t, b in succ[v]:
                    if not seen & b:
                        state = t, seen | b
                        longer[state] = longer.get(state, 0) + paths
                if found + len(longer) > GROUND_CAP:
                    _refuse("spath", f"at least {GROUND_CAP + 1}")
            layer = longer
    claims = {(v, u): path_counts[v, u] + (v != u) for v in g.nodes for u in g.nodes}
    _check_ground("spath", found + sum(
        1 if v == u else math.prod(claims[t, u] for t in g.adj[v]) for v, u in claims))
    out: dict[tuple[str, str], list[tuple[str, ...]]] = {pair: [] for pair in claims}
    stack = [(v,) for v in reversed(g.nodes)]
    while stack:  # depth first, each node's successors in order
        path = stack.pop()
        out[path[0], path[-1]].append(path)
        stack.extend(path + (t,) for t in reversed(g.adj[path[-1]]) if t not in path)
    return out


def build_spath(g: Graph) -> tuple[InferenceSystem, Universe]:
    """Judgements `spath(v,u,p,d)`: p is the shortest path from v to u and d
    its weight, `spath(v,u,bot,inf)` when there is none.

    Each rule consults one claimed (path, weight) per neighbour and concludes
    via the neighbour minimizing the extended weight, then the number of
    edges of its claimed path, ties broken towards the alphabetically least
    neighbour.  Claims range over the simple paths.  Prepending `v` to a
    claim that already contains v would fall outside the universe, so such
    rule instances are skipped; none is needed, since among the shortest
    paths one with the fewest edges never runs back through its source, even
    across weight-0 cycles.
    """
    total = sum(g.weights.values())
    # the longest int Python prints, 0 for any; Python 3.10.0-3.10.6 has no limit
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits and total >= 10 ** digits:  # a path weight's text would raise mid-build
        raise CapExceeded(f"spath path weights may exceed {digits} digits, the most an int prints")
    # Costs are plain ints and `inf` is 2 * total + 1, as in build_dist: an
    # edge weight plus the weight of a simple path stays below it.
    inf = 2 * total + 1
    # claimable (path, weight) pairs per ordered node pair, None for no path
    claims: dict[tuple[str, str], list[tuple[Optional[tuple[str, ...]], int]]] = {
        (v, u): [(p, sum(map(g.weight, p, p[1:]))) for p in paths]
        + ([] if v == u else [(None, inf)])
        for (v, u), paths in _simple_paths(g).items()
    }
    texts = {
        (v, u, p): f"spath({v},{u},bot,inf)" if p is None else f"spath({v},{u},{_seq_text(p)},{c})"
        for (v, u), pairs in claims.items()
        for p, c in pairs
    }

    def rules() -> Iterator[_Instance]:
        for v in g.nodes:
            targets = g.adj[v]
            weights = [g.weight(v, t) for t in targets]
            for u in g.nodes:
                if v == u or not targets:
                    yield (v, u, (v,) if v == u else None), ()
                    continue
                for combo in itertools.product(*(claims[(t, u)] for t in targets)):
                    # least extended weight, then fewest edges; bot's w + inf tops all
                    ranks = [(w + c, len(p or ())) for w, (p, c) in zip(weights, combo)]
                    chosen = combo[ranks.index(min(ranks))][0]
                    if chosen is not None and v in chosen:
                        continue  # would not be simple; never a shortest path
                    yield (
                        (v, u, None if chosen is None else (v,) + chosen),
                        ((t, u, p) for t, (p, _) in zip(targets, combo)),
                    )

    return _ground(texts, rules(), ((v, u, None) for v in g.nodes for u in g.nodes if v != u))


# -- trees with an all-zero path -----------------------------------------------------


def build_path0(t: EqSystem) -> tuple[InferenceSystem, Universe]:
    """Judgements `path0(t)` (some root-to-infinity path carries only label 0)
    and `is_in(t,l)` (tree t occurs in list l) over the subterm states of a
    regular tree whose nodes hold 0/1 labels and regular lists of children.

    Membership stays purely inductive (no is_in coaxioms); only path0 carries
    coaxioms, so an infinite all-zero path must actually be exhibited.
    """
    if t.family != "tree":
        raise ShapeMismatch(f"expected a tree, got a {t.family}")
    canon = t.canonical()
    trees = [s for s in canon.states if canon[s].tag == "tree"]
    lists = [s for s in canon.states if canon[s].tag in ("cons", "nil")]
    if any(canon[s].args[0] not in (0, 1) for s in trees):
        raise ShapeMismatch("tree labels must be 0 or 1")
    cons = {l: canon[l].args for l in lists if canon[l].tag == "cons"}
    if any(not isinstance(head, str) or canon[head].tag != "tree" for head, _ in cons.values()):
        raise ShapeMismatch("child lists must hold tree states")
    # keys: a tree state for path0(t), a (tree, list) pair for is_in(t,l)
    texts = {s: f"path0({s})" for s in trees}
    texts.update(((tr, l), f"is_in({tr},{l})") for tr in trees for l in lists)
    kids = {s: canon[s].args[1] for s in trees if canon[s].args[0] == 0}
    rules = itertools.chain(
        ((s, ((cand, ks), cand)) for s, ks in kids.items() for cand in trees),
        (((head, l), ()) for l, (head, _) in cons.items()),
        (((cand, l), ((cand, tail),)) for l, (_, tail) in cons.items() for cand in trees),
    )
    return _ground(texts, rules, trees)


# -- digit stream addition -----------------------------------------------------------


def build_add(r1: EqSystem, r2: EqSystem, r: EqSystem) -> tuple[InferenceSystem, Universe]:
    """Judgements `add(s1,s2,s,c)`: the streams denoted by states s1 and s2
    sum, digitwise with carry c in {-1,0,1,2}, to the stream at state s.

    States advance in lockstep, so the universe is the simultaneous-tail
    closure of the three roots crossed with the four carries.  The whole
    universe is the coaxiom set: the inductive phase filters nothing, all the
    work happens in the consistency descent.
    """
    streams = []
    for term in (r1, r2, r):
        if term.family != "stream":
            raise ShapeMismatch(f"expected digit streams, got a {term.family}")
        streams.append(term.canonical())
    c1, c2, c3 = streams

    # each triple has one successor, so the closure is a lasso from the roots
    triples: dict[tuple[str, str, str], None] = {}
    tri = (c1.root, c2.root, c3.root)
    while tri not in triples:
        triples[tri] = None
        tri = (c1[tri[0]].args[1], c2[tri[1]].args[1], c3[tri[2]].args[1])
    carries = (-1, 0, 1, 2)
    texts = {(tri, c): f"add({tri[0]},{tri[1]},{tri[2]},{c})"
             for tri in triples for c in carries}

    def rules() -> Iterator[_Instance]:
        for tri in triples:
            (d1, t1), (d2, t2), (d3, t3) = c1[tri[0]].args, c2[tri[1]].args, c3[tri[2]].args
            for c in carries:
                s = c + d1 + d2
                if s % 10 == d3:
                    yield (tri, s // 10), (((t1, t2, t3), c),)

    return _ground(texts, rules(), texts)


# -- big-step evaluation with divergence ----------------------------------------------


def build_bigstep(goal: Term) -> tuple[InferenceSystem, Universe]:
    """Judgements `eval(e,w)` for call-by-value lambda evaluation, where w is
    an abstraction or `inf` for divergence.

    The expression space is closed under evaluation from the goal:
    applications contribute their parts, and whenever a function value and an
    argument value can both flow to an application site, the redex result
    joins the space and its values flow back to the site.  A value judgement
    eval(e,v) exists only for values v the flow admits for e; coaxioms let
    every expression claim divergence, and the generated interpretation keeps
    that claim exactly for the expressions with an infinite call-by-value
    derivation.
    """
    vals: dict[Term, set[Abs]] = {}  # its keys are the expressions, in order of discovery

    def add(e: Term) -> None:
        stack = [e]
        while stack:
            t = stack.pop()
            if t in vals:
                continue
            if len(vals) >= BIGSTEP_CLOSURE_CAP:
                raise CapExceeded(f"expression closure exceeded {BIGSTEP_CLOSURE_CAP} terms")
            vals[t] = {t} if isinstance(t, Abs) else set()
            if isinstance(t, App):
                stack.extend((t.fn, t.arg))

    add(goal)
    changed = True
    while changed:
        changed = False
        for e in list(vals):
            if not isinstance(e, App):
                continue
            before = len(vals)
            for f in sorted(vals[e.fn], key=term_text):
                for v in sorted(vals[e.arg], key=term_text):
                    r = substitute(f.body, v)
                    add(r)
                    if not vals[r] <= vals[e]:
                        vals[e] |= vals[r]
                        changed = True
            if len(vals) != before:
                changed = True
    ordered = sorted(vals, key=term_text)
    INF_TEXT = "inf"
    texts: dict[tuple[Term, object], str] = {}
    for e in ordered:
        for w in sorted(vals[e], key=term_text):
            texts[(e, w)] = f"eval({term_text(e)},{term_text(w)})"
        texts[(e, INF_TEXT)] = f"eval({term_text(e)},inf)"

    def rules() -> Iterator[_Instance]:
        for e in ordered:
            if isinstance(e, Abs):
                yield (e, e), ()
                continue
            yield (e, INF_TEXT), ((e.fn, INF_TEXT),)
            for f in sorted(vals[e.fn], key=term_text):
                yield (e, INF_TEXT), ((e.fn, f), (e.arg, INF_TEXT))
                for v in sorted(vals[e.arg], key=term_text):
                    body = substitute(f.body, v)
                    for w in (*sorted(vals[body], key=term_text), INF_TEXT):
                        yield (e, w), ((e.fn, f), (e.arg, v), (body, w))

    return _ground(texts, rules(), ((e, INF_TEXT) for e in ordered))
