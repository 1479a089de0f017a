"""Independent oracles and random-instance generators for the test suite.

Everything here recomputes expected values from first principles (plain set
arithmetic, textbook worklist algorithms, networkx, a direct interpreter)
without touching the bitmask engine, so oracle agreement is meaningful.
"""

from __future__ import annotations

import random
import sys as _sys
from collections import defaultdict
from itertools import combinations
from operator import lt
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

import networkx as nx

from coax.core import InferenceSystem, Judgement, JudgementSet, Rule, Universe
from coax.prooftree import PathTree, ProofGraph, validate_proof_tree
from coax.regular import Binding, EqSystem
from coax.systems import Abs, App, Graph, Grammar, Term, Var, substitute
from coax.verify import Verdict

if TYPE_CHECKING:
    from coax.cli import SystemFile

# -- plain-set semantics -----------------------------------------------------------


def literal_step(rules: list[tuple[str, frozenset[str]]], s: frozenset[str]) -> frozenset[str]:
    """The inference operator, straight off its definition."""
    return frozenset(c for c, prs in rules if prs <= s)


def rules_of(system: InferenceSystem) -> list[tuple[str, frozenset[str]]]:
    return [(str(r.conclusion), frozenset(str(p) for p in r.premises)) for r in system.rules()]


def premise_sets(system: InferenceSystem) -> dict[Judgement, tuple[tuple[Judgement, ...], ...]]:
    """Each member of the universe with the premise sets of its rules, in
    the order ``rules()`` lists them."""
    sets: dict[Judgement, list[tuple[Judgement, ...]]] = {j: [] for j in system.universe}
    for r in system.rules():
        sets[r.conclusion].append(r.premises)
    return {j: tuple(prs) for j, prs in sets.items()}


def is_deterministic(system: InferenceSystem) -> bool:
    """At most one rule per conclusion (meets distribute over inference)."""
    conclusions = [r.conclusion for r in system.rules()]
    return len(conclusions) == len(set(conclusions))


def naive_interpretations(
    universe: list[str],
    rules: list[tuple[str, frozenset[str]]],
    coaxioms: frozenset[str],
) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
    """(mu, nu, gen) by enumerating every subset of the universe.  Usable up
    to ~10 judgements."""
    subsets = [
        frozenset(c) for r in range(len(universe) + 1) for c in combinations(universe, r)
    ]
    pre = [s for s in subsets if literal_step(rules, s) <= s]
    post = [s for s in subsets if s <= literal_step(rules, s)]
    mu = frozenset.intersection(*pre)
    nu = frozenset.union(*post) if post else frozenset()
    beta_star = frozenset.intersection(*[s for s in pre if coaxioms <= s])
    fixed_below = [
        s for s in subsets if literal_step(rules, s) == s and s <= beta_star
    ]
    gen = frozenset.union(*fixed_below) if fixed_below else frozenset()
    return mu, nu, gen


def kleene_by_hand(
    rules: list[tuple[str, frozenset[str]]], start: frozenset[str]
) -> list[frozenset[str]]:
    """The Kleene chain S, F(S), F(F(S)), ... until it repeats.  Monotone
    (hence terminating) when started from the empty set or from any closed
    set, which is how every caller uses it."""
    chain = [start]
    while True:
        nxt = literal_step(rules, chain[-1])
        if nxt == chain[-1]:
            return chain
        chain.append(nxt)


def restrict_to(system: InferenceSystem, s: JudgementSet) -> InferenceSystem:
    """The system keeping only rules whose conclusion lies in ``s``.

    The universe and the coaxiom set are untouched; inference in the result
    satisfies F'(x) = F(x) & s pointwise.
    """
    assert system.universe == s.universe
    kept = [r for r in system.rules() if r.conclusion in s]
    return InferenceSystem(system.universe, kept, system.coaxioms)


def relaxed_validate_approx_level(system: InferenceSystem, t: PathTree, n: int) -> Verdict:
    """validate_approx_level by its definition: t validated in the system
    whose coaxioms are made axioms, then every node above the cut against the
    genuine rules."""
    extra = [Rule(j) for j in system.coaxioms]
    overall = validate_proof_tree(InferenceSystem(system.universe, [*system.rules(), *extra]), t)
    if not overall:
        return overall
    sets = premise_sets(system)
    for path in t.nodes():
        if len(path) < n and t.children(path) not in sets[t.label(path)]:
            return Verdict(False, path, f"depth {len(path)} < {n} node rests on a coaxiom")
    return Verdict(True)


def first_steps(chain: list[frozenset[str]]) -> dict[str, int]:
    """The first index of a Kleene chain at which each member appears."""
    out: dict[str, int] = {}
    for n, s in enumerate(chain):
        for j in s:
            out.setdefault(j, n)
    return out


def death_steps(chain: list[frozenset[str]], universe: tuple[str, ...]) -> dict[str, int]:
    """The first index of a descending Kleene chain that lacks each judgement
    of the universe, -1 for one in every step."""
    return {j: next((n for n, s in enumerate(chain) if j not in s), -1) for j in universe}


def steps_by_hand(system: InferenceSystem) -> tuple[list[int], list[int], list[int]]:
    """Per position, as the engines record them: the entry step into the
    plain ascending chain and into the coaxiom-seeded one (0 for never), and
    the first step of the descent from the closure that lacks the judgement
    (0 outside the closure, -1 for a survivor), all by plain-set iteration."""
    texts = system.universe.texts
    rules = rules_of(system)
    plain = first_steps(kleene_by_hand(rules, frozenset()))
    up = kleene_by_hand(rules + [(c, frozenset()) for c in system.coaxioms.texts()], frozenset())
    seeded = first_steps(up)
    dead = death_steps(kleene_by_hand(rules, up[-1]), texts)
    return [plain.get(t, 0) for t in texts], [seeded.get(t, 0) for t in texts], [dead[t] for t in texts]


def scan_refute_level(system: InferenceSystem, j: Judgement) -> Optional[int]:
    """refute_level as a scan of the analysis' descending chain for the first
    step that lacks j, None when j is in its limit."""
    _, descent = system._analyze()
    if j in descent.result:
        return None
    for n, step in enumerate(descent):
        if j not in step:
            return n
    raise AssertionError("unreachable: j missing from the limit but in every step")


# -- recursive proof builders: the references for the iterative ones ----------------


def recursive_wf_build(
    sets: dict[Judgement, tuple[tuple[Judgement, ...], ...]],
    levels: dict[str, int],
    j: Judgement,
    budget: int,
    memo: dict[tuple[Judgement, int], PathTree],
    leaves: frozenset[str] = frozenset(),
) -> PathTree:
    """The greedy canonical well-founded tree, built by recursion: the least
    premise set whose members are all provable within the remaining budget,
    each premise's subtree stacked under j; ``leaves`` stand as axioms."""
    key = (j, budget)
    hit = memo.get(key)
    if hit is not None:
        return hit
    for prs in ((),) if str(j) in leaves else sets[j]:
        if all(levels.get(str(p), budget + 2) <= budget for p in prs):
            subtrees = [recursive_wf_build(sets, levels, p, budget - 1, memo, leaves) for p in prs]
            tree = PathTree.branch(j, subtrees)
            break
    else:
        raise AssertionError(f"no admissible rule for {j} at budget {budget}")
    memo[key] = tree
    return tree


class RecursiveProofs:
    """wf_proof_search, approx_proof and approximating_sequence as they were
    built by recursion and ``PathTree.branch`` stacking, on levels and chains
    computed here by plain-set Kleene iteration."""

    def __init__(self, system: InferenceSystem):
        self.system = system
        self.sets = premise_sets(system)
        rules = rules_of(system)
        self.coaxioms = frozenset(map(str, system.coaxioms))
        self.plain = first_steps(kleene_by_hand(rules, frozenset()))
        up = kleene_by_hand(rules + [(c, frozenset()) for c in self.coaxioms], frozenset())
        self.relaxed = first_steps(up)
        self.down = kleene_by_hand(rules, up[-1])

    def at(self, n: int) -> frozenset[str]:
        return self.down[min(n, len(self.down) - 1)]

    def wf(self, j: Judgement, depth_bound: int) -> Optional[PathTree]:
        level = self.plain.get(str(j))
        if level is None or level - 1 > depth_bound:
            return None
        budget = min(depth_bound, len(self.system.universe))
        return recursive_wf_build(self.sets, self.plain, j, budget, {})

    def _below(self, memo: dict) -> Callable[[Judgement], PathTree]:
        return lambda c: recursive_wf_build(
            self.sets, self.relaxed, c, self.relaxed[str(c)] - 1, memo, self.coaxioms
        )

    def approx(self, j: Judgement, n: int) -> Optional[PathTree]:
        if str(j) not in self.at(n):
            return None
        below, memo = self._below({}), {}

        def build(c: Judgement, k: int) -> PathTree:
            if k <= 0:
                return below(c)
            key = (c, k)
            hit = memo.get(key)
            if hit is not None:
                return hit
            lower = self.at(k - 1)
            for prs in self.sets[c]:
                if all(str(p) in lower for p in prs):
                    tree = PathTree.branch(c, [build(p, k - 1) for p in prs])
                    break
            else:
                raise AssertionError(f"{c} unsupported at level {k}")
            memo[key] = tree
            return tree

        return build(j, n)

    def sequence(self, j: Judgement, upto: int) -> tuple[PathTree, ...]:
        gen = self.down[-1]
        chosen = {
            c: next(prs for prs in self.sets[c] if all(str(p) in gen for p in prs))
            for c in self.system.universe
            if str(c) in gen
        }
        below, memo = self._below({}), {}

        def build(g: Judgement, n: int) -> PathTree:
            key = (g, n)
            hit = memo.get(key)
            if hit is None:
                hit = below(g) if n == 0 else PathTree.branch(g, [build(p, n - 1) for p in chosen[g]])
                memo[key] = hit
            return hit

        return tuple(build(j, n) for n in range(upto + 1))


def frontier_unfold(g: ProofGraph, depth: int) -> PathTree:
    """The depth-bounded unfolding of a proof graph, one frontier per level."""
    paths: set[tuple[Judgement, ...]] = set()
    frontier: list[tuple[Judgement, ...]] = [()]
    for _ in range(depth):
        next_frontier = []
        for path in frontier:
            for p in g.choice[path[-1] if path else g.root]:
                child = path + (p,)
                paths.add(child)
                next_frontier.append(child)
        frontier = next_frontier
    return PathTree(g.root, frozenset(paths))


# -- the extensional file format, read as strings -----------------------------------


class StringSystemFile(NamedTuple):
    universe: Optional[tuple[str, ...]]
    rules: tuple[tuple[str, tuple[str, ...]], ...]
    coaxioms: tuple[str, ...]
    warnings: tuple[str, ...]


def string_parse_system_file(text: str) -> StringSystemFile:
    """The file format read in two steps, strings first: each rule keyed on
    its conclusion and sorted distinct premise strings.  The reference for
    ``coax.cli.parse_system_file``: the same warnings and errors."""
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
    return StringSystemFile(
        tuple(universe) if saw_universe else None,
        tuple(rules),
        tuple(coaxioms),
        tuple(warnings),
    )


def as_strings(sf: SystemFile) -> StringSystemFile:
    """A parsed file's token ids read back as tokens: the rules grouped by
    conclusion in order of first appearance, each with its premises sorted."""
    name = sf.names.__getitem__
    return StringSystemFile(
        None if sf.universe_ids is None else tuple(map(name, sf.universe_ids)),
        tuple(
            (name(c), tuple(sorted(map(name, ps))))
            for c, sets in sf.rule_ids.items()
            for ps in sets
        ),
        tuple(map(name, sf.coaxiom_ids)),
        sf.warnings,
    )


def _mentioned(sf: StringSystemFile) -> set[str]:
    return {c for c, _ in sf.rules}.union(*(prs for _, prs in sf.rules), sf.coaxioms)


def string_system_from_file(sf: StringSystemFile) -> InferenceSystem:
    """The second step: every string token mapped to its universe position.
    The reference for ``coax.cli.system_from_file``."""
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


# -- random instances ---------------------------------------------------------------


def random_system(rng: random.Random, max_size: int = 12) -> InferenceSystem:
    n = rng.randint(2, max_size)
    judgements = [Judgement(f"j{i}") for i in range(n)]
    uni = Universe(judgements)
    rules = []
    for _ in range(rng.randint(0, 2 * n)):
        c = rng.choice(judgements)
        k = rng.choice([0, 0, 1, 1, 1, 2, 2, 3])
        rules.append(Rule(c, tuple(rng.sample(judgements, min(k, n)))))
    coax = [j for j in judgements if rng.random() < 0.3]
    return InferenceSystem(uni, rules, coax)


def random_deterministic_system(rng: random.Random, max_size: int = 10) -> InferenceSystem:
    n = rng.randint(2, max_size)
    judgements = [Judgement(f"j{i}") for i in range(n)]
    uni = Universe(judgements)
    rules = []
    for c in judgements:
        if rng.random() < 0.75:
            k = rng.choice([0, 1, 1, 2])
            rules.append(Rule(c, tuple(rng.sample(judgements, min(k, n)))))
    coax = [j for j in judgements if rng.random() < 0.3]
    return InferenceSystem(uni, rules, coax)


_NODE_NAMES = "abcdefgh"


def random_graph(rng: random.Random, max_nodes: int = 8, weighted: bool = True) -> Graph:
    n = rng.randint(2, max_nodes)
    nodes = list(_NODE_NAMES[:n])
    edges = []
    for u in nodes:
        for v in rng.sample(nodes, min(len(nodes), rng.randint(0, 2))):
            if u != v and (u, v) not in edges:
                edges.append((u, v))
    if not weighted:
        return Graph(nodes, edges, None)
    weights = {e: rng.randint(1, 5) for e in edges}
    # total weight at most 60: the benchmark's dist_pipeline graphs and their
    # stored rule counts come from this loop
    while sum(weights.values()) > 60:
        victim = rng.choice(sorted(weights))
        del weights[victim]
        edges.remove(victim)
    return Graph(nodes, edges, weights)


def random_grammar(rng: random.Random) -> Grammar:
    n_terms = rng.randint(1, 6)
    n_nts = rng.randint(1, 5)
    terms = list("abcdef"[:n_terms])
    nts = list("ABCDE"[:n_nts])
    # with > 3 terminals the claim space per nonterminal premise is 2^|T|;
    # keep at most one nonterminal per body then, so rule counts stay small
    free_form = n_terms <= 3
    productions = []
    for head in nts:
        for _ in range(rng.randint(1, 2)):
            r = rng.random()
            if r < 0.15:
                body: list[str] = []
            elif r < 0.55 or not free_form and rng.random() < 0.5:
                body = [rng.choice(terms)] + rng.choices(terms, k=rng.randint(0, 2))
            else:
                body = [rng.choice(nts)] + (
                    rng.choices(terms + nts, k=rng.randint(0, 2))
                    if free_form
                    else rng.choices(terms, k=rng.randint(0, 2))
                )
            productions.append((head, tuple(body)))
    return Grammar(terms, nts, productions)


def random_list_term(rng: random.Random) -> EqSystem:
    """A finite list or a lasso (finite prefix into a cycle) of small ints."""
    values = [rng.randint(-2, 3) for _ in range(rng.randint(0, 4))]
    cyclic = rng.random() < 0.5
    bindings: dict[str, Binding] = {}
    if cyclic:
        cycle_len = rng.randint(1, 3)
        cycle_vals = [rng.randint(-2, 3) for _ in range(cycle_len)]
        for i, v in enumerate(cycle_vals):
            bindings[f"c{i}"] = Binding("cons", (v, f"c{(i + 1) % cycle_len}"))
        tail = "c0"
    else:
        bindings["end"] = Binding("nil", ())
        tail = "end"
    for i, v in enumerate(reversed(values)):
        bindings[f"p{i}"] = Binding("cons", (v, tail))
        tail = f"p{i}"
    return EqSystem(bindings, tail)


def random_eq_system(rng: random.Random) -> EqSystem:
    """A list of small ints, a digit stream, or a tree whose children are a
    list of tree states: a few states of each family, every state slot bound
    to a random state of the right family, so that cycles, shared tails and
    bisimilar duplicates are common; one time in ten a long finite list of
    equal elements, whose states differ only in their distance to ``nil``.
    Only the states reachable from the root are kept."""
    kind = rng.choice(("list", "stream", "tree"))
    if rng.random() < 0.1:
        n = rng.randint(20, 60)
        bindings = {f"n{i}": Binding("cons", (1, f"n{i + 1}")) for i in range(n)}
        return EqSystem({**bindings, f"n{n}": Binding("nil", ())}, "n0")
    lists = [f"l{i}" for i in range(rng.randint(1, 9))]
    others = [f"{kind[0]}{i}" for i in range(rng.randint(1, 9))] if kind != "list" else []

    def pick(names: list[str], i: int) -> str:  # mostly the next state, so chains are long
        return names[i + 1] if i + 1 < len(names) and rng.random() < 0.6 else rng.choice(names)

    bindings = {}
    for i, name in enumerate(lists):
        if rng.random() < 0.2:
            bindings[name] = Binding("nil", ())
        else:
            head = pick(others, i - 1) if kind == "tree" else rng.randint(0, 2)
            bindings[name] = Binding("cons", (head, pick(lists, i)))
    for i, name in enumerate(others):
        if kind == "stream":
            bindings[name] = Binding("digit", (rng.randint(0, 2), pick(others, i)))
        else:
            bindings[name] = Binding("tree", (rng.randint(0, 2), pick(lists, i - 1)))
    root = (others or lists)[0]
    reached = [root]
    for name in reached:  # appends to the list it reads
        for a in bindings[name].args:
            if isinstance(a, str) and a not in reached:
                reached.append(a)
    return EqSystem({name: bindings[name] for name in reached}, root)


def build_list_preds(l: EqSystem, x: int) -> dict[str, tuple[InferenceSystem, Universe]]:
    """The four list predicates grounded over the list l, by name, member
    specialized to x: all four at once, where the CLI grounds only the one it
    prints."""
    from coax.systems import build_allpos, build_elems, build_maxelem, build_member

    return {"member": build_member(l, x), "allpos": build_allpos(l),
            "maxelem": build_maxelem(l), "elems": build_elems(l)}


_POOL_SOURCES = [
    r"\x. x",
    r"\x. \y. x",
    r"\x. \y. y",
    r"\x. x x",
]


def random_lambda(rng: random.Random) -> Term:
    from coax.systems import parse_lambda

    pool = [parse_lambda(s) for s in _POOL_SOURCES]

    def gen(depth: int) -> Term:
        if depth <= 0 or rng.random() < 0.4:
            return rng.choice(pool)
        return App(gen(depth - 1), gen(depth - 1))

    return gen(rng.randint(1, 2))


# -- inputs past systems.GROUND_CAP ---------------------------------------------------

# The complete 10-node graph with 0/1 weights: reach would ground 1.2e28
# judgements plus instances, dist 2.5e17, and spath finds more than 10^6 simple
# paths, though each builder's old caps (10 nodes, total weight 64) let it in.
COMPLETE_10 = "".join(
    f"edge {u} {v} {(i + j) % 2}\n"
    for i, u in enumerate("abcdefghij") for j, v in enumerate("abcdefghij") if u != v
)
# 8 terminals, within the old cap; S's bodies A, B, C, D claim 256^4 first sets
GRAMMAR_12 = "S -> A\nS -> B\nS -> C\nS -> D\n" + "".join(
    f"{a} -> {t} {a}\n{a} -> {u}\n" for a, t, u in ("Aab", "Bcd", "Cef", "Dgh")
)
# 8 nodes of out-degree 2 to 4, weights 0 to 3: dist enumerates 21,934,858 instances
DIST_8 = "".join(f"edge {e[0]} {e[1]} {e[2]}\n" for e in (
    "ah2 ae1 bg1 bd0 ce1 cf2 ca1 de2 da2 ea0 ed1 eb2 fc3 fa3 fe3 fh2 gd2 gf2 gc0 ga1 ha2 hb0 hg0"
).split())


# -- graph oracles ------------------------------------------------------------------


def reachable_nodes(g: Graph, start: str) -> frozenset[str]:
    seen = {start}
    stack = [start]
    while stack:
        for t in g.adj[stack.pop()]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return frozenset(seen)


def nx_distances(g: Graph) -> dict[tuple[str, str], Optional[int]]:
    """Pairwise shortest-path weights via networkx Dijkstra; None = unreachable."""
    G = nx.DiGraph()
    G.add_nodes_from(g.nodes)
    for u, v in g.edges:
        G.add_edge(u, v, weight=g.weight(u, v))
    out: dict[tuple[str, str], Optional[int]] = {}
    for src in g.nodes:
        lengths = nx.single_source_dijkstra_path_length(G, src)
        for dst in g.nodes:
            out[(src, dst)] = lengths.get(dst)
    return out


# -- grammar oracle -----------------------------------------------------------------


def classical_first(g: Grammar) -> dict[str, frozenset[str]]:
    """Textbook nullable+FIRST worklist computation."""
    nullable: set[str] = set()
    changed = True
    while changed:
        changed = False
        for head, body in g.productions:
            if head not in nullable and all(s in nullable for s in body):
                nullable.add(head)
                changed = True
    first: dict[str, set[str]] = {a: set() for a in g.nonterminals}
    changed = True
    while changed:
        changed = False
        for head, body in g.productions:
            acc: set[str] = set()
            for sym in body:
                if sym in g.terminals:
                    acc.add(sym)
                    break
                acc |= first[sym]
                if sym not in nullable:
                    break
            if not acc <= first[head]:
                first[head] |= acc
                changed = True
    return {a: frozenset(first[a]) for a in g.nonterminals}


# -- list-walk oracles --------------------------------------------------------------


def tail_walk(canon: EqSystem, start: str) -> tuple[list[tuple[str, int]], bool]:
    """Follow tails from a list state: ([(state, head), ...], ends_at_nil).
    Stops at nil or when a state repeats (then the walk is infinite)."""
    seen: set[str] = set()
    out: list[tuple[str, int]] = []
    state = start
    while canon[state].tag == "cons" and state not in seen:
        seen.add(state)
        out.append((state, canon[state].args[0]))  # type: ignore[arg-type]
        state = canon[state].args[1]  # type: ignore[assignment]
    return out, canon[state].tag == "nil"


def expected_member(canon: EqSystem, x: int) -> frozenset[str]:
    out = set()
    for s in canon.states:
        walk, finite = tail_walk(canon, s)
        heads = [h for _, h in walk]
        if x in heads:
            out.add(f"member({x},{s},T)")
        elif not finite:
            out.add(f"member({x},{s},F)")
    return frozenset(out)


def expected_allpos(canon: EqSystem) -> frozenset[str]:
    out = set()
    for s in canon.states:
        walk, _ = tail_walk(canon, s)
        if any(h <= 0 for _, h in walk):
            out.add(f"allpos({s},F)")
        else:
            out.add(f"allpos({s},T)")
    return frozenset(out)


def expected_maxelem(canon: EqSystem) -> frozenset[str]:
    out = set()
    for s in canon.states:
        if canon[s].tag != "cons":
            continue
        walk, _ = tail_walk(canon, s)
        out.add(f"maxelem({s},{max(h for _, h in walk)})")
    return frozenset(out)


def expected_elems(canon: EqSystem) -> frozenset[str]:
    out = set()
    for s in canon.states:
        walk, _ = tail_walk(canon, s)
        xs = sorted({h for _, h in walk})
        out.add(f"elems({s},{{{','.join(map(str, xs))}}})")
    return frozenset(out)


# -- lambda oracle ------------------------------------------------------------------


def cbv_eval(term: Term, fuel: int = 100_000) -> Optional[Term]:
    """Exact call-by-value evaluation: the value, or None for divergence.

    Divergence is detected as a revisit of a term already being evaluated on
    the current chain; precise whenever the reachable term space is finite,
    which holds for every goal the bigstep builder accepts.
    """
    limit = _sys.getrecursionlimit()
    _sys.setrecursionlimit(max(limit, 20_000))
    counter = [fuel]

    def ev(e: Term, stack: frozenset[Term]) -> Optional[Term]:
        counter[0] -= 1
        if counter[0] < 0:
            raise RuntimeError("evaluation fuel exhausted; enlarge it or shrink the goal")
        if isinstance(e, Abs):
            return e
        assert isinstance(e, App), "oracle goals must be closed"
        if e in stack:
            return None
        stack = stack | {e}
        f = ev(e.fn, stack)
        if f is None:
            return None
        a = ev(e.arg, stack)
        if a is None:
            return None
        return ev(substitute(f.body, a), stack)

    try:
        return ev(term, frozenset())
    finally:
        _sys.setrecursionlimit(limit)


# -- regular terms: bisimulation, subterms and unfolding ------------------------------


def moore_bisim_classes(bindings: dict[str, Binding]) -> dict[str, int]:
    """Moore's partition refinement, the reference for
    ``regular._bisim_classes``: each round re-signs every state by its
    constructor, its atoms and its successors' classes, until no class
    splits.  Quadratic when each round splits off one class."""
    cls = {name: 0 for name in bindings}
    while True:
        buckets: dict[tuple, int] = {}
        new_cls = {}
        for name in sorted(bindings):
            b = bindings[name]
            sig = (b.tag, *((cls[a],) if isinstance(a, str) else a for a in b.args))
            new_cls[name] = buckets.setdefault(sig, len(buckets))
        if new_cls == cls:
            return cls
        cls = new_cls


def bisim_equal(a: EqSystem, b: EqSystem) -> bool:
    """Bisimilarity as equality of canonical forms."""
    return a.canonical() == b.canonical()


def successors(eq: EqSystem, state: str) -> tuple[str, ...]:
    return tuple(a for a in eq[state].args if isinstance(a, str))


def rerooted(eq: EqSystem, state: str) -> EqSystem:
    """The subterm rooted at a state, canonicalized; an unbound state leaves
    the bindings empty, which ``EqSystem`` rejects."""
    reachable: set[str] = set()
    todo = [state]
    while todo:
        s = todo.pop()
        if s in eq.bindings and s not in reachable:
            reachable.add(s)
            todo.extend(successors(eq, s))
    return EqSystem({s: b for s, b in eq.bindings.items() if s in reachable}, state).canonical()


def subterms(a: EqSystem) -> tuple[EqSystem, ...]:
    """All distinct subterms (states re-rooted), deduplicated by bisimilarity
    and returned in serialization order."""
    canon = a.canonical()
    seen: dict[str, EqSystem] = {}
    for state in canon.states:
        sub = rerooted(canon, state)
        seen.setdefault(sub.to_text(), sub)
    return tuple(seen[k] for k in sorted(seen))


def unfold_term(eq: EqSystem, state: str, depth: int) -> tuple:
    """The depth-bounded unfolding of a state as a nested tuple; two states
    are bisimilar iff their unfoldings agree at every depth (|a|*|b| is enough
    for finite systems)."""
    if depth == 0:
        return ("?",)
    b = eq[state]
    parts: list[object] = [b.tag]
    for a in b.args:
        parts.append(unfold_term(eq, a, depth - 1) if isinstance(a, str) else a)
    return tuple(parts)
