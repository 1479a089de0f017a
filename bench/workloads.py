"""The three benchmark workloads: seeded inputs, one operation each, and the
independent checks of every output.

Each workload is a function of the seed that generates its inputs, loads
them into the program and returns one round: a list of operations.  An
operation is a zero-argument callable returning the program's output; its
``check`` method returns ``None`` when that output is right and a one-line
reason otherwise.  The checks recompute every expected
answer here, from the generated input text, without calling the program.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import sys

# the acceptance tests' random instances (tests/oracles.py)
import oracles

# layer functions are called through their modules, where a tracer wraps them
from coax import cli, core, prooftree, verify
from coax.core import InferenceSystem, Judgement, Rule, Universe

Rules = list[tuple[str, tuple[str, ...]]]


def load(universe: list[str], rules: Rules, coaxioms: list[str]) -> InferenceSystem:
    """Load a system given as text into the program's own objects."""
    return InferenceSystem(
        Universe(Judgement(t) for t in universe),
        [Rule(Judgement(c), tuple(Judgement(p) for p in prs)) for c, prs in rules],
        [Judgement(c) for c in coaxioms],
    )


def rule_table(rules: Rules) -> dict[str, set[frozenset[str]]]:
    """Conclusion -> premise sets, as text."""
    table: dict[str, set[frozenset[str]]] = {}
    for c, prs in rules:
        table.setdefault(c, set()).add(frozenset(prs))
    return table


# -- trees as text -----------------------------------------------------------------


def parse_render(text: str, indent: str = "  ") -> list[tuple[str, list[int]]]:
    """Read ``PathTree.render`` output back as nodes (label, child indices),
    in line order, node 0 the root.  Raises ValueError on a line that is
    not indented one step below some earlier line."""
    nodes: list[tuple[str, list[int]]] = []
    stack: list[int] = []  # node index at each depth of the current branch
    for line in text.split("\n"):
        label = line.lstrip(" ")
        pad = len(line) - len(label)
        depth, rest = divmod(pad, len(indent))
        if rest or not label or depth > len(stack) or (depth == 0 and nodes):
            raise ValueError(f"badly indented line {len(nodes)}: {line!r}")
        del stack[depth:]
        if stack:
            nodes[stack[-1]][1].append(len(nodes))
        stack.append(len(nodes))
        nodes.append((label, []))
    return nodes


def nested_nodes(tree: dict) -> list[tuple[str, list[int]]]:
    """The same node list, read from ``PathTree.to_nested`` output."""
    nodes: list[tuple[str, list[int]]] = [(tree["judgement"], [])]
    work = [(tree, 0)]
    while work:
        d, idx = work.pop()
        for child in d["children"]:
            nodes[idx][1].append(len(nodes))
            nodes.append((child["judgement"], []))
            work.append((child, len(nodes) - 1))
    return nodes


def path_nodes(tree) -> list[tuple[str, list[int]]]:
    """The same node list, read from a ``PathTree``'s paths: the root, then
    one node per path, the node of path p labelled p[-1]."""
    index = {(): 0}
    nodes: list[tuple[str, list[int]]] = [(str(tree.root), [])]
    for path in sorted(tree.paths, key=len):
        index[path] = len(nodes)
        nodes[index[path[:-1]]][1].append(len(nodes))
        nodes.append((str(path[-1]), []))
    return nodes


def check_tree(
    nodes: list[tuple[str, list[int]]],
    root: str,
    table: dict[str, set[frozenset[str]]],
    open_leaf=lambda label, depth: False,
) -> str | None:
    """Every node rests on a rule of ``table`` from its children's labels,
    except leaves that ``open_leaf(label, depth)`` accepts (coaxioms below
    a cut, or the cut of an unfolding).  Siblings carry distinct labels."""
    if nodes[0][0] != root:
        return f"root is {nodes[0][0]}, not {root}"
    depth = [0] * len(nodes)
    for i, (label, kids) in enumerate(nodes):
        for k in kids:
            depth[k] = depth[i] + 1
        children = frozenset(nodes[k][0] for k in kids)
        if len(children) != len(kids):
            return f"{label} has two children with one label"
        if children in table.get(label, ()):
            continue
        if not kids and open_leaf(label, depth[i]):
            continue
        return f"{label} at depth {depth[i]} rests on no rule from {sorted(children)}"
    return None


# -- dist_pipeline -------------------------------------------------------------------

# A round holds one graph per stratum of the recipe's rule-count distribution:
# DIST_TARGETS are the rule counts at the midpoints of DIST_STRATA equal
# strata of its 6-8-node draws, so each target stands for 1/35 of the draws,
# and the last for the largest 35th, up to the largest draw.  They were
# read off REFERENCE_DRAWS draws of random.Random(REFERENCE_SEED);
# `python3 bench/run.py --targets` prints them again and `--smoke` checks
# them.  A seed draws its own DIST_DRAWS graphs and takes for each target the
# closest one, so every seed gets the same spread of sizes.  With an odd
# number of strata, a run's median latency lies in the middle of one
# stratum's samples, not on the boundary between two; so does the 90th
# percentile with 35.  Many strata make the spectrum of costs dense, so
# that neither percentile rests on the shape of one seed's graph.
DIST_STRATA = 35
DIST_TARGETS = (66, 111, 163, 235, 325, 442, 656, 859, 1063, 1285, 1513, 1726,
                1961, 2221, 2491, 2773, 3085, 3397, 3799, 4229, 4711, 5223,
                5766, 6401, 7081, 7836, 8641, 9689, 10970, 12349, 14239,
                16521, 19867, 25195, 38533)
DIST_DRAWS = 2000
REFERENCE_DRAWS, REFERENCE_SEED = 20000, 0


def recipe_draws(rng: random.Random, count: int) -> list:
    """``count`` graphs of 6-8 nodes from the acceptance tests' recipe."""
    draws = []
    while len(draws) < count:
        g = oracles.random_graph(rng, max_nodes=8)
        if len(g.nodes) >= 6:
            draws.append(g)
    return draws


def reference_targets() -> tuple[int, ...]:
    counts = sorted(dist_rule_count(g) for g in
                    recipe_draws(random.Random(REFERENCE_SEED), REFERENCE_DRAWS))
    return tuple(counts[(2 * i + 1) * len(counts) // (2 * DIST_STRATA)]
                 for i in range(DIST_STRATA))


def dist_rule_count(g) -> int:
    """Rules the `dist` family grounds graph ``g`` to: per ordered pair
    (v, u) with v != u, every claim combination over v's successors whose
    minimum is at most the total weight W or is `inf`."""
    total = sum(g.weights.values())
    count = 0
    for v in g.nodes:
        ws = [w for (a, _), w in g.weights.items() if a == v]
        if not ws:
            count += len(g.nodes)
            continue
        dropped = 1
        for w in ws:
            dropped *= w + 1
        count += 1 + (len(g.nodes) - 1) * ((total + 2) ** len(ws) - dropped + 1)
    return count


def shortest_paths(nodes, weights) -> dict[tuple[str, str], str]:
    """Floyd-Warshall, as the `dist` judgement texts print the distance."""
    inf = float("inf")
    d = {(v, u): 0 if v == u else weights.get((v, u), inf) for v in nodes for u in nodes}
    for k in nodes:
        for v in nodes:
            for u in nodes:
                if d[(v, k)] + d[(k, u)] < d[(v, u)]:
                    d[(v, u)] = d[(v, k)] + d[(k, u)]
    return {p: "inf" if x == inf else str(x) for p, x in d.items()}


def cli_call(argv: list[str], stdin: str) -> tuple[int, str]:
    """coax.cli.main with stdin and stdout held in memory."""
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            status = cli.main(argv)
    finally:
        sys.stdin = saved
    return status, out.getvalue()


class DistOp:
    """`coax builtin dist -` piped into `coax solve -`, in process."""

    kind = "dist"
    system = None  # the system is loaded inside the operation

    def __init__(self, g):
        self.nodes = list(g.nodes)
        self.weights = g.weights
        self.text = "".join(f"node {v}\n" for v in g.nodes) + "".join(
            f"edge {u} {v} {w}\n" for (u, v), w in g.weights.items()
        )
        self.rules = dist_rule_count(g)

    def __call__(self):
        built = cli_call(["builtin", "dist", "-"], self.text)
        if built[0] != 0:
            return built
        return cli_call(["solve", "-"], built[1])

    def check(self, result) -> str | None:
        status, out = result
        if status != 0:
            return f"exit {status}"
        want = shortest_paths(self.nodes, self.weights)
        got: dict[tuple[str, str], str] = {}
        for line in out.splitlines():
            if not (line.startswith("dist(") and line.endswith(")")):
                return f"unexpected line {line!r}"
            v, u, d = line[5:-1].split(",")
            if (v, u) in got:
                return f"two distances for {v}->{u}"
            got[(v, u)] = d
        if got != want:
            bad = sorted(p for p in want if got.get(p) != want[p])[0]
            return f"dist{bad} printed {got.get(bad)}, shortest path is {want[bad]}"
        return None


def dist_pipeline(seed: int) -> list[DistOp]:
    """One recipe graph of 6-8 nodes per rule-count target."""
    rng = random.Random(seed)
    pool = [(dist_rule_count(g), g) for g in recipe_draws(rng, DIST_DRAWS)]
    ops = []
    for target in DIST_TARGETS:
        best = min(range(len(pool)), key=lambda i: abs(math.log(pool[i][0] / target)))
        ops.append(DistOp(pool.pop(best)[1]))
    rng.shuffle(ops)
    return ops


# -- proof_queries -------------------------------------------------------------------

CORPUS_SEEDS = range(500)


class CorpusSystem:
    """One corpus system, loaded by the tests' recipe and read back as text,
    with its descending chain computed here by Kleene iteration on the text
    (on first need)."""

    def __init__(self, seed: int):
        self.seed = seed
        self.system = oracles.random_system(random.Random(seed), max_size=12)
        self.names = [str(j) for j in self.system.universe]
        self.rules = [(c, tuple(sorted(prs))) for c, prs in oracles.rules_of(self.system)]
        self.coaxioms = [str(j) for j in self.system.coaxioms]
        self.table = rule_table(self.rules)
        self._levels: list[frozenset[str]] | None = None

    def levels(self) -> list[frozenset[str]]:
        """F^n(closure of the coaxioms) for n = 0 .. stabilization."""
        if self._levels is None:
            rules = [(c, frozenset(prs)) for c, prs in self.rules]
            relaxed = rules + [(c, frozenset()) for c in self.coaxioms]
            s: frozenset[str] = frozenset()
            while True:
                nxt = frozenset(c for c, prs in relaxed if prs <= s)
                if nxt == s:
                    break
                s = nxt
            chain = [s]
            while True:
                nxt = frozenset(c for c, prs in rules if prs <= chain[-1])
                if nxt == chain[-1]:
                    break
                chain.append(nxt)
            self._levels = chain
        return self._levels

    def level(self, n: int) -> frozenset[str]:
        chain = self.levels()
        return chain[min(n, len(chain) - 1)]


class ApproxOp:
    kind = "approx"

    def __init__(self, cs: CorpusSystem, j: str, n: int):
        self.cs, self.j, self.n = cs, j, n
        self.system = cs.system
        self.judgement = Judgement(j)
        self.verified: int | None = None  # hash of the last tree that passed

    def __call__(self):
        return prooftree.approx_proof(self.system, self.judgement, self.n)

    def check(self, tree) -> str | None:
        present = self.j in self.cs.level(self.n)
        if (tree is not None) != present:
            return f"seed {self.cs.seed} {self.j} level {self.n}: proof {'missing' if present else 'returned'}"
        if tree is None:
            return None
        # a later round's tree equal to one already checked needs no recheck
        # (PathTree is a frozen dataclass: equal trees hash equal)
        key = hash(tree)
        if key == self.verified:
            return None
        coaxioms, cut = set(self.cs.coaxioms), self.n
        why = check_tree(
            path_nodes(tree), self.j, self.cs.table,
            lambda label, depth: depth >= cut and label in coaxioms,
        )
        if why is None:
            self.verified = key
            return None
        return f"seed {self.cs.seed} {self.j} level {self.n}: {why}"


class RefuteOp:
    kind = "refute"

    def __init__(self, cs: CorpusSystem, j: str):
        self.cs, self.j = cs, j
        self.system = cs.system
        self.judgement = Judgement(j)

    def __call__(self):
        return verify.refute_level(self.system, self.judgement)

    def check(self, level) -> str | None:
        chain = self.cs.levels()
        want = next((n for n, s in enumerate(chain) if self.j not in s), None)
        return None if level == want else f"seed {self.cs.seed} {self.j}: refuted at {level}, not {want}"


def proof_queries(seed: int) -> list:
    """Every approx_proof(s, j, n), 0 <= n <= |U|, and every refute_level(s, j)
    on the 500 acceptance systems; the seed fixes the order."""
    ops: list = []
    for s in CORPUS_SEEDS:
        cs = CorpusSystem(s)
        for j in cs.names:
            ops.extend(ApproxOp(cs, j, n) for n in range(len(cs.names) + 1))
            ops.append(RefuteOp(cs, j))
    random.Random(seed).shuffle(ops)
    return ops


# -- deep_proofs ---------------------------------------------------------------------

# Lengths per kind, spaced geometrically, one operation each per round, so
# that the operation costs of a round form a fine, even spectrum from ~5 ms to
# ~0.5 s.  The seed moves each length by a few steps, renames the
# judgements and rotates the rings.  The deepest recursion (render of a
# 4 * 126 unfolding) stays well below the interpreter's limit of 1000.
# With an odd number of operations per round (3 * 15), a run's median and
# 90th-percentile latencies lie in the middle of one operation's samples,
# not on the boundary between two.
PER_KIND = 15
WF_CHAINS = (60, 200)
APPROX_RINGS = (30, 90)
GRAPH_RINGS = (40, 125)
GRAPH_UNFOLD = 4  # unfold depth, in ring lengths
JITTER = 1


def lengths(bounds: tuple[int, int], rng: random.Random) -> list[int]:
    lo, hi = bounds
    return [round(lo * (hi / lo) ** (i / (PER_KIND - 1))) + rng.randint(-JITTER, JITTER)
            for i in range(PER_KIND)]


class DeepOp:
    """A deep, narrow system built from a rule script, and the artifact an
    operation builds on it."""

    def __init__(self, kind: str, names: list[str], rules: Rules, coaxioms: list[str],
                 goal: str, arg: int):
        self.kind, self.goal, self.arg = kind, goal, arg
        self.names, self.rules, self.coaxioms = names, rules, coaxioms
        self.table = rule_table(rules)
        self.system = load(names, rules, coaxioms)
        self.judgement = Judgement(goal)

    def __call__(self):
        sys_, j = self.system, self.judgement
        if self.kind == "wf":
            tree = prooftree.wf_proof_search(sys_, j, self.arg)
            return tree.render(), tree.to_nested()
        if self.kind == "approx":
            return prooftree.approx_proof(sys_, j, self.arg).render(), None
        gen = core.generated(sys_)
        graph = prooftree.proof_graph(sys_, gen, j)
        return prooftree.unfold(graph, self.arg).render(), len(gen)

    def check(self, result) -> str | None:
        text, extra = result
        try:
            nodes = parse_render(text)
        except ValueError as exc:
            return f"{self.kind}: {exc}"
        if any(len(kids) > 1 for _, kids in nodes):
            return f"{self.kind}: a node of a narrow system's proof has two children"
        depth = len(nodes) - 1
        if self.kind == "wf":
            # a chain's only well-founded proof runs down to its axiom
            if len(nodes) != len(self.names):
                return f"wf: {len(nodes)} nodes for a {len(self.names) - 1}-step chain"
            nested = nested_nodes(extra)
            if [n[0] for n in nested] != [n[0] for n in nodes]:
                return "wf: to_nested and render disagree"
            why = check_tree(nodes, self.goal, self.table)
        elif self.kind == "approx":
            # genuine ring rules down to the cut, then down to the coaxiom
            if depth < self.arg:
                return f"approx: depth {depth} above the cut {self.arg}"
            coaxioms, cut = set(self.coaxioms), self.arg
            why = check_tree(nodes, self.goal, self.table,
                             lambda label, d: d >= cut and label in coaxioms)
        else:
            # every ring judgement is generated; the unfolding stops at the cut
            if extra != len(self.names):
                return f"graph: generated set has {extra} of {len(self.names)} judgements"
            if depth != self.arg:
                return f"graph: unfolded to depth {depth}, not {self.arg}"
            cut = self.arg
            why = check_tree(nodes, self.goal, self.table, lambda label, d: d == cut)
        return None if why is None else f"{self.kind}: {why}"


def _chain(rng: random.Random, length: int) -> DeepOp:
    prefix = f"c{rng.randrange(10**6)}_"
    names = [f"{prefix}{i}" for i in range(length + 1)]
    rules = [(names[0], ())] + [(names[i + 1], (names[i],)) for i in range(length)]
    return DeepOp("wf", names, rules, [], names[-1], length)


def _ring(rng: random.Random, kind: str, length: int, arg: int, offset: int) -> DeepOp:
    prefix = f"r{rng.randrange(10**6)}_"
    names = [f"{prefix}{i}" for i in range(length)]
    rules = [(names[i], (names[(i + 1) % length],)) for i in range(length)]
    coaxiom = rng.randrange(length)
    goal = names[(coaxiom - offset) % length]
    return DeepOp(kind, names, rules, [names[coaxiom]], goal, arg)


def deep_proofs(seed: int) -> list[DeepOp]:
    rng = random.Random(seed)
    ops = []
    for n in lengths(WF_CHAINS, rng):
        ops.append(_chain(rng, n))
    for n in lengths(APPROX_RINGS, rng):
        # level n on an n-ring, the coaxiom half a ring below the cut
        ops.append(_ring(rng, "approx", n, n, n // 2))
    for n in lengths(GRAPH_RINGS, rng):
        ops.append(_ring(rng, "graph", n, GRAPH_UNFOLD * n, 0))
    # no shuffle: peak memory depends on which large artifacts come together
    return ops


WORKLOADS = {
    "dist_pipeline": dist_pipeline,
    "proof_queries": proof_queries,
    "deep_proofs": deep_proofs,
}

