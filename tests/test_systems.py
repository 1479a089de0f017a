"""Builder tests: every instantiated judgement family is checked against an
independent oracle (networkx, a textbook FIRST computation, direct walks over
the list states, a call-by-value interpreter) on both hand-picked and random
instances."""

import itertools
import random
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from coax import systems
from coax.cli import emit_system
from coax.core import CapExceeded, InferenceSystem, Judgement, Rule, Universe, generated, inductive, coinductive
from coax.regular import (
    Binding,
    EqSystem,
    ShapeMismatch,
    cycle_list,
    cycle_stream,
    finite_list,
)
from coax.systems import (
    Abs,
    App,
    Graph,
    Grammar,
    Var,
    build_add,
    build_bigstep,
    build_dist,
    build_first,
    build_path0,
    build_reach,
    build_spath,
    parse_grammar,
    parse_graph,
    parse_lambda,
    substitute,
    term_text,
    _ground,
)

from oracles import (
    COMPLETE_10,
    DIST_8,
    GRAMMAR_12,
    build_list_preds,
    cbv_eval,
    classical_first,
    expected_allpos,
    expected_elems,
    expected_maxelem,
    expected_member,
    nx_distances,
    premise_sets,
    random_graph,
    random_grammar,
    random_lambda,
    random_list_term,
    random_system,
    reachable_nodes,
)


def gen_texts(system: InferenceSystem) -> frozenset[str]:
    return frozenset(str(j) for j in generated(system))


# -- the shared grounding path ---------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.text("ab(),{}-", min_size=1, max_size=4), min_size=1, max_size=6, unique=True),
    st.data(),
)
def test_ground_equals_the_public_constructor(names, data):
    """_ground builds the system the public constructor builds from the same
    instances made Rules: instances shuffled and repeated, premise keys
    repeated and unsorted, coaxiom keys repeated, keys of mixed types."""
    keys = [i if i % 2 else ("k", frozenset({i})) for i in range(len(names))]
    texts = dict(zip(keys, names))
    key = st.sampled_from(keys)
    instances = data.draw(st.lists(st.tuples(key, st.lists(key, max_size=4)), max_size=12))
    coaxioms = data.draw(st.lists(key, max_size=6))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    stream = instances + rng.sample(instances, len(instances) // 2)
    rng.shuffle(stream)

    system, universe = _ground(texts, ((c, iter(ps)) for c, ps in stream), iter(coaxioms))
    J = {k: Judgement(t) for k, t in texts.items()}
    reference = InferenceSystem(
        Universe(J.values()),
        [Rule(J[c], tuple(map(J.__getitem__, ps))) for c, ps in stream],
        [J[k] for k in coaxioms],
    )
    assert system.universe is universe and universe == reference.universe
    assert system._table == reference._table
    assert list(system.rules()) == list(reference.rules())
    assert premise_sets(system) == premise_sets(reference)
    assert system.coaxioms == reference.coaxioms
    assert emit_system(system) == emit_system(reference)


def test_builders_make_no_judgement_and_no_rule(monkeypatch):
    """Every builder grounds keys straight to positions: building each
    family, and the nullables of a grammar, makes no Judgement and no Rule."""
    made: list[str] = []
    for cls in (Judgement, Rule):
        original = cls.__post_init__

        def counted(self, original=original):
            made.append(type(self).__name__)
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    Judgement("probe")
    assert made == ["Judgement"]
    made.clear()

    rng = random.Random(0)
    g = random_graph(rng, max_nodes=5)
    grammar = random_grammar(rng)
    tree = EqSystem(
        {
            "t": Binding("tree", (0, "l")),
            "l": Binding("cons", ("t", "l")),
        },
        "t",
    )
    builds = [
        build_reach(g), build_dist(g), build_spath(g), build_first(grammar),
        *build_list_preds(random_list_term(rng), 1).values(), build_path0(tree),
        build_add(cycle_stream([1, 2]), cycle_stream([8, 7]), cycle_stream([9])),
        build_bigstep(random_lambda(rng)),
    ]
    grammar.nullables()
    assert made == []
    assert all(system.rule_count for system, _ in builds)


# -- graphs -------------------------------------------------------------------------


def test_graph_construction():
    g = Graph(["b", "a"], [("a", "b"), ("a", "b")])
    assert g.nodes == ("a", "b")
    assert g.edges == (("a", "b"),)
    assert g.weight("a", "b") == 1
    with pytest.raises(ValueError):
        Graph(["a"], [("a", "z")])
    with pytest.raises(ValueError):
        Graph(["a", "b"], [("a", "b")], {("a", "b"): 1, ("b", "a"): 1})
    with pytest.raises(ValueError):
        Graph(["a", "b"], [("a", "b")], {("a", "b"): -2})


def test_parse_graph():
    g = parse_graph(
        """
        # a diamond
        node e
        edge a b 1
        edge a c 4
        edge b d 2
        edge c d   # defaults to 1 in a weighted graph
        """
    )
    assert g.nodes == ("a", "b", "c", "d", "e")
    assert g.weight("a", "c") == 4
    assert g.weight("c", "d") == 1
    unweighted = parse_graph("edge a b\nedge b a\n")
    assert unweighted.weights is None
    with pytest.raises(ValueError):
        parse_graph("edge a b one")
    with pytest.raises(ValueError):
        parse_graph("vertex a")
    with pytest.raises(ValueError, match="^line 2: weights are non-negative$"):
        parse_graph("edge a b 1\nedge b a -1\n")


def test_parse_graph_rejects_an_edge_repeated_with_another_weight():
    """A missing weight counts as 1, so an edge may be repeated only with the
    weight it was first given; the error names the repeating line."""
    for text, line, w, first in (
        ("edge a b 5\nedge a b 1\n", 2, 1, 5),
        ("edge a b 1\nnode c\nedge a b 5\n", 3, 5, 1),
        ("edge a b\nedge a b 2\n", 2, 2, 1),
        ("edge a b 2\n# again\nedge a b\n", 3, 1, 2),
    ):
        with pytest.raises(ValueError) as exc:
            parse_graph(text)
        assert str(exc.value) == f"line {line}: edge a b has weight {w}, an earlier line gave it {first}"
    for text in ("edge a b 3\nedge a b 3\n", "edge a b\nedge a b 1\n", "edge a b\nedge a b\n"):
        g = parse_graph(text)
        assert g.edges == (("a", "b"),)
    assert parse_graph("edge a b 3\nedge a b 3\nedge b a\n").weights == {("a", "b"): 3, ("b", "a"): 1}
    assert parse_graph("edge a b\nedge a b\n").weights is None


# -- grammars -----------------------------------------------------------------------


def test_grammar_construction_and_nullables():
    g = Grammar("ab", "SB", [("S", ""), ("S", "aB"), ("B", "SS"), ("B", "b")])
    assert g.bodies("S") == ((), ("a", "B"))
    assert g.nullables() == frozenset("SB")
    assert Grammar("a", "S", [("S", "a")]).nullables() == frozenset()
    with pytest.raises(ValueError):
        Grammar("a", "a", [])
    with pytest.raises(ValueError):
        Grammar("a", "S", [("S", "z")])
    with pytest.raises(ValueError):
        Grammar("a", "S", [("a", "S")])


def test_parse_grammar():
    g = parse_grammar("S -> a B\nB -> .\nB -> b S  # right recursion\n")
    assert g.nonterminals == frozenset("SB")
    assert g.terminals == frozenset("ab")
    assert g.bodies("B") == ((), ("b", "S"))
    with pytest.raises(ValueError):
        parse_grammar("S = a")


# -- lambda terms ---------------------------------------------------------------------


def test_parse_lambda_structure():
    assert parse_lambda(r"\x. x") == Abs(Var(0))
    # application is left-associative
    assert parse_lambda(r"\a. \b. \c. a b c") == Abs(
        Abs(Abs(App(App(Var(2), Var(1)), Var(0))))
    )
    s = parse_lambda(r"\x. \y. \z. x z (y z)")
    assert s == Abs(Abs(Abs(App(App(Var(2), Var(0)), App(Var(1), Var(0))))))
    # a trailing abstraction extends as far right as possible
    assert parse_lambda(r"\x. x \y. y") == Abs(App(Var(0), Abs(Var(0))))
    assert parse_lambda("λx. x") == Abs(Var(0))
    assert parse_lambda(r"(\x. x x) (\x. x x)") == App(
        Abs(App(Var(0), Var(0))), Abs(App(Var(0), Var(0)))
    )


def test_parse_lambda_rejects():
    for bad in [r"\x. y", "x", r"\x. x)", r"(\x. x", r"\x, x", r"\x. x $"]:
        with pytest.raises(ValueError):
            parse_lambda(bad)


def test_term_text_names_binders_by_depth():
    assert term_text(parse_lambda(r"\x. x")) == "abs(x0,var(x0))"
    assert term_text(parse_lambda(r"\a. \b. a b")) == term_text(
        parse_lambda(r"\x. \y. x y")
    )
    assert (
        term_text(Abs(Abs(App(Var(1), Var(0)))))
        == "abs(x0,abs(x1,app(var(x0),var(x1))))"
    )


def test_substitute_shifts_free_indices():
    ident = Abs(Var(0))
    # (\x. \y. x y) [x <- id] leaves y's index alone
    body = Abs(App(Var(1), Var(0)))
    assert substitute(body, ident) == Abs(App(ident, Var(0)))
    assert substitute(App(Var(0), Var(0)), ident) == App(ident, ident)


# -- reachability ----------------------------------------------------------------------


def test_reach_hand_case():
    g = parse_graph("edge a b\nedge b c\nedge c c\nnode d")
    system, _ = build_reach(g)
    texts = gen_texts(system)
    reach = {t for t in texts if t.startswith("reach(")}
    assert reach == {
        "reach(a,{a,b,c})",
        "reach(b,{b,c})",
        "reach(c,{c})",
        "reach(d,{d})",
    }


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**9))
def test_reach_matches_dfs_oracle(seed):
    rng = random.Random(seed)
    g = random_graph(rng, max_nodes=5, weighted=False)
    system, uni = build_reach(g)
    expected = {
        f"reach({v},{{{','.join(sorted(reachable_nodes(g, v)))}}})" for v in g.nodes
    }
    assert gen_texts(system) == expected
    # universe is backward-closed: every premise is itself a member
    for rule in system.rules():
        assert all(p in uni for p in rule.premises)


def test_reach_cap():
    """reach is bounded by what it would ground, not by its node count: 11
    isolated nodes, one past the old cap of 10, ground 11 * 2**11 judgements
    and 11 rules, while 17 would ground 17 * 2**17 + 17."""
    system, _ = build_reach(Graph([f"n{i}" for i in range(11)], []))
    assert len(gen_texts(system)) == 11
    with pytest.raises(CapExceeded, match=f"^reach would ground {17 * 2**17 + 17} judgements"):
        build_reach(Graph([f"n{i}" for i in range(17)], []))
    # a term of 2^64 or more is named by the power of two below it: this one
    # has over 6,000 digits, more than Python turns into text by default
    with pytest.raises(CapExceeded, match=r"^reach would ground at least 2\^20000 judgements"):
        build_reach(Graph([f"n{i}" for i in range(20000)], []))


def test_a_star_is_refused_before_its_count_is_built():
    """The hub of a 100,000-leaf star alone would ground 2^(10^10) reach
    instances, and (W+2)^(10^5) dist ones with weights of 10^20: ints of a
    gigabyte or more.  Each such term is refused from its exponent, so the
    refusal allocates next to nothing."""
    leaves = [f"x{i}" for i in range(100_000)]
    star = Graph(["a", *leaves], [("a", x) for x in leaves], {("a", x): 10**20 for x in leaves})
    for build, said in [(build_reach, r"reach would ground at least 2\^100001 "),
                        (build_dist, r"dist would ground at least 2\^\d+ ")]:
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded, match=f"^{said}"):
                build(star)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20, (build.__name__, peak)


# -- first sets --------------------------------------------------------------------------


def _first_of(system: InferenceSystem, a: str) -> frozenset[str]:
    prefix = f"first([{a}],"
    hits = {t for t in gen_texts(system) if t.startswith(prefix)}
    assert len(hits) == 1, f"first({a}) must be single-valued, got {hits}"
    return frozenset(hits.pop()[len(prefix) + 1 : -2].split(",")) - {""}


def test_first_hand_case():
    g = parse_grammar("A -> a B\nA -> .\nB -> A b")
    system, _ = build_first(g)
    assert _first_of(system, "A") == frozenset("a")
    assert _first_of(system, "B") == frozenset("ab")
    # a nonterminal with no productions derives nothing: empty first set
    lonely = Grammar("a", ["S", "Z"], [("S", "a")])
    system, _ = build_first(lonely)
    assert _first_of(system, "S") == frozenset("a")
    assert _first_of(system, "Z") == frozenset()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_first_matches_classical_computation(seed):
    rng = random.Random(seed)
    g = random_grammar(rng)
    system, _ = build_first(g)
    expected = classical_first(g)
    for a in g.nonterminals:
        assert _first_of(system, a) == expected[a], (a, g.productions)


def test_first_cap():
    """first is bounded by what it would ground, not by its terminal count:
    9 terminals, one past the old cap of 8, ground 3 * 2**9 judgements; 8
    terminals under an S with four nonterminal bodies would ground 256**4
    rules for S alone."""
    system, _ = build_first(Grammar("abcdefghi", "S", [("S", "a")]))
    assert _first_of(system, "S") == {"a"}
    with pytest.raises(CapExceeded, match=r"^first would ground 4294970893 judgements"):
        build_first(parse_grammar(GRAMMAR_12))


def test_first_without_terminals(monkeypatch):
    """With no terminals every first set is empty, yet a sequence headed by
    a nonterminal is still decomposed as one: A -> B, B -> B grounds to its
    three empty claims, and its count is still what it enumerates."""
    g = parse_grammar("A -> B\nB -> B\n")
    assert emit_system(build_first(g)[0]).splitlines() == [
        "universe first([A],{}) first([B],{}) first([],{})",
        "rule first([A],{}) <- first([B],{})",
        "rule first([B],{}) <- first([B],{})",
        "axiom first([],{})",
        "coaxiom first([A],{})",
        "coaxiom first([B],{})",
    ]
    count, made = _ground_counts(monkeypatch, "first", build_first, g)
    assert count == made


# -- list predicates -----------------------------------------------------------------------


def test_list_preds_hand_case():
    ones = cycle_list([1])
    preds = build_list_preds(ones, 1)
    assert gen_texts(preds["member"][0]) == {"member(1,s0,T)"}
    assert gen_texts(preds["allpos"][0]) == {"allpos(s0,T)"}
    assert gen_texts(preds["maxelem"][0]) == {"maxelem(s0,1)"}
    assert gen_texts(preds["elems"][0]) == {"elems(s0,{1})"}
    absent = build_list_preds(ones, 2)
    assert gen_texts(absent["member"][0]) == {"member(2,s0,F)"}


def test_list_preds_finite_hand_case():
    l = finite_list([2, -1])
    preds = build_list_preds(l, 5)
    # finite lists decide membership negatively by exhaustion, which the
    # coaxioms do not license: no judgement for 5 at all
    member = gen_texts(preds["member"][0])
    assert not any(t.startswith("member(5,s0,") for t in member)
    assert "allpos(s0,F)" in gen_texts(preds["allpos"][0])
    assert "maxelem(s0,2)" in gen_texts(preds["maxelem"][0])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_list_preds_match_walk_oracles(seed):
    rng = random.Random(seed)
    term = random_list_term(rng)
    x = rng.randint(-2, 3)
    canon = term.canonical()
    preds = build_list_preds(term, x)
    assert gen_texts(preds["member"][0]) == expected_member(canon, x)
    assert gen_texts(preds["allpos"][0]) == expected_allpos(canon)
    assert gen_texts(preds["maxelem"][0]) == expected_maxelem(canon)
    assert gen_texts(preds["elems"][0]) == expected_elems(canon)


def test_list_preds_reject_wrong_shapes():
    with pytest.raises(ShapeMismatch):
        build_list_preds(cycle_stream([1]), 1)
    nested = EqSystem(
        {
            "l": Binding("cons", ("m", "n")),
            "m": Binding("cons", (1, "n")),
            "n": Binding("nil", ()),
        },
        "l",
    )
    with pytest.raises(ShapeMismatch):
        build_list_preds(nested, 1)  # list of lists: heads are not integers


# -- distances and shortest paths ------------------------------------------------------------


def test_dist_and_spath_hand_case():
    g = parse_graph("edge a b 1\nedge a c 4\nedge b d 2\nedge c d 1\nnode e")
    dist, _ = build_dist(g)
    texts = gen_texts(dist)
    assert "dist(a,d,3)" in texts
    assert "dist(a,c,4)" in texts
    assert "dist(d,a,inf)" in texts
    assert "dist(e,e,0)" in texts
    spath, _ = build_spath(g)
    stexts = gen_texts(spath)
    assert "spath(a,d,[a,b,d],3)" in stexts
    assert "spath(d,a,bot,inf)" in stexts
    assert "spath(a,a,[a],0)" in stexts


def _parse_spath(text: str) -> tuple[str, str, list[str], str]:
    inner = text[len("spath(") : -1]
    v, u, rest = inner.split(",", 2)
    path_part, d = rest.rsplit(",", 1)
    steps = [] if path_part == "bot" else path_part[1:-1].split(",")
    return v, u, steps, d


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**9))
def test_dist_matches_dijkstra(seed):
    rng = random.Random(seed)
    g = random_graph(rng, max_nodes=6)
    system, _ = build_dist(g)
    truth = nx_distances(g)
    expected = {
        f"dist({v},{u},{'inf' if truth[(v, u)] is None else truth[(v, u)]})"
        for v in g.nodes
        for u in g.nodes
    }
    assert gen_texts(system) == expected


def _check_spath(g: Graph) -> frozenset[str]:
    """build_spath generates exactly one claim per ordered pair: `bot` and
    `inf` when networkx finds no path, else a real path of the networkx
    distance, which is the cost build_dist generates for that pair."""
    texts = gen_texts(build_spath(g)[0])
    dist = gen_texts(build_dist(g)[0])
    truth = nx_distances(g)
    by_pair: dict[tuple[str, str], list[tuple[list[str], str]]] = {}
    for t in texts:
        v, u, steps, d = _parse_spath(t)
        by_pair.setdefault((v, u), []).append((steps, d))
    for v in g.nodes:
        for u in g.nodes:
            claims = by_pair.get((v, u), [])
            assert len(claims) == 1, (v, u, claims)
            steps, d = claims[0]
            assert f"dist({v},{u},{d})" in dist
            if truth[(v, u)] is None:
                assert (steps, d) == ([], "inf")
                continue
            assert int(d) == truth[(v, u)]
            # the path must be a real walk from v to u of exactly that weight
            assert steps[0] == v and steps[-1] == u
            weight = 0
            for x, y in zip(steps, steps[1:]):
                assert y in g.adj[x]
                weight += g.weight(x, y)
            assert weight == int(d)
    return texts


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**9))
def test_spath_unique_valid_and_consistent_with_dist(seed):
    _check_spath(random_graph(random.Random(seed), max_nodes=6))


def test_spath_with_weight_0_edges_and_a_path_of_weight_W():
    """Weight-0 edges (one closing a cycle, two making a tie), an isolated
    node, and a shortest path a -> d that uses every weighted edge, so it
    weighs exactly the total weight W = 5."""
    weights = {("a", "b"): 0, ("a", "f"): 0, ("f", "b"): 0, ("b", "c"): 2, ("c", "d"): 3, ("d", "b"): 0}
    g = Graph("abcdef", weights, weights)
    texts = _check_spath(g)
    assert sum(weights.values()) == 5
    # the tie between a's neighbours b and f goes to b, the least
    assert "spath(a,d,[a,b,c,d],5)" in texts
    assert "spath(f,d,[f,b,c,d],5)" in texts
    assert "spath(d,c,[d,b,c],2)" in texts
    assert "spath(a,e,bot,inf)" in texts and "spath(e,a,bot,inf)" in texts


@st.composite
def _zero_weight_graphs(draw) -> Graph:
    """1-5 nodes, each with up to three out-edges, self-loops included, of
    weights 0-3, so that weight-0 cycles and equal-weight ties abound."""
    nodes = "abcde"[: draw(st.integers(1, 5))]
    weights = {}
    for u in nodes:
        for v in draw(st.lists(st.sampled_from(nodes), max_size=3, unique=True)):
            weights[(u, v)] = draw(st.integers(0, 3))
    return Graph(nodes, weights, weights)


@settings(max_examples=60, deadline=None)
@given(_zero_weight_graphs())
def test_spath_on_graphs_with_weight_0_cycles(g):
    _check_spath(g)


def test_spath_through_a_weight_0_cycle_back_to_the_source():
    """The least neighbour b of a reaches c only through a again, at the
    same weight 0 as the direct edge; the path with fewer edges wins."""
    weights = {("a", "b"): 0, ("a", "c"): 0, ("b", "a"): 0}
    texts = _check_spath(Graph("abc", weights, weights))
    assert texts == {
        "spath(a,a,[a],0)", "spath(a,b,[a,b],0)", "spath(a,c,[a,c],0)",
        "spath(b,a,[b,a],0)", "spath(b,b,[b],0)", "spath(b,c,[b,a,c],0)",
        "spath(c,a,bot,inf)", "spath(c,b,bot,inf)", "spath(c,c,[c],0)",
    }


def _dist_rules(g: Graph) -> tuple[Universe, list[Rule], list[Judgement]]:
    """build_dist's universe, rules and coaxioms, grounded
    directly from its docstring, with None for an infinite cost."""
    total = sum(g.weight(u, v) for u, v in g.edges)
    costs = [*range(total + 1), None]

    def J(v: str, u: str, c) -> Judgement:
        return Judgement(f"dist({v},{u},{'inf' if c is None else c})")

    rules = []
    for v in g.nodes:
        for u in g.nodes:
            if v == u:
                rules.append(Rule(J(v, u, 0)))
                continue
            targets = g.adj[v]
            if not targets:
                rules.append(Rule(J(v, u, None)))
                continue
            for claim in itertools.product(costs, repeat=len(targets)):
                finite = [g.weight(v, t) + c for t, c in zip(targets, claim) if c is not None]
                d = min(finite, default=None)
                if d is not None and d > total:
                    continue
                rules.append(Rule(J(v, u, d), tuple(J(t, u, c) for t, c in zip(targets, claim))))
    universe = Universe(J(v, u, c) for v in g.nodes for u in g.nodes for c in costs)
    return universe, rules, [J(v, u, None) for v in g.nodes for u in g.nodes if v != u]


# one name a prefix of another, followed by characters on both sides of ","
_PREFIX_NAMES = ["a", "ab", "a-", "a.", "a!", "a+", "b", "ba"]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 10**9),
    st.lists(st.sampled_from(_PREFIX_NAMES), min_size=2, max_size=4, unique=True),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)), max_size=6),
)
@example(0, ["a", "a!", "a-"], [(0, 1, 1), (0, 2, 2), (1, 0, 1), (2, 1, 1)])
# W = 2: the weight-0 edge a -> b passes every claim on unchanged, the edge
# b -> a of weight 2 turns dist(a,u,0) into exactly W and dist(a,u,1) into
# W + 1, and c has no successors
@example(0, ["a", "b", "c"], [(0, 1, 0), (1, 0, 2)])
# only weight-0 edges: W = 0, the claims are 0 and inf, and 0 + 0 is W
@example(0, ["ab", "a", "b"], [(0, 1, 0), (1, 2, 0), (2, 0, 0)])
# several successors: W = 5; minima of exactly W and W + 1 over a product
@example(0, ["a", "ab", "b", "ba"], [(0, 1, 1), (0, 2, 2), (1, 3, 0), (2, 3, 2)])
def test_dist_grounds_as_the_public_constructor_does(seed, names, edges):
    """build_dist's position table equals the system the public constructor
    builds from shuffled Rules, and lists its rules as sorted distinct Rules,
    on recipe graphs and on names that are prefixes of one another (whose
    judgements do not sort as the names do), with weight-0
    edges, nodes without successors, and claim combinations whose minimum
    is exactly W or W + 1."""
    rng = random.Random(seed)
    weights = {(names[i % len(names)], names[j % len(names)]): w for i, j, w in edges}
    weights = {(u, v): w for (u, v), w in weights.items() if u != v}
    graphs = [Graph(names, weights, weights), random_graph(rng, max_nodes=4, weighted=False)]
    recipe = random_graph(rng, max_nodes=4)
    if sum(recipe.weight(u, v) for u, v in recipe.edges) <= 24:  # keeps the reference quick
        graphs.append(recipe)
    for g in graphs:
        system, universe = build_dist(g)
        expected_universe, rules, coax = _dist_rules(g)
        rng.shuffle(rules)
        reference = InferenceSystem(expected_universe, rules, coax)
        assert system.universe is universe and universe == expected_universe
        assert list(system.rules()) == sorted(set(rules))
        assert list(system.rules()) == list(reference.rules())
        assert premise_sets(system) == premise_sets(reference)
        assert system.rule_count == reference.rule_count == len(rules)
        assert system.coaxioms == reference.coaxioms
        assert emit_system(system) == emit_system(reference)


def test_weighted_caps():
    """dist and spath are bounded by what they would ground: 11 nodes and a
    weight of 100, past the old caps of 10 nodes and total weight 64, ground
    a few hundred judgements; the complete 10-node 0/1 graph and a 23-edge
    8-node graph, inside the old caps, would ground tens of millions."""
    assert len(gen_texts(build_dist(Graph([f"n{i}" for i in range(11)], []))[0])) == 121
    heavy = Graph(["a", "b"], [("a", "b")], {("a", "b"): 100})
    assert "dist(a,b,100)" in gen_texts(build_dist(heavy)[0])
    assert "spath(a,b,[a,b],100)" in gen_texts(build_spath(heavy)[0])
    complete = parse_graph(COMPLETE_10)
    with pytest.raises(CapExceeded, match=r"^dist would ground 250191529527219290 judgements"):
        build_dist(complete)
    with pytest.raises(CapExceeded, match=r"^spath would ground at least 1000001 judgements"):
        build_spath(complete)
    with pytest.raises(CapExceeded, match=r"^dist would ground 21937098 judgements"):
        build_dist(parse_graph(DIST_8))


def _ground_counts(monkeypatch, family: str, build, *args) -> tuple[int, int]:
    """The count that ``build(*args)`` checks against GROUND_CAP, and its
    universe's size plus the meta-rule instances it enumerated, counted where
    it makes them: the tuples of its claim products for reach and spath
    (whose instances through a node's own path spath then drops), the
    instances _ground receives for first and elems, and the ones build_dist
    routes into its buckets; with the axioms made outside any product."""
    checked, made = [], Counter()
    monkeypatch.setattr(systems, "_check_ground",
                        lambda _, count: checked.append(count))

    def product(*claims, **repeat):
        for combo in itertools.product(*claims, **repeat):
            made["product"] += 1
            yield combo

    real_ground = systems._ground

    def ground(texts, rules, coaxioms=()):
        made["ground"] = 0  # first's last call is its own; nullables() comes before

        def counted():  # one at a time: spath's premises read its loop variables
            for instance in rules:
                made["ground"] += 1
                yield instance

        return real_ground(texts, counted(), coaxioms)

    def deque(routed, maxlen=None):
        made["routed"] += sum(1 for _ in routed)

    monkeypatch.setattr(systems, "itertools",
                        SimpleNamespace(**{**vars(itertools), "product": product}))
    monkeypatch.setattr(systems, "_ground", ground)
    monkeypatch.setattr(systems, "deque", deque)
    system, uni = build(*args)
    axioms = sum(not prs for r in system.rules() for prs in [r.premises])
    enumerated = {
        "reach": made["product"],
        "spath": made["product"] + axioms,
        "first": made["ground"],
        "elems": made["ground"],
        "dist": made["routed"] + axioms,
    }[family]
    return checked[-1], len(uni) + enumerated


def test_each_count_is_what_its_builder_enumerates(monkeypatch):
    """On the recipe corpora, the count each bounded builder checks before
    grounding equals the judgements it makes plus the instances it
    enumerates, kept or not."""
    for seed in range(30):
        g = random_graph(random.Random(seed))
        plain = random_graph(random.Random(seed), weighted=False)
        term = random_list_term(random.Random(seed))
        for family, build, args in [
            ("dist", build_dist, (g,)), ("dist", build_dist, (plain,)),
            ("spath", build_spath, (g,)), ("spath", build_spath, (plain,)),
            ("reach", build_reach, (plain,)),
            ("first", build_first, (random_grammar(random.Random(seed)),)),
            ("elems", lambda: systems._list_pred_builders(term, 0)["elems"](), ()),
        ]:
            with monkeypatch.context() as patch:
                count, made = _ground_counts(patch, family, build, *args)
            assert count == made, (family, seed)


def test_dist_rejects_a_name_that_is_no_judgement_token():
    """The judgement texts are checked in one pass; the error is the one a
    Judgement of the first bad text raises, in grounding order."""
    for names, first in ((["a b", "c"], "dist(a b,a b,0)"), (["c", "a#"], "dist(a#,a#,0)")):
        g = Graph(names, [(names[1], names[0])], {(names[1], names[0]): 1})
        with pytest.raises(ValueError) as raised:
            build_dist(g)
        want = f"judgement text must be a nonempty token without '#': {first!r}"
        assert str(raised.value) == want


def test_builders_refuse_colliding_judgement_texts():
    """Names that contain the judgements' own delimiters can make two
    meta-judgements print the same; the builders refuse to merge them."""
    g = Graph(["a", "a,a"], [("a", "a,a"), ("a,a", "a")], {("a", "a,a"): 1, ("a,a", "a"): 1})
    with pytest.raises(ValueError, match=r"print as dist\(a,a,a,"):
        build_dist(g)
    with pytest.raises(ValueError, match=r"print as reach\("):
        build_reach(Graph(["a", "b", "a,b"], []))  # {a,b} and {a,b}
    grammar = Grammar({"a", "b", "a,b"}, {"S"}, [("S", ("a",)), ("S", ("b",)), ("S", ("a,b",))])
    with pytest.raises(ValueError, match=r"print as first\("):
        build_first(grammar)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.text("ab,(){}[]", min_size=1, max_size=3), min_size=1, max_size=3, unique=True),
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(1, 2)), max_size=4),
)
@example(["a", "a,a"], [(0, 1, 1), (1, 0, 1)])
@example(["a", "b", "a,b"], [])
def test_graph_names_are_rejected_or_ground_injectively(names, edges):
    text = "".join(f"node {v}\n" for v in names) + "".join(
        f"edge {names[i % len(names)]} {names[j % len(names)]} {w}\n" for i, j, w in edges
    )
    bad_name = any(set(",(){}") & set(v) for v in names)  # caught on the node lines
    first: dict[tuple[int, int], int] = {}
    reweighted = any(first.setdefault((i % len(names), j % len(names)), w) != w for i, j, w in edges)
    try:
        g = parse_graph(text)
    except ValueError as exc:
        if bad_name:
            assert "node name" in str(exc)
        else:
            assert reweighted and "an earlier line gave it" in str(exc)
        return
    assert not bad_name and not reweighted
    n, total = len(g.nodes), sum(g.weight(u, v) for u, v in g.edges)
    assert len(build_reach(g)[1]) == n * 2**n
    assert len(build_dist(g)[1]) == n * n * (total + 2)
    build_spath(g)  # raises ValueError on a collision


# -- trees with an all-zero path ----------------------------------------------------------------


def _tree(bindings: dict[str, Binding], root: str) -> EqSystem:
    return EqSystem(bindings, root)


def test_path0_all_zero_cycle():
    t = _tree(
        {
            "t": Binding("tree", (0, "l")),
            "l": Binding("cons", ("t", "l")),
        },
        "t",
    )
    system, _ = build_path0(t)
    texts = gen_texts(system)
    assert "path0(s0)" in texts
    assert "is_in(s0,s1)" in texts


def test_path0_alternating_labels():
    t = _tree(
        {
            "t0": Binding("tree", (0, "l0")),
            "l0": Binding("cons", ("t1", "l0")),
            "t1": Binding("tree", (1, "l1")),
            "l1": Binding("cons", ("t0", "l1")),
        },
        "t0",
    )
    system, _ = build_path0(t)
    assert not any(t.startswith("path0(") for t in gen_texts(system))


def test_path0_finite_tree_has_no_infinite_path():
    t = _tree(
        {
            "t": Binding("tree", (0, "l")),
            "l": Binding("cons", ("u", "n")),
            "u": Binding("tree", (0, "n")),
            "n": Binding("nil", ()),
        },
        "t",
    )
    system, _ = build_path0(t)
    # all labels are 0 but every path ends: nothing survives
    assert not any(x.startswith("path0(") for x in gen_texts(system))


def test_path0_rejects_wrong_shapes():
    with pytest.raises(ShapeMismatch):
        build_path0(finite_list([1]))
    with pytest.raises(ShapeMismatch):
        build_path0(
            _tree(
                {
                    "t": Binding("tree", (7, "n")),
                    "n": Binding("nil", ()),
                },
                "t",
            )
        )
    with pytest.raises(ShapeMismatch):
        build_path0(
            _tree(
                {
                    "t": Binding("tree", (0, "l")),
                    "l": Binding("cons", (3, "l")),
                },
                "t",
            )
        )


# -- digit stream addition -----------------------------------------------------------------------


def test_add_carry_cases():
    ones = cycle_stream([1])
    twos = cycle_stream([2])
    threes = cycle_stream([3])
    system, _ = build_add(ones, twos, threes)
    assert gen_texts(system) == {"add(s0,s0,s0,0)"}
    # 0.999... + 0.999... = 1.999...: the carry is 1 in every column
    nines = cycle_stream([9])
    system, _ = build_add(nines, nines, nines)
    assert gen_texts(system) == {"add(s0,s0,s0,1)"}
    # borrowing: 0 + 0 = 9999... with carry -1 throughout
    zeros = cycle_stream([0])
    system, _ = build_add(zeros, zeros, nines)
    assert gen_texts(system) == {"add(s0,s0,s0,-1)"}
    # and an honest failure: 0 + 0 = 1111... has no consistent carry
    system, _ = build_add(zeros, zeros, cycle_stream([1]))
    assert gen_texts(system) == set()


def test_add_multi_digit_cycle():
    a = cycle_stream([1, 2])  # 0.121212...
    b = cycle_stream([8, 7])  # 0.878787...
    c = cycle_stream([9])  # 0.999999...
    system, _ = build_add(a, b, c)
    texts = gen_texts(system)
    assert len(texts) == 2 and all(t.endswith(",0)") for t in texts)


def test_add_rejects_non_streams():
    with pytest.raises(ShapeMismatch):
        build_add(finite_list([1]), cycle_stream([1]), cycle_stream([2]))


# -- big-step evaluation ----------------------------------------------------------------------------


def _split_eval(text: str) -> tuple[str, str]:
    """eval(E,W) -> (E, W), splitting at the top-level comma."""
    inner = text[len("eval(") : -1]
    depth = 0
    for i, ch in enumerate(inner):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            return inner[:i], inner[i + 1 :]
    raise AssertionError(f"malformed judgement text {text!r}")


def test_bigstep_hand_cases():
    ident = parse_lambda(r"\x. x")
    conv = App(ident, ident)
    system, _ = build_bigstep(conv)
    texts = gen_texts(system)
    i = term_text(ident)
    assert f"eval(app({i},{i}),{i})" in texts
    assert f"eval(app({i},{i}),inf)" not in texts

    omega = parse_lambda(r"(\x. x x) (\x. x x)")
    system, _ = build_bigstep(omega)
    texts = gen_texts(system)
    assert f"eval({term_text(omega)},inf)" in texts
    assert not any(
        t.startswith(f"eval({term_text(omega)},abs") for t in texts
    )


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**9))
def test_bigstep_matches_interpreter(seed):
    rng = random.Random(seed)
    goal = random_lambda(rng)
    system, uni = build_bigstep(goal)
    texts = gen_texts(system)
    value = cbv_eval(goal)
    wanted = "inf" if value is None else term_text(value)
    assert f"eval({term_text(goal)},{wanted})" in texts
    # every expression in the closure gets exactly one outcome
    all_exprs = {_split_eval(str(j))[0] for j in uni}
    assert {_split_eval(t)[0] for t in texts} == all_exprs
    assert len(texts) == len(all_exprs)


def test_bigstep_cap(monkeypatch):
    """BIGSTEP_CLOSURE_CAP is a constant; bigstep finds its closure as it
    grows, so it cannot count what it would ground first."""
    omega = parse_lambda(r"(\x. x x) (\x. x x)")
    monkeypatch.setattr(systems, "BIGSTEP_CLOSURE_CAP", 1)
    with pytest.raises(CapExceeded, match="exceeded 1 terms"):
        build_bigstep(omega)


# -- embedding invariance ------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_padding_the_universe_changes_nothing(seed):
    """Fresh judgements with no rules do not disturb any interpretation, so a
    builder universe only needs to be backward-closed, not minimal."""
    rng = random.Random(seed)
    system = random_system(rng, max_size=7)
    fresh = [Judgement(f"pad{i}") for i in range(3)]
    padded = InferenceSystem(
        Universe(list(system.universe) + fresh),
        list(system.rules()),
        list(system.coaxioms),
    )
    for f in (lambda s: inductive(s)[0], lambda s: coinductive(s)[0], generated):
        assert frozenset(map(str, f(system))) == frozenset(map(str, f(padded)))
