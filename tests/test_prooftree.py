"""Proof tree tests: the path representation, validation, well-founded and
approximated proof search, proof graphs, unfolding and the level orders."""

import json
import random
import sys
import threading
import time
import tracemalloc
from typing import Container, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from coax.cli import _dot_escape, json_pieces, tree_dot
from coax import prooftree
from coax.core import (
    CapExceeded,
    InferenceSystem,
    Judgement,
    Rule,
    Universe,
    UniverseMismatch,
    closure_of,
    generated,
    inductive,
    kernel_below,
)
from coax.prooftree import (
    NotConsistent,
    NotInGenerated,
    PathTree,
    ProofGraph,
    approx_proof,
    approximating_sequence,
    proof_graph,
    tree_eq_n,
    tree_le_n,
    unfold,
    validate_approx_level,
    validate_proof_tree,
    wf_proof_search,
)
from coax.verify import Verdict

from oracles import (
    RecursiveProofs,
    frontier_unfold,
    premise_sets,
    random_system,
    relaxed_validate_approx_level,
)


def J(text: str) -> Judgement:
    return Judgement(text)


@pytest.fixture
def loopy():
    """a <- b, b <- a, c axiom, a <- c; coaxiom b."""
    uni = Universe(map(J, "abc"))
    rules = [
        Rule(J("a"), (J("b"),)),
        Rule(J("a"), (J("c"),)),
        Rule(J("b"), (J("a"),)),
        Rule(J("c")),
    ]
    return InferenceSystem(uni, rules, [J("b")])


# -- PathTree ----------------------------------------------------------------------


def test_leaf_and_branch():
    t = PathTree.branch(J("r"), [PathTree(J("x")), PathTree(J("y"))])
    assert t.root == J("r")
    assert t.children(()) == (J("x"), J("y"))
    assert t.depth == 1
    assert len(t) == 3
    assert t.label((J("x"),)) == J("x")


def test_branch_rejects_duplicate_children():
    with pytest.raises(ValueError):
        PathTree.branch(J("r"), [PathTree(J("x")), PathTree(J("x"))])


def test_paths_must_be_prefix_closed():
    with pytest.raises(ValueError):
        PathTree(J("r"), frozenset({(J("a"), J("b"))}))
    with pytest.raises(ValueError):
        PathTree(J("r"), frozenset({()}))


def test_subtree_and_nested():
    inner = PathTree.branch(J("x"), [PathTree(J("y"))])
    t = PathTree.branch(J("r"), [inner])
    assert t.subtree((J("x"),)) == inner
    assert t.subtree(()) == t
    assert t.to_nested() == {
        "judgement": "r",
        "children": [{"judgement": "x", "children": [{"judgement": "y", "children": []}]}],
    }
    with pytest.raises(ValueError):
        t.subtree((J("nope"),))


def test_render_shows_indentation():
    t = PathTree.branch(J("r"), [PathTree(J("x"))])
    assert t.render() == "r\n  x"


def _render_by_walk(t: PathTree) -> str:
    """The recursive walk over children() that render replaced."""
    lines: list[str] = []

    def walk(path, depth):
        lines.append("  " * depth + str(t.label(path)))
        for c in t.children(path):
            walk(path + (c,), depth + 1)

    walk((), 0)
    return "\n".join(lines)


def _nested_by_walk(t: PathTree) -> dict:
    def build(path):
        kids = [build(path + (c,)) for c in t.children(path)]
        return {"judgement": str(t.label(path)), "children": kids}

    return build(())


def _dot_by_children(t: PathTree) -> str:
    """tree_dot as it read children() once per node."""
    ids = {path: f"n{i}" for i, path in enumerate(t.nodes())}
    lines = ["digraph prooftree {"]
    for path, nid in ids.items():
        lines.append(f'  {nid} [label="{_dot_escape(str(t.label(path)))}"];')
    for path, nid in ids.items():
        for c in t.children(path):
            lines.append(f"  {nid} -> {ids[path + (c,)]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.integers(0, 5))
def test_printers_match_the_recursive_walks(seed, depth):
    rng = random.Random(seed)
    system = random_system(rng, max_size=8)
    gen = generated(system)
    trees = [wf_proof_search(system, j, len(system.universe)) for j in system.universe]
    trees += [unfold(proof_graph(system, gen, j), depth) for j in gen]
    for t in filter(None, trees):
        assert t.render() == _render_by_walk(t)
        assert "".join(t.render_pieces()) == _render_by_walk(t) + "\n"
        assert t.to_nested() == _nested_by_walk(t)
        assert tree_dot(t) == _dot_by_children(t)


def test_printers_on_a_1500_deep_unfold():
    """a <- b, b <- a c: the unfolding from a alternates a and b down the
    tree, and every b also has a leaf c.  Canonical order lists the chain
    first, then the c leaves from the deepest up."""
    uni = Universe(map(J, "abc"))
    system = InferenceSystem(
        uni, [Rule(J("a"), (J("b"),)), Rule(J("b"), (J("a"), J("c"))), Rule(J("c"))], [J("a")]
    )
    depth = 1500
    t = unfold(proof_graph(system, generated(system), J("a")), depth)
    chain = ["a" if d % 2 == 0 else "b" for d in range(depth + 1)]
    leaf_depths = range(depth, 0, -2)  # the c under the b one level up
    lines = ["  " * d + x for d, x in enumerate(chain)] + ["  " * d + "c" for d in leaf_depths]
    assert t.render() == "\n".join(lines)

    leaf_number = {d: len(chain) + i for i, d in enumerate(leaf_depths)}
    edges = []
    for d in range(depth):
        edges.append(f"  n{d} -> n{d + 1};")
        if chain[d] == "b":
            edges.append(f"  n{d} -> n{leaf_number[d + 1]};")
    labels = chain + ["c"] * len(leaf_number)
    nodes = [f'  n{i} [label="{x}"];' for i, x in enumerate(labels)]
    assert tree_dot(t) == "\n".join(["digraph prooftree {", *nodes, *edges, "}"]) + "\n"

    node = t.to_nested()
    for d, x in enumerate(chain):
        assert node["judgement"] == x
        kids = node["children"]
        if d == depth:
            assert kids == []
        elif x == "b":
            assert [k["judgement"] for k in kids] == ["a", "c"] and kids[1]["children"] == []
        else:
            assert [k["judgement"] for k in kids] == ["b"]
        node = kids[0] if kids else None


def tree_json(t: PathTree) -> str:
    """The CLI's JSON of a proof tree."""
    return "".join(json_pieces(t.to_nested()))


def _json_by_dumps(t: PathTree) -> str:
    return json.dumps(t.to_nested(), indent=2, sort_keys=True) + "\n"


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.integers(0, 5))
def test_tree_json_matches_json_dumps(seed, depth):
    rng = random.Random(seed)
    system = random_system(rng, max_size=8)
    gen = generated(system)
    trees = [wf_proof_search(system, j, len(system.universe)) for j in system.universe]
    trees += [unfold(proof_graph(system, gen, j), depth) for j in gen]
    # labels that JSON escapes: quotes, backslashes, control and non-ASCII characters
    odd = [J(t) for t in ('q"', "b\\s", "\x00", "\u00fc", "\U0001f600", "x\x7f")]
    rng.shuffle(odd)
    trees.append(PathTree.branch(odd[0], [PathTree.branch(odd[1], map(PathTree, odd[2:]))]))
    for t in filter(None, trees):
        assert tree_json(t) == _json_by_dumps(t)


def test_tree_json_on_a_1500_deep_unfold():
    """The tree json.dumps only writes with a raised recursion limit, here
    on a thread with a large stack."""
    uni = Universe(map(J, "abc"))
    system = InferenceSystem(
        uni, [Rule(J("a"), (J("b"),)), Rule(J("b"), (J("a"), J("c"))), Rule(J("c"))], [J("a")]
    )
    t = unfold(proof_graph(system, generated(system), J("a")), 1500)
    want = {}

    def dumps() -> None:
        sys.setrecursionlimit(20_000)
        want["text"] = _json_by_dumps(t)

    limit, stack = sys.getrecursionlimit(), threading.stack_size(128 << 20)
    try:
        thread = threading.Thread(target=dumps)
        thread.start()
        thread.join()
    finally:
        threading.stack_size(stack)
        sys.setrecursionlimit(limit)
    assert tree_json(t) == want["text"]


# -- validation --------------------------------------------------------------------


def test_validate_proof_tree(loopy):
    good = PathTree.branch(J("a"), [PathTree(J("c"))])
    assert validate_proof_tree(loopy, good).ok
    # b's only rule needs a; a leaf b is not a proof
    bad = PathTree.branch(J("a"), [PathTree(J("b"))])
    verdict = validate_proof_tree(loopy, bad)
    assert not verdict.ok
    assert verdict.witness == (J("b"),)
    outside = PathTree(J("zzz"))
    assert not validate_proof_tree(loopy, outside).ok


# -- well-founded search -------------------------------------------------------------


def test_wf_proof_search(loopy):
    t = wf_proof_search(loopy, J("a"), depth_bound=3)
    assert t is not None
    assert validate_proof_tree(loopy, t).ok
    assert t.root == J("a")
    assert wf_proof_search(loopy, J("a"), depth_bound=0) is None  # a is not an axiom
    assert wf_proof_search(loopy, J("c"), depth_bound=0) is not None
    assert wf_proof_search(loopy, J("zzz"), depth_bound=5) is None


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9))
def test_wf_search_decides_inductive_membership(seed):
    rng = random.Random(seed)
    system = random_system(rng, max_size=9)
    ind, _ = inductive(system)
    bound = len(system.universe)
    for j in system.universe:
        t = wf_proof_search(system, j, bound)
        assert (t is not None) == (j in ind)
        if t is not None:
            assert validate_proof_tree(system, t).ok
            assert t.root == j
            assert t.depth <= bound


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_wf_search_depth_bound_matches_iteration_level(seed):
    """A judgement has a proof of depth <= n exactly when it appears within
    the first n+1 ascending steps."""
    rng = random.Random(seed)
    system = random_system(rng, max_size=8)
    _, trace = inductive(system)
    for j in system.universe:
        for n in range(len(system.universe) + 1):
            present = wf_proof_search(system, j, n) is not None
            assert present == (j in trace.at(n + 1)), (j, n)


# -- approximated proofs --------------------------------------------------------------


def test_approx_proof_small(loopy):
    # closure = {a,b,c}; descent keeps everything (a<-c<-axiom supports a, b<-a)
    for n in range(4):
        t = approx_proof(loopy, J("b"), n)
        assert t is not None
        assert validate_approx_level(loopy, t, n).ok


def test_proof_queries_reject_bad_arguments(loopy):
    """A negative level raises ValueError before the judgement is looked up;
    a judgement outside the universe raises UniverseMismatch, except in
    wf_proof_search, which finds no proof of it."""
    for j in (J("a"), J("zzz")):
        with pytest.raises(ValueError, match="got -1"):
            approx_proof(loopy, j, -1)
        with pytest.raises(ValueError, match="got -1"):
            approximating_sequence(loopy, j, -1)
        with pytest.raises(ValueError, match="got -1"):
            wf_proof_search(loopy, j, -1)
    for n in (0, 2):
        with pytest.raises(UniverseMismatch):
            approx_proof(loopy, J("zzz"), n)
        with pytest.raises(UniverseMismatch):
            approximating_sequence(loopy, J("zzz"), n)
        assert wf_proof_search(loopy, J("zzz"), n) is None
    other = Universe(map(J, "abcd"))
    with pytest.raises(UniverseMismatch):
        proof_graph(loopy, other.subset(map(J, "abc")), J("a"))


def test_validate_approx_level_flags_shallow_coaxioms(loopy):
    # the coaxiom leaf b at depth 0 is fine at level 0 but not at level 1
    leaf = PathTree(J("b"))
    assert validate_approx_level(loopy, leaf, 0).ok
    verdict = validate_approx_level(loopy, leaf, 1)
    assert not verdict.ok
    assert verdict.witness == ()


def test_validation_of_a_deep_proof_reads_no_children(monkeypatch):
    """Both validators read each node's children from one index, never from
    PathTree.children, which scans every path once per node; so a
    2000-step chain validates in linear passes."""
    n = 2000
    chain = [J(f"c{i}") for i in range(n + 1)]
    rules = [Rule(chain[i + 1], (chain[i],)) for i in range(n)]
    proved = InferenceSystem(Universe(chain), [Rule(chain[0]), *rules])
    t = wf_proof_search(proved, chain[n], n)
    assert t is not None and t.depth == n
    coaxiomatic = InferenceSystem(Universe(chain), rules, [chain[0]])

    def no_children(self, path):
        raise AssertionError("PathTree.children called")

    monkeypatch.setattr(PathTree, "children", no_children)
    leaf = tuple(chain[n - 1 :: -1])
    assert validate_proof_tree(proved, t).ok
    assert validate_approx_level(proved, t, n + 1).ok
    assert validate_proof_tree(coaxiomatic, t) == Verdict(
        False, leaf, "no rule concludes c0 from ()"
    )
    assert validate_approx_level(coaxiomatic, t, n).ok
    assert validate_approx_level(coaxiomatic, t, n + 1) == Verdict(
        False, leaf, f"depth {n} < {n + 1} node rests on a coaxiom"
    )


def _random_tree(rng: random.Random, system: InferenceSystem, depth: int) -> PathTree:
    """A tree whose nodes mostly take one of their premise sets as children,
    else none (a leaf, which passes only for an axiom or a coaxiom), else
    labels drawn at random; now and then the root lies outside the universe."""
    members = list(system.universe)
    by_conclusion = premise_sets(system)

    def grow(c: Judgement, d: int) -> PathTree:
        sets = by_conclusion.get(c, ())
        r = rng.random()
        if d >= depth or r < 0.25:
            kids: Sequence[Judgement] = ()
        elif r < 0.8 and sets:
            kids = rng.choice(sets)
        else:
            kids = rng.sample(members, rng.randint(1, 2))
        return PathTree.branch(c, [grow(k, d + 1) for k in kids])

    return grow(J("zzz") if rng.random() < 0.05 else rng.choice(members), 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_validate_approx_level_verdicts_match_the_relaxed_system(seed):
    """Taking childless coaxioms as leaves gives every verdict, with its path
    and reason, that validating in the coaxioms-as-axioms system gave."""
    rng = random.Random(seed)
    system = random_system(rng, max_size=8)
    trees = [_random_tree(rng, system, depth=3) for _ in range(20)]
    trees += [t for j in system.universe for n in range(3) if (t := approx_proof(system, j, n))]
    for t in trees:
        for n in range(4):
            assert validate_approx_level(system, t, n) == relaxed_validate_approx_level(system, t, n)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_approx_proof_presence_matches_descent(seed):
    """approx_proof(j, n) exists exactly when j survives n descending steps
    from the closure, and the returned tree validates at its level."""
    rng = random.Random(seed)
    system = random_system(rng, max_size=8)
    beta = closure_of(system)
    _, descent = kernel_below(system, beta)
    for j in system.universe:
        for n in range(len(system.universe) + 1):
            t = approx_proof(system, j, n)
            assert (t is not None) == (j in descent.at(n))
            if t is not None:
                assert t.root == j
                assert validate_approx_level(system, t, n).ok


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_generated_iff_approx_proofs_at_every_level(seed):
    rng = random.Random(seed)
    system = random_system(rng, max_size=8)
    gen = generated(system)
    top = len(system.universe)
    for j in system.universe:
        all_levels = all(approx_proof(system, j, n) is not None for n in range(top + 1))
        assert all_levels == (j in gen)


# -- proof graphs ---------------------------------------------------------------------


def test_proof_graph_and_unfold(loopy):
    gen = generated(loopy)
    g = proof_graph(loopy, gen, J("a"))
    assert g.root == J("a")
    assert set(g.choice) == set(gen)
    t = unfold(g, 3)
    assert t.depth <= 3
    # every unfolded node's children are exactly its chosen premises
    for path in t.nodes():
        if len(path) < 3:
            assert t.children(path) == tuple(sorted(g.choice[t.label(path)]))
    d = g.to_dict()
    assert d["root"] == "a"
    assert set(d["choice"]) == {str(j) for j in gen}


def test_proof_graph_rejects_inconsistent_support(loopy):
    uni = loopy.universe
    # {a} alone: a's rules need b or c, neither inside
    with pytest.raises(NotConsistent) as exc:
        proof_graph(loopy, uni.subset([J("a")]), J("a"))
    assert exc.value.judgement == J("a")
    with pytest.raises(ValueError):
        proof_graph(loopy, uni.subset([J("c")]), J("a"))  # root outside support


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9))
def test_least_rules_match_a_direct_scan(seed):
    """Each member of a random set s, in order, with the first premise set of
    its rules that lies inside s, or None: consistent or not, s gets the
    same choice from ``_least_rules`` as from a scan of the table, and
    ``proof_graph`` fails on the least member the scan leaves unsupported."""
    rng = random.Random(seed)
    system = random_system(rng, max_size=10)
    uni = system.universe
    s = uni.subset(j for j in uni if rng.random() < 0.6)
    inside = {uni.position(j) for j in s}
    want = [
        (c, next((prs for prs in system._table.get(c, ()) if set(prs) <= inside), None))
        for c in sorted(inside)
    ]
    assert list(system._least_rules(s)) == want
    if not want:
        return
    unsupported = [c for c, prs in want if prs is None]
    root = uni.members[want[0][0]]
    if unsupported:
        with pytest.raises(NotConsistent) as exc:
            proof_graph(system, s, root)
        assert exc.value.judgement == uni.members[unsupported[0]]
    else:
        g = proof_graph(system, s, root)
        assert g.choice == {
            uni.members[c]: tuple(uni.members[p] for p in prs) for c, prs in want
        }


# -- level orders ----------------------------------------------------------------------


def _tree_strategy():
    judgements = [J(t) for t in "xyz"]

    def build(depth: int, rng: random.Random) -> PathTree:
        if depth == 0 or rng.random() < 0.4:
            return PathTree(rng.choice(judgements))
        k = rng.randint(1, 3)
        roots = rng.sample(judgements, k)
        return PathTree.branch(
            rng.choice(judgements),
            [_relabel(build(depth - 1, rng), r) for r in roots],
        )

    return build


def _relabel(t: PathTree, new_root: Judgement) -> PathTree:
    return PathTree(new_root, t.paths)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.integers(0, 4))
def test_level_order_laws(seed, n):
    rng = random.Random(seed)
    build = _tree_strategy()
    t1 = build(3, rng)
    t2 = build(3, rng)
    t3 = build(3, rng)
    assert tree_le_n(t1, t1, n)  # reflexive
    if tree_le_n(t1, t2, n) and tree_le_n(t2, t3, n):
        assert tree_le_n(t1, t3, n)  # transitive
    if tree_le_n(t1, t2, n):
        for k in range(n + 1):
            assert tree_le_n(t1, t2, k)  # downward monotone in the level
    # symmetric pair means equivalence
    assert tree_eq_n(t1, t2, n) == (tree_le_n(t1, t2, n) and tree_le_n(t2, t1, n))
    # at depth-exceeding levels the order is full equality of path sets
    deep = max(t1.depth, t2.depth)
    assert tree_eq_n(t1, t2, deep) == (
        t1.root == t2.root and t1.paths == t2.paths
    )


def test_le_is_conjunction_of_all_levels():
    a = PathTree.branch(J("r"), [PathTree(J("x"))])
    b = PathTree.branch(J("r"), [PathTree.branch(J("x"), [PathTree(J("y"))])])
    bound = max(a.depth, b.depth)
    assert all(tree_le_n(a, b, n) for n in range(bound + 1))
    assert not all(tree_le_n(b, a, n) for n in range(bound + 1))


# -- approximating sequences -------------------------------------------------------------


def test_approximating_sequence_on_loop(loopy):
    seq = approximating_sequence(loopy, J("b"), 3)
    assert len(seq) == 4
    for n, t in enumerate(seq):
        assert t.root == J("b")
        assert validate_approx_level(loopy, t, n).ok
        if n:
            assert tree_eq_n(seq[n - 1], t, n - 1)


def test_approximating_sequence_requires_generated():
    # pure cycle, no coaxioms: the closure is empty, nothing is generated
    uni = Universe([J("a"), J("b")])
    cycle = InferenceSystem(
        uni, [Rule(J("a"), (J("b"),)), Rule(J("b"), (J("a"),))], []
    )
    with pytest.raises(NotInGenerated):
        approximating_sequence(cycle, J("a"), 2)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 4))
def test_sequence_agrees_with_unfolded_proof_graph(seed, upto):
    """The level-N tree agrees with the N-deep unfolding of the canonical
    proof graph on the first N levels (both make the same canonical rule
    choice at every generated judgement)."""
    rng = random.Random(seed)
    system = random_system(rng, max_size=8)
    gen = generated(system)
    for j in gen:
        seq = approximating_sequence(system, j, upto)
        g = proof_graph(system, gen, j)
        t = unfold(g, upto)
        assert tree_eq_n(seq[upto], t, upto)
        break  # one judgement per system keeps the run fast


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_sequence_trees_validate_and_chain(seed):
    rng = random.Random(seed)
    system = random_system(rng, max_size=7)
    gen = generated(system)
    upto = 3
    for j in gen:
        seq = approximating_sequence(system, j, upto)
        for n, t in enumerate(seq):
            assert validate_approx_level(system, t, n).ok
            if n:
                assert tree_eq_n(seq[n - 1], t, n - 1)
        break


# -- the iterative builders against the recursive references --------------------------


def _shape(t):
    return None if t is None else (t.root, t.paths)


def test_approx_proofs_equal_the_recursive_builder_on_the_corpus():
    """Every approx_proof(s, j, n), 0 <= n <= |U| + 2, past the end of the
    descent, on the 500 acceptance systems is the tree the recursive
    builder stacks."""
    for seed in range(500):
        system = random_system(random.Random(seed), max_size=12)
        ref = RecursiveProofs(system)
        for j in system.universe:
            for n in range(len(system.universe) + 3):
                assert _shape(approx_proof(system, j, n)) == _shape(ref.approx(j, n)), (seed, j, n)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_wf_proofs_sequences_and_unfoldings_equal_the_references(seed):
    system = random_system(random.Random(seed), max_size=10)
    ref = RecursiveProofs(system)
    size = len(system.universe)
    for j in system.universe:
        for bound in range(size + 1):
            assert _shape(wf_proof_search(system, j, bound)) == _shape(ref.wf(j, bound))
    gen = generated(system)
    for j in gen:
        seq = approximating_sequence(system, j, size)
        assert list(map(_shape, seq)) == list(map(_shape, ref.sequence(j, size)))
        g = proof_graph(system, gen, j)
        for depth in range(6):
            assert _shape(unfold(g, depth)) == _shape(frontier_unfold(g, depth))


def _chain(length: int, coaxiom: bool = False) -> InferenceSystem:
    """c0 an axiom, c(i+1) <- c(i); with ``coaxiom``, c(length) also a coaxiom."""
    names = [J(f"c{i}") for i in range(length + 1)]
    rules = [Rule(names[0])] + [Rule(names[i + 1], (names[i],)) for i in range(length)]
    return InferenceSystem(Universe(names), rules, names[-1:] if coaxiom else [])


def _ring(length: int) -> InferenceSystem:
    """r(i) <- r(i+1 mod length), with r0 a coaxiom: every r(i) is generated."""
    names = [J(f"r{i}") for i in range(length)]
    rules = [Rule(names[i], (names[(i + 1) % length],)) for i in range(length)]
    return InferenceSystem(Universe(names), rules, names[:1])


def _comb(length: int) -> InferenceSystem:
    """g0 and every l(i) axioms, g(i) <- g(i-1) l(i), and t <- g(length-1):
    the proof of g(k) has 2k + 1 nodes and that of t 2 * length nodes, each
    g(i) above g0 with two children."""
    g = [J(f"g{i}") for i in range(length + 1)]
    leaves = [J(f"l{i}") for i in range(1, length + 1)]
    rules = [Rule(g[0]), *map(Rule, leaves), Rule(J("t"), (g[-2],))]
    rules += [Rule(g[i], (g[i - 1], leaves[i - 1])) for i in range(1, length + 1)]
    return InferenceSystem(Universe([*g, *leaves, J("t")]), rules, [])


def _frames() -> int:
    frame, count = sys._getframe(), 0
    while frame is not None:
        frame, count = frame.f_back, count + 1
    return count


def test_proofs_need_no_recursion():
    """Deep proofs build with the recursion limit a few dozen frames above
    the caller's: nothing recurses once per level."""
    chain, ring = _chain(600), _ring(3)
    coaxiom_chain = _chain(520, coaxiom=True)
    graph = proof_graph(ring, generated(ring), J("r1"))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frames() + 60)
    try:
        wf = wf_proof_search(chain, J("c600"), 600)
        level = approx_proof(ring, J("r1"), 200)
        cut = approx_proof(coaxiom_chain, J("c520"), 10)
        seq = approximating_sequence(coaxiom_chain, J("c520"), 3)
        unfolded = unfold(graph, 1500)
    finally:
        sys.setrecursionlimit(limit)
    assert (len(wf), wf.depth) == (601, 600)
    assert (len(level), level.depth) == (201, 200)  # the coaxiom r0 sits at the cut
    assert validate_approx_level(ring, level, 200)
    # the coaxiom c520 is the root, so below the cut c510's proof runs down to c0
    assert (len(cut), cut.depth) == (521, 520)
    assert [len(t) for t in seq] == [1, 521, 521, 521]
    assert (len(unfolded), unfolded.depth) == (1501, 1500)


def test_trees_past_the_node_cap_raise(monkeypatch):
    """A well-founded proof, an unfolding or a subtree below a cut of
    exactly TREE_NODE_CAP nodes is made, chains and branching trees alike;
    one node more raises CapExceeded.  Above a cut, the subtrees copied in
    one call count together."""
    graph = proof_graph(_ring(3), generated(_ring(3)), J("r1"))
    a, b = J("a"), J("b")
    branching = InferenceSystem(Universe([a, b]), [Rule(a, (a, b)), Rule(b, (a, b))], [a, b])
    # q <- r, r <- x y, and the rings x <- x, y <- y: unfolded to depth 5,
    # q's tree has 10 nodes and r's 11, r with two children
    q, r, x, y = map(J, "qrxy")
    forked = InferenceSystem(
        Universe([q, r, x, y]), [Rule(q, (r,)), Rule(r, (x, y)), Rule(x, (x,)), Rule(y, (y,))], [x, y]
    )
    comb = _comb(5)
    monkeypatch.setattr(prooftree, "TREE_NODE_CAP", 10)
    assert len(wf_proof_search(_chain(9), J("c9"), 9)) == 10
    assert len(wf_proof_search(comb, J("t"), 10)) == 10
    assert len(unfold(graph, 9)) == 10
    assert len(unfold(proof_graph(forked, generated(forked), q), 5)) == 10
    assert len(approx_proof(_chain(10, coaxiom=True), J("c10"), 1)) == 11  # c9's proof below
    assert len(approx_proof(branching, a, 2)) == 7  # copies 2 + 2 + 6 nodes
    with pytest.raises(CapExceeded, match="exceeds 10 nodes"):
        wf_proof_search(_chain(10), J("c10"), 10)
    with pytest.raises(CapExceeded, match="exceeds 10 nodes"):
        wf_proof_search(comb, J("g5"), 10)
    with pytest.raises(CapExceeded):
        unfold(graph, 10)
    with pytest.raises(CapExceeded):
        unfold(proof_graph(forked, generated(forked), r), 5)
    with pytest.raises(CapExceeded):
        approx_proof(_chain(11, coaxiom=True), J("c11"), 1)
    with pytest.raises(CapExceeded, match="exceeds 10 nodes"):
        approx_proof(branching, a, 3)


def test_a_level_past_the_node_cap_raises_before_a_subtree_is_copied(monkeypatch):
    """Above the cut, a level-n proof on a ring is chosen level by level from
    the top before its first subtree is copied; each position wanted at a
    level is a distinct node of the tree, so more of them than TREE_NODE_CAP
    raise at once, where a level of 10^8 took the memory of the machine."""
    ring = _ring(2)
    monkeypatch.setattr(prooftree, "TREE_NODE_CAP", 10)
    copies = []
    real = PathTree.branch
    monkeypatch.setattr(PathTree, "branch", lambda *args: copies.append(args) or real(*args))
    with pytest.raises(CapExceeded, match="exceeds 10 nodes"):
        approx_proof(ring, J("r0"), 100)
    assert copies == []


def test_an_approximated_proof_holds_two_levels_of_trees():
    """Above the cut, each level's trees are built from the level below and
    replace it: a level-300 proof on a 2-judgement ring, 301 nodes, peaks
    far below the 38 MiB that holding every (position, level) tree took."""
    ring = _ring(2)
    tracemalloc.start()
    try:
        tree = approx_proof(ring, J("r0"), 300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(tree), tree.depth) == (301, 300)
    assert peak < 5 * 2**20, f"peaked at {peak / 2**20:.1f} MiB"


def test_an_axiom_at_any_level_is_one_node_at_once():
    """The choice of levels from the top stops once no position is wanted,
    so an axiom at level 10^8 takes one choice, not one per level."""
    a = J("a")
    axiom = InferenceSystem(Universe([a]), [Rule(a)], [])
    started = time.perf_counter()
    tree = approx_proof(axiom, a, 10**8)
    assert time.perf_counter() - started < 1
    assert (tree.root, tree.paths) == (a, frozenset())


def test_stacking_past_the_copy_cap_names_the_tree_and_copies_nothing(monkeypatch):
    """A level-1420 proof on a 2-judgement ring has 1421 nodes, but stacking
    it copies 1420 * 1421 / 2 nodes, past TREE_NODE_CAP: the refusal names
    the tree's size and comes before the first subtree is copied."""
    copies = []
    real = PathTree.branch
    monkeypatch.setattr(PathTree, "branch", lambda *args: copies.append(args) or real(*args))
    with pytest.raises(CapExceeded) as exc:
        approx_proof(_ring(2), J("r0"), 1420)
    assert str(exc.value) == "stacking a 1421-node proof tree copies more than 1000000 nodes"
    assert copies == []


def test_a_sequence_counts_its_copies_together(monkeypatch):
    """approximating_sequence counts the copies of all its levels against
    TREE_NODE_CAP: on a 2-judgement ring, t_0..t_2 copy 5 nodes in all and
    t_0..t_3 copy 12, though no tree has more than 5 nodes."""
    ring = _ring(2)
    monkeypatch.setattr(prooftree, "TREE_NODE_CAP", 10)
    assert [len(t) for t in approximating_sequence(ring, J("r0"), 2)] == [1, 3, 3]
    copies = []
    real = PathTree.branch
    monkeypatch.setattr(PathTree, "branch", lambda *args: copies.append(args) or real(*args))
    with pytest.raises(CapExceeded) as exc:
        approximating_sequence(ring, J("r0"), 3)
    assert str(exc.value) == "stacking a 5-node proof tree copies more than 10 nodes"
    assert copies == []


def test_one_tree_construction_per_wf_proof_and_unfolding(monkeypatch):
    """wf_proof_search and unfold make their tree once, top down, with no
    intermediate trees."""
    made = []
    check = PathTree.__post_init__

    def counting(self) -> None:
        made.append(self)
        check(self)

    monkeypatch.setattr(PathTree, "__post_init__", counting)
    for seed in range(40):
        system = random_system(random.Random(seed), max_size=10)
        gen = generated(system)
        for j in system.universe:
            del made[:]
            t = wf_proof_search(system, j, len(system.universe))
            assert made == ([] if t is None else [t])
        for j in gen:
            for depth in (0, 3):
                del made[:]
                t = unfold(proof_graph(system, gen, j), depth)
                assert made == [t]


_FORMAT_WORDS = ("rule", "<-", "axiom", "coaxiom", "universe")


def _with_format_words(rng: random.Random, system: InferenceSystem) -> InferenceSystem:
    """The system with some judgements renamed to words of the system file
    format, which also moves them in the label order."""
    names = {j: j for j in system.universe}
    for j, word in zip(rng.sample(list(names), min(3, len(names))), rng.sample(_FORMAT_WORDS, 3)):
        names[j] = J(word)
    rename = names.__getitem__
    rules = [Rule(rename(r.conclusion), tuple(map(rename, r.premises))) for r in system.rules()]
    return InferenceSystem(Universe(names.values()), rules, map(rename, system.coaxioms))


def _verdict_by_walk(
    system: InferenceSystem, t: PathTree, leaves: Container[Judgement], n: int
) -> Verdict:
    """Both validators by their definition, over nodes() and children()."""
    shallow = Verdict(True)
    sets = premise_sets(system)
    for path in t.nodes():
        c, kids = t.label(path), t.children(path)
        if c not in system.universe:
            return Verdict(False, path, f"{c} is outside the universe")
        if kids in sets[c]:
            continue
        if kids or c not in leaves:
            return Verdict(False, path, f"no rule concludes {c} from {kids}")
        if shallow and len(path) < n:
            shallow = Verdict(False, path, f"depth {len(path)} < {n} node rests on a coaxiom")
    return shallow


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_node_list_trees_read_as_the_path_set_trees_they_stand_for(seed):
    """A proof or unfolding, held as its node list, prints, measures and
    validates as the PathTree that the public constructor builds from the
    same paths, and none of these builds its path set; it also compares,
    hashes and prints its repr as that tree does, and equals the tree the
    recursive builders make."""
    rng = random.Random(seed)
    system = _with_format_words(rng, random_system(rng, max_size=8))
    gen = generated(system)
    # the same universe without some of the rules, so that validation fails
    # at nodes all through the trees
    rules = list(system.rules())
    fewer = InferenceSystem(system.universe, rng.sample(rules, len(rules) // 2), system.coaxioms)
    recursive = RecursiveProofs(system)
    bound = len(system.universe)
    pairs = [(wf_proof_search(system, j, bound), recursive.wf(j, bound)) for j in system.universe]
    for j in gen:
        g = proof_graph(system, gen, j)
        # a graph made by hand may list a node's premises in any order, and repeat them
        scrambled = {c: prs[::-1] * 2 for c, prs in g.choice.items()}
        scrambled = ProofGraph(g.support, scrambled, j)
        for depth in (0, 1, 4):
            pairs += [(unfold(g, depth), frontier_unfold(g, depth))]
            pairs += [(unfold(scrambled, depth), frontier_unfold(g, depth))]

    def verdicts(t: PathTree, proof=validate_proof_tree, approx=validate_approx_level) -> list:
        levels = range(t.depth + 2)
        return [proof(s, t) for s in (system, fewer)] + [
            approx(s, t, n) for s in (system, fewer) for n in levels
        ]

    def readings(t: PathTree) -> list:
        printed = [t.render(), t.to_nested(), tree_json(t), tree_dot(t)]
        return [len(t), t.depth, *printed, *verdicts(t)]

    for t, want in pairs:
        if t is None:
            assert want is None
            continue
        got = readings(t)
        assert "paths" not in vars(t)
        same = PathTree(t.root, t.paths)
        assert got == readings(same)
        assert t == same and same == t and hash(t) == hash(same)
        assert t.paths == same.paths and repr(t) == repr(same)
        assert t == want
        assert verdicts(t) == verdicts(
            want,
            lambda s, u: _verdict_by_walk(s, u, (), 0),
            lambda s, u, n: _verdict_by_walk(s, u, s.coaxioms, n),
        )
