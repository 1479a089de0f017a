"""Regular (rational) term tests: equation systems, canonicalization,
bisimulation, subterms and carriers."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from coax import regular
from coax.regular import (
    Binding,
    EqSystem,
    ShapeMismatch,
    carrier,
    cycle_list,
    cycle_stream,
    finite_list,
    parse_eq_system,
)

from oracles import (
    bisim_equal,
    moore_bisim_classes,
    random_eq_system,
    random_list_term,
    rerooted,
    subterms,
    successors,
    unfold_term,
)


def test_construction_validates_shape():
    with pytest.raises(ValueError):
        EqSystem({}, "x")  # root unbound
    with pytest.raises(ValueError):
        EqSystem({"x": Binding("widget", ())}, "x")  # unknown constructor
    with pytest.raises(ValueError):
        EqSystem({"x": Binding("cons", (1,))}, "x")  # arity
    with pytest.raises(ValueError):
        EqSystem({"x": Binding("digit", (12, "x"))}, "x")  # digit range
    with pytest.raises(ValueError):
        EqSystem({"x": Binding("cons", (1, "ghost"))}, "x")
    with pytest.raises(ValueError):
        # tree labels must be atoms
        EqSystem({"x": Binding("tree", ("x", "x"))}, "x")
    with pytest.raises(ValueError):
        EqSystem(
            {
                "x": Binding("nil", ()),
                "orphan": Binding("nil", ()),  # unreachable
            },
            "x",
        )
    # every slot holds what the constructor table says: an integer atom (not
    # a bool), a state of one family, or either
    for bindings, message in (
        ({"x": Binding("cons", (1, 5))}, "x: argument 1 of cons must be a list state"),
        ({"x": Binding("digit", (1, 5))}, "x: argument 1 of digit must be a stream state"),
        ({"t": Binding("tree", (0, 5))}, "t: argument 1 of tree must be a list state"),
        (
            {"x": Binding("cons", (1, "y")), "y": Binding("digit", (2, "y"))},
            "x: argument 1 of cons must be a list state",
        ),
        (
            {"l": Binding("cons", ("t", "t")), "t": Binding("tree", (0, "l"))},
            "l: argument 1 of cons must be a list state",
        ),
        ({"x": Binding("cons", (True, "x"))}, "x: argument 0 of cons must be an integer atom or a state"),
        ({"x": Binding("digit", (True, "x"))}, "x: argument 0 of digit must be an integer atom"),
        ({"x": Binding("tree", ("x", "x"))}, "x: argument 0 of tree must be an integer atom"),
    ):
        with pytest.raises(ValueError) as exc:
            EqSystem(bindings, next(iter(bindings)))
        assert str(exc.value) == message


def test_family_and_views():
    ones = cycle_list([1])
    assert ones.family == "list"
    assert cycle_stream([3]).family == "stream"
    assert successors(ones, ones.root) == (ones.root,)
    assert ones[ones.root].tag == "cons"


def test_finite_list_shape():
    l = finite_list([1, 2])
    assert l.family == "list"
    walk = []
    state = l.root
    while l[state].tag == "cons":
        walk.append(l[state].args[0])
        state = l[state].args[1]
    assert walk == [1, 2]
    assert l[state].tag == "nil"


def test_canonical_merges_bisimilar_states():
    # 1::1::1::... written with two states collapses to one
    two = EqSystem(
        {
            "a": Binding("cons", (1, "b")),
            "b": Binding("cons", (1, "a")),
        },
        "a",
    )
    canon = two.canonical()
    assert len(canon.states) == 1
    assert canon.root == "s0"
    assert canon.to_text() == "s0 = cons 1 s0"
    assert bisim_equal(two, canon)


def test_canonical_is_idempotent_and_bfs_named():
    t = cycle_list([2, 1, 2])
    canon = t.canonical()
    assert canon.canonical() is canon
    assert list(canon.states)[0] == "s0"
    assert canon.root == "s0"


def _partition(classes: dict[str, int]) -> set[frozenset[str]]:
    groups: dict[int, set[str]] = {}
    for name, c in classes.items():
        groups.setdefault(c, set()).add(name)
    return set(map(frozenset, groups.values()))


def test_canonical_forms_equal_the_moore_reference(monkeypatch):
    """The refinement that re-signs only the states whose successors changed
    class finds the classes Moore's refinement finds, and so the same
    canonical text, on lists, lassos, digit streams and trees of lists."""
    terms = [random_eq_system(random.Random(seed)) for seed in range(500)]
    terms += [random_list_term(random.Random(seed)) for seed in range(300)]
    for t in terms:
        assert _partition(regular._bisim_classes(t.bindings)) == _partition(
            moore_bisim_classes(t.bindings)
        ), t
    fast = [t.canonical().to_text() for t in terms]
    monkeypatch.setattr(regular, "_bisim_classes", moore_bisim_classes)
    assert [t.canonical().to_text() for t in terms] == fast


def test_parse_round_trip():
    text = "r = cons 1 mid # prefix\nmid = cons -2 r"
    t = parse_eq_system(text)
    again = parse_eq_system(t.to_text())
    assert bisim_equal(t, again)
    assert t.to_text() == again.to_text()


def test_parse_rejects_bad_lines():
    with pytest.raises(ValueError):
        parse_eq_system("")
    with pytest.raises(ValueError):
        parse_eq_system("x cons 1 x")
    with pytest.raises(ValueError):
        parse_eq_system("x = cons 1 x\nx = nil")


@pytest.mark.parametrize("text", ["x = cons 1 5\n5 = nil", "x = cons 1 x\n5 = nil"])
def test_parse_rejects_numeric_state_names(text):
    """A numeric argument reads as an atom, so a state bound under a number
    could never be referenced; the binding line is named."""
    with pytest.raises(ValueError) as exc:
        parse_eq_system(text)
    assert str(exc.value) == "line 2: state name '5' is a number, which reads as an atom"


def test_bisim_equal_positive_negative():
    assert bisim_equal(cycle_list([1, 1]), cycle_list([1]))
    assert not bisim_equal(cycle_list([1, 2]), cycle_list([2, 1]))  #phase matters
    assert bisim_equal(cycle_list([1, 2]), cycle_list([1, 2, 1, 2]))
    assert not bisim_equal(finite_list([1]), cycle_list([1]))
    # a list and a stream of the same elements are different terms
    assert cycle_list([1]).family != cycle_stream([1]).family
    assert not bisim_equal(cycle_list([1]), cycle_stream([1]))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_bisim_matches_bounded_unfolding(seed):
    """bisim_equal agrees with comparing unfoldings to depth |a|*|b|+1."""
    rng = random.Random(seed)
    a = random_list_term(rng)
    b = random_list_term(rng)
    depth = (len(a.states) + 1) * (len(b.states) + 1)
    expected = unfold_term(a, a.root, depth) == unfold_term(b, b.root, depth)
    assert bisim_equal(a, b) == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_bisim_is_an_equivalence(seed):
    rng = random.Random(seed)
    terms = [random_list_term(rng) for _ in range(3)]
    for t in terms:
        assert bisim_equal(t, t)
    a, b, c = terms
    assert bisim_equal(a, b) == bisim_equal(b, a)
    if bisim_equal(a, b) and bisim_equal(b, c):
        assert bisim_equal(a, c)


def test_subterms_closed_under_children():
    t = parse_eq_system("r = cons 1 m\nm = cons 2 r")
    subs = subterms(t)
    texts = {s.to_text() for s in subs}
    for s in subs:
        for succ in successors(s, s.root):
            assert rerooted(s, succ).to_text() in texts


def test_subterms_of_finite_list():
    subs = subterms(finite_list([1, 2]))
    # [1,2], [2], [] - three distinct subterms
    assert len(subs) == 3


def test_carrier():
    assert carrier(cycle_list([1, -2, 1])) == frozenset({1, -2})
    assert carrier(finite_list([])) == frozenset()
    assert carrier(cycle_stream([7])) == frozenset({7})
    with pytest.raises(ShapeMismatch):
        carrier(
            EqSystem(
                {
                    "t": Binding("tree", (0, "l")),
                    "l": Binding("cons", ("t", "l")),
                },
                "t",
            )
        )


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_carrier_is_union_of_subterm_heads(seed):
    rng = random.Random(seed)
    t = random_list_term(rng)
    heads = set()
    for s in subterms(t):
        if s[s.root].tag == "cons":
            heads.add(s[s.root].args[0])
    assert carrier(t) == frozenset(heads)


def test_rerooted_unknown_state():
    with pytest.raises(ValueError):
        rerooted(finite_list([1]), "nope")
