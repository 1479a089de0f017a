"""Checker and brute-force oracle tests.

The brute-force enumerator, the hand-rolled oracle in tests/oracles.py and the
iteration engine are three independent computations of the same three sets;
these tests pit them against each other and make every failure witness
re-checkable on its own.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from coax.core import (
    InferenceSystem,
    Judgement,
    JudgementSet,
    Rule,
    Universe,
    coinductive,
    generated,
    inductive,
    infer_step,
)
from coax.prooftree import approx_proof
from coax.verify import (
    ORACLE_CAP_ENV,
    UniverseTooLarge,
    Verdict,
    bounded_coinduction,
    brute_force,
    check_closed,
    check_consistent,
    refute_level,
)

from oracles import naive_interpretations, premise_sets, random_system, rules_of


def J(text: str) -> Judgement:
    return Judgement(text)


@pytest.fixture
def loopy():
    uni = Universe(map(J, "abc"))
    rules = [
        Rule(J("a"), (J("b"),)),
        Rule(J("b"), (J("a"),)),
        Rule(J("c")),
    ]
    return InferenceSystem(uni, rules, [J("a")])


# -- closedness and consistency -------------------------------------------------


def test_check_closed_witness_recheckable(loopy):
    uni = loopy.universe
    assert check_closed(loopy, uni.full())
    verdict = check_closed(loopy, uni.subset([J("a"), J("b")]))  # c's axiom escapes
    assert not verdict.ok
    rule = verdict.witness
    s = uni.subset([J("a"), J("b")])
    assert all(p in s for p in rule.premises) and rule.conclusion not in s


def test_check_consistent_witness_recheckable(loopy):
    uni = loopy.universe
    assert check_consistent(loopy, uni.subset([J("a"), J("b")]))
    assert check_consistent(loopy, uni.empty())
    verdict = check_consistent(loopy, uni.subset([J("a")]))  # a needs b
    assert not verdict.ok
    j = verdict.witness
    assert j == J("a")
    s = uni.subset([J("a")])
    assert not any(
        all(p in s for p in prs) for prs in premise_sets(loopy)[j]
    )


def test_verdict_is_truthy():
    assert Verdict(True)
    assert not Verdict(False, None, "because")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_closed_and_consistent_means_fixed_point(seed):
    """Over every subset of a small universe: closed <-> F(s) subset of s,
    consistent <-> s subset of F(s), both <-> fixed point."""
    rng = random.Random(seed)
    system = random_system(rng, max_size=6)
    uni = system.universe
    for mask in range(1 << len(uni)):
        s = JudgementSet(uni, mask)
        fs = infer_step(system, s)
        assert bool(check_closed(system, s)) == fs.issubset(s)
        assert bool(check_consistent(system, s)) == s.issubset(fs)


# -- bounded coinduction ---------------------------------------------------------


def test_bounded_coinduction_on_loop(loopy):
    uni = loopy.universe
    gen = generated(loopy)
    assert bounded_coinduction(loopy, uni.subset([J("a"), J("b")]))
    assert uni.subset([J("a"), J("b")]).issubset(gen)
    # c is below the closure but {c,a} is not consistent-free of support? c is an
    # axiom so {c} is consistent and certifiable on its own
    assert bounded_coinduction(loopy, uni.subset([J("c")]))
    # a alone: below the closure but not consistent
    verdict = bounded_coinduction(loopy, uni.subset([J("a")]))
    assert not verdict.ok and verdict.witness == J("a")


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_bounded_coinduction_sound_exhaustively(seed):
    """For every subset s of a small universe: a passing verdict implies
    s is inside the generated interpretation (the principle is sound), and
    the generated set itself always passes."""
    rng = random.Random(seed)
    system = random_system(rng, max_size=6)
    uni = system.universe
    gen = generated(system)
    assert bounded_coinduction(system, gen)
    for mask in range(1 << len(uni)):
        s = JudgementSet(uni, mask)
        if bounded_coinduction(system, s):
            assert s.issubset(gen), s
        # no completeness claim: subsets of gen need not be consistent alone


# -- refutation levels ------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_refute_level_matches_approx_proofs(seed):
    rng = random.Random(seed)
    system = random_system(rng, max_size=7)
    gen = generated(system)
    for j in system.universe:
        n = refute_level(system, j)
        if j in gen:
            assert n is None
        else:
            assert n is not None
            assert approx_proof(system, j, n) is None
            if n > 0:
                assert approx_proof(system, j, n - 1) is not None


def test_refute_level_zero_outside_closure():
    uni = Universe([J("a"), J("b")])
    system = InferenceSystem(uni, [Rule(J("a"), (J("a"),))], [J("a")])
    # b is not even in the closure of the coaxioms
    assert refute_level(system, J("b")) == 0
    assert refute_level(system, J("a")) is None


# -- brute force -------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_brute_force_agrees_with_engine_and_naive_oracle(seed):
    rng = random.Random(seed)
    system = random_system(rng, max_size=8)
    res = brute_force(system)
    ind, _ = inductive(system)
    coind, _ = coinductive(system)
    assert res.mu == ind
    assert res.nu == coind
    assert res.gen == generated(system)
    mu, nu, gen = naive_interpretations(
        [str(j) for j in system.universe],
        rules_of(system),
        frozenset(str(j) for j in system.coaxioms),
    )
    assert frozenset(map(str, res.mu)) == mu
    assert frozenset(map(str, res.nu)) == nu
    assert frozenset(map(str, res.gen)) == gen


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_brute_force_fixed_points_are_exactly_closed_consistent(seed):
    rng = random.Random(seed)
    system = random_system(rng, max_size=6)
    res = brute_force(system)
    listed = {s.mask for s in res.fixed_points}
    uni = system.universe
    for mask in range(1 << len(uni)):
        s = JudgementSet(uni, mask)
        is_fixed = bool(check_closed(system, s)) and bool(check_consistent(system, s))
        assert (mask in listed) == is_fixed
    # sandwich: every fixed point sits between mu and nu
    for s in res.fixed_points:
        assert res.mu.issubset(s) and s.issubset(res.nu)


# -- caps ---------------------------------------------------------------------------


def _system_of_size(n: int) -> InferenceSystem:
    uni = Universe(J(f"j{i}") for i in range(n))
    return InferenceSystem(uni, [Rule(J("j0"))], [])


def test_brute_force_cap_reports_size_and_cap(monkeypatch):
    system = _system_of_size(5)
    monkeypatch.setenv(ORACLE_CAP_ENV, "4")
    with pytest.raises(UniverseTooLarge) as exc:
        brute_force(system)
    assert exc.value.size == 5 and exc.value.cap == 4
    monkeypatch.setenv(ORACLE_CAP_ENV, "5")
    assert brute_force(system).mu == system.universe.subset([J("j0")])


def test_brute_force_cap_env(monkeypatch):
    system = _system_of_size(5)
    monkeypatch.setenv(ORACLE_CAP_ENV, "4")
    with pytest.raises(UniverseTooLarge):
        brute_force(system)
    monkeypatch.setenv(ORACLE_CAP_ENV, "5")
    assert J("j0") in brute_force(system).mu
    monkeypatch.setenv(ORACLE_CAP_ENV, "not-a-number")
    with pytest.raises(ValueError):
        brute_force(system)
    monkeypatch.delenv(ORACLE_CAP_ENV)
    assert J("j0") in brute_force(system).mu  # default cap is 16
