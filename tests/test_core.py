"""Core engine tests: judgements, sets, the inference operator, fixed points,
closure/kernel/generated, and their lattice laws."""

import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

import coax.core as core
from coax.core import (
    BetaNotClosed,
    InferenceSystem,
    Judgement,
    JudgementSet,
    Rule,
    Universe,
    UniverseMismatch,
    closure_of,
    coinductive,
    generated,
    inductive,
    infer_step,
    kernel_below,
    with_coaxioms_as_axioms,
)
from coax.cli import emit_system
from coax.prooftree import approx_proof, approximating_sequence, wf_proof_search
from coax.verify import bounded_coinduction, check_closed, refute_level

from oracles import (
    is_deterministic,
    kleene_by_hand,
    literal_step,
    naive_interpretations,
    premise_sets,
    random_system,
    random_deterministic_system,
    restrict_to,
    rules_of,
    scan_refute_level,
    steps_by_hand,
)


def J(text: str) -> Judgement:
    return Judgement(text)


@pytest.fixture
def tiny():
    """a <- b, b <- a, c axiom, d <- c; coaxiom a."""
    uni = Universe(map(J, ["a", "b", "c", "d"]))
    rules = [Rule(J("a"), (J("b"),)), Rule(J("b"), (J("a"),)), Rule(J("c")), Rule(J("d"), (J("c"),))]
    return InferenceSystem(uni, rules, [J("a")])


# -- judgements and sets -------------------------------------------------------


def test_judgement_rejects_whitespace_and_empty():
    with pytest.raises(ValueError):
        Judgement("two words")
    with pytest.raises(ValueError):
        Judgement("")
    with pytest.raises(ValueError):
        Judgement("tab\tin")
    with pytest.raises(ValueError):
        Judgement("x#y")  # `#` starts a comment in the file format


def test_judgement_identity_is_text():
    assert J("x") == J("x")
    assert J("x") < J("y")
    assert str(J("p(a,{b})")) == "p(a,{b})"


def test_universe_orders_and_dedupes():
    uni = Universe(map(J, ["b", "a", "b"]))
    assert [str(j) for j in uni] == ["a", "b"]
    assert len(uni) == 2
    assert uni.position(J("a")) == 0
    with pytest.raises(UniverseMismatch):
        uni.position(J("zzz"))


def test_judgement_set_algebra():
    uni = Universe(map(J, "abcd"))
    s = uni.subset(map(J, "ab"))
    t = uni.subset(map(J, "bc"))
    assert [str(j) for j in (s | t)] == ["a", "b", "c"]
    assert [str(j) for j in (s & t)] == ["b"]
    assert [str(j) for j in (s - t)] == ["a"]
    assert [str(j) for j in uni.full() - s] == ["c", "d"]
    assert s <= uni.full()
    assert not (s <= t)
    assert uni.empty() <= s
    assert len(s) == 2 and J("a") in s and J("c") not in s
    # members are read off big masks in one pass, as a bit-by-bit scan reads them
    big = Universe._from_texts(f"j{i:05d}" for i in range(30_000))
    n = len(big)
    for mask in ((1 << n) - 1, sum(1 << i for i in range(0, n, 97)), 1 << (n - 1), 0):
        want = [i for i in range(n) if mask >> i & 1]
        got = JudgementSet(big, mask)
        assert got.texts() == [big.texts[i] for i in want]
        assert [j.text for j in got] == got.texts() and len(got) == len(want)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 300), max_size=40))
@example([])
def test_a_mask_is_built_as_the_per_bit_fold_builds_it(positions):
    fold = 0
    for p in positions:
        fold |= 1 << p
    assert core._mask(positions) == core._mask(iter(positions)) == fold
    assert core._bits(fold) == sorted(set(positions))


def test_judgement_sets_refuse_cross_universe_mixing():
    u1 = Universe(map(J, "ab"))
    u2 = Universe(map(J, "abc"))
    with pytest.raises(UniverseMismatch):
        u1.subset([J("a")]) | u2.subset([J("a")])


def test_rule_normalizes_premises():
    r = Rule(J("c"), (J("b"), J("a"), J("b")))
    assert r.premises == (J("a"), J("b"))
    assert r.premises
    assert Rule(J("c")).premises == ()


def test_system_rejects_judgements_outside_universe():
    uni = Universe(map(J, "ab"))
    with pytest.raises(UniverseMismatch):
        InferenceSystem(uni, [Rule(J("z"))])
    with pytest.raises(UniverseMismatch):
        InferenceSystem(uni, [Rule(J("a"), (J("z"),))])


def test_system_premise_sets_are_sorted_and_deduped():
    uni = Universe(map(J, "abc"))
    rules = [
        Rule(J("c"), (J("b"),)),
        Rule(J("c"), (J("a"),)),
        Rule(J("c"), (J("a"),)),  # duplicate
        Rule(J("c")),
    ]
    s = InferenceSystem(uni, rules)
    assert premise_sets(s)[J("c")] == ((), (J("a"),), (J("b"),))
    assert s.rule_count == 3
    assert not is_deterministic(s)


@settings(max_examples=300, deadline=None)
@given(st.text(st.one_of(st.sampled_from("\x1c\x85\xa0\u3000 \t#"), st.characters()), max_size=4))
@example("\x1c")
@example("a\x85")
@example("\xa0b")
@example("a b")
def test_judgement_accepts_exactly_the_nonempty_tokens(text):
    valid = bool(text) and "#" not in text and not any(ch.isspace() for ch in text)
    try:
        Judgement(text)
    except ValueError:
        assert not valid
    else:
        assert valid


def _judgement_error(text: str) -> str | None:
    try:
        Judgement(text)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.text(st.sampled_from("ab,(\x00\x85\u3000 \t#"), max_size=3), max_size=8),
    st.lists(st.integers(0, 7), max_size=4),
)
@example(["b", "", "a b"], [])
@example(["b", "x y", ""], [])
@example(["c", "a\tb", "a b"], [])
@example(["a\x85", "b"], [])
@example(["b", "\u3000"], [])
@example(["zz", "a#b", "#"], [])
@example(["b", "a", "b", "a,(\x00"], [0, 3])
def test_universe_from_texts_is_the_universe_of_their_judgements(texts, repeats):
    """Universe._from_texts checks every text as Judgement does, and
    raises Judgement's own error for the first bad text in input order;
    otherwise it is the universe of the texts' Judgements in every part."""
    texts = texts + [texts[i % len(texts)] for i in repeats if texts]
    first_error = next(filter(None, map(_judgement_error, texts)), None)
    if first_error is not None:
        with pytest.raises(ValueError) as raised:
            Universe._from_texts(texts)
        assert str(raised.value) == first_error
        return
    by_text = Universe._from_texts(texts)
    by_judgement = Universe(map(Judgement, texts))
    assert by_text.texts == by_judgement.texts == tuple(sorted(set(texts)))
    assert by_text._index == by_judgement._index
    assert hash(by_text) == hash(by_judgement)
    assert by_text == by_judgement and by_judgement == by_text
    assert by_text.members == by_judgement.members == tuple(map(Judgement, by_text.texts))


def test_universe_makes_its_judgements_on_first_read():
    uni = Universe._from_texts(["b", "a"])
    assert uni._members is None and len(uni) == 2 and uni.full().texts() == ["a", "b"]
    assert uni.members == (J("a"), J("b")) and uni.members is uni.members
    assert list(uni.subset([J("b")])) == [J("b")]


def test_universe_keeps_the_judgements_it_is_given(monkeypatch):
    given_ones = [J("b"), J("a"), J("b")]
    made = []
    monkeypatch.setattr(Judgement, "__post_init__", lambda self: made.append(self))
    uni = Universe(given_ones)
    assert made == [] and uni._members is not None
    assert uni.members == (J("a"), J("b"))
    assert uni.members[0] is given_ones[1] and uni.members[1] is given_ones[2]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_rule_storage_matches_sorted_distinct_rules(seed):
    """However the rules arrive (shuffled, duplicated, or with unsorted
    repeated premises), the system serves the sorted distinct Rule objects,
    and emits them one per line in that order."""
    rng = random.Random(seed)
    system = random_system(rng)
    uni, coax = system.universe, system.coaxioms
    given_rules = list(system.rules()) * 2
    rng.shuffle(given_rules)
    reference = sorted(set(given_rules))
    scrambled = []
    for r in given_rules:
        premises = list(r.premises) * rng.randint(1, 2)
        rng.shuffle(premises)
        scrambled.append(Rule(r.conclusion, tuple(premises)))
    members = [str(j) for j in uni]
    lines = ["universe " + " ".join(members[i : i + 8]) for i in range(0, len(members), 8)]
    lines += [str(r) for r in reference] + [f"coaxiom {c}" for c in coax]
    for built in (InferenceSystem(uni, given_rules, coax), InferenceSystem(uni, scrambled, coax)):
        assert list(built.rules()) == reference
        assert built.rule_count == len(reference)
        sets = premise_sets(built)
        for j in uni:
            assert sets[j] == tuple(r.premises for r in reference if r.conclusion == j)
        assert emit_system(built) == "\n".join(lines) + "\n"


# -- the inference operator ---------------------------------------------------


def test_infer_step_matches_literal_definition(tiny):
    uni = tiny.universe
    rules = rules_of(tiny)
    for mask in range(1 << len(uni)):
        s = JudgementSet(uni, mask)
        expect = literal_step(rules, frozenset(str(j) for j in s))
        got = frozenset(str(j) for j in infer_step(tiny, s))
        assert got == expect


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.integers(0, 10**9))
def test_infer_step_monotone(seed, subset_seed):
    rng = random.Random(seed)
    system = random_system(rng, max_size=10)
    srng = random.Random(subset_seed)
    uni = system.universe
    small_mask = srng.getrandbits(len(uni))
    extra = srng.getrandbits(len(uni))
    small = JudgementSet(uni, small_mask)
    large = JudgementSet(uni, small_mask | extra)
    assert infer_step(system, small) <= infer_step(system, large)


def test_with_coaxioms_as_axioms_pointwise(tiny):
    relaxed = with_coaxioms_as_axioms(tiny)
    uni = tiny.universe
    for mask in range(1 << len(uni)):
        s = JudgementSet(uni, mask)
        assert infer_step(relaxed, s) == infer_step(tiny, s) | tiny.coaxioms
    assert len(relaxed.coaxioms) == 0


def test_restrict_to_pointwise(tiny):
    uni = tiny.universe
    keep = uni.subset(map(J, ["a", "c"]))
    restricted = restrict_to(tiny, keep)
    for mask in range(1 << len(uni)):
        s = JudgementSet(uni, mask)
        assert infer_step(restricted, s) == infer_step(tiny, s) & keep
    assert restricted.coaxioms == tiny.coaxioms


# -- fixed points --------------------------------------------------------------


def test_tiny_interpretations(tiny):
    ind, _ = inductive(tiny)
    coind, _ = coinductive(tiny)
    assert sorted(map(str, ind)) == ["c", "d"]
    # a and b sustain each other coinductively
    assert sorted(map(str, coind)) == ["a", "b", "c", "d"]
    gen = generated(tiny)
    assert sorted(map(str, gen)) == ["a", "b", "c", "d"]


def test_trace_shape(tiny):
    _, trace = inductive(tiny)
    steps = tuple(trace)
    assert steps[-1] == steps[-2]
    assert len(trace) <= len(tiny.universe) + 1
    assert trace.at(0) == tiny.universe.empty()
    assert trace.at(10**6) == trace.result
    with pytest.raises(ValueError):
        trace.at(-1)
    empty = tiny.universe.empty()
    with pytest.raises(ValueError):
        # a trace records one step per position of its universe
        type(trace)(empty, [0] * (len(tiny.universe) - 1), empty)
    with pytest.raises(UniverseMismatch):
        type(trace)(empty, [0] * len(tiny.universe), Universe([J("a")]).empty())


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_traces_are_exact_kleene_chains(seed):
    """Every recorded ascending/descending step equals one application of the
    operator to the previous step - the engine takes no shortcuts.  Every
    trace's steps, its stabilization witness included, and every iterate
    ``at(n)``, past the end too, equal the chain iterated by hand on plain
    sets."""
    rng = random.Random(seed)
    system = random_system(rng, max_size=11)
    _, up = inductive(system)
    steps = tuple(up)
    for a, b in zip(steps, steps[1:-1]):
        assert infer_step(system, a) == b
    _, down = coinductive(system)
    steps = tuple(down)
    for a, b in zip(steps, steps[1:-1]):
        assert infer_step(system, a) == b
    assert len(up) <= len(system.universe) + 1
    assert len(down) <= len(system.universe) + 1

    uni, rules = system.universe, rules_of(system)
    relaxed = rules + [(c, frozenset()) for c in system.coaxioms.texts()]
    closure = kleene_by_hand(relaxed, frozenset())[-1]
    seeded_up, analysis_down = system._analyze()
    for trace, trace_rules, start in [
        (up, rules, frozenset()),
        (down, rules, frozenset(uni.texts)),
        (kernel_below(system, closure_of(system))[1], rules, closure),
        (seeded_up, relaxed, frozenset()),
        (analysis_down, rules, closure),
    ]:
        chain = [uni.subset(map(J, s)) for s in kleene_by_hand(trace_rules, start)]
        assert tuple(trace) == (*chain, chain[-1])
        assert len(trace) == len(chain) and trace.result == chain[-1]
        for n in range(len(trace) + 2):
            assert trace.at(n) == chain[min(n, len(chain) - 1)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_fixed_points_match_hand_rolled_kleene(seed):
    rng = random.Random(seed)
    system = random_system(rng, max_size=11)
    rules = rules_of(system)
    universe = [str(j) for j in system.universe]
    ind, _ = inductive(system)
    assert frozenset(map(str, ind)) == kleene_by_hand(rules, frozenset())[-1]
    coind, _ = coinductive(system)
    assert frozenset(map(str, coind)) == kleene_by_hand(rules, frozenset(universe))[-1]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_knaster_tarski_exhaustive(seed):
    """Ind is the meet of all pre-fixed points, CoInd the join of all
    post-fixed points, enumerated exhaustively."""
    rng = random.Random(seed)
    system = random_system(rng, max_size=8)
    rules = rules_of(system)
    universe = [str(j) for j in system.universe]
    mu, nu, _ = naive_interpretations(universe, rules, frozenset())
    assert frozenset(map(str, inductive(system)[0])) == mu
    assert frozenset(map(str, coinductive(system)[0])) == nu


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_deterministic_meet_distribution(seed):
    """For systems with at most one rule per conclusion the operator
    distributes over intersections."""
    rng = random.Random(seed)
    system = random_deterministic_system(rng, max_size=9)
    assert is_deterministic(system)
    uni = system.universe
    for _ in range(30):
        a = JudgementSet(uni, rng.getrandbits(len(uni)))
        b = JudgementSet(uni, rng.getrandbits(len(uni)))
        assert infer_step(system, a & b) == infer_step(system, a) & infer_step(system, b)


# -- closure, kernel, generated --------------------------------------------------


def test_closure_contains_coaxioms_and_is_closed(tiny):
    beta = closure_of(tiny)
    assert tiny.coaxioms <= beta
    assert infer_step(tiny, beta) <= beta
    assert sorted(map(str, beta)) == ["a", "b", "c", "d"]


def test_kernel_below_requires_closed_bound(tiny):
    uni = tiny.universe
    not_closed = uni.subset([J("c")])  # F adds d
    with pytest.raises(BetaNotClosed) as exc:
        kernel_below(tiny, not_closed)
    assert exc.value.conclusion == J("d")
    # the witness is genuine: one step from the bound leaves it
    assert J("d") in infer_step(tiny, not_closed)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_kernel_below_and_check_closed_name_the_same_escape(seed):
    """On random sets, kernel_below raises BetaNotClosed exactly when
    check_closed refuses the set, and names the conclusion of check_closed's
    witness: the least judgement that one inference step adds."""
    rng = random.Random(seed)
    system = random_system(rng, max_size=11)
    for _ in range(20):
        s = JudgementSet(system.universe, rng.getrandbits(len(system.universe)))
        verdict = check_closed(system, s)
        escaped = infer_step(system, s) - s
        assert verdict.ok == (not escaped)
        if verdict.ok:
            kernel_below(system, s)
            continue
        with pytest.raises(BetaNotClosed) as exc:
            kernel_below(system, s)
        assert exc.value.conclusion == verdict.witness.conclusion == next(iter(escaped))


def test_kernel_below_is_greatest_fixed_point_below(tiny):
    beta = closure_of(tiny)
    result, trace = kernel_below(tiny, beta)
    assert result <= beta
    assert infer_step(tiny, result) == result
    assert tuple(trace)[0] == beta


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.integers(0, 7))
def test_kernel_invariant_under_pre_descent(seed, n):
    """Descending the bound n steps first never changes the kernel."""
    rng = random.Random(seed)
    system = random_system(rng, max_size=10)
    beta = closure_of(system)
    expected, _ = kernel_below(system, beta)
    stepped = beta
    for _ in range(n):
        stepped = infer_step(system, stepped) & stepped
    # each descent step of a closed set is closed again
    got, _ = kernel_below(system, stepped)
    assert got == expected


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9))
def test_generated_laws(seed):
    """Gen with empty coaxioms is Ind; with the full universe it is CoInd;
    Gen is monotone in the coaxiom set; a fixed point used as the coaxiom set
    is returned unchanged."""
    rng = random.Random(seed)
    system = random_system(rng, max_size=10)
    uni = system.universe
    rules = list(system.rules())

    none = InferenceSystem(uni, rules, None)
    assert generated(none) == inductive(none)[0]

    everything = InferenceSystem(uni, rules, uni.full())
    assert generated(everything) == coinductive(everything)[0]

    small_mask = rng.getrandbits(len(uni))
    large_mask = small_mask | rng.getrandbits(len(uni))
    small = InferenceSystem(uni, rules, JudgementSet(uni, small_mask))
    large = InferenceSystem(uni, rules, JudgementSet(uni, large_mask))
    assert generated(small) <= generated(large)

    z = coinductive(system)[0]  # a known fixed point
    assert generated(InferenceSystem(uni, rules, z)) == z


def test_generated_two_paths_cross_checked(tiny):
    # descent from the closure == coinductive interpretation of the system
    # restricted to the closure; test_acceptance_05 checks it on the corpus
    gen = generated(tiny)
    beta = closure_of(tiny)
    alt, _ = coinductive(restrict_to(tiny, beta))
    assert gen == alt


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_analysis_chains_match_the_rebuilt_systems(seed):
    """The analysis' ascending chain, with the coaxioms entering at step 1,
    is step for step the inductive chain of the coaxioms-as-axioms system;
    its descending chain is kernel_below's from that closure."""
    system = random_system(random.Random(seed), max_size=11)
    up, down = system._analyze()
    _, relaxed_up = inductive(with_coaxioms_as_axioms(system))
    assert tuple(up) == tuple(relaxed_up)
    assert closure_of(system) == relaxed_up.result
    assert tuple(down) == tuple(kernel_below(system, relaxed_up.result)[1])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_engines_record_entry_and_death_steps(seed):
    """The entry steps of the plain and the coaxiom-seeded ascent and the
    death steps of the descent from the closure equal those of the chains
    iterated by hand; refute_level equals a scan of the descent."""
    system = random_system(random.Random(seed), max_size=11)
    plain, seeded, dead = steps_by_hand(system)
    up, down = system._analyze()
    assert system._ascend().record == plain
    assert up.record == seeded
    assert down.record == dead
    for j in system.universe:
        assert refute_level(system, j) == scan_refute_level(system, j)


def _peak_mb(engine, system) -> float:
    tracemalloc.start()
    try:
        engine(system)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_long_chains_are_kept_in_memory_linear_in_the_universe():
    """A trace keeps one record entry per position, not one mask per step:
    on a 20,000-step chain each engine peaks at a few MB, where the step
    masks alone would take 20,000 x 2.5 kB."""
    n = 20_000
    uni = Universe._from_texts(f"c{i:05d}" for i in range(n + 1))
    chain = {i + 1: [(i,)] for i in range(n)}  # c(i+1) <- c(i)
    with_axiom = InferenceSystem._from_table(uni, {0: [()], **chain})
    without_axiom = InferenceSystem._from_table(uni, chain)  # one judgement dies per step
    assert _peak_mb(inductive, with_axiom) <= 10
    assert _peak_mb(generated, with_axiom) <= 10
    assert _peak_mb(coinductive, without_axiom) <= 10
    assert len(inductive(with_axiom)[1]) == len(coinductive(without_axiom)[1]) == n + 2
    assert generated(with_axiom) == uni.full() and not coinductive(without_axiom)[0]


def test_analysis_is_computed_once_per_system(tiny, monkeypatch):
    calls = {"up": 0, "down": 0}
    ascend, descend = core._ascending_trace, core._descending_trace

    def counting_ascend(*args):
        calls["up"] += 1
        return ascend(*args)

    def counting_descend(*args):
        calls["down"] += 1
        return descend(*args)

    monkeypatch.setattr(core, "_ascending_trace", counting_ascend)
    monkeypatch.setattr(core, "_descending_trace", counting_descend)
    for _ in range(2):
        generated(tiny)
        closure_of(tiny)
        approx_proof(tiny, J("a"), 3)
        approximating_sequence(tiny, J("a"), 2)
        refute_level(tiny, J("b"))
        bounded_coinduction(tiny, tiny.universe.empty())
    assert calls == {"up": 1, "down": 1}


def test_plain_ascent_is_computed_once_per_system(tiny, monkeypatch):
    """inductive and wf_proof_search share one ascending chain per system."""
    calls = []
    ascend = core._ascending_trace

    def counting_ascend(*args):
        calls.append(args)
        return ascend(*args)

    monkeypatch.setattr(core, "_ascending_trace", counting_ascend)
    traces = [inductive(tiny)[1] for _ in range(2)]
    for j in tiny.universe:
        wf_proof_search(tiny, j, len(tiny.universe))
    assert len(calls) == 1 and traces[0] is traces[1]
