"""Acceptance gate: end-to-end checks of the full pipeline on the bundled
judgement families and on large random corpora, each with an explicit time
budget and a printed one-line verdict.

Run with `pytest -v -s tests/test_acceptance.py` to see the PASS lines.
"""

import time

from coax.core import (
    InferenceSystem,
    Judgement,
    Rule,
    Universe,
    closure_of,
    coinductive,
    generated,
    inductive,
    kernel_below,
    with_coaxioms_as_axioms,
)
from coax.prooftree import PathTree, approx_proof, approximating_sequence, validate_approx_level
from coax.regular import Binding, EqSystem, cycle_list, cycle_stream
from coax.systems import (
    build_add,
    build_bigstep,
    build_dist,
    build_first,
    build_path0,
    build_reach,
    build_spath,
    parse_graph,
    parse_lambda,
    term_text,
)
from coax.verify import bounded_coinduction, brute_force, refute_level

import random

from oracles import (
    build_list_preds,
    classical_first,
    kleene_by_hand,
    literal_step,
    nx_distances,
    random_grammar,
    random_graph,
    random_system,
    restrict_to,
    rules_of,
    scan_refute_level,
    steps_by_hand,
)

CORPUS_SEEDS = range(500)


def _corpus_system(seed: int) -> InferenceSystem:
    return random_system(random.Random(seed), max_size=12)


def _report(label: str, started: float, budget: float | None = None) -> None:
    elapsed = time.perf_counter() - started
    if budget is not None:
        assert elapsed < budget, f"{label}: took {elapsed:.2f}s, budget {budget}s"
    print(f"PASS {label} ({elapsed:.2f}s)")


def _texts(js) -> frozenset[str]:
    return frozenset(str(j) for j in js)


def test_acceptance_01_reach_iteration_phases_and_generated_set():
    started = time.perf_counter()
    system = build_reach(parse_graph("edge a b\nedge b a\nnode c\n"))

    closure, up = inductive(with_coaxioms_as_axioms(system))
    line1 = frozenset({"reach(a,{})", "reach(b,{})", "reach(c,{})", "reach(c,{c})"})
    line2 = line1 | {"reach(a,{a})", "reach(b,{b})"}
    line3 = line2 | {"reach(a,{a,b})", "reach(b,{a,b})"}
    steps = [_texts(s) for s in up]
    assert steps[0] == frozenset()
    assert steps[1] == line1
    assert steps[2] == line2
    assert steps[3] == line3
    assert steps[4] == line3  # closed after three productive iterations
    assert _texts(closure) == line3

    gen, down = kernel_below(system, closure)
    down1 = frozenset(
        {"reach(c,{c})", "reach(a,{a})", "reach(b,{b})", "reach(a,{a,b})", "reach(b,{a,b})"}
    )
    down2 = frozenset({"reach(c,{c})", "reach(a,{a,b})", "reach(b,{a,b})"})
    dsteps = [_texts(s) for s in down]
    assert dsteps[0] == line3
    assert dsteps[1] == down1
    assert dsteps[2] == down2
    assert dsteps[3] == down2  # consistent after two removals
    assert _texts(gen) == down2
    assert _texts(generated(system)) == down2
    _report("1/10 reachability: iteration lines and generated set exact", started, 1.0)


def test_acceptance_02_stream_of_ones_predicates():
    started = time.perf_counter()
    ones = cycle_list([1])
    preds = build_list_preds(ones, 2)
    member = _texts(generated(preds["member"]))
    assert "member(2,s0,F)" in member and "member(2,s0,T)" not in member
    allpos = _texts(generated(preds["allpos"]))
    assert "allpos(s0,T)" in allpos and "allpos(s0,F)" not in allpos
    elems = _texts(generated(preds["elems"]))
    assert elems == {"elems(s0,{1})"}
    _report("2/10 infinite list of ones: predicate filtering exact", started, 1.0)


def test_acceptance_03_digit_stream_addition():
    started = time.perf_counter()
    zeros = cycle_stream([0])
    nines = cycle_stream([9])

    borrow = build_add(zeros, zeros, nines)
    assert _texts(generated(borrow)) == {"add(s0,s0,s0,-1)"}

    double_nines = build_add(nines, nines, zeros)
    assert _texts(generated(double_nines)) == {"add(s0,s0,s0,2)"}

    wrong = build_add(zeros, zeros, zeros)
    bad = Judgement("add(s0,s0,s0,1)")
    assert bad not in generated(wrong)
    level = refute_level(wrong, bad)
    assert level is not None and level == 1
    _report("3/10 digit stream addition: carries -1 and 2, finite refutation", started, 1.0)


def test_acceptance_04_divergent_self_application():
    started = time.perf_counter()
    delta = parse_lambda(r"\x. x x")
    goal = parse_lambda(r"(\x. x x) (\x. x x)")
    system = build_bigstep(goal)
    gen = generated(system)
    texts = _texts(gen)

    d = term_text(delta)
    j_inf = Judgement(f"eval({term_text(goal)},inf)")
    j_val = Judgement(f"eval({d},{d})")
    assert str(j_inf) in texts
    assert not any(t.startswith(f"eval({term_text(goal)},abs") for t in texts)

    seq = approximating_sequence(system, j_inf, 2)
    for n, t in enumerate(seq):
        assert validate_approx_level(system, t, n).ok
    # level 0: the divergence claim itself, by coaxiom at the root
    assert seq[0] == PathTree(j_inf)
    # level 1: one application step, the coaxiom pushed to depth 1
    assert seq[1].children(()) == (j_val, j_inf)
    assert seq[1].subtree((j_inf,)) == PathTree(j_inf)
    # level 2: two application steps, the coaxiom at depth 2
    assert (j_inf, j_inf) in seq[2].paths
    assert seq[2].subtree((j_inf, j_inf)) == PathTree(j_inf)
    assert seq[2].subtree((j_inf, j_val)) == PathTree(j_val)
    _report("4/10 divergent self-application: inf only, level-0/1/2 trees", started, 1.0)


def test_acceptance_05_engine_equals_brute_force_on_500_systems():
    started = time.perf_counter()
    checked = 0
    for seed in CORPUS_SEEDS:
        system = _corpus_system(seed)
        res = brute_force(system)
        assert inductive(system)[0] == res.mu, seed
        assert coinductive(system)[0] == res.nu, seed
        gen = generated(system)
        assert gen == res.gen, seed

        # the two characterizations of the generated set: descent from the
        # closure, and the coinductive interpretation of the system restricted
        # to conclusions inside the closure
        beta = closure_of(system)
        assert kernel_below(system, beta)[0] == coinductive(restrict_to(system, beta))[0], seed

        uni = system.universe
        rules = list(system.rules())
        no_coax = InferenceSystem(uni, rules, [])
        assert generated(no_coax) == inductive(system)[0], seed
        all_coax = InferenceSystem(uni, rules, list(uni))
        assert generated(all_coax) == coinductive(system)[0], seed

        # growing the coaxiom set can only grow the generated set
        rng = random.Random(seed + 10**9)
        bigger = list(system.coaxioms) + [j for j in uni if rng.random() < 0.3]
        assert gen.issubset(generated(InferenceSystem(uni, rules, bigger))), seed
        checked += 1
    assert checked == 500
    _report("5/10 engine = brute force on 500 random systems, plus limit laws", started, 60.0)


def test_acceptance_06_approximated_proofs_exist_exactly_on_descent():
    started = time.perf_counter()
    for seed in CORPUS_SEEDS:
        system = _corpus_system(seed)
        rules = rules_of(system)
        relaxed_rules = rules_of(with_coaxioms_as_axioms(system))
        closure = kleene_by_hand(relaxed_rules, frozenset())[-1]
        level = closure
        for n in range(len(system.universe) + 1):
            for j in system.universe:
                present = approx_proof(system, j, n) is not None
                assert present == (str(j) in level), (seed, str(j), n)
            level = literal_step(rules, level)
    _report("6/10 approximated proof of level n iff n descents survive, same corpus", started)


def test_acceptance_engine_records_entry_and_death_steps_on_500_systems():
    started = time.perf_counter()
    for seed in CORPUS_SEEDS:
        system = _corpus_system(seed)
        plain, seeded, dead = steps_by_hand(system)
        up, down = system._analyze()
        assert system._ascend().record == plain, seed
        assert up.record == seeded, seed
        assert down.record == dead, seed
        for j in system.universe:
            assert refute_level(system, j) == scan_refute_level(system, j), (seed, str(j))
    _report("entry and death steps = hand-iterated chains, same corpus", started)


def test_acceptance_07_bounded_coinduction_sound_for_all_subsets():
    started = time.perf_counter()
    from coax.core import JudgementSet

    for seed in range(25):
        system = random_system(random.Random(seed), max_size=10)
        gen = generated(system)
        uni = system.universe
        for mask in range(1 << len(uni)):
            s = JudgementSet(uni, mask)
            if bounded_coinduction(system, s):
                assert s.issubset(gen), (seed, mask)
    _report("7/10 bounded coinduction sound on every subset of 25 systems", started)


def test_acceptance_08_distances_and_paths_on_100_graphs():
    started = time.perf_counter()
    for seed in range(100):
        rng = random.Random(seed)
        g = random_graph(rng, max_nodes=8)
        truth = nx_distances(g)

        dist_sys = build_dist(g)
        expected = {
            f"dist({v},{u},{'inf' if truth[(v, u)] is None else truth[(v, u)]})"
            for v in g.nodes
            for u in g.nodes
        }
        assert _texts(generated(dist_sys)) == expected, seed

        spath_sys = build_spath(g)
        seen_pairs = set()
        for text in _texts(generated(spath_sys)):
            body = text[len("spath(") : -1]
            v, u, rest = body.split(",", 2)
            path_part, d = rest.rsplit(",", 1)
            assert (v, u) not in seen_pairs, (seed, v, u)
            seen_pairs.add((v, u))
            if truth[(v, u)] is None:
                assert (path_part, d) == ("bot", "inf"), (seed, text)
                continue
            assert int(d) == truth[(v, u)], (seed, text)
            steps = path_part[1:-1].split(",")
            assert steps[0] == v and steps[-1] == u
            assert sum(g.weight(x, y) for x, y in zip(steps, steps[1:])) == int(d)
            assert all(y in g.adj[x] for x, y in zip(steps, steps[1:]))
        assert len(seen_pairs) == len(g.nodes) ** 2, seed
    _report("8/10 dist/spath equal Dijkstra on 100 weighted digraphs", started, 30.0)


def test_acceptance_09_first_sets_are_the_classical_function():
    started = time.perf_counter()
    grammars = [random_grammar(random.Random(seed)) for seed in range(50)]
    # mutually recursive hand-picked grammars
    from coax.systems import parse_grammar

    grammars.append(parse_grammar("A -> a B\nA -> .\nB -> A b"))
    grammars.append(parse_grammar("S -> A B\nA -> B\nA -> a\nA -> .\nB -> S b\nB -> ."))
    grammars.append(parse_grammar("X -> Y\nY -> X\nY -> y"))
    for i, g in enumerate(grammars):
        system = build_first(g)
        texts = _texts(generated(system))
        expected = classical_first(g)
        for a in g.nonterminals:
            prefix = f"first([{a}],"
            claims = {t for t in texts if t.startswith(prefix)}
            assert len(claims) == 1, (i, a, claims)  # a function of the nonterminal
            got = frozenset(claims.pop()[len(prefix) + 1 : -2].split(",")) - {""}
            assert got == expected[a], (i, a)
    _report("9/10 first sets single-valued and classical on 53 grammars", started)


def test_acceptance_10_unguarded_membership_is_wrong_and_the_split_fixes_it():
    started = time.perf_counter()
    # l = t :: l with t = tree(1, l): no tree in l has any all-zero path.
    # Folding "some member tree has a zero path" into one self-referential
    # judgement lets the tail rule support itself forever, so is_in0(l) is
    # wrongly derivable for this (and every) infinite list.
    p = Judgement("path0(t)")
    m = Judgement("is_in0(l)")
    uncorrected = InferenceSystem(
        Universe([p, m]),
        [Rule(m, (p,)), Rule(m, (m,))],
        [p],
    )
    assert _texts(generated(uncorrected)) == {"is_in0(l)"}

    # the split formulation keeps membership inductive and decides correctly
    all_zero = EqSystem(
        {
            "t": Binding("tree", (0, "l")),
            "l": Binding("cons", ("t", "l")),
        },
        "t",
    )
    system = build_path0(all_zero)
    assert "path0(s0)" in _texts(generated(system))

    alternating = EqSystem(
        {
            "t0": Binding("tree", (0, "l0")),
            "l0": Binding("cons", ("t1", "l0")),
            "t1": Binding("tree", (1, "l1")),
            "l1": Binding("cons", ("t0", "l1")),
        },
        "t0",
    )
    system = build_path0(alternating)
    assert not any(t.startswith("path0(") for t in _texts(generated(system)))
    _report("10/10 unguarded membership negative control and corrected split", started)
