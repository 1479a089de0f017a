"""Finite inference systems and their fixed-point interpretations.

An inference system is a finite set of rules ``premises / conclusion`` over a
finite universe of judgements, optionally extended with *coaxioms*: judgements
that bound the coinductive interpretation from above instead of being
derivable outright.

Everything here is exact: the universe is finite, sets are bitmasks over it,
and all interpretations (inductive, coinductive, and the coaxiom-generated one
in between) are computed by Kleene iteration, which stabilizes in at most
``|universe|`` strict steps on a finite lattice.  Each chain is kept once, as
its start set and, per position, the step at which the judgement enters or
leaves it: memory per chain grows with the universe, not with the steps.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass
from itertools import compress
from operator import attrgetter, lt
from typing import Callable, Iterable, Iterator, Mapping


class CoaxError(Exception):
    """Base class for library errors."""


class UniverseMismatch(CoaxError):
    """A judgement or judgement set does not belong to the expected universe."""


class BetaNotClosed(CoaxError):
    """The bound passed to kernel_below is not closed under inference.

    Carries one violating conclusion: a judgement derivable from the bound in
    one step but missing from it.
    """

    def __init__(self, conclusion: "Judgement"):
        self.conclusion = conclusion
        super().__init__(f"bound is not closed: it misses derivable {conclusion}")


class CapExceeded(CoaxError):
    """A proof, a builder's grounding or an oracle's enumeration would pass its
    cap; the message names the cap."""


# a judgement text: one or more characters, none of them '#' or whitespace
# (for str patterns, \s matches exactly the characters where str.isspace())
_TOKEN = re.compile(r"[^\s#]+")
_SEPARATOR = re.compile(r"[\s#]")
_text = attrgetter("text")


def _check_name(lineno: int, kind: str, name: str, reserved: str = ",(){}[]") -> None:
    """Reject a name read from an input line that holds one of the
    ``reserved`` characters, which delimit the fields of the judgement texts
    built from it."""
    if any(ch in name for ch in reserved):
        raise ValueError(
            f"line {lineno}: {kind} {name!r} contains one of {' '.join(reserved)}"
        )


def _token_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    """The number and the tokens of each line of an input text that holds a
    token; ``#`` starts a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield lineno, tokens


@dataclass(frozen=True, order=True)
class Judgement:
    """An atomic judgement, identified by its canonical serialization.

    The text is the payload: equality, hashing and the total order all follow
    it, so two judgements are interchangeable exactly when they print the
    same.  Texts contain no whitespace and no ``#``, which keeps every
    judgement a single token in the file format, where ``#`` starts a comment.
    """

    text: str

    def __post_init__(self) -> None:
        if _TOKEN.fullmatch(self.text) is None:
            raise ValueError(
                f"judgement text must be a nonempty token without '#': {self.text!r}"
            )

    def __hash__(self) -> int:
        return hash(self.text)

    def __str__(self) -> str:
        return self.text


class Universe:
    """An ordered finite set of distinct judgements, held as their texts.

    Members are kept in serialization order; positions 0..n-1 index the
    bitmask representation used by JudgementSet.  Since a position follows
    the order of its judgement, tuples of positions sort exactly as the
    tuples of judgements they stand for.  ``texts`` is the universe itself;
    ``members`` holds the ``Judgement`` objects given, or, for a universe of
    texts, makes them on first read.
    """

    __slots__ = ("texts", "_index", "_hash", "_members")

    def __init__(self, members: Iterable[Judgement]):
        by_text = {j.text: j for j in members}
        self._set(list(by_text))
        self._members = tuple(map(by_text.__getitem__, self.texts))

    @classmethod
    def _from_texts(cls, texts: Iterable[str]) -> "Universe":
        """The universe of these judgement texts, checked as ``Judgement``
        checks one, without making a ``Judgement`` per text."""
        uni = cls.__new__(cls)
        uni._set(list(texts))
        return uni

    def _set(self, texts: list[str]) -> None:
        # one pass over all texts; "\x00" is neither whitespace nor '#'
        if not all(texts) or _SEPARATOR.search("\x00".join(texts)):
            for t in texts:
                Judgement(t)  # raises the error of the first bad text
        self.texts: tuple[str, ...] = tuple(sorted(set(texts)))
        # keyed on the text, which hashes and compares at C speed
        self._index: dict[str, int] = {t: i for i, t in enumerate(self.texts)}
        self._hash = hash(self.texts)
        self._members: tuple[Judgement, ...] | None = None

    @property
    def members(self) -> tuple[Judgement, ...]:
        if self._members is None:
            self._members = tuple(map(Judgement, self.texts))
        return self._members

    def __len__(self) -> int:
        return len(self.texts)

    def __iter__(self) -> Iterator[Judgement]:
        return iter(self.members)

    def __contains__(self, j: Judgement) -> bool:
        return isinstance(j, Judgement) and j.text in self._index

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, Universe) and self.texts == other.texts

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Universe({len(self.texts)} judgements)"

    def position(self, j: Judgement) -> int:
        try:
            return self._index[j.text]
        except (KeyError, AttributeError):
            raise UniverseMismatch(f"{j} is not in this universe") from None

    def empty(self) -> "JudgementSet":
        return JudgementSet(self, 0)

    def full(self) -> "JudgementSet":
        return JudgementSet(self, (1 << len(self.texts)) - 1)

    def subset(self, judgements: Iterable[Judgement]) -> "JudgementSet":
        return JudgementSet(self, _mask(map(self.position, judgements)))


def _require_same(u: Universe, v: Universe) -> None:
    if u is not v and u != v:
        raise UniverseMismatch("judgement sets belong to different universes")


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, in increasing order, read
    off its binary text in one pass."""
    return [i for i, ch in enumerate(bin(mask)[:1:-1]) if ch == "1"]


def _mask(positions: Iterable[int]) -> int:
    """The mask whose set bits are ``positions``, the inverse of ``_bits``:
    its binary text is written once and read once.  Setting one bit at a
    time would copy the growing int once per bit."""
    positions = list(positions)
    digits = bytearray(b"0") * (max(positions, default=-1) + 1)
    for p in positions:
        digits[p] = 49  # "1"
    return int(digits[::-1] or b"0", 2)


class JudgementSet:
    """A subset of a universe, stored as a bitmask over member positions.

    Lattice structure: ``|`` is join, ``&`` is meet, ``<=`` is inclusion,
    ``universe.full() - s`` is the complement of s.  All operations require
    both operands to share the universe.
    """

    __slots__ = ("universe", "mask")

    def __init__(self, universe: Universe, mask: int):
        if mask < 0 or mask >> len(universe):
            raise UniverseMismatch("mask has bits outside the universe")
        self.universe = universe
        self.mask = mask

    def __or__(self, other: "JudgementSet") -> "JudgementSet":
        _require_same(self.universe, other.universe)
        return JudgementSet(self.universe, self.mask | other.mask)

    def __and__(self, other: "JudgementSet") -> "JudgementSet":
        _require_same(self.universe, other.universe)
        return JudgementSet(self.universe, self.mask & other.mask)

    def __sub__(self, other: "JudgementSet") -> "JudgementSet":
        _require_same(self.universe, other.universe)
        return JudgementSet(self.universe, self.mask & ~other.mask)

    def issubset(self, other: "JudgementSet") -> bool:
        _require_same(self.universe, other.universe)
        return self.mask & ~other.mask == 0

    __le__ = issubset

    def __contains__(self, j: Judgement) -> bool:
        return (self.mask >> self.universe.position(j)) & 1 == 1

    def __iter__(self) -> Iterator[Judgement]:
        return map(self.universe.members.__getitem__, _bits(self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, JudgementSet)
            and self.mask == other.mask
            and self.universe == other.universe
        )

    def __hash__(self) -> int:
        return hash((self.mask, self.universe))

    def __repr__(self) -> str:
        return "{" + ", ".join(self.texts()) + "}"

    def texts(self) -> list[str]:
        """The members' texts, in universe order."""
        return list(map(list(self.universe.texts).__getitem__, _bits(self.mask)))


@dataclass(frozen=True, order=True)
class Rule:
    """One inference rule: a finite premise set and a conclusion.

    Premises are normalized to a sorted duplicate-free tuple; a rule with no
    premises is an axiom.
    """

    conclusion: Judgement
    premises: tuple[Judgement, ...] = ()

    def __post_init__(self) -> None:
        normalized = tuple(sorted(set(self.premises)))
        object.__setattr__(self, "premises", normalized)

    def __str__(self) -> str:
        if not self.premises:
            return f"axiom {self.conclusion}"
        return f"rule {self.conclusion} <- " + " ".join(str(p) for p in self.premises)


class InferenceSystem:
    """A finite inference system with coaxioms.

    Rules are stored by position: each conclusion position maps to its
    distinct premise sets, each a sorted tuple of premise positions, the
    sets sorted lexicographically, and the conclusions in order.  Positions
    sort as their judgements do, so "the canonically least rule for j" is
    well defined everywhere a choice has to be made.  The coaxiom set may
    be empty, in which case the system is ordinary.  The engines, the
    one-step operator and the proof builders read this one table; no
    judgement view of it is kept, and ``rules`` makes its ``Rule``s when
    called.  Systems are immutable, so the chains of the analysis are
    computed on first need and kept, and so are the well-founded rule
    choices made against them.
    """

    __slots__ = ("universe", "coaxioms", "_table", "_ascent", "_analysis", "_wf_choices")

    def __init__(
        self,
        universe: Universe,
        rules: Iterable[Rule],
        coaxioms: JudgementSet | Iterable[Judgement] | None = None,
    ):
        position = universe._index.get
        table: defaultdict[int, list[tuple[int, ...]]] = defaultdict(list)
        for r in rules:
            c = position(r.conclusion.text)
            if c is None:
                raise UniverseMismatch(f"rule conclusion {r.conclusion} outside universe")
            # increasing and distinct, since a Rule's premises are and
            # positions follow the order of their judgements
            ps = tuple(map(position, map(_text, r.premises)))
            if None in ps:
                stray = r.premises[ps.index(None)]
                raise UniverseMismatch(f"rule premise {stray} outside universe")
            table[c].append(ps)
        self._load(universe, table, coaxioms)

    @classmethod
    def _from_table(
        cls,
        universe: Universe,
        table: Mapping[int, Iterable[tuple[int, ...]]],
        coaxioms: JudgementSet | Iterable[Judgement] | None = None,
    ) -> "InferenceSystem":
        """A system straight from positions, for loaders and builders that
        already know them.  ``table`` maps conclusion positions of
        ``universe`` to premise-position tuples, each sorted and free of
        duplicates; premise sets may repeat and come in any order."""
        sys = cls.__new__(cls)
        sys._load(universe, table, coaxioms)
        return sys

    def _load(
        self,
        universe: Universe,
        table: Mapping[int, Iterable[tuple[int, ...]]],
        coaxioms: JudgementSet | Iterable[Judgement] | None,
    ) -> None:
        # the one place that orders the table and drops repeated premise sets;
        # sets already strictly increasing, as one linear pass shows, stay as given
        self.universe = universe
        self._table: dict[int, tuple[tuple[int, ...], ...]] = {}
        for c, sets in sorted(table.items()):
            sets = tuple(sets)
            self._table[c] = sets if all(map(lt, sets, sets[1:])) else tuple(sorted(set(sets)))
        if coaxioms is None:
            self.coaxioms = universe.empty()
        elif isinstance(coaxioms, JudgementSet):
            _require_same(universe, coaxioms.universe)
            self.coaxioms = coaxioms
        else:
            self.coaxioms = universe.subset(coaxioms)
        self._ascent: IterationTrace | None = None
        self._analysis: tuple[IterationTrace, IterationTrace] | None = None
        # the well-founded builder's rules by position, filled as proofs reach
        # positions: [0] against the plain ascent, [1] against the seeded one
        self._wf_choices: tuple[dict, dict] = ({}, {})

    # -- inspection ----------------------------------------------------------

    def _least_rules(self, s: JudgementSet) -> Iterator[tuple[int, tuple[int, ...] | None]]:
        """Each member position of s, in order, with its least premise set
        inside s, or None when no rule supports it there."""
        _require_same(self.universe, s.universe)
        mask, table = s.mask, self._table
        for c in _bits(mask):
            for prs in table.get(c, ()):
                for p in prs:
                    if not (mask >> p) & 1:
                        break
                else:
                    break
            else:
                prs = None
            yield c, prs

    def rules(self) -> Iterator[Rule]:
        members = self.universe.members
        for c, sets in self._table.items():
            for prs in sets:
                yield Rule(members[c], tuple(map(members.__getitem__, prs)))

    @property
    def rule_count(self) -> int:
        return sum(map(len, self._table.values()))

    def __repr__(self) -> str:
        return (
            f"InferenceSystem({len(self.universe)} judgements, "
            f"{self.rule_count} rules, {len(self.coaxioms)} coaxioms)"
        )

    def _operator(self) -> Callable[[int], int]:
        """The inference operator on masks: every conclusion of a rule whose
        premises all lie in the mask.  Each call of this method builds its
        premise masks afresh from the table, one per rule."""
        rules = [
            (sum(1 << p for p in prs), 1 << c) for c, sets in self._table.items() for prs in sets
        ]

        def step(mask: int) -> int:
            out = 0
            for premises, bit in rules:
                if premises & mask == premises:
                    out |= bit
            return out

        return step

    def _ascend(self) -> "IterationTrace":
        """The plain ascent, which ``inductive`` and well-founded proofs share:
        ``record[p] - 1`` is the height of a shortest proof of member p."""
        if self._ascent is None:
            self._ascent = _ascending_trace(self)
        return self._ascent

    def _analyze(self) -> "tuple[IterationTrace, IterationTrace]":
        """The coaxiom analysis that every coaxiom query reads: the ascent
        with the coaxioms entering as axioms, which ends at their closure,
        and the descent from that closure to the generated interpretation.
        A judgement has an approximated proof of level n exactly when its
        death step, the descent's record, is not within 0..n."""
        if self._analysis is None:
            up = _ascending_trace(self, self.coaxioms.mask)
            self._analysis = up, _descending_trace(self, up.result.mask)
        return self._analysis


@dataclass(frozen=True)
class IterationTrace:
    """The Kleene chain S0, S1, ... produced by iterating the inference
    operator from ``start``, up to and including the stabilization witness
    (the last two steps are equal).  ``len(trace)`` counts transformer
    applications, one fewer than the steps that iteration yields.

    The chain is kept once, as the engine recorded it: ``record`` gives each
    position the step at which its judgement enters an ascending chain or
    leaves a descending one; -1 for a member of ``start`` that never leaves,
    0 for a non-member that never enters.  Step n is ``start`` with the
    positions of steps 1..n flipped, so a trace holds one int per position
    however long the chain is.  Iteration and ``at`` build the masks they
    return when read; ``result`` is the final set, as the engine left it.
    """

    start: JudgementSet
    record: list[int]
    result: JudgementSet

    def __post_init__(self) -> None:
        if len(self.record) != len(self.start.universe):
            raise ValueError("a trace records one step per position of its universe")
        _require_same(self.start.universe, self.result.universe)

    def __hash__(self) -> int:
        return hash((self.start, *self.record))

    def __len__(self) -> int:
        return max(max(self.record, default=0), 0) + 1

    def __iter__(self) -> Iterator[JudgementSet]:
        flips: list[list[int]] = [[] for _ in range(len(self) + 1)]
        for p, k in enumerate(self.record):
            if k > 0:
                flips[k].append(p)
        mask = self.start.mask
        for positions in flips:  # none at step 0, nor at the witness
            for p in positions:
                mask ^= 1 << p
            yield JudgementSet(self.start.universe, mask)

    def at(self, n: int) -> JudgementSet:
        """The n-th iterate; past stabilization the chain is constant."""
        if n < 0:
            raise ValueError(f"iterate index must be >= 0, got {n}")
        flips = "".join("1" if 0 < k <= n else "0" for k in reversed(self.record))
        return JudgementSet(self.start.universe, self.start.mask ^ int(flips or "0", 2))


# -- the inference operator and its fixed points -----------------------------


def infer_step(sys: InferenceSystem, s: JudgementSet) -> JudgementSet:
    """One application of the inference operator: every judgement that is
    the conclusion of some rule whose premises all lie in ``s``.  Coaxioms
    play no part here."""
    _require_same(sys.universe, s.universe)
    return JudgementSet(sys.universe, sys._operator()(s.mask))


def with_coaxioms_as_axioms(sys: InferenceSystem) -> InferenceSystem:
    """The system where every coaxiom becomes an ordinary axiom.

    Inference in the result satisfies F'(s) = F(s) | coaxioms pointwise; its
    inductive interpretation is the closure of the coaxiom set.
    """
    table = dict(sys._table)
    for c in _bits(sys.coaxioms.mask):
        table[c] = table.get(c, ()) + ((),)
    return InferenceSystem._from_table(sys.universe, table)


def _ascending_trace(sys: InferenceSystem, seed: int = 0) -> IterationTrace:
    """The exact Kleene chain from the empty set, strictly growing, recorded
    as the step at which each judgement enters it (0 for never).  Each rule
    watches one premise that has not entered yet; when it enters, the rule
    moves its watch to a later missing premise, or fires, and its conclusion
    enters when the next step is built, so a premise never counts before its
    own step.  The members of ``seed`` enter at step 1, as axioms do: seeded
    with the coaxiom mask, this is the inductive chain of the
    coaxioms-as-axioms system, without building that system.

    A watched rule is held as its number: ``conclusions`` and ``premises``
    give its conclusion and its premise tuple, the one in ``_table``, and
    the premise it watches is found again in that tuple when it enters.
    The result mask is built once, from the entry steps.
    """
    entry = [0] * len(sys.universe)
    watchers: list[list[int]] = [[] for _ in entry]
    conclusions: list[int] = []
    premises: list[tuple[int, ...]] = []
    fired = _bits(seed)  # conclusions that enter at the next step
    for c, sets in sys._table.items():
        for prs in sets:
            if prs:
                watchers[prs[0]].append(len(premises))
                conclusions.append(c)
                premises.append(prs)
            else:
                fired.append(c)
    step = 1
    while True:
        entered = []
        for c in fired:
            if not entry[c]:
                entry[c] = step
                entered.append(c)
        if not entered:
            result = JudgementSet(sys.universe, _mask(compress(range(len(entry)), entry)))
            return IterationTrace(sys.universe.empty(), entry, result)
        step += 1
        fired = []
        for pos in entered:
            for rule in watchers[pos]:
                c = conclusions[rule]
                if entry[c]:
                    continue  # the conclusion is in already
                prs = premises[rule]
                for j in range(prs.index(pos) + 1, len(prs)):
                    if not entry[prs[j]]:
                        watchers[prs[j]].append(rule)
                        break
                else:
                    fired.append(c)


def _descending_trace(sys: InferenceSystem, start_mask: int) -> IterationTrace:
    """The exact Kleene chain descending from a closed start set, recorded
    as the first step that lacks each judgement: 0 outside the start set,
    -1 for a judgement that survives.  Only the live rules, of start-set
    members with all premises in the start set, are read and indexed by
    premise.  A rule dies the moment one premise has died; a judgement dies
    the step after its last live rule died.  The result mask is built once,
    from the survivors.  Only meaningful when F(start) <= start, which
    callers ensure.
    """
    members = _bits(start_mask)
    death = [0] * len(sys.universe)
    for pos in members:
        death[pos] = -1
    conclusion: list[int] = []  # per live rule, -1 once it has died
    live = [0] * len(death)  # live rules per conclusion
    rules_by_premise: defaultdict[int, list[int]] = defaultdict(list)
    for c in members:
        for prs in sys._table.get(c, ()):
            if all(death[p] for p in prs):  # -1 inside the start set, 0 outside
                for p in prs:
                    rules_by_premise[p].append(len(conclusion))
                conclusion.append(c)
                live[c] += 1
    step = 1
    # judgements of the start set with no live rule die in the first step;
    # afterwards deaths propagate one level at a time
    frontier = [pos for pos in members if not live[pos]]
    while frontier:
        for pos in frontier:
            death[pos] = step
        step += 1
        new_frontier: list[int] = []
        for pos in frontier:
            for rid in rules_by_premise.get(pos, ()):
                c = conclusion[rid]
                if c < 0:
                    continue
                conclusion[rid] = -1  # c is alive, since this rule was live
                live[c] -= 1
                if not live[c]:
                    new_frontier.append(c)
        frontier = new_frontier
    uni = sys.universe
    survivors = _mask(compress(range(len(death)), map((-1).__eq__, death)))
    return IterationTrace(JudgementSet(uni, start_mask), death, JudgementSet(uni, survivors))


def _escaping_rule(sys: InferenceSystem, s: JudgementSet) -> tuple[int, tuple[int, ...]] | None:
    """The first rule in canonical order whose premises all lie in ``s`` and
    whose conclusion does not, as (conclusion, premises) positions; None when
    ``s`` is closed.  Its conclusion is the least one that escapes ``s``."""
    _require_same(sys.universe, s.universe)
    mask = s.mask
    for c, sets in sys._table.items():
        if not (mask >> c) & 1:
            for prs in sets:
                if all((mask >> p) & 1 for p in prs):
                    return c, prs
    return None


def inductive(sys: InferenceSystem) -> tuple[JudgementSet, IterationTrace]:
    """Least fixed point of the inference operator: judgements with finite,
    well-founded proof trees.  Coaxioms are ignored.  The chain is computed
    once per system and shared."""
    trace = sys._ascend()
    return trace.result, trace


def coinductive(sys: InferenceSystem) -> tuple[JudgementSet, IterationTrace]:
    """Greatest fixed point of the inference operator: judgements with
    arbitrary, possibly infinite proof trees.  Coaxioms are ignored."""
    trace = _descending_trace(sys, sys.universe.full().mask)
    return trace.result, trace


def closure_of(sys: InferenceSystem) -> JudgementSet:
    """Least set that contains the coaxioms and is closed under the rules:
    the inductive interpretation after turning coaxioms into axioms."""
    return sys._analyze()[0].result


def kernel_below(
    sys: InferenceSystem, beta: JudgementSet
) -> tuple[JudgementSet, IterationTrace]:
    """Greatest fixed point of the inference operator below ``beta``.

    ``beta`` must be closed (one inference step from it stays inside it);
    otherwise descent need not converge to a fixed point and BetaNotClosed is
    raised, carrying the least violating conclusion.
    """
    escape = _escaping_rule(sys, beta)
    if escape is not None:
        raise BetaNotClosed(sys.universe.members[escape[0]])
    trace = _descending_trace(sys, beta.mask)
    return trace.result, trace


def generated(sys: InferenceSystem) -> JudgementSet:
    """The interpretation generated by the coaxioms: the greatest fixed point
    below the closure of the coaxiom set, reached by descending from the
    closure.  It equals the coinductive interpretation of the system
    restricted to conclusions inside the closure."""
    return sys._analyze()[1].result
