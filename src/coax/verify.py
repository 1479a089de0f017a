"""Specification checkers and exhaustive brute-force oracles.

The checkers certify candidate sets against a system: closedness (no rule
escapes the set), consistency (every member is supported from inside), and the
bounded coinduction principle, which soundly places a candidate below the
generated interpretation.  The brute-force oracle recomputes every
interpretation by enumerating all subsets of the universe, entirely
independently of the iteration engine, so the two can check each other.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Union

from .core import (
    CapExceeded,
    InferenceSystem,
    Judgement,
    JudgementSet,
    Rule,
    _escaping_rule,
    closure_of,
)

DEFAULT_ORACLE_CAP = 16
ORACLE_CAP_ENV = "COAX_ORACLE_CAP"


class UniverseTooLarge(CapExceeded):
    """The universe exceeds the brute-force enumeration cap."""

    def __init__(self, size: int, cap: int):
        self.size = size
        self.cap = cap
        super().__init__(
            f"universe has {size} judgements, oracle cap is {cap} "
            f"(override with {ORACLE_CAP_ENV})"
        )


@dataclass(frozen=True)
class Verdict:
    """ok, or a re-checkable counterexample: the rule whose conclusion escaped
    (closedness), the unsupported judgement (consistency), the judgement that
    breaks a conjunct of bounded coinduction, or the path of the first
    offending node (tree validation)."""

    ok: bool
    witness: Union[Rule, Judgement, tuple[Judgement, ...], None] = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def check_closed(sys: InferenceSystem, s: JudgementSet) -> Verdict:
    """s is closed iff every rule with premises inside s concludes inside s.
    The witness is the first escaping rule in canonical order."""
    escape = _escaping_rule(sys, s)
    if escape is None:
        return Verdict(True)
    c, prs = escape
    members = sys.universe.members
    rule = Rule(members[c], tuple(map(members.__getitem__, prs)))
    return Verdict(False, rule, f"rule escapes the set at {rule.conclusion}")


def check_consistent(sys: InferenceSystem, s: JudgementSet) -> Verdict:
    """s is consistent iff every member is the conclusion of some rule whose
    premises lie inside s."""
    for c, prs in sys._least_rules(s):
        if prs is None:
            j = sys.universe.members[c]
            return Verdict(False, j, f"{j} has no supporting rule inside the set")
    return Verdict(True)


def bounded_coinduction(sys: InferenceSystem, s: JudgementSet) -> Verdict:
    """The bounded coinduction principle: if s sits below the closure of the
    coaxioms and is consistent, then s is contained in the generated
    interpretation.  ok certifies both premises."""
    beta = closure_of(sys)
    if not s.issubset(beta):
        stray = next(iter(s - beta))
        return Verdict(False, stray, f"{stray} is not below the closure of the coaxioms")
    return check_consistent(sys, s)


def refute_level(sys: InferenceSystem, j: Judgement) -> Optional[int]:
    """The least n such that j fails to survive n descending steps from the
    closure of the coaxioms — i.e. j has no approximated proof of level n —
    or None when j survives to stabilization (exactly the generated set on a
    finite universe).  The analysis records that step as j dies."""
    death = sys._analyze()[1].record[sys.universe.position(j)]
    return None if death < 0 else death


@dataclass(frozen=True)
class BruteForceResult:
    fixed_points: tuple[JudgementSet, ...]
    mu: JudgementSet
    nu: JudgementSet
    gen: JudgementSet


def _oracle_cap() -> int:
    raw = os.environ.get(ORACLE_CAP_ENV)
    if raw is None:
        return DEFAULT_ORACLE_CAP
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{ORACLE_CAP_ENV} must be an integer, got {raw!r}") from None


def brute_force(sys: InferenceSystem) -> BruteForceResult:
    """Enumerate every subset of the universe and read the interpretations off
    the definitions: the least pre-fixed point, the greatest post-fixed point,
    and the greatest fixed point below the least pre-fixed point above the
    coaxioms.  Independent of the engines by design: the one-step operator
    builds premise masks of its own from the rule table.  A universe larger
    than ``COAX_ORACLE_CAP`` (default 16) raises UniverseTooLarge."""
    cap = _oracle_cap()
    n = len(sys.universe)
    if n > cap:
        raise UniverseTooLarge(n, cap)
    uni = sys.universe
    full = (1 << n) - 1
    gamma = sys.coaxioms.mask

    step = sys._operator()  # F on integer masks
    fixed: list[int] = []
    mu = full
    nu = 0
    beta_star = full  # least pre-fixed point above the coaxioms
    for mask in range(1 << n):
        fm = step(mask)
        pre = fm & ~mask == 0
        post = mask & ~fm == 0
        if pre:
            mu &= mask
            if gamma & ~mask == 0:
                beta_star &= mask
        if post:
            nu |= mask
        if pre and post:
            fixed.append(mask)
    gen = 0
    for mask in fixed:
        if mask & ~beta_star == 0:
            gen |= mask
    return BruteForceResult(
        fixed_points=tuple(JudgementSet(uni, m) for m in fixed),
        mu=JudgementSet(uni, mu),
        nu=JudgementSet(uni, nu),
        gen=JudgementSet(uni, gen),
    )
