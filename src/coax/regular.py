"""Regular (rational) terms as finite systems of syntactic equations.

A regular term is an infinite (or finite) term with finitely many distinct
subterms: it can be written as a finite set of bindings like

    X = cons 1 Y
    Y = cons 2 X

for the infinite list 1::2::1::2::...  Supported constructors:

    nil                  the empty list
    cons <elem> <tail>   a list cell; elem is an integer atom or a state
    digit <d> <tail>     a digit-stream cell, d an integer 0..9
    tree <label> <kids>  a node with integer label and a list-of-states kids

Equality of regular terms is bisimilarity (equality of infinite unfoldings).
Canonicalization merges bisimilar states and renames the rest in breadth-first
order from the root, so after `canonical()` two terms are bisimilar exactly
when they serialize identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .core import CoaxError, _check_name

ATOM = "atom"
VAR = "var"

# constructor -> (arity, which argument slots may hold state references)
_SIGNATURES: dict[str, tuple[int, tuple[bool, ...]]] = {
    "nil": (0, ()),
    "cons": (2, (True, True)),  # element may be an atom or a state (tree lists)
    "digit": (2, (False, True)),
    "tree": (2, (False, True)),
}


class ShapeMismatch(CoaxError):
    """A term does not have the shape an operation requires."""


@dataclass(frozen=True)
class Arg:
    """One constructor argument: either an integer atom or a state reference."""

    kind: str  # ATOM or VAR
    value: int | str

    @staticmethod
    def atom(value: int) -> "Arg":
        return Arg(ATOM, value)

    @staticmethod
    def var(name: str) -> "Arg":
        return Arg(VAR, name)


@dataclass(frozen=True)
class Binding:
    tag: str
    args: tuple[Arg, ...]


def _family(tag: str) -> str:
    return {"nil": "list", "cons": "list", "digit": "stream", "tree": "tree"}[tag]


class EqSystem:
    """A rooted finite system of equations denoting one regular term.

    Construction validates the shape: every referenced state is bound, every
    state is reachable from the root, arities and atom slots match the
    constructor table.  Instances are immutable.
    """

    __slots__ = ("bindings", "root", "_canonical")

    def __init__(self, bindings: dict[str, Binding], root: str, _canonical: bool = False):
        if root not in bindings:
            raise ValueError(f"root {root!r} is not bound")
        for name, b in bindings.items():
            if b.tag not in _SIGNATURES:
                raise ValueError(f"unknown constructor {b.tag!r} in {name}")
            arity, var_ok = _SIGNATURES[b.tag]
            if len(b.args) != arity:
                raise ValueError(f"{name}: {b.tag} expects {arity} arguments")
            for slot, arg in enumerate(b.args):
                if arg.kind == VAR:
                    if not var_ok[slot]:
                        raise ValueError(f"{name}: argument {slot} of {b.tag} must be an atom")
                    if arg.value not in bindings:
                        raise ValueError(f"{name}: unbound state {arg.value!r}")
                elif not isinstance(arg.value, int):
                    raise ValueError(f"{name}: atoms must be integers, got {arg.value!r}")
            if b.tag == "digit" and not 0 <= b.args[0].value <= 9:  # type: ignore[operator]
                raise ValueError(f"{name}: digit must be 0..9")
        reachable = set(_bfs_order(bindings, root))
        if set(bindings) - reachable:
            unreachable = sorted(set(bindings) - reachable)
            raise ValueError(f"unreachable states: {', '.join(unreachable)}")
        self.bindings = dict(bindings)
        self.root = root
        self._canonical = _canonical

    # -- basic views ---------------------------------------------------------

    def __getitem__(self, state: str) -> Binding:
        return self.bindings[state]

    @property
    def states(self) -> tuple[str, ...]:
        return tuple(self.bindings)

    @property
    def family(self) -> str:
        return _family(self.bindings[self.root].tag)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EqSystem):
            return NotImplemented
        return self.root == other.root and self.bindings == other.bindings

    def __hash__(self) -> int:
        return hash((self.root, tuple(sorted(self.bindings.items(), key=lambda kv: kv[0]))))

    def __repr__(self) -> str:
        return f"EqSystem({self.to_text()!r})"

    def to_text(self) -> str:
        """One binding per line, root first (the parseable wire format)."""
        order = _bfs_order(self.bindings, self.root)
        lines = []
        for name in order:
            b = self.bindings[name]
            parts = [name, "=", b.tag] + [str(a.value) for a in b.args]
            lines.append(" ".join(parts))
        return "\n".join(lines)

    # -- canonicalization ----------------------------------------------------

    def canonical(self) -> "EqSystem":
        """Minimize (merge bisimilar states) and rename states s0, s1, ... in
        breadth-first order from the root."""
        if self._canonical:
            return self
        classes = _bisim_classes(self.bindings)
        rep = {name: min(cls) for name, cls in classes.items()}
        quotient: dict[str, Binding] = {}
        for name, b in self.bindings.items():
            r = rep[name]
            if r in quotient:
                continue
            args = tuple(
                Arg.var(rep[a.value]) if a.kind == VAR else a for a in b.args  # type: ignore[arg-type]
            )
            quotient[r] = Binding(b.tag, args)
        order = _bfs_order(quotient, rep[self.root])
        rename = {old: f"s{i}" for i, old in enumerate(order)}
        bindings = {
            rename[name]: Binding(
                quotient[name].tag,
                tuple(
                    Arg.var(rename[a.value]) if a.kind == VAR else a  # type: ignore[arg-type]
                    for a in quotient[name].args
                ),
            )
            for name in order
        }
        return EqSystem(bindings, rename[rep[self.root]], _canonical=True)


def _bfs_order(bindings: dict[str, Binding], root: str) -> list[str]:
    order = [root]
    seen = {root}
    i = 0
    while i < len(order):
        for arg in bindings[order[i]].args:
            if arg.kind == VAR and arg.value not in seen:
                seen.add(arg.value)  # type: ignore[arg-type]
                order.append(arg.value)  # type: ignore[arg-type]
        i += 1
    return order


def _bisim_classes(bindings: dict[str, Binding]) -> dict[str, frozenset[str]]:
    """Partition refinement: two states are bisimilar iff they have the same
    constructor, equal atoms, and bisimilar states slot by slot."""

    def signature(name: str, cls: dict[str, int]) -> tuple:
        b = bindings[name]
        return (
            b.tag,
            tuple(
                (ATOM, a.value) if a.kind == ATOM else (VAR, cls[a.value])  # type: ignore[index]
                for a in b.args
            ),
        )

    cls = {name: 0 for name in bindings}
    while True:
        sigs = {name: signature(name, cls) for name in bindings}
        buckets: dict[tuple, int] = {}
        new_cls = {}
        for name in sorted(bindings):
            new_cls[name] = buckets.setdefault(sigs[name], len(buckets))
        if new_cls == cls:
            break
        cls = new_cls
    groups: dict[int, set[str]] = {}
    for name, c in cls.items():
        groups.setdefault(c, set()).add(name)
    return {name: frozenset(groups[c]) for name, c in cls.items()}


# -- operations ---------------------------------------------------------------


def carrier(a: EqSystem) -> frozenset[int]:
    """The set of element atoms of a list or stream (its carrier)."""
    if a.family not in ("list", "stream"):
        raise ShapeMismatch(f"carrier is defined on lists and streams, not {a.family}")
    atoms: set[int] = set()
    for b in a.bindings.values():
        if b.tag in ("cons", "digit"):
            head = b.args[0]
            if head.kind != ATOM:
                raise ShapeMismatch("carrier needs atomic elements, found a state element")
            atoms.add(head.value)  # type: ignore[arg-type]
    return frozenset(atoms)


# -- convenient constructors ---------------------------------------------------


def finite_list(items: Iterable[int]) -> EqSystem:
    """The finite list x0::x1::...::nil."""
    items = list(items)
    bindings: dict[str, Binding] = {f"n{len(items)}": Binding("nil", ())}
    for i in range(len(items) - 1, -1, -1):
        bindings[f"n{i}"] = Binding("cons", (Arg.atom(items[i]), Arg.var(f"n{i + 1}")))
    return EqSystem(bindings, "n0").canonical()


def cycle_list(items: Iterable[int]) -> EqSystem:
    """The infinite periodic list x0::x1::...::x0::x1::..."""
    items = list(items)
    if not items:
        raise ValueError("cycle needs at least one element")
    bindings = {
        f"c{i}": Binding("cons", (Arg.atom(x), Arg.var(f"c{(i + 1) % len(items)}")))
        for i, x in enumerate(items)
    }
    return EqSystem(bindings, "c0").canonical()


def cycle_stream(digits: Iterable[int]) -> EqSystem:
    """The infinite periodic digit stream d0 d1 ... d0 d1 ..."""
    ds = list(digits)
    if not ds:
        raise ValueError("stream cycle needs at least one digit")
    bindings = {
        f"c{i}": Binding("digit", (Arg.atom(d), Arg.var(f"c{(i + 1) % len(ds)}")))
        for i, d in enumerate(ds)
    }
    return EqSystem(bindings, "c0").canonical()


def constant_stream(d: int) -> EqSystem:
    return cycle_stream([d])


def parse_eq_system(text: str) -> EqSystem:
    """Parse the wire format: `NAME = TAG ARG...` per line, first line is the
    root, `#` starts a comment.  Numeric arguments are atoms, others states.
    State names may not contain `,` `(` `)` `{` `}` `[` or `]`, which
    delimit the judgements built from them."""
    bindings: dict[str, Binding] = {}
    root: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) < 3 or parts[1] != "=":
            raise ValueError(f"line {lineno}: expected `NAME = TAG ARGS...`")
        name, tag, raw_args = parts[0], parts[2], parts[3:]
        if name in bindings:
            raise ValueError(f"line {lineno}: state {name!r} bound twice")
        args = tuple(
            Arg.atom(int(tok)) if _is_int(tok) else Arg.var(tok) for tok in raw_args
        )
        for state in (name, *(a.value for a in args if a.kind == VAR)):
            _check_name(lineno, "state name", state)
        bindings[name] = Binding(tag, args)
        if root is None:
            root = name
    if root is None:
        raise ValueError("empty term description")
    return EqSystem(bindings, root)


def _is_int(tok: str) -> bool:
    try:
        int(tok)
    except ValueError:
        return False
    return True
