"""Regular (rational) terms as finite systems of syntactic equations.

A regular term is an infinite (or finite) term with finitely many distinct
subterms: it can be written as a finite set of bindings like

    X = cons 1 Y
    Y = cons 2 X

for the infinite list 1::2::1::2::...  Supported constructors:

    nil                  the empty list
    cons <elem> <tail>   a list cell; elem is an integer atom or a state,
                         tail a list state
    digit <d> <tail>     a digit-stream cell, d an integer 0..9, tail a
                         stream state
    tree <label> <kids>  a node with an integer label and a list state of
                         children

Equality of regular terms is bisimilarity (equality of infinite unfoldings).
Canonicalization merges bisimilar states and renames the rest in breadth-first
order from the root, so after `canonical()` two terms are bisimilar exactly
when they serialize identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import CoaxError, _check_name, _token_lines

# constructor -> (family, what each argument slot holds: "atom" for an
# integer, "any" for an integer or a state, else a state of that family)
_SIGNATURES: dict[str, tuple[str, tuple[str, ...]]] = {
    "nil": ("list", ()),
    "cons": ("list", ("any", "list")),  # element may be a state (tree lists)
    "digit": ("stream", ("atom", "stream")),
    "tree": ("tree", ("atom", "list")),
}
_WANTED = {"atom": "an integer atom", "any": "an integer atom or a state"}


class ShapeMismatch(CoaxError):
    """A term does not have the shape an operation requires."""


@dataclass(frozen=True)
class Binding:
    """A constructor and its arguments: an ``int`` atom (never a ``bool``)
    or the ``str`` name of a state."""

    tag: str
    args: tuple[int | str, ...]


class EqSystem:
    """A rooted finite system of equations denoting one regular term.

    Construction validates the shape: every referenced state is bound, every
    state is reachable from the root, and arities and every slot's atom or
    state family match the constructor table.  Instances are immutable.
    """

    __slots__ = ("bindings", "root", "_canonical")

    def __init__(self, bindings: dict[str, Binding], root: str, _canonical: bool = False):
        if root not in bindings:
            raise ValueError(f"root {root!r} is not bound")
        family = {}
        for name, b in bindings.items():
            if b.tag not in _SIGNATURES:
                raise ValueError(f"unknown constructor {b.tag!r} in {name}")
            family[name] = _SIGNATURES[b.tag][0]
        for name, b in bindings.items():
            slots = _SIGNATURES[b.tag][1]
            if len(b.args) != len(slots):
                raise ValueError(f"{name}: {b.tag} expects {len(slots)} arguments")
            for slot, (want, arg) in enumerate(zip(slots, b.args)):
                if isinstance(arg, str):
                    if arg not in family:
                        raise ValueError(f"{name}: unbound state {arg!r}")
                    ok = want in ("any", family[arg])
                else:
                    ok = type(arg) is int and want in ("any", "atom")
                if not ok:
                    raise ValueError(
                        f"{name}: argument {slot} of {b.tag} must be "
                        + _WANTED.get(want, f"a {want} state")
                    )
            if b.tag == "digit" and not 0 <= b.args[0] <= 9:  # type: ignore[operator]
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
        return _SIGNATURES[self.bindings[self.root].tag][0]

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
        lines = []
        for name in _bfs_order(self.bindings, self.root):
            b = self.bindings[name]
            lines.append(" ".join((name, "=", b.tag, *map(str, b.args))))
        return "\n".join(lines)

    # -- canonicalization ----------------------------------------------------

    def canonical(self) -> "EqSystem":
        """Minimize (merge bisimilar states) and rename states s0, s1, ... in
        breadth-first order from the root."""
        if self._canonical:
            return self
        cls = _bisim_classes(self.bindings)
        rep = {}  # a state of each class; bisimilar states bind alike
        for name, c in cls.items():
            rep.setdefault(c, name)
        order = [cls[self.root]]
        rename = {order[0]: "s0"}
        bindings = {}
        for c in order:  # the breadth-first walk appends to the list it reads
            b = self.bindings[rep[c]]
            args = []
            for a in b.args:
                if isinstance(a, str):
                    if cls[a] not in rename:
                        rename[cls[a]] = f"s{len(order)}"
                        order.append(cls[a])
                    a = rename[cls[a]]
                args.append(a)
            bindings[rename[c]] = Binding(b.tag, tuple(args))
        return EqSystem(bindings, "s0", _canonical=True)


def _bfs_order(bindings: dict[str, Binding], root: str) -> list[str]:
    order = [root]
    seen = {root}
    for name in order:  # appends to the list it reads
        for arg in bindings[name].args:
            if isinstance(arg, str) and arg not in seen:
                seen.add(arg)
                order.append(arg)
    return order


def _bisim_classes(bindings: dict[str, Binding]) -> dict[str, int]:
    """Partition refinement: two states are bisimilar iff they have the same
    constructor, equal atoms, and bisimilar states slot by slot.  Returns a
    class number per state.  Each round re-signs only the states with a
    successor that changed class in the last round; the piece of a class
    that keeps its shared signature keeps its number, or, when every member
    was re-signed, its largest piece does."""
    preds: dict[str, list[str]] = {name: [] for name in bindings}
    for name, b in bindings.items():
        for a in b.args:
            if isinstance(a, str):
                preds[a].append(name)
    cls = dict.fromkeys(bindings, 0)
    sizes, sigs = [len(cls)], [None]  # by class: its size, and the signature its members share
    dirty = set(bindings)
    while dirty:
        pieces: dict[int, dict[tuple, list[str]]] = {}
        for name in dirty:
            b = bindings[name]
            sig = (b.tag, *((cls[a],) if isinstance(a, str) else a for a in b.args))
            pieces.setdefault(cls[name], {}).setdefault(sig, []).append(name)
        dirty = set()
        for c, by_sig in pieces.items():
            if sum(map(len, by_sig.values())) == sizes[c]:
                sigs[c] = max(by_sig, key=lambda sig: len(by_sig[sig]))
            for sig, names in by_sig.items():
                if sig != sigs[c]:
                    sizes[c] -= len(names)
                    sizes.append(len(names))
                    sigs.append(sig)
                    for name in names:
                        cls[name] = len(sizes) - 1
                        dirty.update(preds[name])
    return cls


# -- operations ---------------------------------------------------------------


def carrier(a: EqSystem) -> frozenset[int]:
    """The set of element atoms of a list or stream (its carrier)."""
    if a.family not in ("list", "stream"):
        raise ShapeMismatch(f"carrier is defined on lists and streams, not {a.family}")
    atoms: set[int] = set()
    for b in a.bindings.values():
        if b.tag in ("cons", "digit"):
            if isinstance(b.args[0], str):
                raise ShapeMismatch("carrier needs atomic elements, found a state element")
            atoms.add(b.args[0])
    return frozenset(atoms)


# -- convenient constructors ---------------------------------------------------


def finite_list(items: Iterable[int]) -> EqSystem:
    """The finite list x0::x1::...::nil."""
    items = list(items)
    bindings: dict[str, Binding] = {f"n{len(items)}": Binding("nil", ())}
    for i in range(len(items) - 1, -1, -1):
        bindings[f"n{i}"] = Binding("cons", (items[i], f"n{i + 1}"))
    return EqSystem(bindings, "n0").canonical()


def cycle_list(items: Iterable[int]) -> EqSystem:
    """The infinite periodic list x0::x1::...::x0::x1::..."""
    return _cycle("cons", items, "cycle needs at least one element")


def cycle_stream(digits: Iterable[int]) -> EqSystem:
    """The infinite periodic digit stream d0 d1 ... d0 d1 ..."""
    return _cycle("digit", digits, "stream cycle needs at least one digit")


def _cycle(tag: str, items: Iterable[int], if_empty: str) -> EqSystem:
    items = list(items)
    if not items:
        raise ValueError(if_empty)
    n = len(items)
    bindings = {f"c{i}": Binding(tag, (x, f"c{(i + 1) % n}")) for i, x in enumerate(items)}
    return EqSystem(bindings, "c0").canonical()


def parse_eq_system(text: str) -> EqSystem:
    """Parse the wire format: `NAME = TAG ARG...` per line, first line is the
    root, `#` starts a comment.  Numeric arguments are atoms, others states,
    so a state name may not be a number; nor may it contain `,` `(` `)` `{`
    `}` `[` or `]`, which delimit the judgements built from it."""
    bindings: dict[str, Binding] = {}
    for lineno, parts in _token_lines(text):
        if len(parts) < 3 or parts[1] != "=":
            raise ValueError(f"line {lineno}: expected `NAME = TAG ARGS...`")
        name, tag = parts[0], parts[2]
        if isinstance(_arg(name), int):
            why = f"state name {name!r} is a number, which reads as an atom"
            raise ValueError(f"line {lineno}: {why}")
        if name in bindings:
            raise ValueError(f"line {lineno}: state {name!r} bound twice")
        args = tuple(map(_arg, parts[3:]))
        for state in (name, *(a for a in args if isinstance(a, str))):
            _check_name(lineno, "state name", state)
        bindings[name] = Binding(tag, args)
    if not bindings:
        raise ValueError("empty term description")
    return EqSystem(bindings, next(iter(bindings)))


def _arg(tok: str) -> int | str:
    """A numeric token is an atom, any other names a state."""
    try:
        return int(tok)
    except ValueError:
        return tok
