"""Proof trees, proof search, approximated proofs, and regular proof graphs.

Trees here are *children-injective*: siblings always carry distinct judgement
labels (premise sets are sets), so a tree is fully described by its root label
plus the prefix-closed set of label paths from the root.  That representation
makes the level-n approximation order a plain set comparison.

Depth convention: the root sits at depth 0 and depth counts edges, so "a
coaxiom used at depth >= n" means its node's path has length >= n.

Queries read the cached analysis by position: whether a proof exists is one
lookup in its entry or death steps.  Builders choose rules on the position
table ``InferenceSystem._table`` against those steps or a support mask; a
judgement is made only as a tree label, a ``ProofGraph`` field or a return
value.  The validators compare the positions of each node's children with
the same table.

No builder recurses, so no recursion limit bounds a proof's depth.
Well-founded proofs, which choose each node's rule as the walk reaches it,
and unfoldings are made in one top-down pass over their nodes (``_expand``),
in O(nodes), and held as those nodes in canonical order, one (label, depth)
pair each: printing, ``to_nested``, ``len``, ``depth`` and both validators
read that list, and the path set, O(nodes x depth) labels, is built the
first time something reads ``paths``.  Approximated proofs choose a premise
set per (position, level) top down, then stack path-set trees bottom up
(``_stack``), two levels at a time, in time cubic in the levels above the cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import add, mul
from typing import Callable, ClassVar, Container, Iterable, Iterator, Optional, Sequence

from .core import CapExceeded, CoaxError, InferenceSystem, Judgement, JudgementSet, _text
from .verify import Verdict

# the most nodes ``_expand`` lists, or ``_stack`` copies for one approximated
# proof or sequence, counted before the copying: more raises CapExceeded
TREE_NODE_CAP = 1_000_000


class NotConsistent(CoaxError):
    """A set offered as consistent contains a judgement no rule supports."""

    def __init__(self, judgement: Judgement):
        self.judgement = judgement
        super().__init__(f"no rule concludes {judgement} from inside the set")


class NotInGenerated(CoaxError):
    """The judgement lies outside the generated interpretation, so no
    approximating proof sequence for it exists."""

    def __init__(self, judgement: Judgement):
        self.judgement = judgement
        super().__init__(f"{judgement} is not in the generated interpretation")


Path = tuple[Judgement, ...]
Level = Sequence[tuple[int, tuple[int, ...]]]  # the (position, premises) pairs of one level


@dataclass(frozen=True)
class PathTree:
    """A finite children-injective tree: root label + prefix-closed paths.

    ``paths`` holds every nonempty label path; the empty path (the root) is
    implicit.  The node reached by path p is labelled p[-1].

    Well-founded proofs, unfoldings and the subtrees below an approximated
    proof's cut are held as their node lists instead (``_NodeTree``), and
    build their ``paths`` on first read.
    """

    root: Judgement
    paths: frozenset[Path] = frozenset()
    _nodes: ClassVar[Optional[tuple[list[Judgement], list[int]]]] = None

    def __post_init__(self) -> None:
        if self._nodes is not None:
            return  # canonical by construction, and its paths wait for a read
        for p in self.paths:
            if not p:
                raise ValueError("the empty path is implicit and must not be stored")
            if len(p) > 1 and p[:-1] not in self.paths:
                raise ValueError(f"path set is not prefix-closed at {p}")

    @staticmethod
    def branch(root: Judgement, subtrees: Iterable["PathTree"]) -> "PathTree":
        """Stack subtrees under a new root; subtree roots become the children
        and must be pairwise distinct (children injectivity)."""
        subs = list(subtrees)
        roots = [t.root for t in subs]
        if len(set(roots)) != len(roots):
            raise ValueError("children of a node must carry distinct labels")
        paths: set[Path] = set()
        for t in subs:
            paths.add((t.root,))
            for p in t.paths:
                paths.add((t.root,) + p)
        return PathTree(root, frozenset(paths))

    # -- structure -----------------------------------------------------------

    def label(self, path: Path) -> Judgement:
        return path[-1] if path else self.root

    def nodes(self) -> Iterator[Path]:
        """All node paths including the implicit root, in canonical order."""
        yield ()
        yield from sorted(self.paths)

    def children(self, path: Path) -> tuple[Judgement, ...]:
        n = len(path)
        return tuple(
            sorted(p[-1] for p in self.paths if len(p) == n + 1 and p[:n] == path)
        )

    @property
    def depth(self) -> int:
        return max((len(p) for p in self.paths), default=0)

    def __len__(self) -> int:
        return 1 + len(self.paths)

    def subtree(self, path: Path) -> "PathTree":
        if path and path not in self.paths:
            raise ValueError(f"no node at {path}")
        n = len(path)
        return PathTree(
            self.label(path),
            frozenset(p[n:] for p in self.paths if len(p) > n and p[:n] == path),
        )

    def _preorder(self) -> tuple[list[Judgement], list[int]]:
        """The labels and depths of the nodes in canonical order, read off the
        sorted paths, which list every node before its descendants."""
        paths = sorted(self.paths)
        return [self.root, *[p[-1] for p in paths]], [0, *map(len, paths)]

    def children_index(self) -> tuple[list[Judgement], list[int], list[list[int]]]:
        """The labels and depths of the nodes in canonical order and, for each
        node, the numbers of its children in that order, read in one pass: the
        parent of a node is the latest node listed one level up."""
        labels, depths = self._preorder()
        kids: list[list[int]] = [[] for _ in labels]
        latest = [0]  # latest[d]: the node number last listed at depth d
        for number in range(1, len(depths)):
            del latest[depths[number]:]
            kids[latest[-1]].append(number)
            latest.append(number)
        return labels, depths, kids

    def to_nested(self) -> dict:
        """JSON-friendly nested form: {judgement, children: [...]}, made in one
        pass: each node joins the children of the latest node one level up."""
        labels, depths = self._preorder()
        root: list[dict] = []
        latest = [root]  # latest[d]: the children of the node last listed at depth d - 1
        for text, d in zip(map(_text, labels), depths):
            kids: list[dict] = []
            latest[d].append({"judgement": text, "children": kids})
            latest[d + 1:] = [kids]
        return root[0]

    def render(self) -> str:
        """One line per node, indented two spaces a level, in canonical order:
        the order of a depth-first walk taking children in order."""
        return "\n".join(_lines(*self._preorder()))

    def render_pieces(self) -> Iterator[str]:
        """``render() + "\\n"`` in pieces of about 64 KiB, each ending in a
        newline, so that printing a tree never holds its whole text."""
        piece: list[str] = []
        size = 0
        for line in _lines(*self._preorder()):
            piece.append(line)
            size += len(line)
            if size > 1 << 16:
                yield "\n".join(piece) + "\n"
                piece, size = [], 0
        if piece:
            yield "\n".join(piece) + "\n"


def _lines(labels: Sequence[Judgement], depths: Sequence[int]) -> Iterator[str]:
    """The layout of a printed tree: each label indented by its depth."""
    return map(add, map(mul, repeat("  "), depths), map(_text, labels))


class _PathsOnFirstRead:
    """``_NodeTree.paths``: the first read builds the path set from the node
    list and stores it on the tree, where later reads find it first, since
    this descriptor defines no ``__set__``.  ``functools.cached_property``
    does the same, but before Python 3.12 it takes a lock on each first read,
    which added about a quarter to making a small tree and reading its paths."""

    def __get__(self, tree: Optional["_NodeTree"], owner: type) -> frozenset[Path]:
        if tree is None:
            return frozenset()
        labels, depths = tree._nodes
        paths: list[Path] = []
        latest: list[Path] = [()]  # latest[d]: the path of the node last listed at depth d
        for j, d in zip(labels[1:], depths[1:]):
            del latest[d:]
            latest.append(latest[-1] + (j,))
            paths.append(latest[-1])
        built = frozenset(paths)
        object.__setattr__(tree, "paths", built)
        return built


class _NodeTree(PathTree):
    """A ``PathTree`` held as its nodes in canonical order, one label and one
    depth each: the root first at depth 0, each later node one level below
    the latest node listed one level up, siblings in increasing label order.
    Printing, ``len``, ``depth`` and both validators read the list; equality,
    hashing, ``repr``, ``branch``, ``subtree``, ``children``, ``nodes`` and
    ``tree_le_n`` read ``paths``, built on the first read.  It is a class of
    its own because CPython does not specialize attribute reads past a
    descriptor class written in Python: on ``PathTree`` itself, ``paths`` would
    read about 3x slower on every path-set tree."""

    paths = _PathsOnFirstRead()  # type: ignore[assignment]

    def __init__(self, labels: list[Judgement], depths: list[int]):
        object.__setattr__(self, "root", labels[0])
        object.__setattr__(self, "_nodes", (labels, depths))
        self.__post_init__()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PathTree):
            return NotImplemented
        return self.root == other.root and self.paths == other.paths

    __hash__ = PathTree.__hash__

    def __repr__(self) -> str:
        return f"PathTree(root={self.root!r}, paths={self.paths!r})"

    @property
    def depth(self) -> int:
        return max(self._nodes[1])

    def __len__(self) -> int:
        return len(self._nodes[0])

    def _preorder(self) -> tuple[list[Judgement], list[int]]:
        return self._nodes


def validate_proof_tree(
    sys: InferenceSystem, t: PathTree, leaves: Container[Judgement] = ()
) -> Verdict:
    """Check that every node (leaves included) is the conclusion of a rule of
    the system whose premise set is exactly its children's labels; a childless
    member of ``leaves`` passes as an axiom would."""
    return _validate(sys, t, leaves, 0)


def _validate(
    sys: InferenceSystem, t: PathTree, leaves: Container[Judgement], n: int
) -> Verdict:
    """Both validators in one pass over one ``children_index``, on positions:
    a node outside the universe, or concluded by no rule from its children (a
    childless member of ``leaves`` excepted), fails at once; the first
    childless leaf above depth n that is no axiom fails if no such node does.
    Only a failing node's path is built."""
    labels, depths, kids = t.children_index()
    index, table = sys.universe._index, sys._table
    shallow = Verdict(True)
    for number, (c, numbers) in enumerate(zip(labels, kids)):
        pos = index.get(c.text)
        if pos is None:
            why = f"{c} is outside the universe"
            return Verdict(False, _path_to(labels, depths, number), why)
        children = tuple(index.get(labels[k].text) for k in numbers)
        if children in table.get(pos, ()):
            continue
        if children or c not in leaves:
            why = f"no rule concludes {c} from {tuple(map(labels.__getitem__, numbers))}"
            return Verdict(False, _path_to(labels, depths, number), why)
        if shallow and depths[number] < n:
            why = f"depth {depths[number]} < {n} node rests on a coaxiom"
            shallow = Verdict(False, _path_to(labels, depths, number), why)
    return shallow


def _path_to(labels: Sequence[Judgement], depths: Sequence[int], number: int) -> Path:
    """The label path of a node, read backwards off the nodes in canonical
    order: the node's parent is the latest node before it one level up."""
    path = []
    want = depths[number]
    for k in range(number, 0, -1):
        if depths[k] == want:
            path.append(labels[k])
            want -= 1
    return tuple(reversed(path))


def _expand(
    members: Sequence[Judgement], root: int, children: Callable[[int, int], Sequence[int]]
) -> PathTree:
    """The tree whose node of position c at depth d has the positions
    children(c, d), distinct and increasing, as its children, labelled by
    ``members``, listed node by node in canonical order in one top-down pass.
    Positions follow the order of their judgements, so going straight down to
    each first child and stacking the later siblings, last on the bottom,
    lists each subtree before its next sibling's.  It raises CapExceeded once
    the nodes listed, waiting and in hand, which after the last push are the
    whole tree, pass ``TREE_NODE_CAP``."""
    labels: list[Judgement] = []
    depths: list[int] = []
    stack: list[tuple[int, int]] = []
    c, d = root, 0
    while True:
        labels.append(members[c])
        depths.append(d)
        kids = children(c, d)
        if kids:
            d += 1
            c = kids[0]
            if len(kids) > 1:
                stack.extend(zip(kids[:0:-1], repeat(d)))
            if len(labels) + len(stack) >= TREE_NODE_CAP:
                raise CapExceeded(f"the proof tree exceeds {TREE_NODE_CAP} nodes")
        elif stack:
            c, d = stack.pop()
        else:
            return _NodeTree(labels, depths)


def _wf_build(
    sys: InferenceSystem, entry: list[int], pos: int, budget: int, leaves: int = 0
) -> PathTree:
    """Greedy canonical construction: take the least premise set whose members
    are all provable within the remaining budget b (entry steps in 1..b);
    members of the ``leaves`` mask stand as leaves, as axioms do.
    Well-defined whenever entry[pos] - 1 <= budget.

    The tree is expanded once, and the rule of each node is chosen as the
    walk reaches it: a node's budget is the root's less its depth, and the
    choice for each (position, budget) pair is made once."""
    table = sys._table
    chosen: dict[tuple[int, int], tuple[int, ...]] = {}

    def children(c: int, d: int) -> tuple[int, ...]:
        b = budget - d
        prs = chosen.get((c, b))
        if prs is None:
            for prs in ((),) if (leaves >> c) & 1 else table.get(c, ()):
                for p in prs:
                    if not 0 < entry[p] <= b:
                        break
                else:
                    break
            else:  # pragma: no cover - guarded by the level precondition
                raise AssertionError(f"no admissible rule at position {c}, budget {b}")
            chosen[c, b] = prs
        return prs

    return _expand(sys.universe.members, pos, children)


def _stack(
    members: Sequence[Judgement], trees: dict[int, PathTree], levels: Sequence[Level]
) -> Iterator[dict[int, PathTree]]:
    """Each level's trees by position, bottom up from ``trees`` at level 0: a
    (position, premises) pair stacks its premises' trees from the level below,
    the only one held, under the position's label.  The nodes are counted
    first, so CapExceeded comes before any copy if copies pass the cap."""
    sizes = {c: len(t) for c, t in trees.items()}
    copies = 0
    for level in levels:
        sizes = {c: 1 + sum(map(sizes.__getitem__, prs)) for c, prs in level}
        copies += sum(sizes.values()) - len(sizes)
        if copies > TREE_NODE_CAP and max(sizes.values()) > TREE_NODE_CAP:
            raise CapExceeded(f"the proof tree exceeds {TREE_NODE_CAP} nodes")
    if copies > TREE_NODE_CAP:
        size = f"a {max(sizes.values())}-node proof tree"
        raise CapExceeded(f"stacking {size} copies more than {TREE_NODE_CAP} nodes")
    for level in levels:
        trees = {c: PathTree.branch(members[c], map(trees.__getitem__, prs)) for c, prs in level}
        yield trees


def _below_the_cut(
    sys: InferenceSystem, entry: list[int], wanted: Iterable[int]
) -> dict[int, PathTree]:
    """A shortest proof modulo coaxioms of each closure member wanted, by
    position: the subtrees an approximated proof hangs below its cut, chosen
    against the coaxiom-seeded entry steps."""
    return {c: _wf_build(sys, entry, c, entry[c] - 1, sys.coaxioms.mask) for c in wanted}


def wf_proof_search(
    sys: InferenceSystem, j: Judgement, depth_bound: int
) -> Optional[PathTree]:
    """A finite proof tree for j of depth <= depth_bound, or None.

    With depth_bound = |universe| this decides inductive membership exactly:
    a judgement enters the n-th ascending iterate exactly when it has a proof
    of depth < n.  Coaxioms are not consulted; pass the coaxioms-as-axioms
    system to search modulo coaxioms.  A negative bound raises ValueError.
    """
    if depth_bound < 0:
        raise ValueError(f"depth bound must be >= 0, got {depth_bound}")
    if j not in sys.universe:
        return None
    entry = sys._ascend().record
    pos = sys.universe.position(j)
    if not 0 < entry[pos] <= depth_bound + 1:
        return None
    return _wf_build(sys, entry, pos, min(depth_bound, len(sys.universe)))


def approx_proof(sys: InferenceSystem, j: Judgement, n: int) -> Optional[PathTree]:
    """An approximated proof tree of level n for j, or None.

    The result is a finite proof tree in the coaxioms-as-axioms system whose
    coaxiom uses all sit at depth >= n; it exists exactly when j survives n
    descending steps from the closure of the coaxioms.  Above the cut the tree
    follows genuine rules whose premises survive one step fewer; below it each
    subtree is a shortest proof modulo coaxioms.  A negative n raises
    ValueError, a judgement outside the universe UniverseMismatch.
    """
    if n < 0:
        raise ValueError(f"approximation level must be >= 0, got {n}")
    up, down = sys._analyze()
    death = down.record
    pos = sys.universe.position(j)
    if 0 <= death[pos] <= n:
        return None
    table = sys._table

    def least(c: int, k: int) -> tuple[int, ...]:
        for prs in table.get(c, ()):
            for p in prs:
                if 0 <= death[p] < k:
                    break
            else:
                return prs
        raise AssertionError(f"position {c} unsupported at level {k}")  # pragma: no cover

    levels: list[Level] = []  # the choices at levels n, n - 1, ..., 1, top down
    seen: dict[Level, Level] = {}  # one copy of each distinct level: a ring repeats them
    wanted, nodes = {pos}, 1  # nodes: a lower bound on the tree's, one per position wanted
    for k in range(n, 0, -1):
        level = tuple([(c, least(c, k)) for c in wanted])
        levels.append(seen.setdefault(level, level))
        wanted = {p for _, prs in level for p in prs}
        nodes += len(wanted)
        if nodes > TREE_NODE_CAP + 1:  # its root alone would copy more than the cap
            raise CapExceeded(f"the proof tree exceeds {TREE_NODE_CAP} nodes")
        if not wanted:
            break
    trees = _below_the_cut(sys, up.record, wanted)
    for trees in _stack(sys.universe.members, trees, levels[::-1]):
        pass  # each level replaces the one below it
    return trees[pos]


def validate_approx_level(sys: InferenceSystem, t: PathTree, n: int) -> Verdict:
    """Check that t is a proof tree in the coaxioms-as-axioms system AND that
    every node above the cut (depth < n) is justified by a genuine rule.  The
    first check takes childless coaxioms as leaves, as ``_wf_build`` does,
    rather than building that system, and any failure of it comes before a
    failure of the second; both are made in one pass."""
    return _validate(sys, t, sys.coaxioms, n)


@dataclass
class ProofGraph:
    """A rule choice on a consistent set: finite presentation of a regular,
    possibly non-well-founded proof.  Unfolding from any member stays inside
    the support."""

    support: JudgementSet
    choice: dict[Judgement, tuple[Judgement, ...]]
    root: Judgement

    def to_dict(self) -> dict:
        return {
            "root": str(self.root),
            "nodes": [str(j) for j in self.support],
            "choice": {str(j): [str(p) for p in prs] for j, prs in self.choice.items()},
        }


def proof_graph(sys: InferenceSystem, s: JudgementSet, j: Judgement) -> ProofGraph:
    """Choose, for every member of the consistent set s, the canonically least
    rule whose premises stay in s; rooted at j.

    Raises NotConsistent on the first member (in canonical order) that no rule
    supports from inside s.
    """
    if j not in s:
        raise ValueError(f"root {j} is not in the support set")
    members = sys.universe.members
    choice: dict[Judgement, tuple[Judgement, ...]] = {}
    for c, prs in sys._least_rules(s):
        if prs is None:
            raise NotConsistent(members[c])
        choice[members[c]] = tuple(map(members.__getitem__, prs))
    return ProofGraph(s, choice, j)


def unfold(g: ProofGraph, depth: int) -> PathTree:
    """The depth-bounded path expansion of the choice graph from its root.

    Every node strictly above the cut has exactly its chosen premises as
    children; nodes at the cut are left childless.  A negative depth raises
    ValueError.
    """
    if depth < 0:
        raise ValueError(f"unfold depth must be >= 0, got {depth}")
    uni = g.support.universe
    index = uni._index
    choice = {index[c.text]: tuple(sorted(set(map(index.__getitem__, map(_text, prs)))))
              for c, prs in g.choice.items()}
    return _expand(uni.members, uni.position(g.root), lambda c, d: choice[c] if d < depth else ())


def tree_le_n(t1: PathTree, t2: PathTree, n: int) -> bool:
    """The level-n approximation order: the first n levels of t1 embed in t2
    (same root, path inclusion, labels agreeing by construction)."""
    if t1.root != t2.root:
        return False
    return all(p in t2.paths for p in t1.paths if len(p) <= n)


def tree_eq_n(t1: PathTree, t2: PathTree, n: int) -> bool:
    """Equality of the first n levels."""
    return tree_le_n(t1, t2, n) and tree_le_n(t2, t1, n)


def approximating_sequence(
    sys: InferenceSystem, j: Judgement, upto: int
) -> tuple[PathTree, ...]:
    """Trees t_0..t_upto with t_n a level-n approximated proof of j and each
    consecutive pair agreeing on the first n levels.

    Construction: fix for every generated judgement one shortest proof
    modulo coaxioms (its t_0) and one genuine rule whose premises are all
    generated; t_{n+1} stacks that rule over the premises' t_n.  Exists
    exactly for generated judgements.  A negative upto raises ValueError.
    """
    if upto < 0:
        raise ValueError(f"sequence bound must be >= 0, got {upto}")
    up, down = sys._analyze()
    pos = sys.universe.position(j)
    if down.record[pos] >= 0:
        raise NotInGenerated(j)
    chosen = dict(sys._least_rules(down.result))
    levels: list[Level] = []  # level n: the choices within upto - n steps of j, top down
    level, wanted = (), {pos}
    for _ in range(upto):
        if len(level) < len(wanted):  # until the choice reaches no new position
            level = [(c, chosen[c]) for c in wanted]
            wanted = wanted.union(*(prs for _, prs in level))
        levels.append(level)
    trees = _below_the_cut(sys, up.record, wanted)
    return (trees[pos], *(t[pos] for t in _stack(sys.universe.members, trees, levels[::-1])))
