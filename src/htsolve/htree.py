"""Dimension trees over mode sets and the effective-edge enumeration.

A dimension tree for order ``d`` is a binary tree whose root is the full mode
set ``{0, ..., d-1}`` and whose leaves are the singletons; every interior node
is the disjoint union of its two (ordered) children.  Such a tree has exactly
``2d - 1`` nodes.  Each non-root node corresponds to one matricization of a
tensor; the two children of the root share a single matricization (one is the
transpose of the other), so the number of *effective edges* is
``max(1, 2d - 3)``.

Modes are 0-based throughout the package.  The text serialization used by the
on-disk formats is 1-based, e.g. ``((1 2)(3 4))`` for the balanced tree over
four modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from htsolve.errors import InvalidDimensionError

__all__ = [
    "Node",
    "DimensionTree",
    "EdgeList",
    "build_balanced_tree",
    "build_linear_tree",
    "effective_edges",
    "serialize_tree",
    "parse_tree",
]

#: A tree node: the sorted tuple of the modes it covers.
Node = tuple[int, ...]


@dataclass(frozen=True)
class DimensionTree:
    """Binary dimension tree over the mode set ``{0, ..., d-1}``.

    Parameters
    ----------
    d : int
        Tensor order; must be at least 2.
    children : dict[Node, tuple[Node, Node]]
        Ordered child pairs for every interior node, keyed by the (sorted)
        node tuples.  The instance is treated as immutable once constructed.
    """

    d: int
    children: dict[Node, tuple[Node, Node]] = field(compare=True)

    def __post_init__(self):
        if self.d < 2:
            raise InvalidDimensionError(f"tensor order must be >= 2, got d={self.d}")
        root = tuple(range(self.d))
        if root not in self.children:
            raise ValueError("children must contain the root node")
        preorder: list[Node] = []
        seen = set()
        stack = [root]
        while stack:
            node = stack.pop()
            if node in seen:
                raise ValueError(f"node {node} reached twice")
            seen.add(node)
            preorder.append(node)
            if len(node) == 1:
                if node in self.children:
                    raise ValueError(f"leaf {node} must not have children")
                continue
            try:
                left, right = self.children[node]
            except KeyError:
                raise ValueError(f"interior node {node} has no children") from None
            if tuple(sorted(left + right)) != node or set(left) & set(right):
                raise ValueError(f"children of {node} do not partition it")
            stack.extend((right, left))
        if len(seen) != 2 * self.d - 1:
            raise ValueError(
                f"tree has {len(seen)} reachable nodes, expected {2 * self.d - 1}"
            )
        # traversal orders, computed once: the tree is immutable
        _, right_root = self.children[root]
        cache = object.__setattr__
        cache(self, "_nodes", tuple(preorder))
        cache(self, "_bottom_up", tuple(reversed(preorder)))
        cache(self, "_interior", tuple(n for n in preorder if len(n) > 1))
        cache(self, "_edges", EdgeList(edges=tuple(
            n for n in preorder if n != root and n != right_root)))

    # -- basic structure ---------------------------------------------------

    @property
    def root(self) -> Node:
        return tuple(range(self.d))

    def is_leaf(self, node: Node) -> bool:
        return len(node) == 1

    def child_pair(self, node: Node) -> tuple[Node, Node]:
        return self.children[node]

    # ``nodes`` stays a property and ``bottom_up``/``interior_nodes`` plain
    # methods, so tools that wrap class members see the usual descriptors

    @property
    def nodes(self) -> tuple[Node, ...]:
        """All nodes in depth-first preorder (root first, left before right)."""
        return self._nodes

    def interior_nodes(self) -> tuple[Node, ...]:
        """Interior nodes in depth-first preorder."""
        return self._interior

    def bottom_up(self) -> tuple[Node, ...]:
        """All nodes ordered so that children precede their parents."""
        return self._bottom_up

    def axis_order(self, node: Node) -> tuple[int, ...]:
        """Mode ordering of a node's tensorized index: recursive concatenation
        of the children's orderings (a leaf is its single mode)."""
        if len(node) == 1:
            return node
        left, right = self.children[node]
        return self.axis_order(left) + self.axis_order(right)

    def __hash__(self):
        return hash((self.d, tuple(sorted((k, v) for k, v in self.children.items()))))


@dataclass(frozen=True)
class EdgeList:
    """Effective edges of a dimension tree, one representative node each.

    The two root children describe the same matricization, so they contribute
    a single entry, represented by the *left* root child.
    """

    edges: tuple[Node, ...]

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self):
        return iter(self.edges)


def effective_edges(tree: DimensionTree) -> EdgeList:
    """Enumerate the effective edges of a dimension tree.

    Depth-first order, left child before right child, excluding the root and
    the right root child; for ``d = 2`` this leaves the single shared edge.
    The list is built once, with the tree.
    """
    return tree._edges


# -- constructions ---------------------------------------------------------


def build_balanced_tree(d: int) -> DimensionTree:
    """Balanced tree over contiguous mode ranges; a split gives the left
    child the ceiling half."""
    if d < 2:
        raise InvalidDimensionError(f"tensor order must be >= 2, got d={d}")
    children: dict[Node, tuple[Node, Node]] = {}

    def split(lo: int, hi: int) -> Node:
        node = tuple(range(lo, hi))
        if hi - lo > 1:
            mid = lo + (hi - lo + 1) // 2
            children[node] = (split(lo, mid), split(mid, hi))
        return node

    split(0, d)
    return DimensionTree(d=d, children=children)


def build_linear_tree(d: int) -> DimensionTree:
    """Linear (tensor-train-like) tree: ``{i}`` splits off ``{i+1, ..., d-1}``."""
    if d < 2:
        raise InvalidDimensionError(f"tensor order must be >= 2, got d={d}")
    children: dict[Node, tuple[Node, Node]] = {}
    for i in range(d - 1):
        node = tuple(range(i, d))
        children[node] = ((i,), tuple(range(i + 1, d)))
    return DimensionTree(d=d, children=children)


# -- serialization ---------------------------------------------------------


def serialize_tree(tree: DimensionTree) -> str:
    """Serialize to the 1-based nested-parentheses form, e.g. ``((1 2)(3 4))``."""

    def ser(node: Node) -> str:
        if tree.is_leaf(node):
            return str(node[0] + 1)
        left, right = tree.child_pair(node)
        a, b = ser(left), ser(right)
        sep = " " if (a[-1].isdigit() and b[0].isdigit()) else ""
        return f"({a}{sep}{b})"

    return ser(tree.root)


def parse_tree(text: str) -> DimensionTree:
    """Parse the serialization produced by :func:`serialize_tree`."""
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def parse_node() -> tuple[Node, dict]:
        nonlocal pos
        skip_ws()
        if pos >= len(text):
            raise ValueError("unexpected end of tree serialization")
        if text[pos] == "(":
            pos += 1
            left, ch_l = parse_node()
            right, ch_r = parse_node()
            skip_ws()
            if pos >= len(text) or text[pos] != ")":
                raise ValueError(f"expected ')' at position {pos}")
            pos += 1
            node = tuple(sorted(left + right))
            children = {**ch_l, **ch_r, node: (left, right)}
            return node, children
        if not text[pos].isdigit():
            raise ValueError(f"unexpected character {text[pos]!r} at position {pos}")
        start = pos
        while pos < len(text) and text[pos].isdigit():
            pos += 1
        mode = int(text[start:pos]) - 1
        if mode < 0:
            raise ValueError("modes in serialized trees are 1-based")
        return (mode,), {}

    root, children = parse_node()
    skip_ws()
    if pos != len(text):
        raise ValueError(f"trailing characters after tree at position {pos}")
    if root != tuple(range(len(root))):
        raise ValueError(f"parsed tree covers modes {root}, expected a full range")
    return DimensionTree(d=len(root), children=children)
