import inspect

import pytest

from htsolve.errors import InvalidDimensionError
from htsolve.htree import (
    DimensionTree,
    build_balanced_tree,
    build_linear_tree,
    effective_edges,
    parse_tree,
    serialize_tree,
)


def test_d2_single_edge():
    tree = build_balanced_tree(2)
    assert tree.child_pair(tree.root) == ((0,), (1,))
    edges = effective_edges(tree)
    assert edges.edges == ((0,),)  # root children share the edge


def test_balanced_d4_structure():
    tree = build_balanced_tree(4)
    assert tree.child_pair((0, 1, 2, 3)) == ((0, 1), (2, 3))
    assert tree.child_pair((0, 1)) == ((0,), (1,))
    assert tree.child_pair((2, 3)) == ((2,), (3,))
    assert len(tree.nodes) == 7
    edges = effective_edges(tree)
    # depth-first, left before right, without root and right root child
    assert edges.edges == ((0, 1), (0,), (1,), (2,), (3,))


def test_balanced_d5_ceiling_split():
    tree = build_balanced_tree(5)
    assert tree.child_pair((0, 1, 2, 3, 4)) == ((0, 1, 2), (3, 4))
    assert tree.child_pair((0, 1, 2)) == ((0, 1), (2,))


def test_linear_d3_edges():
    tree = build_linear_tree(3)
    assert tree.child_pair((0, 1, 2)) == ((0,), (1, 2))
    edges = effective_edges(tree)
    assert edges.edges == ((0,), (1,), (2,))


@pytest.mark.parametrize("d", range(2, 11))
@pytest.mark.parametrize("build", [build_balanced_tree, build_linear_tree])
def test_node_and_edge_counts(build, d):
    tree = build(d)
    assert len(tree.nodes) == 2 * d - 1
    assert sum(tree.is_leaf(n) for n in tree.nodes) == d
    assert len(effective_edges(tree)) == max(1, 2 * d - 3)


@pytest.mark.parametrize("build", [build_balanced_tree, build_linear_tree])
def test_construction_deterministic(build):
    assert build(6) == build(6)
    assert effective_edges(build(6)).edges == effective_edges(build(6)).edges


@pytest.mark.parametrize("d", [-1, 0, 1])
@pytest.mark.parametrize("build", [build_balanced_tree, build_linear_tree])
def test_too_small_order_rejected(build, d):
    with pytest.raises(InvalidDimensionError):
        build(d)


def test_bottom_up_children_first():
    tree = build_balanced_tree(6)
    seen = set()
    for node in tree.bottom_up():
        if not tree.is_leaf(node):
            left, right = tree.child_pair(node)
            assert left in seen and right in seen
        seen.add(node)


def test_axis_order_concatenates_children():
    tree = build_balanced_tree(4)
    assert tree.axis_order((0, 1, 2, 3)) == (0, 1, 2, 3)
    assert tree.axis_order((0, 1)) == (0, 1)
    tree = build_linear_tree(4)
    assert tree.axis_order((1, 2, 3)) == (1, 2, 3)


def test_serialize_balanced_d4():
    assert serialize_tree(build_balanced_tree(4)) == "((1 2)(3 4))"


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 12])
@pytest.mark.parametrize("build", [build_balanced_tree, build_linear_tree])
def test_serialize_parse_round_trip(build, d):
    tree = build(d)
    assert parse_tree(serialize_tree(tree)) == tree


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_tree("((1 2)(3 4)")
    with pytest.raises(ValueError):
        parse_tree("(1 3)")  # not a full mode range
    with pytest.raises(ValueError):
        parse_tree("((1 2)(3 4))x")


def test_malformed_children_rejected():
    # children overlap
    with pytest.raises(ValueError):
        DimensionTree(d=2, children={(0, 1): ((0,), (0,))})
    # missing interior node
    with pytest.raises(ValueError):
        DimensionTree(d=3, children={(0, 1, 2): ((0, 1), (2,))})


def fresh_preorder(tree):
    out, stack = [], [tree.root]
    while stack:
        node = stack.pop()
        out.append(node)
        if not tree.is_leaf(node):
            left, right = tree.child_pair(node)
            stack.extend((right, left))
    return tuple(out)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
@pytest.mark.parametrize("build", [build_balanced_tree, build_linear_tree])
def test_cached_orders_equal_fresh_ones(build, d):
    tree = build(d)
    pre = fresh_preorder(tree)
    assert tree.nodes == pre
    assert tree.bottom_up() == tuple(reversed(pre))
    assert tree.interior_nodes() == tuple(n for n in pre if len(n) > 1)
    right_root = tree.child_pair(tree.root)[1]
    assert effective_edges(tree).edges == tuple(
        n for n in pre if n not in (tree.root, right_root))
    # repeated reads hand out the same objects
    assert tree.nodes is tree.nodes
    assert effective_edges(tree) is effective_edges(tree)


def test_traversal_members_keep_their_descriptors():
    # perfbench/layers.py wraps these members by kind: ``nodes`` as a
    # property, ``bottom_up`` and ``interior_nodes`` as plain functions
    members = DimensionTree.__dict__
    assert isinstance(members["nodes"], property)
    for name in ("bottom_up", "interior_nodes"):
        assert inspect.isfunction(members[name]), name
