import json
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeseg.errors import ConfigError, ParseError, RangeError, StructureError, WeightError
from treeseg.hierarchy import (
    EdgeWeightScheme,
    adjacency,
    assign_weights,
    build_tree,
    level_nodes,
    parse_level,
    parse_tree,
    random_tree,
    resolve_level,
    serialize,
)

from conftest import ancestors, make_random_tree, node_id


class TestParse:
    def test_three_leaf_tree(self, three_leaf_tree):
        t = three_leaf_tree
        assert t.n_leaves == 3
        assert t.n_nodes == 6
        assert t.levels == 2
        assert t.leaf_names() == ["a1", "a2", "b1"]
        # leaves occupy ids 0..C-1 in declaration order
        assert [t.name_of(i) for i in range(3)] == ["a1", "a2", "b1"]

    def test_leaf_count_is_counted_once_per_tree(self, three_leaf_tree):
        """A parsed tree, a built tree and a dataclasses.replace copy each count their own
        leaves once; a copy does not carry the count of the tree it was made from."""
        assert three_leaf_tree.n_leaves == 3
        built = build_tree("r", {"r": ["A", "b"], "A": ["a1", "a2", "a3"]})
        heavier = assign_weights(three_leaf_tree, EdgeWeightScheme("hier"))  # a replace copy
        swapped = replace(three_leaf_tree, **{f.name: getattr(built, f.name) for f in fields(built)})
        for tree, count in ((three_leaf_tree, 3), (built, 4), (heavier, 3), (swapped, 4)):
            assert tree.n_leaves == count
            assert vars(tree)["n_leaves"] == count  # cached on the tree by the first access

    def test_duplicate_name_is_parse_error(self):
        doc = json.dumps({"name": "r", "children": [{"name": "x"}, {"name": "x"}]})
        with pytest.raises(ParseError):
            parse_tree(doc)

    def test_node_under_two_parents_is_structure_error(self):
        doc = json.dumps(
            {
                "name": "r",
                "children": [
                    {"name": "A", "children": [{"name": "shared"}, {"name": "a2"}]},
                    {"name": "B", "children": ["shared"]},
                ],
            }
        )
        with pytest.raises(StructureError):
            parse_tree(doc)

    def test_cycle_is_structure_error(self):
        doc = json.dumps({"name": "r", "children": [{"name": "A", "children": ["r"]}, {"name": "b"}]})
        with pytest.raises(StructureError):
            parse_tree(doc)

    def test_multiple_roots_is_structure_error(self):
        doc = json.dumps([{"name": "r1"}, {"name": "r2"}])
        with pytest.raises(StructureError):
            parse_tree(doc)

    def test_negative_weight_is_weight_error(self):
        doc = json.dumps({"name": "r", "children": [{"name": "a", "weight": -1}, {"name": "b"}]})
        with pytest.raises(WeightError):
            parse_tree(doc)

    def test_bad_json_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_tree("{not json")

    def test_single_leaf_rejected(self):
        with pytest.raises(StructureError):
            parse_tree(json.dumps({"name": "r", "children": [{"name": "only"}]}))

    def test_unknown_reference_is_parse_error(self):
        doc = json.dumps({"name": "r", "children": ["ghost", {"name": "a"}]})
        with pytest.raises(ParseError):
            parse_tree(doc)

    @pytest.mark.parametrize(
        "children, error",
        [
            (["a", {"name": "a"}, {"name": "b"}], StructureError),  # a node defined after the string naming it
            ([{"name": "a", "children": ["b", {"name": "c"}, {"name": "d"}]}, {"name": "b"}], StructureError),
            ([{"name": "a", "children": ["b", "ghost"]}, {"name": "b"}], ParseError),  # a string naming nothing is a ParseError first
        ],
    )
    def test_every_string_child_entry_is_rejected(self, children, error):
        with pytest.raises(error):
            parse_tree(json.dumps({"name": "r", "children": children}))

    @pytest.mark.parametrize(
        "doc, message",
        [
            (3, "hierarchy document must be a JSON object"),
            ({"name": 5, "children": [{"name": "a"}, {"name": "b"}]}, "node name must be a string, got 5"),
            ({"name": "r", "children": [{"name": "a", "weight": "2"}, {"name": "b"}]}, "weight of 'a' must be a number"),
            ({"name": "r", "children": {"name": "a"}}, "children of 'r' must be a list"),
        ],
    )
    def test_malformed_document_is_parse_error(self, doc, message):
        with pytest.raises(ParseError, match=message):
            parse_tree(json.dumps(doc))

    def test_file_weights_are_kept(self):
        doc = json.dumps({"name": "r", "children": [{"name": "a", "weight": 2.5}, {"name": "b"}]})
        t = parse_tree(doc)
        assert t.edge_weight[node_id(t, "a")] == 2.5
        assert t.edge_weight[node_id(t, "b")] == 1.0  # default

    def test_wide_tree(self):
        # flat hierarchy with many leaves, the degenerate one-level case
        doc = json.dumps({"name": "r", "children": [{"name": f"c{i}"} for i in range(108)]})
        t = parse_tree(doc)
        assert t.n_leaves == 108
        assert t.levels == 1
        assert level_nodes(t, 0) == set(range(108))


class TestRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 4), st.booleans())
    def test_serialize_parse_round_trip(self, seed, depth, ragged):
        t = make_random_tree(seed, depth=depth, ragged=ragged)
        again = parse_tree(serialize(t))
        assert [n.name for n in again.nodes] == [n.name for n in t.nodes]
        assert [n.children for n in again.nodes] == [n.children for n in t.nodes]
        assert again.parent == t.parent
        assert again.edge_weight == t.edge_weight
        assert again.root == t.root

    def test_round_trip_keeps_assigned_weights(self, three_leaf_tree):
        t = assign_weights(three_leaf_tree, EdgeWeightScheme("hier", kappa=3.0))
        assert parse_tree(serialize(t)).edge_weight == t.edge_weight


class TestWeights:
    def test_equal_sets_all_ones(self, three_leaf_tree):
        t = assign_weights(three_leaf_tree, EdgeWeightScheme("equal"))
        assert all(w == 1.0 for w in t.edge_weight.values())

    def test_top_only(self, three_leaf_tree):
        t = assign_weights(three_leaf_tree, EdgeWeightScheme("top"))
        for v, w in t.edge_weight.items():
            assert w == (1.0 if t.parent[v] == t.root else 0.0)

    def test_leaf_only(self, three_leaf_tree):
        t = assign_weights(three_leaf_tree, EdgeWeightScheme("leaf"))
        for v, w in t.edge_weight.items():
            assert w == (1.0 if t.nodes[v].is_leaf else 0.0)

    @pytest.mark.parametrize("kappa,expect_top", [(10.0, 10.0), (2.0, 2.0)])
    def test_hier_on_depth2_chain(self, kappa, expect_top):
        doc = json.dumps(
            {"name": "r", "children": [{"name": "mid", "children": [{"name": "leafA"}, {"name": "leafB"}]}, {"name": "other"}]}
        )
        t = assign_weights(parse_tree(doc), EdgeWeightScheme("hier", kappa=kappa))
        assert t.edge_weight[node_id(t, "leafA")] == 1.0
        assert t.edge_weight[node_id(t, "mid")] == expect_top

    def test_hier_requires_positive_kappa(self):
        with pytest.raises(WeightError):
            EdgeWeightScheme("hier", kappa=0.0)

    def test_hier_on_ragged_siblings_keeps_leaf_edges_at_one(self):
        # subtrees of different depths under one parent: every leaf edge
        # weighs 1 and each edge scales by kappa per step away from leaves
        doc = json.dumps(
            {
                "name": "r",
                "children": [
                    {
                        "name": "deep",
                        "children": [
                            {"name": "mid", "children": [{"name": "x1"}, {"name": "x2"}]},
                            {"name": "shallow_kid"},
                        ],
                    },
                    {"name": "loner"},
                ],
            }
        )
        t = assign_weights(parse_tree(doc), EdgeWeightScheme("hier", kappa=3.0))
        for name in ("x1", "x2", "shallow_kid", "loner"):
            assert t.edge_weight[node_id(t, name)] == 1.0
        assert t.edge_weight[node_id(t, "mid")] == 3.0
        assert t.edge_weight[node_id(t, "deep")] == 9.0  # height 2 above the deepest leaf

    def test_idempotent_and_order_independent(self):
        t = make_random_tree(7)
        a = assign_weights(t, EdgeWeightScheme("equal"))
        assert assign_weights(a, EdgeWeightScheme("equal")).edge_weight == a.edge_weight
        via_other = assign_weights(assign_weights(t, EdgeWeightScheme("top")), EdgeWeightScheme("equal"))
        assert via_other.edge_weight == a.edge_weight

    def test_assign_does_not_mutate_input(self, three_leaf_tree):
        before = dict(three_leaf_tree.edge_weight)
        assign_weights(three_leaf_tree, EdgeWeightScheme("top"))
        assert three_leaf_tree.edge_weight == before


class TestAdjacency:
    def test_three_leaf_matrix(self, three_leaf_tree):
        a = adjacency(three_leaf_tree)
        assert a.shape == (6, 6)
        assert a.sum() == 5  # one entry per edge
        assert np.all(a.sum(axis=0) <= 1)  # each child has one parent

    def test_flat_tree_root_row(self):
        doc = json.dumps({"name": "r", "children": [{"name": f"l{i}"} for i in range(5)]})
        t = parse_tree(doc)
        a = adjacency(t)
        assert a[t.root].sum() == 5

    def test_nilpotent(self):
        t = make_random_tree(3)
        a = adjacency(t)
        assert np.all(np.linalg.matrix_power(a, t.levels + 1) == 0)

    def test_inverse_matches_power_series(self):
        # (I - A)^(-1) == sum_k A^k, summed directly until nilpotency kills it
        t = make_random_tree(11)
        a = adjacency(t)
        series = np.zeros_like(a)
        power = np.eye(a.shape[0])
        for _ in range(t.levels + 2):
            series = series + power
            power = power @ a
        assert np.allclose(np.linalg.inv(np.eye(a.shape[0]) - a), series, atol=1e-12)


class TestLevels:
    def test_three_leaf_levels(self, three_leaf_tree):
        t = three_leaf_tree
        names = lambda ids: sorted(t.name_of(v) for v in ids)
        assert names(level_nodes(t, t.levels - 1)) == ["A", "B"]
        assert names(level_nodes(t, 0)) == ["a1", "a2", "b1"]

    def test_out_of_range(self, three_leaf_tree):
        with pytest.raises(RangeError):
            level_nodes(three_leaf_tree, three_leaf_tree.levels)
        with pytest.raises(RangeError):
            level_nodes(three_leaf_tree, -1)

    def test_topmost_is_root_children_even_when_ragged(self):
        doc = json.dumps(
            {
                "name": "r",
                "children": [
                    {"name": "deep", "children": [{"name": "d1", "children": [{"name": "x1"}, {"name": "x2"}]}, {"name": "d2"}]},
                    {"name": "shallow_leaf"},
                ],
            }
        )
        t = parse_tree(doc)
        top = {t.name_of(v) for v in level_nodes(t, t.levels - 1)}
        assert top == {"deep", "shallow_leaf"}
        assert {t.name_of(v) for v in level_nodes(t, 0)} == {"x1", "x2", "d2", "shallow_leaf"}

    def test_six_top_classes(self):
        doc = json.dumps(
            {
                "name": "scene",
                "children": [
                    {"name": f"group{i}", "children": [{"name": f"g{i}a"}, {"name": f"g{i}b"}]} for i in range(6)
                ],
            }
        )
        t = parse_tree(doc)
        assert len(level_nodes(t, t.levels - 1)) == 6

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.booleans())
    def test_children_partition_parent_leaves(self, seed, ragged):
        t = make_random_tree(seed, ragged=ragged)
        for v in range(t.n_nodes):
            kids = t.children(v)
            if not kids:
                continue
            union = sorted(leaf for c in kids for leaf in t.leaves_under(c))
            assert union == t.leaves_under(v)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.booleans())
    def test_every_level_is_a_cut(self, seed, ragged):
        # each root-to-leaf path crosses every level exactly once
        t = make_random_tree(seed, depth=4, ragged=ragged)
        for k in range(t.levels):
            members = level_nodes(t, k)
            for leaf in range(t.n_leaves):
                assert sum(1 for v in ancestors(t, leaf) if v in members) == 1


class TestLevelSpelling:
    @pytest.mark.parametrize("value, parsed", [("leaf", "leaf"), ("topmost", "topmost"), (1, 1), (np.int64(1), 1), ("1", 1), (-3, -3)])
    def test_parse_accepts(self, value, parsed):
        assert parse_level(value) == parsed

    @pytest.mark.parametrize("value", ["junk", "", 1.0, True, None, [0]])
    def test_parse_rejects(self, value):
        with pytest.raises(ConfigError):
            parse_level(value)

    def test_resolve(self, three_leaf_tree):
        t = three_leaf_tree
        assert [resolve_level(t, v) for v in ("leaf", "topmost", 1, 0)] == [0, t.levels - 1, 1, 0]

    @pytest.mark.parametrize("level", [-1, 2])
    def test_resolve_out_of_range(self, three_leaf_tree, level):
        with pytest.raises(RangeError):
            resolve_level(three_leaf_tree, level)


def test_random_tree_is_deterministic():
    a = random_tree(np.random.default_rng(42), depth=3)
    b = random_tree(np.random.default_rng(42), depth=3)
    assert serialize(a) == serialize(b)


def assert_well_formed(t):
    """The structural invariants every LabelTree must hold."""
    n, c = t.n_nodes, t.n_leaves
    assert c >= 2
    assert [t.nodes[v].is_leaf for v in range(n)] == [True] * c + [False] * (n - c)  # leaf ids 0..C-1
    assert t.root not in t.parent and set(t.parent) == set(range(n)) - {t.root}
    listed = [ch for v in range(n) for ch in t.nodes[v].children]
    assert sorted(listed) == sorted(t.parent)  # each non-root is listed under exactly one node
    assert all(t.parent[ch] == v for v in range(n) for ch in t.nodes[v].children)
    for v in range(n):  # every parent chain reaches the root within n steps
        steps = 0
        while v != t.root:
            v, steps = t.parent[v], steps + 1
            assert steps < n
    assert set(t.edge_weight) == set(t.parent)
    assert all(np.isfinite(w) and w >= 0 for w in t.edge_weight.values())


GOOD_WEIGHTS = st.one_of(st.none(), st.integers(0, 5), st.floats(0, 100))
BAD_WEIGHTS = st.one_of(st.sampled_from([-1, float("nan"), float("inf"), -float("inf"), 10**400]), st.floats(max_value=-1e-300))


@st.composite
def hierarchy_docs(draw):
    """A random tree with unique names and valid weights, then a few faults: a duplicate
    name, a string reference (undefined, to an ancestor, or a second parent) or a bad weight."""
    n = draw(st.integers(1, 14))
    parent = [None] + [draw(st.integers(0, i - 1)) for i in range(1, n)]
    names = [f"n{i}" for i in range(n)]
    weights = [draw(GOOD_WEIGHTS) for _ in range(n)]
    refs = [[] for _ in range(n)]
    for kind, i, j in draw(st.lists(st.tuples(st.sampled_from(["dup", "ref", "weight"]), st.integers(0, n - 1), st.integers(0, n)), max_size=2)):
        if kind == "dup":
            names[i] = names[j % n]
        elif kind == "ref":
            refs[i].append(names[j] if j < n else "ghost")
        else:
            weights[i] = draw(BAD_WEIGHTS)
    nodes = [{"name": name} if w is None else {"name": name, "weight": w} for name, w in zip(names, weights)]
    for i in range(1, n):
        nodes[parent[i]].setdefault("children", []).append(nodes[i])
    for i in range(n):
        if refs[i]:
            nodes[i].setdefault("children", []).extend(refs[i])
    return json.dumps(nodes[0])


@settings(max_examples=400, deadline=None)
@given(doc=hierarchy_docs())
def test_every_accepted_document_gives_a_well_formed_tree(doc):
    try:
        tree = parse_tree(doc)
    except (ParseError, StructureError, WeightError):
        return
    assert_well_formed(tree)


@pytest.mark.parametrize("ragged", [False, True])
def test_random_trees_are_well_formed(ragged):
    for seed in range(30):
        assert_well_formed(random_tree(np.random.default_rng(seed), depth=3, branching=(1, 3), ragged=ragged))
