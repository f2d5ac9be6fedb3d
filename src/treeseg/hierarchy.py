"""Label hierarchy: parsing, validation, edge-weight schemes and level structure.

A label tree is a rooted tree whose leaves are the trainable classes.
Leaves get the contiguous ids ``0..C-1`` in depth-first declaration order
so probability vectors and distance matrices have a deterministic layout;
internal nodes follow with ids ``C..N-1``. Trees are immutable after
construction: operations that change weights return a new tree.

Levels count from the bottom: level 0 is the leaves, level ``K-1`` the
children of the root. Ragged trees are allowed; a leaf shallower than the
maximum depth belongs to every level at or below its depth band, so each
level forms a cut of the tree (every root-to-leaf path crosses it exactly
once) and aggregated probabilities sum to one at every level.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParseError, RangeError, StructureError, ValidationError, WeightError

WEIGHT_SCHEMES = ("top", "leaf", "equal", "hier")


@dataclass(frozen=True)
class EdgeWeightScheme:
    """Edge weighting rule: 'top', 'leaf', 'equal' or 'hier' (geometric, scale kappa)."""

    kind: str
    kappa: float = 10.0

    def __post_init__(self):
        if self.kind not in WEIGHT_SCHEMES:
            raise WeightError(f"unknown weight scheme {self.kind!r}, expected one of {WEIGHT_SCHEMES}")
        if not math.isfinite(self.kappa):
            raise WeightError(f"kappa must be finite, got {self.kappa!r}")
        if self.kind == "hier" and not self.kappa > 0:
            raise WeightError(f"hier scheme requires kappa > 0, got {self.kappa}")


@dataclass
class NodeRecord:
    id: int
    name: str
    children: list[int]  # declaration order

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass
class LabelTree:
    """Validated rooted weighted tree over the label space.

    ``edge_weight[v]`` is the weight of the edge from ``v`` to its parent;
    the root carries no edge. ``levels`` (``K``) is the maximum node depth.
    """

    nodes: list[NodeRecord]
    root: int
    parent: dict[int, int] = field(repr=False)
    edge_weight: dict[int, float] = field(repr=False)
    depth: dict[int, int] = field(repr=False)
    levels: int

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @cached_property
    def n_leaves(self) -> int:
        """Leaf count, counted once per tree."""
        return sum(1 for n in self.nodes if n.is_leaf)

    def children(self, v: int) -> list[int]:
        return self.nodes[v].children

    def name_of(self, v: int) -> str:
        return self.nodes[v].name

    def leaf_names(self) -> list[str]:
        return [self.nodes[i].name for i in range(self.n_leaves)]

    @cached_property
    def ancestor_table(self) -> np.ndarray:
        """(N, K+1) node ids, built once: entry (v, d) is v's ancestor at depth d,
        and v itself from v's own depth on. Every ancestry query reads it."""
        n = self.n_nodes
        depth = np.array([self.depth[v] for v in range(n)])
        parent = np.array([self.parent.get(v, v) for v in range(n)])
        table = np.repeat(np.arange(n)[:, None], self.levels + 1, axis=1)
        for d in range(1, self.levels + 1):
            at = np.flatnonzero(depth == d)
            table[at, :d] = table[parent[at], :d]
        table.flags.writeable = False
        return table

    def leaves_under(self, v: int) -> list[int]:
        """Leaf ids in the subtree rooted at v, ascending."""
        return np.flatnonzero(self.ancestor_table[: self.n_leaves, self.depth[v]] == v).tolist()

    def height(self, v: int) -> int:
        """Edge distance from v to its deepest descendant leaf."""
        if self.nodes[v].is_leaf:
            return 0
        return 1 + max(self.height(c) for c in self.nodes[v].children)

    def deepest_first(self) -> list[int]:
        """Node ids ordered children-before-parents (by decreasing depth)."""
        return sorted(range(self.n_nodes), key=lambda v: (-self.depth[v], v))

    def to_dict(self) -> dict:
        def rec(v: int) -> dict:
            d: dict = {"name": self.nodes[v].name}
            if v != self.root:
                d["weight"] = self.edge_weight[v]
            if self.nodes[v].children:
                d["children"] = [rec(c) for c in self.nodes[v].children]
            return d

        return rec(self.root)


def serialize(tree: LabelTree) -> str:
    """Serialize to the hierarchy JSON format; parse_tree round-trips it."""
    return json.dumps(tree.to_dict(), indent=2)


def parse_tree(document: str) -> LabelTree:
    """Parse and validate a hierarchy document.

    The document is nested JSON ``{"name": str, "weight": number?,
    "children": [...]}``. Every node is defined nested under its one
    parent, so a child entry that is a string naming a node is always
    rejected: it names nothing (ParseError) or names a defined node a
    second time, under a second parent or as the root (a cycle), which is
    a StructureError.
    """
    try:
        data = json.loads(document)
    except json.JSONDecodeError as e:
        raise ParseError(f"hierarchy is not valid JSON: {e}") from e
    if isinstance(data, list):
        raise StructureError("hierarchy document must have a single root object")
    if not isinstance(data, dict):
        raise ParseError("hierarchy document must be a JSON object")

    defs: dict[str, dict] = {}  # name -> node object
    child_names: dict[str, list[str]] = {}
    refs: list[str] = []  # string child entries, each parent's after its subtrees'

    def collect(obj: dict) -> str:
        if not isinstance(obj, dict) or "name" not in obj:
            raise ParseError("every node requires a 'name' field")
        name = obj["name"]
        if not isinstance(name, str):
            raise ParseError(f"node name must be a string, got {name!r}")
        if name in defs:
            raise ParseError(f"duplicate node name {name!r}")
        defs[name] = obj
        w = obj.get("weight", 1.0)
        if not isinstance(w, (int, float)) or isinstance(w, bool):
            raise ParseError(f"weight of {name!r} must be a number")
        if not 0 <= w <= sys.float_info.max:
            raise WeightError(f"edge weight of {name!r} must be finite and >= 0, got {w}")
        kids = obj.get("children", [])
        if not isinstance(kids, list):
            raise ParseError(f"children of {name!r} must be a list")
        child_names[name] = [collect(entry) for entry in kids if not isinstance(entry, str)]
        refs.extend(entry for entry in kids if isinstance(entry, str))
        return name

    root_name = collect(data)

    for c in refs:
        if c not in defs:
            raise ParseError(f"child reference {c!r} does not name a defined node")
    for c in refs:
        if c != root_name:
            raise StructureError(f"node {c!r} is listed under {1 + refs.count(c)} parents")
    if refs:
        raise StructureError(f"root {root_name!r} appears as a child (cycle)")

    weights = {name: float(defs[name].get("weight", 1.0)) for name in defs}
    return build_tree(root_name, child_names, weights)


def read_tree(path) -> LabelTree:
    """Parse a hierarchy file; a missing file is a ConfigError, one that is not text a ParseError.

    Every error ``parse_tree`` raises keeps its type, its message prefixed with the path.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"no hierarchy file at {path}")
    try:
        text = path.read_text()
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not a UTF-8 text file") from None
    try:
        return parse_tree(text)
    except ValidationError as e:
        raise type(e)(f"{path}: {e}") from None


def build_tree(root_name: str, child_names: dict[str, list[str]], weights: dict[str, float] | None = None) -> LabelTree:
    """Construct a LabelTree from name-keyed structure maps that form a tree.

    ``parse_tree`` checks a document's structure and weights before it calls
    this, and ``random_tree`` grows a tree, so only the leaf count is checked.
    """
    weights = weights or {}

    order: list[str] = []  # depth-first declaration order
    depth_by_name = {root_name: 0}
    stack = [root_name]
    while stack:
        u = stack.pop()
        order.append(u)
        for c in reversed(child_names.get(u, [])):
            depth_by_name[c] = depth_by_name[u] + 1
            stack.append(c)

    leaves = [n for n in order if not child_names.get(n)]
    internals = [n for n in order if child_names.get(n)]
    if len(leaves) < 2:
        raise StructureError(f"a label tree needs at least 2 leaves, got {len(leaves)}")
    ids = {name: i for i, name in enumerate(leaves + internals)}

    nodes = [NodeRecord(id=ids[n], name=n, children=[ids[c] for c in child_names.get(n, [])]) for n in leaves + internals]
    return LabelTree(
        nodes=nodes,
        root=ids[root_name],
        parent={ids[c]: ids[p] for p, kids in child_names.items() for c in kids},
        edge_weight={ids[n]: float(weights.get(n, 1.0)) for n in leaves + internals if n != root_name},
        depth={ids[n]: depth_by_name[n] for n in leaves + internals},
        levels=max(depth_by_name[leaf] for leaf in leaves),
    )


def assign_weights(tree: LabelTree, scheme: EdgeWeightScheme) -> LabelTree:
    """Return a copy of the tree with edge weights set by the scheme.

    top: 1 on root-child edges, 0 elsewhere. leaf: 1 on leaf edges, 0
    elsewhere. equal: all 1. hier: a leaf-adjacent edge weighs 1 and each
    edge one level closer to the root weighs kappa times its child edge;
    on ragged trees the exponent is the child node's height, so every
    leaf-adjacent edge weighs 1 regardless of branch depth.
    """
    weights: dict[int, float] = {}
    for v in range(tree.n_nodes):
        if v == tree.root:
            continue
        if scheme.kind == "top":
            weights[v] = 1.0 if tree.parent[v] == tree.root else 0.0
        elif scheme.kind == "leaf":
            weights[v] = 1.0 if tree.nodes[v].is_leaf else 0.0
        elif scheme.kind == "equal":
            weights[v] = 1.0
        else:
            weights[v] = float(scheme.kappa) ** tree.height(v)
    return replace(tree, edge_weight=weights)


def edge_weight_vector(tree: LabelTree) -> np.ndarray:
    """Per-node weight of the edge to the parent; 0 for the root."""
    w = np.zeros(tree.n_nodes)
    for v, weight in tree.edge_weight.items():
        w[v] = weight
    return w


def adjacency(tree: LabelTree) -> np.ndarray:
    """N x N 0/1 matrix with A[parent, child] = 1."""
    a = np.zeros((tree.n_nodes, tree.n_nodes))
    for child, par in tree.parent.items():
        a[par, child] = 1.0
    return a


def parse_level(value) -> int | str:
    """Check a level spelling from a config or the command line: "leaf",
    "topmost" or an integer (also as text); ``resolve_level`` maps it onto a tree."""
    if value in ("leaf", "topmost"):
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise ConfigError(f"level must be 'leaf', 'topmost' or an integer, got {value!r}")


def resolve_level(tree: LabelTree, level: int | str) -> int:
    """Level index on ``tree`` of a parsed level: leaf is 0, topmost K-1."""
    k = 0 if level == "leaf" else tree.levels - 1 if level == "topmost" else level
    if not 0 <= k <= tree.levels - 1:
        raise RangeError(f"level {k} out of range [0, {tree.levels - 1}]")
    return k


def leaf_level_map(tree: LabelTree, k: int) -> np.ndarray:
    """For each leaf, the id of its unique level-k cut node: its ancestor at
    depth K-k, or itself if shallow, as the ancestor table holds it."""
    if not 0 <= k <= tree.levels - 1:
        raise RangeError(f"level {k} out of range [0, {tree.levels - 1}]")
    return tree.ancestor_table[: tree.n_leaves, tree.levels - k].copy()


def level_nodes(tree: LabelTree, k: int) -> set[int]:
    """Node ids forming level k.

    Level k is a cut: internal nodes at depth K-k plus every leaf no deeper
    than that. Level 0 is therefore all leaves and level K-1 the children
    of the root, including on ragged trees.
    """
    return set(np.unique(leaf_level_map(tree, k)).tolist())


def random_tree(rng: np.random.Generator, depth: int = 3, branching: tuple[int, int] = (2, 3), ragged: bool = False) -> LabelTree:
    """Sample a random label tree for tests and synthetic corpora.

    Each internal node gets a child count drawn from ``branching``
    (inclusive); with ``ragged`` some branches stop early. Deterministic
    given the generator state.
    """
    lo, hi = branching
    counter = [0]
    child_names: dict[str, list[str]] = {}

    def grow(name: str, remaining: int) -> None:
        if remaining == 0:
            child_names[name] = []
            return
        if ragged and remaining < depth and rng.random() < 0.25:
            child_names[name] = []
            return
        kids = []
        for _ in range(int(rng.integers(lo, hi + 1))):
            counter[0] += 1
            kid = f"n{counter[0]}"
            kids.append(kid)
            grow(kid, remaining - 1)
        child_names[name] = kids

    while True:
        counter[0] = 0
        child_names.clear()
        grow("root", depth)
        if sum(1 for k in child_names.values() if not k) >= 2:
            return build_tree("root", child_names)
