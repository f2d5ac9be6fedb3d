"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from treeseg.hierarchy import parse_tree, random_tree

THREE_LEAF_DOC = json.dumps(
    {
        "name": "root",
        "children": [
            {"name": "A", "children": [{"name": "a1"}, {"name": "a2"}]},
            {"name": "B", "children": [{"name": "b1"}]},
        ],
    }
)


def wide_tree_doc(groups: int = 9, leaves: int = 11) -> str:
    """A depth-2 hierarchy of ``groups`` groups of ``leaves`` leaves: C = 99 by default."""
    return json.dumps(
        {"name": "root", "children": [{"name": f"g{i}", "children": [{"name": f"g{i}l{j}"} for j in range(leaves)]} for i in range(groups)]}
    )


needs_proc = pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="no /proc/self/maps")


_test_root: str | None = None  # the running test's tmp_path, resolved, when it uses one


@pytest.fixture(autouse=True)
def _record_tmp_path(request):
    """Records the running test's tmp_path for ``mapped_feature_files``, if the test uses one."""
    global _test_root
    _test_root = str(request.getfixturevalue("tmp_path").resolve()) + os.sep if "tmp_path" in request.fixturenames else None


def mapped_feature_files() -> int:
    """How many mappings of a ``features.bin`` under the running test's tmp_path this process
    holds, read from /proc/self/maps: a file since replaced reads ``features.bin (deleted)``
    there, and a ``.tmp`` name is not counted. A mapping an earlier test left behind lies under
    that test's tmp_path, so it is not counted either."""
    assert _test_root is not None, "mapped_feature_files needs a test that uses tmp_path"
    with open("/proc/self/maps") as f:
        return sum(_test_root in line and line.rstrip().removesuffix(" (deleted)").endswith("features.bin") for line in f)


@pytest.fixture
def live_feature_mappings(monkeypatch):
    """Wraps ``synth._map_features``: the list it returns gets, at each new mapping, how many
    ``features.bin`` mappings this process holds with it. Tests using it need ``needs_proc``."""
    import treeseg.synth

    live, real = [], treeseg.synth._map_features

    def map_features(path, shape=None):
        features = real(path, shape)
        live.append(mapped_feature_files())
        return features

    monkeypatch.setattr(treeseg.synth, "_map_features", map_features)
    return live


@pytest.fixture
def three_leaf_tree():
    return parse_tree(THREE_LEAF_DOC)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def node_id(tree, name: str) -> int:
    """The id of the node of ``tree`` called ``name``."""
    return next(n.id for n in tree.nodes if n.name == name)


def ancestors(tree, v: int) -> list[int]:
    """The chain of ``tree`` from node ``v`` up to and including the root, read from its ancestor table."""
    return tree.ancestor_table[v, tree.depth[v] :: -1].tolist()


def make_random_tree(seed: int, depth: int = 3, branching=(2, 3), ragged: bool = False):
    return random_tree(np.random.default_rng(seed), depth=depth, branching=branching, ragged=ragged)


def random_probs(rng: np.random.Generator, n: int, c: int) -> np.ndarray:
    return rng.dirichlet(np.ones(c), size=n)


def finite_difference_grad(fn, logits: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar loss over every logit."""
    num = np.zeros_like(logits, dtype=float)
    it = np.nditer(logits, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        up = logits.copy()
        up[i] += eps
        down = logits.copy()
        down[i] -= eps
        num[i] = (fn(up) - fn(down)) / (2.0 * eps)
    return num


def relative_grad_error(fn, logits: np.ndarray, eps: float = 1e-6) -> float:
    """Max |analytic - numeric| scaled by the numeric gradient magnitude."""
    _, grad = fn(logits)
    num = finite_difference_grad(lambda z: fn(z)[0], logits, eps)
    scale = max(float(np.abs(num).max()), 1e-8)
    return float(np.abs(grad - num).max()) / scale


TWCE_RTOL = 1e-12  # fixed before the chain kernel was measured; float64 sums in another order sit near 1e-16


def assert_twce_close(loss, grad, ref_loss, ref_grad):
    """A loss result against a reference that sums in another order (the tree-weighted
    CE's chain kernel, any class-major kernel against a pixel-major one): the loss
    within TWCE_RTOL relative, the gradient within TWCE_RTOL of the reference's
    largest entry."""
    assert abs(loss - ref_loss) <= TWCE_RTOL * abs(ref_loss)
    assert grad.shape == ref_grad.shape
    assert np.abs(grad - ref_grad).max() <= TWCE_RTOL * np.abs(ref_grad).max()
