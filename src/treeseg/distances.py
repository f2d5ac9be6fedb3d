"""Leaf-to-leaf ground distances and exact optimal transport on them.

The distance between two leaves is the weighted path length in the label
tree. ``solve_transport_lp`` is an exact LP oracle used to validate the
closed-form losses; ``tree_wasserstein`` is an independent second oracle
exploiting the tree structure (sum over edges of weight times absolute
subtree mass difference).

Only ``solve_transport_lp`` needs scipy, and it imports ``scipy.optimize``
when called: no training, gating or evaluation path uses the LP oracle,
so importing treeseg does not load scipy.
"""

from __future__ import annotations

import numpy as np

from .errors import NormalizationError
from .hierarchy import LabelTree, edge_weight_vector

_MASS_TOL = 1e-9


def distance_matrix(tree: LabelTree) -> np.ndarray:
    """C x C symmetric matrix of weighted path lengths between leaves."""
    c = tree.n_leaves
    chain = tree.ancestor_table[:c]
    # prefix weight from the root down each leaf's chain; the entries past a
    # leaf's own depth repeat the leaf and add nothing
    own = np.arange(tree.levels + 1) <= np.array([tree.depth[v] for v in range(c)])[:, None]
    wsum = np.cumsum(np.where(own, edge_weight_vector(tree)[chain], 0.0), axis=1)
    # two chains agree exactly down to their LCA, so its depth is the count of agreeing entries minus one
    lca_depth = (chain[:, None, :] == chain[None, :, :]).sum(axis=2) - 1
    ws = wsum[:, -1]
    m = ws[:, None] + ws[None, :] - 2.0 * wsum[np.arange(c)[:, None], lca_depth]
    np.fill_diagonal(m, 0.0)
    return m


def _check_marginal(name: str, v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    # written as failed passing conditions, so a NaN entry fails too
    if not (v >= -1e-12).all():
        raise NormalizationError(f"{name} has negative or NaN entries")
    total = float(v.sum())
    if not abs(total - 1.0) <= _MASS_TOL:
        raise NormalizationError(f"{name} sums to {total}, expected 1")
    return np.clip(v, 0.0, None)


def solve_transport_lp(m: np.ndarray, p: np.ndarray, q: np.ndarray) -> tuple[float, np.ndarray]:
    """Exact optimum of the transport problem min <T, M> s.t. T1 = p, T^T 1 = q.

    Returns (cost, plan). Intended for validation at label-space scale
    (C <= ~64); the marginal constraints hold to 1e-9 on the plan.
    """
    # importing scipy.optimize costs more than the rest of the package; only this oracle needs it
    from scipy.optimize import linprog

    p = _check_marginal("p", p)
    q = _check_marginal("q", q)
    c = len(p)
    if m.shape != (c, c) or len(q) != c:
        raise NormalizationError(f"shape mismatch: M {m.shape}, p {len(p)}, q {len(q)}")

    # row-sum and column-sum equality constraints over the flattened plan;
    # the final column constraint is redundant (total mass) and dropped.
    rows = []
    for i in range(c):
        a = np.zeros((c, c))
        a[i, :] = 1.0
        rows.append(a.ravel())
    for j in range(c):
        a = np.zeros((c, c))
        a[:, j] = 1.0
        rows.append(a.ravel())
    a_eq = np.array(rows[:-1])
    b_eq = np.concatenate([p, q])[:-1]
    res = linprog(m.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    plan = res.x.reshape(c, c)
    return float(res.fun), plan


def subtree_masses(tree: LabelTree, p: np.ndarray) -> np.ndarray:
    """Mass of p inside the subtree below each node (leaf mass summed up)."""
    mass = np.zeros(tree.n_nodes)
    mass[: tree.n_leaves] = p
    for v in tree.deepest_first():
        if not tree.nodes[v].is_leaf:
            mass[v] = sum(mass[c] for c in tree.nodes[v].children)
    return mass


def tree_wasserstein(tree: LabelTree, p: np.ndarray, q: np.ndarray) -> float:
    """Wasserstein distance under the tree metric, by subtree mass differences."""
    p = _check_marginal("p", p)
    q = _check_marginal("q", q)
    mp = subtree_masses(tree, p)
    mq = subtree_masses(tree, q)
    return float(sum(tree.edge_weight[v] * abs(mp[v] - mq[v]) for v in range(tree.n_nodes) if v != tree.root))
