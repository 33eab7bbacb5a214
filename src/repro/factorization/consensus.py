"""Consensus NMF and cophenetic rank selection (Brunet et al., 2004).

A principled answer to the paper's "which k" question (§4.4): run NMF many
times from random starts, record for every pair of courses whether they
land in the same dominant type, and average into a *consensus matrix*.  If
the rank is right, co-assignment is stable and the consensus matrix is
nearly binary; the **cophenetic correlation** between the consensus and its
hierarchical clustering quantifies that.  A drop in cophenetic correlation
as k grows marks the overfit boundary — the standard NMF model-selection
recipe, complementing the duplicate/singleton diagnostics in
:mod:`repro.analysis.model_selection`.
"""

from __future__ import annotations

import numpy as np

from repro.factorization.nmf import nmf_restart_specs
from repro.runtime.executor import run_nmf_fits
from repro.runtime.metrics import metrics
from repro.util.rng import RngLike, as_rng
from repro.util.validation import check_matrix, check_nonnegative

_EPS = np.finfo(np.float64).eps


def consensus_matrix(
    a: np.ndarray,
    k: int,
    *,
    n_runs: int = 20,
    solver: str = "hals",
    seed: RngLike = None,
) -> np.ndarray:
    """(n x n) fraction of runs in which each row pair shares a dominant type.

    The ``n_runs`` factorizations are independent and run as one
    :mod:`repro.runtime` batch; initializations are pre-drawn in
    generator order.
    """
    a = check_nonnegative(check_matrix(a))
    if n_runs < 2:
        raise ValueError("consensus needs at least 2 runs")
    specs = nmf_restart_specs(
        a, k, seed=seed, solver=solver, init="random", n_restarts=n_runs
    )
    results = run_nmf_fits(a, specs)
    n = a.shape[0]
    consensus = np.zeros((n, n))
    with metrics.timer("consensus.accumulate"):
        for bundle in results:
            labels = np.argmax(bundle["w"], axis=1)
            same = labels[:, None] == labels[None, :]
            consensus += same
    consensus /= n_runs
    metrics.inc("consensus.matrices")
    return consensus


def _cophenetic_distances(d: np.ndarray) -> np.ndarray:
    """Cophenetic distance matrix from average-linkage clustering of ``d``.

    The cophenetic distance of a pair is the linkage height at which the
    two items first join one cluster.
    """
    n = d.shape[0]
    coph = np.zeros((n, n))
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    dist = d.astype(float).copy()
    np.fill_diagonal(dist, np.inf)
    active = list(range(n))
    while len(active) > 1:
        sub = dist[np.ix_(active, active)]
        flat = int(np.argmin(sub))
        i_loc, j_loc = divmod(flat, len(active))
        if i_loc > j_loc:
            i_loc, j_loc = j_loc, i_loc
        ci, cj = active[i_loc], active[j_loc]
        height = dist[ci, cj]
        for x in members[ci]:
            for y in members[cj]:
                coph[x, y] = coph[y, x] = height
        si, sj = len(members[ci]), len(members[cj])
        for other in active:
            if other in (ci, cj):
                continue
            dnew = (si * dist[ci, other] + sj * dist[cj, other]) / (si + sj)
            dist[ci, other] = dist[other, ci] = dnew
        members[ci] = members[ci] + members[cj]
        del members[cj]
        active.remove(cj)
    return coph


def cophenetic_correlation(consensus: np.ndarray) -> float:
    """Pearson correlation between consensus distances and cophenetic distances.

    Near 1.0 means the consensus matrix is cleanly hierarchical (stable
    co-clustering at this rank); values dropping with k signal overfit.
    """
    c = check_matrix(consensus, "consensus")
    if c.shape[0] != c.shape[1]:
        raise ValueError(f"consensus matrix must be square, got {c.shape}")
    if c.shape[0] < 3:
        raise ValueError("cophenetic correlation needs at least 3 items")
    d = 1.0 - c
    np.fill_diagonal(d, 0.0)
    coph = _cophenetic_distances(d)
    iu = np.triu_indices(c.shape[0], 1)
    x, y = d[iu], coph[iu]
    sx, sy = x.std(), y.std()
    if sx < _EPS or sy < _EPS:
        # Degenerate (e.g. all-identical distances): perfectly consistent.
        return 1.0
    return float(np.corrcoef(x, y)[0, 1])


def cophenetic_k_profile(
    a: np.ndarray,
    ks: range | list[int],
    *,
    n_runs: int = 20,
    solver: str = "hals",
    seed: RngLike = None,
) -> dict[int, float]:
    """Cophenetic correlation for each candidate rank (Brunet's k plot)."""
    rng = as_rng(seed)
    return {
        k: cophenetic_correlation(
            consensus_matrix(a, k, n_runs=n_runs, solver=solver, seed=rng)
        )
        for k in ks
    }
