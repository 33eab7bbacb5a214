"""Choosing the number of types ``k`` (§4.4's manual inspection, made rigorous).

The paper inspected k ∈ {2, 3, 4} by hand: "k = 4 generated two dimensions
which were almost identical, indicating an overfit.  Using k = 2 seemed to
not separate the courses as well as k = 3."  Three quantitative proxies:

* :func:`duplicate_dimension_score` — maximum cosine similarity between two
  rows of H; near 1 flags the k=4 failure mode.
* reconstruction curves via :func:`k_sweep` — diminishing returns locate
  the useful rank.
* :func:`stability_score` — cross-seed agreement of the extracted types;
  overfit dimensions are unstable under re-initialization.

:func:`select_k` combines them into the paper's decision rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.matrix import CourseMatrix
from repro.factorization.nmf import nmf_restart_specs
from repro.runtime.executor import run_nmf_fits
from repro.runtime.metrics import metrics
from repro.util.rng import RngLike, as_rng

_EPS = np.finfo(np.float64).eps


def duplicate_dimension_score(h: np.ndarray) -> float:
    """Maximum pairwise cosine similarity between rows of ``H``.

    1.0 means two extracted types are colinear — the "almost identical
    dimensions" overfit signature.  Returns 0 for k=1.
    """
    h = np.asarray(h, dtype=float)
    k = h.shape[0]
    if k < 2:
        return 0.0
    norms = np.linalg.norm(h, axis=1)
    normed = h / np.maximum(norms[:, None], _EPS)
    sim = normed @ normed.T
    np.fill_diagonal(sim, -np.inf)
    return float(sim.max())


def singleton_dimension_score(w: np.ndarray, *, dominance: float = 0.95) -> float:
    """Fraction of dimensions that degenerate to a single course.

    A *type* should describe several courses; a W column whose mass is
    ``dominance``-concentrated on one course is modeling an individual
    course, not a type — the overfit mode this corpus exhibits at the
    paper's rejected k=4 (each CS1 course becomes its own dimension, the
    small-n analogue of the paper's "two dimensions almost identical").
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[1] == 0:
        raise ValueError(f"W must be 2-D with columns, got shape {w.shape}")
    col_sums = np.maximum(w.sum(axis=0), _EPS)
    dominant = (w.max(axis=0) / col_sums) > dominance
    return float(dominant.mean())


def _match_types(h_a: np.ndarray, h_b: np.ndarray) -> float:
    """Greedy best-match mean cosine between two type sets (order-free)."""
    na = h_a / np.maximum(np.linalg.norm(h_a, axis=1, keepdims=True), _EPS)
    nb = h_b / np.maximum(np.linalg.norm(h_b, axis=1, keepdims=True), _EPS)
    sim = na @ nb.T
    k = sim.shape[0]
    total = 0.0
    used_a: set[int] = set()
    used_b: set[int] = set()
    flat = sorted(
        ((float(sim[i, j]), i, j) for i in range(k) for j in range(k)),
        reverse=True,
    )
    for s, i, j in flat:
        if i in used_a or j in used_b:
            continue
        total += s
        used_a.add(i)
        used_b.add(j)
        if len(used_a) == k:
            break
    return total / k


def _stability_from_hs(hs: Sequence[np.ndarray]) -> float:
    """Mean pairwise matched-type similarity over a set of H matrices."""
    n = len(hs)
    scores = [
        _match_types(hs[i], hs[j]) for i in range(n) for j in range(i + 1, n)
    ]
    return float(np.mean(scores))


def stability_score(
    matrix: CourseMatrix,
    k: int,
    *,
    n_runs: int = 5,
    seed: RngLike = None,
    solver: str = "hals",
) -> float:
    """Mean pairwise matched-type similarity across random restarts.

    1.0 = every restart finds the same types; low values flag ranks where
    the factorization is re-initialization-dependent.  The restarts run
    as one :mod:`repro.runtime` batch.
    """
    if n_runs < 2:
        raise ValueError("stability needs at least 2 runs")
    specs = nmf_restart_specs(
        matrix.matrix, k, seed=seed, solver=solver, init="random", n_restarts=n_runs
    )
    results = run_nmf_fits(matrix.matrix, specs)
    return _stability_from_hs([r["h"] for r in results])


@dataclass(frozen=True)
class KSweepEntry:
    """Diagnostics for one candidate ``k``."""

    k: int
    reconstruction_err: float
    duplicate_score: float
    singleton_score: float
    stability: float


def k_sweep(
    matrix: CourseMatrix,
    ks: Sequence[int],
    *,
    seed: RngLike = None,
    solver: str = "hals",
    stability_runs: int = 4,
) -> list[KSweepEntry]:
    """Fit every ``k`` and collect all three diagnostics (ablation A1).

    The sweep is a single runtime batch: every fit — one diagnostic fit
    plus ``stability_runs`` stability fits per candidate ``k`` — has its
    initialization pre-drawn in the order the sequential loop would draw
    it, then all of them dispatch together through
    :func:`repro.runtime.run_nmf_fits`.  Results are bit-identical to the
    sequential sweep while one stacked engine call spans candidate ranks
    *and* restarts.
    """
    if stability_runs < 2:
        raise ValueError("stability needs at least 2 runs")
    rng = as_rng(seed)
    specs: list[dict] = []
    layout: list[tuple[int, int, slice]] = []
    for k in ks:
        main = len(specs)
        specs.extend(
            nmf_restart_specs(
                matrix.matrix, k, seed=rng, solver=solver, init="random",
                n_restarts=1,
            )
        )
        stab = slice(len(specs), len(specs) + stability_runs)
        specs.extend(
            nmf_restart_specs(
                matrix.matrix, k, seed=rng, solver=solver, init="random",
                n_restarts=stability_runs,
            )
        )
        layout.append((k, main, stab))
    with metrics.timer("model_selection.k_sweep"):
        results = run_nmf_fits(matrix.matrix, specs)
    out: list[KSweepEntry] = []
    for k, main, stab in layout:
        bundle = results[main]
        out.append(
            KSweepEntry(
                k=k,
                reconstruction_err=float(bundle["err"]),
                duplicate_score=duplicate_dimension_score(bundle["h"]),
                singleton_score=singleton_dimension_score(bundle["w"]),
                stability=_stability_from_hs([r["h"] for r in results[stab]]),
            )
        )
    return out


def select_k(
    entries: Sequence[KSweepEntry],
    *,
    duplicate_threshold: float = 0.8,
    singleton_threshold: float = 0.5,
) -> int:
    """The paper's decision rule, automated.

    Keep adding types until the factorization overfits, then back off.
    Overfit at ``k`` means either (a) two extracted types are near-identical
    in content (``duplicate_score >= duplicate_threshold``, the paper's
    observed k=4 failure) or (b) at least half the dimensions degenerate to
    single courses (``singleton_score >= singleton_threshold``, the small-n
    equivalent).  Returns the largest non-overfit ``k`` before the first
    overfit one.
    """
    if not entries:
        raise ValueError("need at least one sweep entry")
    ordered = sorted(entries, key=lambda e: e.k)
    best = ordered[0].k
    for e in ordered:
        if (
            e.duplicate_score < duplicate_threshold
            and e.singleton_score < singleton_threshold
        ):
            best = e.k
        else:
            break
    return best
