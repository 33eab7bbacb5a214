"""NNMF course typing over the whole corpus (Figure 2, §4.2).

"We computed a decomposition of all courses with k = 4 dimensions ...
Dimension 4 has a high intensity on courses which seems to be about data
structures.  Dimension 2 ... software engineering.  Dimension 3 ...
parallel computing.  Dimension 1 ... CS1."

This module fits the factorization and asks the paper's question
programmatically: does each name-based course category concentrate on its
own dimension?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.matrix import CourseMatrix
from repro.factorization.nmf import nmf_restart_specs
from repro.materials.course import Course, CourseLabel
from repro.runtime.executor import run_nmf_fits
from repro.util.rng import RngLike


@dataclass(frozen=True)
class CourseTyping:
    """Result of typing courses with NNMF.

    ``w`` is courses x k (the Figure 2 heat map); ``h`` is k x tags.
    ``w_normalized`` scales each row to unit sum so intensities compare
    across courses of different sizes.
    """

    matrix: CourseMatrix
    w: np.ndarray
    h: np.ndarray
    reconstruction_err: float

    @property
    def k(self) -> int:
        return self.w.shape[1]

    @property
    def w_normalized(self) -> np.ndarray:
        sums = self.w.sum(axis=1, keepdims=True)
        return np.where(sums > 0, self.w / np.maximum(sums, 1e-12), 0.0)

    def dominant_type(self, course_id: str) -> int:
        """Index (0-based) of the course's strongest dimension."""
        return int(np.argmax(self.w[self.matrix.course_ids.index(course_id)]))

    def top_tags_for_dim(self, dim: int, n: int = 10) -> list[tuple[str, float]]:
        """The highest-weight tags of one H row — what the dimension *is*.

        This is how the paper reads Figure 2's dimensions ("dimension 4
        ... seems to be about data structures"): by the guideline entries
        the row loads on.
        """
        if not 0 <= dim < self.k:
            raise ValueError(f"dim must be in [0, {self.k}), got {dim}")
        row = self.h[dim]
        order = np.argsort(row)[::-1][:n]
        return [
            (self.matrix.tag_ids[j], float(row[j])) for j in order if row[j] > 0
        ]

    def label_affinity(
        self, courses: Sequence[Course]
    ) -> dict[CourseLabel, np.ndarray]:
        """Mean normalized W row per course category.

        The Figure 2 reading — "dimension 3 has a high intensity in parallel
        computing courses" — corresponds to the PDC row of this table
        peaking at dimension 3.
        """
        by_id = {c.id: c for c in courses}
        wn = self.w_normalized
        out: dict[CourseLabel, np.ndarray] = {}
        for label in CourseLabel:
            rows = [
                i
                for i, cid in enumerate(self.matrix.course_ids)
                if cid in by_id and label in by_id[cid].labels
            ]
            if rows:
                out[label] = wn[rows].mean(axis=0)
        return out

    def label_to_type(self, courses: Sequence[Course]) -> dict[CourseLabel, int]:
        """Greedy one-to-one assignment of categories to dimensions.

        Categories are matched to their highest-affinity dimension in
        decreasing affinity order; each dimension is used at most once
        (mirroring the paper's reading that the four dimensions correspond
        to DS / SE / PDC / CS1).
        """
        affinity = self.label_affinity(courses)
        pairs = sorted(
            (
                (float(vec[d]), label, d)
                for label, vec in affinity.items()
                for d in range(self.k)
            ),
            key=lambda p: (-p[0], p[1].value, p[2]),
        )
        assigned: dict[CourseLabel, int] = {}
        used: set[int] = set()
        for score, label, d in pairs:
            if label in assigned or d in used or score <= 0:
                continue
            assigned[label] = d
            used.add(d)
        return assigned


def typing_specs(
    matrix: CourseMatrix,
    k: int = 4,
    *,
    seed: RngLike = None,
    solver: str = "hals",
    init: str = "random",
    n_restarts: int = 4,
) -> list[dict]:
    """The fully deterministic NMF specs behind :func:`type_courses`.

    Split out so a batching layer (the service's request broker) can
    gather specs from many concurrent requests, run them through
    :func:`repro.runtime.run_nmf_fits` in one call, and finish each
    request with :func:`typing_from_bundles` — same results, one kernel
    dispatch.
    """
    return nmf_restart_specs(
        matrix.matrix, k, seed=seed, solver=solver, init=init,
        n_restarts=n_restarts,
    )


def typing_from_bundles(
    matrix: CourseMatrix, bundles: Sequence[dict]
) -> CourseTyping:
    """Pick the lowest-reconstruction-error restart (first wins ties)."""
    best: CourseTyping | None = None
    for bundle in bundles:
        cand = CourseTyping(
            matrix=matrix,
            w=bundle["w"],
            h=bundle["h"],
            reconstruction_err=float(bundle["err"]),
        )
        if best is None or cand.reconstruction_err < best.reconstruction_err:
            best = cand
    assert best is not None
    return best


def type_courses(
    matrix: CourseMatrix,
    k: int = 4,
    *,
    seed: RngLike = None,
    solver: str = "hals",
    init: str = "random",
    n_restarts: int = 4,
) -> CourseTyping:
    """Fit NNMF with ``k`` dimensions to a course matrix.

    Defaults mirror the paper's scikit-learn v1.3.0 setup: random
    initialization, HALS coordinate descent (sklearn's default ``"cd"``
    solver family), k=4 for the all-course analysis.  Random init is
    restarted ``n_restarts`` times and the lowest-reconstruction-error fit
    kept (deterministic inits run once).

    Restarts dispatch through :mod:`repro.runtime`: initializations are
    drawn up front from the shared generator (so results are bit-identical
    to the sequential restart loop), every restart advances in one
    stacked engine call, and repeated identical fits are served from the
    result cache.
    """
    specs = typing_specs(
        matrix, k, seed=seed, solver=solver, init=init, n_restarts=n_restarts
    )
    results = run_nmf_fits(matrix.matrix, specs)
    return typing_from_bundles(matrix, results)
