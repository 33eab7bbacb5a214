"""The course x curriculum matrix ``A`` (§4.1).

"We represent the courses as A, a 0-1 matrix where each row represents a
course in our analysis, and each column represents an entry in the
curriculum guideline."
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from typing import Sequence

import numpy as np

from repro.materials.course import Course, CourseLabel
from repro.ontology.tree import GuidelineTree


@dataclass(frozen=True)
class CourseMatrix:
    """``A`` plus its row/column identities.

    ``matrix[i, j] == 1`` iff course ``course_ids[i]`` covers tag
    ``tag_ids[j]``.  Rows keep roster order; columns are sorted tag ids.
    """

    matrix: np.ndarray
    course_ids: tuple[str, ...]
    tag_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.matrix.shape != (len(self.course_ids), len(self.tag_ids)):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match "
                f"{len(self.course_ids)} courses x {len(self.tag_ids)} tags"
            )

    @property
    def n_courses(self) -> int:
        return len(self.course_ids)

    @property
    def n_tags(self) -> int:
        return len(self.tag_ids)

    def row(self, course_id: str) -> np.ndarray:
        """One course's 0–1 tag vector."""
        return self.matrix[self.course_ids.index(course_id)]

    def tag_counts(self) -> dict[str, int]:
        """Tag id → number of courses covering it (column sums)."""
        sums = self.matrix.sum(axis=0).astype(int)
        return {t: int(s) for t, s in zip(self.tag_ids, sums)}

    def subset(self, course_ids: Sequence[str]) -> "CourseMatrix":
        """Row subset (course order as given), dropping all-zero columns."""
        rows = [self.course_ids.index(cid) for cid in course_ids]
        sub = self.matrix[rows]
        keep = sub.sum(axis=0) > 0
        return CourseMatrix(
            sub[:, keep],
            tuple(course_ids),
            tuple(t for t, k in zip(self.tag_ids, keep) if k),
        )


def build_course_matrix(
    courses: Sequence[Course],
    *,
    tree: GuidelineTree | None = None,
    label: CourseLabel | None = None,
    full_universe: bool = False,
    weighting: str = "binary",
) -> CourseMatrix:
    """Build ``A`` from classified courses.

    ``label`` filters courses (e.g. only CS1 for Figure 5).  ``tree``
    restricts columns to that guideline's tags (a course mapped against
    both CS2013 and PDC12 contributes only in-tree tags).  With
    ``full_universe`` the columns are the whole tag universe of ``tree``;
    otherwise only tags covered by at least one selected course appear —
    the form the paper factorizes.

    ``weighting``: ``"binary"`` is the paper's 0–1 matrix; ``"tfidf"``
    down-weights ubiquitous tags by ``log((1 + n) / (1 + df)) + 1`` — the
    topic-modeling convention the paper's NLP analogy (§4.1) implies,
    ablated in ``bench_ablation_weighting.py``.
    """
    if weighting not in ("binary", "tfidf"):
        raise ValueError(f"unknown weighting {weighting!r}")
    selected = [c for c in courses if label is None or label in c.labels]
    if not selected:
        raise ValueError(f"no courses match label {label}")
    if full_universe and tree is None:
        raise ValueError("full_universe requires a guideline tree")
    course_tags = [c.tags for c in selected]
    if full_universe:
        tag_ids = tree.tag_ids()
    else:
        universe = frozenset().union(*course_tags)
        if tree is not None:
            universe = tree.members(universe)
        tag_ids = sorted(universe)
    # One C-level map sends each course's tags to their columns, or to
    # -1 for a tag with no column.
    index = {t: j for j, t in enumerate(tag_ids)}
    lengths = list(map(len, course_tags))
    cols = np.fromiter(
        map(index.get, chain.from_iterable(course_tags), repeat(-1)),
        dtype=np.intp,
        count=sum(lengths),
    )
    rows = np.repeat(np.arange(len(selected)), lengths)
    hit = cols >= 0
    a = np.zeros((len(selected), len(tag_ids)))
    a[rows[hit], cols[hit]] = 1.0
    if weighting == "tfidf":
        n = a.shape[0]
        df = a.sum(axis=0)
        idf = np.log((1.0 + n) / (1.0 + df)) + 1.0
        a = a * idf[None, :]
    return CourseMatrix(a, tuple(c.id for c in selected), tuple(tag_ids))
