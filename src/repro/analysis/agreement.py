"""Tag-agreement analysis (Figures 3, 4, 6, 8).

For a family of same-named courses, count how many courses each tag appears
in.  Figure 3 plots the tags (sorted by decreasing count) against those
counts; Figures 4/6/8 show the guideline subtree induced by tags above an
agreement threshold.

The Threats-to-Validity section notes the raw metric ignores coverage
depth; ``weighted=True`` switches to material-count weighting (a course
with five materials on a tag counts more than one with a single material),
the simplest depth-aware variant.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from repro.materials.course import Course
from repro.ontology.queries import agreement_subtree, area_histogram
from repro.ontology.tree import GuidelineTree


def agreement_counts(
    courses: Sequence[Course],
    *,
    tree: GuidelineTree | None = None,
    weighted: bool = False,
) -> Counter[str]:
    """Tag id → number of courses covering it (or summed material weight).

    One ``Counter.update`` per course over its memoized tags (per material
    when ``weighted``), restricted to ``tree`` by one set intersection.
    """
    groups = (
        (m.mappings for c in courses for m in c.materials)
        if weighted
        else (c.tags for c in courses)
    )
    counts: Counter[str] = Counter()
    for tags in groups:
        counts.update(tags if tree is None else tree.members(tags))
    return counts


@dataclass(frozen=True)
class AgreementResult:
    """Agreement summary for one course family.

    ``distribution`` is the Figure-3 series: course-counts sorted in
    decreasing order, one entry per distinct tag.  ``at_least[k]`` is the
    number of tags appearing in ≥ k courses.
    """

    n_courses: int
    counts: Counter[str]
    distribution: tuple[int, ...]
    at_least: dict[int, int]

    @property
    def n_tags(self) -> int:
        return len(self.counts)

    def tags_at_least(self, threshold: int) -> list[str]:
        """Tag ids appearing in at least ``threshold`` courses (sorted)."""
        return sorted(t for t, v in self.counts.items() if v >= threshold)

    def areas_at_least(
        self, threshold: int, tree: GuidelineTree
    ) -> Counter[str]:
        """Knowledge-area histogram of the ≥ threshold tags."""
        return area_histogram(tree, self.tags_at_least(threshold))


def agreement(
    courses: Sequence[Course],
    *,
    tree: GuidelineTree | None = None,
    weighted: bool = False,
) -> AgreementResult:
    """Compute the full agreement summary (Figure 3 data)."""
    if not courses:
        raise ValueError("need at least one course")
    counts = agreement_counts(courses, tree=tree, weighted=weighted)
    dist = tuple(sorted(counts.values(), reverse=True))
    max_k = len(courses) if not weighted else (max(counts.values()) if counts else 0)
    # Every count is >= 1, so ``at_least[k + 1]`` is ``at_least[k]`` less
    # the tags counted exactly k times.
    n_with = Counter(counts.values())
    at_least: dict[int, int] = {}
    left = len(counts)
    for k in range(1, max_k + 1):
        at_least[k] = left
        left -= n_with[k]
    return AgreementResult(
        n_courses=len(courses),
        counts=counts,
        distribution=dist,
        at_least=at_least,
    )


def agreement_tree(
    courses: Sequence[Course],
    tree: GuidelineTree,
    threshold: int,
    *,
    weighted: bool = False,
) -> GuidelineTree:
    """The Figure 4/6/8 tree: guideline subtree of tags in ≥ threshold courses."""
    counts = agreement_counts(courses, tree=tree, weighted=weighted)
    return agreement_subtree(tree, counts, threshold)
