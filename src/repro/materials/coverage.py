"""Coverage and alignment analysis (what workshop day 2 teaches, §3.2).

*Coverage* — how much of a guideline a course touches, overall and per
knowledge area/unit, with special attention to the core tiers (CS2013
requires 100% of core-1 and ≥80% of core-2).

*Alignment* — whether the tags a course delivers (lectures) are the same
tags it practices (assignments/labs) and assesses (quizzes/exams).  A tag
delivered but never assessed, or assessed but never taught, is a
misalignment; the radial view paints these on a divergent color scale.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.materials.course import Course
from repro.materials.material import MaterialRole
from repro.ontology.node import Tier
from repro.ontology.queries import area_of
from repro.ontology.tree import GuidelineTree


@dataclass(frozen=True)
class CoverageReport:
    """Coverage of one course against one guideline tree."""

    course_id: str
    n_tags_covered: int
    n_tags_total: int
    core1_covered: int
    core1_total: int
    core2_covered: int
    core2_total: int
    by_area: dict[str, tuple[int, int]]   # area code -> (covered, total)
    by_unit: dict[str, tuple[int, int]]   # unit id -> (covered, total)

    @property
    def fraction(self) -> float:
        return self.n_tags_covered / self.n_tags_total if self.n_tags_total else 0.0

    @property
    def core1_fraction(self) -> float:
        return self.core1_covered / self.core1_total if self.core1_total else 0.0

    @property
    def core2_fraction(self) -> float:
        return self.core2_covered / self.core2_total if self.core2_total else 0.0

    def meets_core_requirements(self, *, core2_threshold: float = 0.8) -> bool:
        """CS2013 rule: all of core-1 and at least 80% of core-2.

        Individual early courses essentially never meet this (the rule is
        about whole programs); the predicate exists for program-level rollups.
        """
        return self.core1_fraction >= 1.0 and self.core2_fraction >= core2_threshold


def coverage(course: Course, tree: GuidelineTree) -> CoverageReport:
    """Compute a :class:`CoverageReport` for ``course`` against ``tree``.

    Only tags belonging to ``tree`` count; a course mapped against both
    CS2013 and PDC12 gets one report per guideline.
    """
    covered = tree.members(course.tags)
    all_tags = tree.tags()
    core1 = [t for t in all_tags if t.tier is Tier.CORE1]
    core2 = [t for t in all_tags if t.tier is Tier.CORE2]

    by_area: dict[str, tuple[int, int]] = {}
    by_unit: dict[str, tuple[int, int]] = {}
    for tag in all_tags:
        area = area_of(tree, tag.id)
        area_code = area.meta.get("code", area.short_id) if area else "?"
        parent = tree.parent(tag.id)
        unit_id = parent.id if parent is not None else "?"
        got = tag.id in covered
        c, t = by_area.get(area_code, (0, 0))
        by_area[area_code] = (c + got, t + 1)
        c, t = by_unit.get(unit_id, (0, 0))
        by_unit[unit_id] = (c + got, t + 1)

    return CoverageReport(
        course_id=course.id,
        n_tags_covered=len(covered),
        n_tags_total=len(all_tags),
        core1_covered=sum(1 for t in core1 if t.id in covered),
        core1_total=len(core1),
        core2_covered=sum(1 for t in core2 if t.id in covered),
        core2_total=len(core2),
        by_area=by_area,
        by_unit=by_unit,
    )


@dataclass(frozen=True)
class AlignmentReport:
    """Alignment between two pedagogical roles of one course.

    ``balance`` maps each tag to a value in [-1, +1]: -1 when only the
    first role covers it, +1 when only the second does, 0 when both cover
    it equally (by material count) — exactly the divergent scale of the
    radial alignment view ("mid-range of the scale represents the materials
    are fully aligned").
    """

    course_id: str
    role_a: MaterialRole
    role_b: MaterialRole
    only_a: frozenset[str]
    only_b: frozenset[str]
    shared: frozenset[str]
    balance: dict[str, float]

    @property
    def alignment_fraction(self) -> float:
        """Fraction of touched tags covered by both roles."""
        total = len(self.only_a) + len(self.only_b) + len(self.shared)
        return len(self.shared) / total if total else 1.0


def alignment(
    course: Course,
    role_a: MaterialRole = MaterialRole.DELIVERY,
    role_b: MaterialRole = MaterialRole.ASSESSMENT,
) -> AlignmentReport:
    """Alignment analysis between two roles (default: delivery vs assessment)."""
    if role_a is role_b:
        raise ValueError("alignment requires two distinct roles")
    counts_a: dict[str, int] = {}
    counts_b: dict[str, int] = {}
    for m in course.materials:
        target = counts_a if m.role is role_a else counts_b if m.role is role_b else None
        if target is None:
            continue
        for tag in m.mappings:
            target[tag] = target.get(tag, 0) + 1
    tags_a, tags_b = set(counts_a), set(counts_b)
    balance = {}
    for tag in tags_a | tags_b:
        a, b = counts_a.get(tag, 0), counts_b.get(tag, 0)
        balance[tag] = (b - a) / (a + b)
    return AlignmentReport(
        course_id=course.id,
        role_a=role_a,
        role_b=role_b,
        only_a=frozenset(tags_a - tags_b),
        only_b=frozenset(tags_b - tags_a),
        shared=frozenset(tags_a & tags_b),
        balance=balance,
    )
