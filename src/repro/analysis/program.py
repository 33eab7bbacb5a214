"""Program-level curriculum analysis.

CS2013's coverage rules apply to whole degree programs, not single courses:
a program must cover 100% of core-1 and at least 80% of core-2.  The
paper's premise is that programs under-cover the Parallel and Distributed
Computing area — this module rolls individual courses up into a program,
checks the core rules, and quantifies the *PDC gap*: the PD core entries no
course in the program touches (exactly the holes the anchor modules are
designed to fill).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.materials.course import Course
from repro.ontology.node import Tier
from repro.ontology.queries import area_of
from repro.ontology.tree import GuidelineTree


@dataclass(frozen=True)
class ProgramCoverage:
    """Aggregate coverage of a set of courses against one guideline."""

    course_ids: tuple[str, ...]
    covered: frozenset[str]
    core1_missing: tuple[str, ...]
    core2_missing: tuple[str, ...]
    by_area: dict[str, tuple[int, int]]   # area code -> (covered, total)

    @property
    def n_covered(self) -> int:
        return len(self.covered)

    def meets_core_requirements(self, *, core2_threshold: float = 0.8) -> bool:
        """CS2013's program rule: all of core-1, >= 80% of core-2."""
        if self.core1_missing:
            return False
        core2_total = self._core2_total
        if core2_total == 0:
            return True
        return 1.0 - len(self.core2_missing) / core2_total >= core2_threshold

    # populated by analyze_program via object.__setattr__ at construction
    _core1_total: int = 0
    _core2_total: int = 0

    @property
    def core1_coverage(self) -> float:
        if self._core1_total == 0:
            return 1.0
        return 1.0 - len(self.core1_missing) / self._core1_total

    @property
    def core2_coverage(self) -> float:
        if self._core2_total == 0:
            return 1.0
        return 1.0 - len(self.core2_missing) / self._core2_total


def analyze_program(
    courses: Sequence[Course], tree: GuidelineTree
) -> ProgramCoverage:
    """Roll ``courses`` up into one program-level coverage report."""
    if not courses:
        raise ValueError("a program needs at least one course")
    covered: set[str] = set()
    for c in courses:
        covered |= tree.members(c.tags)
    core1_missing: list[str] = []
    core2_missing: list[str] = []
    core1_total = core2_total = 0
    by_area: dict[str, tuple[int, int]] = {}
    for tag in tree.tags():
        area = area_of(tree, tag.id)
        code = area.meta.get("code", area.short_id) if area else "?"
        got = tag.id in covered
        c_a, t_a = by_area.get(code, (0, 0))
        by_area[code] = (c_a + got, t_a + 1)
        if tag.tier is Tier.CORE1:
            core1_total += 1
            if not got:
                core1_missing.append(tag.id)
        elif tag.tier is Tier.CORE2:
            core2_total += 1
            if not got:
                core2_missing.append(tag.id)
    report = ProgramCoverage(
        course_ids=tuple(c.id for c in courses),
        covered=frozenset(covered),
        core1_missing=tuple(sorted(core1_missing)),
        core2_missing=tuple(sorted(core2_missing)),
        by_area=by_area,
    )
    object.__setattr__(report, "_core1_total", core1_total)
    object.__setattr__(report, "_core2_total", core2_total)
    return report


def pdc_gap(
    courses: Sequence[Course],
    tree: GuidelineTree,
    *,
    area_code: str = "PD",
    core_only: bool = True,
) -> tuple[str, ...]:
    """PD-area guideline entries no course in the program covers.

    These are the insertion targets for PDC content — the quantified version
    of the paper's premise that early curricula leave PD under-taught.
    """
    prog = analyze_program(courses, tree)
    gap = []
    for tag in tree.tags():
        area = area_of(tree, tag.id)
        code = area.meta.get("code", area.short_id) if area else "?"
        if code != area_code:
            continue
        if core_only and tag.tier not in (Tier.CORE1, Tier.CORE2):
            continue
        if tag.id not in prog.covered:
            gap.append(tag.id)
    return tuple(sorted(gap))
