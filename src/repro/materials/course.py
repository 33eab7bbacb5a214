"""Courses: named collections of classified materials.

A course's *tag set* — the union of its materials' curriculum mappings — is
one row of the paper's course x curriculum matrix ``A``.  Courses are
immutable, so each memoizes its tag set and content digest on first use.
``CourseLabel`` reproduces the name-based grouping of Figure 1 (CS1 / OOP /
DS / Algo / SoftEng / PDC, plus the unflagged CS2 and networking courses
present in the roster).
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from repro.materials.material import Material, MaterialRole
from repro.util.digest import canonical_digest


class CourseLabel(enum.Enum):
    """Name-derived course category (Figure 1 columns)."""

    CS1 = "CS1"
    OOP = "OOP"
    DS = "DS"
    ALGO = "Algo"
    SOFTENG = "SoftEng"
    PDC = "PDC"
    CS2 = "CS2"
    NETWORKING = "Networking"


@dataclass(frozen=True)
class Course:
    """A course and its classified materials.

    A course is immutable: ``materials`` is coerced to a tuple, and an
    edited course is a new one, derived with :func:`dataclasses.replace`.
    That lets it memoize what it derives from its materials on first use:
    its sorted tag union (:attr:`tags`) and its content digest
    (:attr:`digest`).
    """

    id: str
    name: str
    institution: str = ""
    instructor: str = ""
    labels: frozenset[CourseLabel] = frozenset()
    materials: tuple[Material, ...] = ()

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("course id must be non-empty")
        if not isinstance(self.labels, frozenset):
            object.__setattr__(self, "labels", frozenset(self.labels))
        if not isinstance(self.materials, tuple):
            object.__setattr__(self, "materials", tuple(self.materials))
        if len({m.id for m in self.materials}) != len(self.materials):
            raise ValueError(f"duplicate material ids in course {self.id!r}")

    @cached_property
    def tags(self) -> tuple[str, ...]:
        """All guideline tags this course touches, sorted (its matrix row).

        A tuple, not a frozenset: it takes a fraction of the memory, and
        every course of a resident corpus holds one.
        """
        return tuple(sorted(set().union(*(m.mappings for m in self.materials))))

    @cached_property
    def digest(self) -> str:
        """Content digest: the header fields plus the materials' memoized
        digests, computed once per course."""
        return canonical_digest({
            "id": self.id,
            "name": self.name,
            "institution": self.institution,
            "instructor": self.instructor,
            "labels": sorted(l.value for l in self.labels),
            "materials": [m.digest for m in self.materials],
        })

    def tag_set(self) -> frozenset[str]:
        """:attr:`tags` as a set, built on each call."""
        return frozenset(self.tags)

    def tag_counts(self) -> Counter[str]:
        """Tag id → number of materials in this course classified against it.

        This is the node-size weight of the hit-tree visualization.
        """
        counts: Counter[str] = Counter()
        for m in self.materials:
            counts.update(m.mappings)
        return counts

    def tags_by_role(self) -> dict[MaterialRole, frozenset[str]]:
        """Tag sets split by pedagogical role, for the alignment analysis."""
        buckets: dict[MaterialRole, set[str]] = {r: set() for r in MaterialRole}
        for m in self.materials:
            buckets[m.role] |= m.mappings
        return {r: frozenset(s) for r, s in buckets.items()}

    def materials_for_tag(self, tag_id: str) -> list[Material]:
        """Materials classified against ``tag_id``."""
        return [m for m in self.materials if m.covers(tag_id)]

    def has_label(self, label: CourseLabel) -> bool:
        return label in self.labels

    def __len__(self) -> int:
        return len(self.materials)

    def __repr__(self) -> str:  # keep material lists out of reprs
        labels = "/".join(sorted(l.value for l in self.labels)) or "-"
        return f"Course({self.id!r}, {self.name!r}, labels={labels}, n_materials={len(self)})"
