"""Learning materials and their curriculum classifications.

A material is anything an instructor contributes to a course — a lecture, an
assignment, a lab, an exam — classified against one or more guideline tags.
The CS Materials website stores ~1700 of these; here they are plain frozen
dataclasses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Mapping

from repro.util.digest import canonical_digest


class MaterialType(enum.Enum):
    """Kind of learning material."""

    LECTURE = "lecture"
    SLIDES = "slides"
    ASSIGNMENT = "assignment"
    LAB = "lab"
    EXERCISE = "exercise"
    QUIZ = "quiz"
    EXAM = "exam"
    PROJECT = "project"
    READING = "reading"
    EXTERNAL = "external"


class MaterialRole(enum.Enum):
    """Pedagogical role, the axis of the alignment analysis (§3.2).

    Workshops teach instructors to study "the alignment between content
    delivery, activities, and assessment"; every material type maps to one
    of these three roles.
    """

    DELIVERY = "delivery"
    ACTIVITY = "activity"
    ASSESSMENT = "assessment"


#: Default material-type → role assignment used by the alignment analysis.
ROLE_OF_TYPE: dict[MaterialType, MaterialRole] = {
    MaterialType.LECTURE: MaterialRole.DELIVERY,
    MaterialType.SLIDES: MaterialRole.DELIVERY,
    MaterialType.READING: MaterialRole.DELIVERY,
    MaterialType.EXTERNAL: MaterialRole.DELIVERY,
    MaterialType.ASSIGNMENT: MaterialRole.ACTIVITY,
    MaterialType.LAB: MaterialRole.ACTIVITY,
    MaterialType.EXERCISE: MaterialRole.ACTIVITY,
    MaterialType.PROJECT: MaterialRole.ACTIVITY,
    MaterialType.QUIZ: MaterialRole.ASSESSMENT,
    MaterialType.EXAM: MaterialRole.ASSESSMENT,
}


@dataclass(frozen=True)
class Material:
    """A classified learning material.

    ``mappings`` holds guideline tag ids (CS2013 and/or PDC12 node ids);
    the searchable metadata fields mirror §3.1.2: author, course level,
    programming language, and datasets used.

    A material is immutable, ``meta`` included: never mutate it in place
    (derive a changed copy with :func:`dataclasses.replace`), since
    :attr:`digest` is memoized on first use.
    """

    id: str
    title: str
    mtype: MaterialType
    mappings: frozenset[str] = frozenset()
    author: str = ""
    course_level: str = ""       # e.g. "CS1", "CS2", "DS"
    language: str = ""           # programming language, e.g. "Java"
    datasets: tuple[str, ...] = ()
    description: str = ""
    url: str = ""
    meta: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("material id must be non-empty")
        if not isinstance(self.mappings, frozenset):
            object.__setattr__(self, "mappings", frozenset(self.mappings))
        if not isinstance(self.datasets, tuple):
            object.__setattr__(self, "datasets", tuple(self.datasets))

    @property
    def role(self) -> MaterialRole:
        """Pedagogical role derived from the material type."""
        return ROLE_OF_TYPE[self.mtype]

    def with_mappings(self, mappings: frozenset[str] | set[str]) -> "Material":
        """Copy of this material with ``mappings`` replaced (re-classification)."""
        return Material(
            id=self.id,
            title=self.title,
            mtype=self.mtype,
            mappings=frozenset(mappings),
            author=self.author,
            course_level=self.course_level,
            language=self.language,
            datasets=self.datasets,
            description=self.description,
            url=self.url,
            meta=self.meta,
        )

    @cached_property
    def digest(self) -> str:
        """Canonical-JSON content digest, computed once per material."""
        from repro.io.json_io import material_to_dict  # imports this module

        return canonical_digest(material_to_dict(self))

    def covers(self, tag_id: str) -> bool:
        """Whether this material is classified against ``tag_id``."""
        return tag_id in self.mappings
