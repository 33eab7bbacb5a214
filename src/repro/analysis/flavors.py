"""Flavor analysis within a course family (Figures 5 and 7, §4.4/§4.6).

The factorization of §4.4 is interpreted by reading the H matrix: which
knowledge areas and which tags carry each extracted type.  This module
packages that interpretation — per-type area mass, top tags, and per-course
type memberships — so benchmarks can print what the paper's figures show.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.matrix import CourseMatrix
from repro.analysis.typing import CourseTyping, type_courses
from repro.ontology.queries import area_of
from repro.ontology.tree import GuidelineTree
from repro.runtime.metrics import metrics
from repro.util.rng import RngLike


@dataclass(frozen=True)
class TypeProfile:
    """Interpretation of one NNMF dimension.

    * ``area_mass`` — fraction of the type's H mass per knowledge area
      (the per-area annotations under Figures 5b/7b).
    * ``top_tags`` — the highest-weight tags, the things one reads off to
      say "Type 1 seems to contain primarily ... Big Oh notation,
      complexity analysis, trees ...".
    * ``member_courses`` — courses whose normalized W weight on this type
      exceeds the membership threshold.
    """

    index: int
    area_mass: dict[str, float]
    top_tags: tuple[tuple[str, float], ...]
    member_courses: tuple[tuple[str, float], ...]

    @property
    def dominant_area(self) -> str:
        return max(self.area_mass, key=lambda a: self.area_mass[a]) if self.area_mass else "?"

    def describe(self) -> str:
        """Human-readable one-liner for the type, in the paper's idiom.

        Heuristic naming from the area-mass profile: the signatures of
        §4.4/§4.6 (PL-heavy = object-oriented; AL-heavy = algorithmic;
        SDF-heavy with AR = imperative + representation; CN/GV/IM presence
        = applications; DS counting presence = combinatorial).
        """
        if not self.area_mass:
            return f"Type {self.index + 1}: (empty)"
        get = self.area_mass.get
        if self.dominant_area == "PL":
            flavor = "object-oriented programming"
        elif self.dominant_area == "AL" and get("DS", 0) > 0.1:
            flavor = "combinatorial algorithms"
        elif self.dominant_area == "AL":
            flavor = "algorithmic"
        elif self.dominant_area == "SDF" and get("AR", 0) > 0.04:
            flavor = "imperative programming + data representation"
        elif self.dominant_area == "SDF":
            flavor = "imperative programming"
        elif self.dominant_area == "PD":
            flavor = "parallel and distributed computing"
        elif self.dominant_area == "SE":
            flavor = "software engineering"
        else:
            flavor = f"{self.dominant_area}-centered"
        if get("CN", 0) + get("GV", 0) + get("IM", 0) > 0.08:
            flavor += ", applications-oriented"
        top = ", ".join(
            f"{a} {v:.0%}"
            for a, v in sorted(self.area_mass.items(), key=lambda x: -x[1])[:3]
        )
        return f"Type {self.index + 1}: {flavor} ({top})"


@dataclass(frozen=True)
class FlavorAnalysis:
    """Full flavor analysis of a course family."""

    typing: CourseTyping
    profiles: tuple[TypeProfile, ...]

    @property
    def k(self) -> int:
        return self.typing.k

    def course_memberships(self, course_id: str) -> np.ndarray:
        """Normalized type weights of one course (sums to 1)."""
        i = self.typing.matrix.course_ids.index(course_id)
        return self.typing.w_normalized[i]

    def strongest_course(self, type_index: int) -> str:
        """Course with the highest normalized weight on ``type_index``."""
        wn = self.typing.w_normalized
        return self.typing.matrix.course_ids[int(np.argmax(wn[:, type_index]))]


def analyze_flavors(
    matrix: CourseMatrix,
    tree: GuidelineTree,
    k: int = 3,
    *,
    seed: RngLike = None,
    solver: str = "hals",
    init: str = "random",
    n_restarts: int = 4,
    top_n: int = 15,
    membership_threshold: float = 0.25,
) -> FlavorAnalysis:
    """Factor a family matrix and interpret each type.

    k=3 reproduces the paper's choice for both the CS1 and the DS+Algo
    analyses (k=2 under-separates, k=4 duplicates a dimension — verified by
    :mod:`~repro.analysis.model_selection`).
    """
    typing = type_courses(
        matrix, k, seed=seed, solver=solver, init=init,
        n_restarts=n_restarts,
    )
    return flavors_from_typing(
        typing, tree, top_n=top_n, membership_threshold=membership_threshold
    )


def flavors_from_typing(
    typing: CourseTyping,
    tree: GuidelineTree,
    *,
    top_n: int = 15,
    membership_threshold: float = 0.25,
) -> FlavorAnalysis:
    """Interpret an already-fit :class:`CourseTyping` (the H/W reading).

    The pure-interpretation half of :func:`analyze_flavors`, split out so
    the service's request broker can coalesce the NMF solves of many
    concurrent flavor requests and finish each one here.
    """
    matrix = typing.matrix
    metrics.inc("flavors.analyses")
    h, w_n = typing.h, typing.w_normalized
    profiles = []
    for t in range(typing.k):
        row = h[t]
        mass = float(row.sum())
        area_mass: dict[str, float] = {}
        for j, tag in enumerate(matrix.tag_ids):
            if row[j] <= 0 or tag not in tree:
                continue
            area = area_of(tree, tag)
            code = area.meta.get("code", area.short_id) if area else "?"
            area_mass[code] = area_mass.get(code, 0.0) + float(row[j])
        if mass > 0:
            area_mass = {a: v / mass for a, v in area_mass.items()}
        order = np.argsort(row)[::-1][:top_n]
        top_tags = tuple(
            (matrix.tag_ids[j], float(row[j])) for j in order if row[j] > 0
        )
        members = tuple(
            (cid, float(w_n[i, t]))
            for i, cid in enumerate(matrix.course_ids)
            if w_n[i, t] >= membership_threshold
        )
        profiles.append(
            TypeProfile(
                index=t,
                area_mass=area_mass,
                top_tags=top_tags,
                member_courses=members,
            )
        )
    return FlavorAnalysis(typing=typing, profiles=tuple(profiles))
