"""An in-process re-implementation of the CS Materials system (§3.1).

CS Materials lets instructors classify learning materials against curriculum
guidelines and then compare, search, and visualize whole courses.  This
package reproduces its data model and analyses:

* :class:`Material` / :class:`Course` — the classification data model.
* :class:`MaterialRepository` — storage plus the search facilities of
  §3.1.2 (topic/outcome/level/author/language/dataset search, similarity
  ranking, MDS search maps).
* :mod:`~repro.materials.coverage` — course coverage and the
  delivery/activity/assessment alignment analysis taught at the workshops.
* :mod:`~repro.materials.hittree` — hit-trees: guideline subtrees touched
  by a set of materials, with per-node weights and divergent alignment
  colors (§3.1.1).
* :mod:`~repro.materials.matrixview` — the bi-clustered matrix view.
"""

from repro.materials.material import Material, MaterialRole, MaterialType
from repro.materials.course import Course, CourseLabel
from repro.materials.index import QueryPlan, RepositoryIndex
from repro.materials.repository import MaterialRepository, SearchQuery, SearchResult
from repro.materials.sharding import ShardedMaterialRepository, shard_of
from repro.materials.similarity import (
    cosine_similarity,
    incidence_matrix,
    jaccard_similarity,
    search_map,
    similarity_from_incidence,
    similarity_graph,
    similarity_matrix,
)
from repro.materials.coverage import AlignmentReport, CoverageReport, alignment, coverage
from repro.materials.hittree import HitTree, build_hit_tree, alignment_hit_tree
from repro.materials.matrixview import MatrixView, build_matrix_view
from repro.materials.external import external_collections, load_external_materials
from repro.materials.lint import LintIssue, Severity, has_errors, lint_corpus
from repro.materials.diff import (
    CourseDiff,
    compare_courses,
    course_map,
    course_similarity_graph,
    course_similarity_matrix,
)

__all__ = [
    "Material",
    "MaterialRole",
    "MaterialType",
    "Course",
    "CourseLabel",
    "MaterialRepository",
    "QueryPlan",
    "RepositoryIndex",
    "SearchQuery",
    "SearchResult",
    "ShardedMaterialRepository",
    "shard_of",
    "cosine_similarity",
    "incidence_matrix",
    "jaccard_similarity",
    "search_map",
    "similarity_from_incidence",
    "similarity_graph",
    "similarity_matrix",
    "AlignmentReport",
    "CoverageReport",
    "alignment",
    "coverage",
    "HitTree",
    "build_hit_tree",
    "alignment_hit_tree",
    "MatrixView",
    "build_matrix_view",
    "external_collections",
    "load_external_materials",
    "CourseDiff",
    "compare_courses",
    "course_map",
    "course_similarity_graph",
    "course_similarity_matrix",
    "LintIssue",
    "Severity",
    "has_errors",
    "lint_corpus",
]
