"""Shared, thread-safe state behind the analysis service.

One :class:`ServiceState` owns everything a server process keeps warm
between requests:

* the guideline tree, the ingested corpus (a
  :class:`~repro.materials.ShardedMaterialRepository` whose shards stay
  warm in this process and answer queries through a serial fan-out),
  and the corpus course matrix;
* lazily built **family matrices** (per course-label submatrices) behind
  a lock, cached so concurrent requests for the same family share one
  matrix *object* — which is what lets the broker group their NMF jobs
  into a single kernel call;
* the roster archetype mixtures used by the anchors endpoint's
  discovery path.

Endpoint logic lives here as plain methods that either return a JSON
document directly (coverage, similar, corpus) or return a broker job
whose ``finish`` continuation builds the document (search, typing,
flavors, anchors).  Keeping the logic out of the HTTP layer means the
bit-identity tests can call these methods against direct library calls
without sockets in the loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from repro.analysis import (
    CourseMatrix,
    build_course_matrix,
    flavors_from_typing,
    typing_from_bundles,
    typing_specs,
)
from repro.anchors.recommender import recommend_for_course
from repro.corpus.roster import ROSTER
from repro.materials import (
    Course,
    CourseLabel,
    MaterialType,
    SearchQuery,
    ShardedMaterialRepository,
    coverage,
)
from repro.ontology.node import Bloom, Mastery
from repro.ontology.tree import GuidelineTree
from repro.runtime.executor import cached_nmf_fits
from repro.runtime.metrics import metrics
from repro.runtime.sanitize import make_lock
from repro.service.broker import NmfJob, SearchJob


#: NMF rank and restart count when a request names none.
DEFAULT_K = 4
DEFAULT_RESTARTS = 4
#: Largest rank and restart count one request may ask for.  Every restart's
#: W0/H0 is drawn in the handler thread before dispatch, and a dispatched
#: kernel runs to completion past its deadline, so both bound the work and
#: memory a single request can claim.
MAX_K = 16
MAX_RESTARTS = 16
#: Hits per query when a request sets no ``limit``.
DEFAULT_LIMIT = 10
#: Deadline remainder (seconds) below which a cold NMF fit is not
#: attempted; a cached factorization is served degraded instead, if one
#: exists.
DEGRADE_FLOOR_S = 0.05


class ServiceError(Exception):
    """Request-level failure carrying an HTTP status code."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for one service instance.

    Broker lanes are work-conserving: a request reaching an idle lane
    dispatches at once, and requests that queue behind a running batch
    form the next one, at most ``max_batch`` requests per dispatch.
    ``coalesce=False`` turns off micro-batching (requests still flow
    through the broker's dispatch code, one at a time) — the load-test
    baseline.  ``resident`` has one legal value, ``False``: shard
    queries always run in the server process.  The field stays so
    that callers passing ``resident=False`` keep working.

    Overload controls (see :mod:`repro.service.admission`): the
    ``max_inflight_*`` / ``max_queue_*`` pairs bound each endpoint
    class's admission gate (past the queue watermark requests shed with
    503); ``default_deadline_s`` is the per-request budget when the
    client sends no ``deadline_ms`` (``None`` = unbounded).
    """

    n_shards: int = 4
    resident: bool = False
    coalesce: bool = True
    max_batch: int = 32
    max_inflight_cheap: int = 64
    max_queue_cheap: int = 128
    max_inflight_heavy: int = 8
    max_queue_heavy: int = 32
    default_deadline_s: float | None = 30.0

    def __post_init__(self) -> None:
        if self.resident:
            raise ValueError(
                "resident=True is no longer supported: the worker-resident "
                "shard pool was removed, and shard queries run in the "
                "server process"
            )


# -- parameter parsing -------------------------------------------------------
#
# A GET query string carries every value as text, so numerals parse from
# strings; a JSON body must carry the JSON type itself (a bool is not an
# integer, and neither is a float).


def _params_int(
    params: Mapping,
    name: str,
    default: int,
    *,
    lo: int | None = None,
    hi: int | None = None,
) -> int:
    raw = params.get(name, default)
    try:
        if isinstance(raw, bool) or not isinstance(raw, (int, str)):
            raise TypeError
        value = int(raw)
    except (TypeError, ValueError):
        raise ServiceError(400, f"{name} must be an integer, got {raw!r}") from None
    if lo is not None and value < lo:
        raise ServiceError(400, f"{name} must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise ServiceError(400, f"{name} must be <= {hi}, got {value}")
    return value


def parse_number(raw: Any, name: str) -> float:
    """A finite float from a JSON number or a numeral string."""
    try:
        if isinstance(raw, bool) or not isinstance(raw, (int, float, str)):
            raise TypeError
        value = float(raw)
    except (TypeError, ValueError, OverflowError):
        raise ServiceError(400, f"{name} must be a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ServiceError(400, f"{name} must be finite, got {raw!r}")
    return value


def _params_float(params: Mapping, name: str, default: float) -> float:
    return parse_number(params.get(name, default), name)


def _params_str(params: Mapping, name: str) -> str | None:
    """A string parameter, or ``None`` when absent or null."""
    raw = params.get(name)
    if raw is not None and not isinstance(raw, str):
        raise ServiceError(400, f"{name} must be a string, got {raw!r}")
    return raw


def _params_enum(params: Mapping, name: str, enum_cls, default=None):
    raw = params.get(name)
    if raw in (None, ""):
        return default
    try:
        return enum_cls(raw)
    except ValueError:
        valid = ", ".join(sorted(e.value for e in enum_cls))
        raise ServiceError(
            400, f"{name} must be one of: {valid}; got {raw!r}"
        ) from None


def parse_query(doc: Any) -> SearchQuery:
    """Build a :class:`SearchQuery` from a request document."""
    if not isinstance(doc, Mapping):
        raise ServiceError(400, f"query must be an object, got {type(doc).__name__}")
    known = {
        "tags", "text", "type", "author", "course_level", "language",
        "dataset", "min_mastery", "min_bloom",
    }
    unknown = set(doc) - known
    if unknown:
        raise ServiceError(400, f"unknown query fields: {sorted(unknown)}")
    tags = doc.get("tags", ())
    if not isinstance(tags, (list, tuple)) or not all(
        isinstance(t, str) for t in tags
    ):
        raise ServiceError(400, "tags must be a list of strings")
    kwargs: dict[str, Any] = {"tags": frozenset(tags)}
    for name in ("text", "author", "course_level", "language", "dataset"):
        value = _params_str(doc, name)
        if value:
            kwargs[name] = value
    mtype = _params_enum(doc, "type", MaterialType)
    if mtype is not None:
        kwargs["mtype"] = mtype
    mastery = _params_enum(doc, "min_mastery", Mastery)
    if mastery is not None:
        kwargs["min_mastery"] = mastery
    bloom = _params_enum(doc, "min_bloom", Bloom)
    if bloom is not None:
        kwargs["min_bloom"] = bloom
    return SearchQuery(**kwargs)


def _hit(result) -> dict:
    return {"id": result.material.id, "score": result.score}


# -- the state object --------------------------------------------------------


class ServiceState:
    """Corpus, analyses, and per-endpoint handlers for one server."""

    def __init__(
        self,
        tree: GuidelineTree,
        courses: Sequence[Course] | None,
        *,
        config: ServiceConfig | None = None,
        repo: ShardedMaterialRepository | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.tree = tree
        if repo is not None:
            # Warm restart: the repository was already rebuilt from
            # persisted state (repro.materials.persist) — adopt it
            # as-is instead of re-ingesting.
            self.repo = repo
            self.ingest_report = None
            self._retained: tuple[Course, ...] = tuple(repo.courses())
        else:
            if courses is None:
                raise ValueError("provide courses or a prebuilt repo")
            self.repo = ShardedMaterialRepository(n_shards=self.config.n_shards)
            self.ingest_report = self.repo.ingest(courses)
            self._retained = tuple(self.ingest_report.retained)
        self.courses_by_id = {c.id: c for c in self._retained}
        self.matrix: CourseMatrix = build_course_matrix(self._retained, tree=tree)
        self._family_lock = make_lock("service.family")
        self._family: dict[str | None, CourseMatrix] = {None: self.matrix}
        self._mixtures: dict[str, dict[str, float]] = {
            entry.id: dict(entry.mixture) for entry in ROSTER
        }

    # -- shared lookups ------------------------------------------------------

    def family_matrix(self, label: str | None) -> CourseMatrix:
        """The (cached) course matrix for one course family.

        The cache guarantees a *stable object* per label, so every
        concurrent request against the same family produces NMF jobs
        with the same ``group`` token — the precondition for the broker
        concatenating them into one kernel call.
        """
        with self._family_lock:
            cached = self._family.get(label)
            if cached is not None:
                return cached
            try:
                course_label = CourseLabel(label)
            except ValueError:
                valid = ", ".join(sorted(lab.value for lab in CourseLabel))
                raise ServiceError(
                    400, f"label must be one of: {valid}; got {label!r}"
                ) from None
            family = build_course_matrix(
                self._retained, tree=self.tree, label=course_label
            )
            if not family.course_ids:
                raise ServiceError(404, f"no retained courses with label {label!r}")
            self._family[label] = family
            metrics.inc("service.family_matrices")
            return family

    def _course(self, params: Mapping) -> Course:
        course_id = _params_str(params, "course_id")
        if not course_id:
            raise ServiceError(400, "course_id is required")
        course = self.courses_by_id.get(course_id)
        if course is None:
            raise ServiceError(404, f"no course {course_id!r}")
        return course

    def _nmf_params(self, params: Mapping) -> tuple[int, int, int, str | None]:
        k = _params_int(params, "k", DEFAULT_K, lo=1, hi=MAX_K)
        seed = _params_int(params, "seed", 0, lo=0)
        n_restarts = _params_int(
            params, "n_restarts", DEFAULT_RESTARTS, lo=1, hi=MAX_RESTARTS
        )
        return k, seed, n_restarts, _params_str(params, "label")

    # -- direct endpoints (no kernel work, answered inline) ------------------

    def healthz(self, params: Mapping) -> dict:
        return {
            "status": "ok",
            "n_courses": self.repo.n_courses,
            "n_materials": self.repo.n_materials,
            "n_shards": self.repo.n_shards,
        }

    def corpus_info(self, params: Mapping) -> dict:
        limit = _params_int(params, "limit", 500, lo=1)
        material_ids = sorted(m.id for m in self.repo.materials())
        return {
            "course_ids": [c.id for c in self._retained],
            "labels": sorted({
                lab.value for c in self._retained for lab in c.labels
            }),
            "material_ids": material_ids[:limit],
            "n_materials": len(material_ids),
            "tag_ids": list(self.matrix.tag_ids),
        }

    def coverage(self, params: Mapping) -> dict:
        course = self._course(params)
        report = coverage(course, self.tree)
        return {
            "course_id": report.course_id,
            "fraction": report.fraction,
            "n_tags_covered": report.n_tags_covered,
            "n_tags_total": report.n_tags_total,
            "core1": [report.core1_covered, report.core1_total],
            "core1_fraction": report.core1_fraction,
            "core2": [report.core2_covered, report.core2_total],
            "core2_fraction": report.core2_fraction,
            "by_area": {a: list(v) for a, v in sorted(report.by_area.items())},
            "meets_core_requirements": report.meets_core_requirements(),
        }

    def similar(self, params: Mapping) -> dict:
        material_id = _params_str(params, "material_id")
        if not material_id:
            raise ServiceError(400, "material_id is required")
        limit = _params_int(params, "limit", DEFAULT_LIMIT, lo=1)
        try:
            hits = self.repo.find_similar(material_id, limit=limit)
        except KeyError:
            raise ServiceError(404, f"no material {material_id!r}") from None
        return {"material_id": material_id, "results": [_hit(r) for r in hits]}

    # -- broker-backed endpoints (return jobs) -------------------------------

    def search_job(self, params: Mapping) -> SearchJob:
        raw = params.get("queries")
        if raw is None:
            single = params.get("query")
            if single is None:
                raise ServiceError(400, "provide 'query' or 'queries'")
            raw = [single]
        if not isinstance(raw, list) or not raw:
            raise ServiceError(400, "queries must be a non-empty list")
        queries = [parse_query(doc) for doc in raw]
        limit = _params_int(params, "limit", DEFAULT_LIMIT, lo=1)

        def finish(per_query: Sequence[list]) -> dict:
            return {
                "results": [[_hit(r) for r in hits] for hits in per_query]
            }

        return SearchJob(
            queries=queries, tree=self.tree, limit=limit, finish=finish
        )

    def typing_job(self, params: Mapping) -> NmfJob:
        k, seed, n_restarts, label = self._nmf_params(params)
        matrix = self.family_matrix(label)
        specs = typing_specs(matrix, k, seed=seed, n_restarts=n_restarts)

        def finish(bundles: Sequence[dict]) -> dict:
            typing = typing_from_bundles(matrix, bundles)
            doc = self._typing_doc(typing)
            doc["label"] = label
            return doc

        return NmfJob(
            matrix=matrix.matrix,
            group=id(matrix),
            specs=specs,
            finish=finish,
            dedup_key=("nmf", label, k, seed, n_restarts),
        )

    def flavors_job(self, params: Mapping) -> NmfJob:
        k, seed, n_restarts, label = self._nmf_params(params)
        top_n = _params_int(params, "top_n", 15, lo=1)
        threshold = _params_float(params, "membership_threshold", 0.25)
        matrix = self.family_matrix(label)
        specs = typing_specs(matrix, k, seed=seed, n_restarts=n_restarts)

        def finish(bundles: Sequence[dict]) -> dict:
            analysis = flavors_from_typing(
                typing_from_bundles(matrix, bundles),
                self.tree,
                top_n=top_n,
                membership_threshold=threshold,
            )
            return {
                "label": label,
                "k": analysis.k,
                "course_ids": list(matrix.course_ids),
                "reconstruction_err": analysis.typing.reconstruction_err,
                "profiles": [
                    {
                        "index": p.index,
                        "dominant_area": p.dominant_area,
                        "describe": p.describe(),
                        "area_mass": {
                            a: v for a, v in sorted(p.area_mass.items())
                        },
                        "top_tags": [[t, v] for t, v in p.top_tags],
                        "member_courses": [[c, v] for c, v in p.member_courses],
                    }
                    for p in analysis.profiles
                ],
                "strongest_courses": [
                    analysis.strongest_course(t) for t in range(analysis.k)
                ],
            }

        # NMF work is identical to a typing request with the same params,
        # so the dedup key intentionally collides across endpoints: one
        # solve can serve a /typing and a /flavors response.
        return NmfJob(
            matrix=matrix.matrix,
            group=id(matrix),
            specs=specs,
            finish=finish,
            dedup_key=("nmf", label, k, seed, n_restarts),
        )

    def anchors_job(self, params: Mapping) -> NmfJob | dict:
        """Anchor-point module recommendations (§5).

        With explicit ``flavors`` the request is pure lookup and the
        document is returned directly.  Otherwise the course's flavor is
        *discovered*: factor the course's family, find its dominant
        type, take the type's exemplar course, and read the exemplar's
        roster archetype mixture — so the returned dict rides on the
        broker's coalesced NMF batch like typing/flavors do.
        """
        course = self._course(params)
        top = _params_int(params, "top", 5, lo=1)
        explicit = params.get("flavors")
        if explicit is not None:
            if not isinstance(explicit, list) or not all(
                isinstance(f, str) for f in explicit
            ):
                raise ServiceError(400, "flavors must be a list of strings")
            return self._anchors_doc(course, list(explicit), top, discovered=False)

        k, seed, n_restarts, label = self._nmf_params(params)
        if "k" not in params:
            k = 3  # flavor analyses default to the paper's k=3
        if label is None:
            label = next(
                (lab.value for lab in sorted(course.labels, key=lambda l: l.value)),
                None,
            )
        matrix = self.family_matrix(label)
        if course.id not in matrix.course_ids:
            raise ServiceError(
                400, f"course {course.id!r} is not in family {label!r}"
            )
        specs = typing_specs(matrix, k, seed=seed, n_restarts=n_restarts)

        def finish(bundles: Sequence[dict]) -> dict:
            typing = typing_from_bundles(matrix, bundles)
            row = matrix.course_ids.index(course.id)
            type_index = int(np.argmax(typing.w_normalized[row]))
            exemplar = matrix.course_ids[
                int(np.argmax(typing.w_normalized[:, type_index]))
            ]
            mixture = self._mixtures.get(exemplar)
            flavors = (
                [max(mixture, key=lambda a: mixture[a])] if mixture else []
            )
            doc = self._anchors_doc(course, flavors, top, discovered=True)
            doc["label"] = label
            doc["type_index"] = type_index
            doc["exemplar"] = exemplar
            return doc

        return NmfJob(
            matrix=matrix.matrix,
            group=id(matrix),
            specs=specs,
            finish=finish,
            dedup_key=("nmf", label, k, seed, n_restarts),
        )

    # -- degraded-mode serving -----------------------------------------------

    def degraded_nmf(self, job: NmfJob) -> dict | None:
        """Serve ``job`` from cached factorizations only, or ``None``.

        Used when the request deadline is too tight for a cold fit or
        its result wait timed out: if *every* spec in the job already
        has a checksummed ``.npz`` bundle in the runtime result cache,
        the response document is built from those bundles — bit-
        identical to a live fit — and flagged ``"degraded": true``.
        A single cache miss returns ``None`` (no partial answers).
        """
        bundles = cached_nmf_fits(job.matrix, job.specs)
        if bundles is None:
            return None
        doc = job.finish(list(bundles))
        doc["degraded"] = True
        metrics.inc("service.degraded")
        return doc

    # -- document builders ---------------------------------------------------

    def _typing_doc(self, typing) -> dict:
        course_ids = list(typing.matrix.course_ids)
        return {
            "k": typing.k,
            "course_ids": course_ids,
            "reconstruction_err": typing.reconstruction_err,
            "w": typing.w.tolist(),
            "dominant_types": {
                cid: typing.dominant_type(cid) for cid in course_ids
            },
            "label_to_type": {
                lab.value: dim
                for lab, dim in sorted(
                    typing.label_to_type(self._retained).items(),
                    key=lambda item: item[0].value,
                )
            },
            "top_tags": {
                str(dim): [[t, v] for t, v in typing.top_tags_for_dim(dim, 10)]
                for dim in range(typing.k)
            },
        }

    def _anchors_doc(
        self, course: Course, flavors: list[str], top: int, *, discovered: bool
    ) -> dict:
        recs = recommend_for_course(course, flavors=flavors)
        return {
            "course_id": course.id,
            "flavors": flavors,
            "discovered": discovered,
            "recommendations": [
                {
                    "module": r.module.id,
                    "title": r.module.title,
                    "score": r.score,
                    "anchor_coverage": r.anchor_coverage,
                    "flavor_match": r.flavor_match,
                    "deployable": r.deployable,
                    "covered_anchors": list(r.covered_anchors),
                    "missing_anchors": list(r.missing_anchors),
                }
                for r in recs.top(top)
            ],
        }
