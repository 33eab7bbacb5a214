"""Reference implementations the package must reproduce exactly.

*NMF solvers: the textbook 2-D loops, one fit at a time.*  The package
solves every fit with the stacked engine of
:mod:`repro.factorization.kernels`.  These loops are what that engine
must reproduce bit for bit: MU (Frobenius and KL) and HALS on the full
dense matrix.  Tests compare bundles from the engine against
:func:`oracle_fits` with exact equality.

*Guideline-tree queries and the course matrix.*  A tree memoizes its
preorder tags and a node → area index; :func:`oracle_tags` and
:func:`oracle_area_of` re-derive both by traversal.
:func:`oracle_course_matrix` is the two-pass, cell-at-a-time loop that
:func:`repro.analysis.matrix.build_course_matrix` must match byte for byte.

*Course memos and the agreement counts.*  A course memoizes its tag union
and its digest.  :func:`oracle_tag_set` re-derives the union material by
material, :func:`oracle_course_digest` re-encodes the digest recipe, and
:func:`oracle_agreement_counts` is the per-tag loop that
:func:`repro.analysis.agreement.agreement_counts` must match.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Mapping, Sequence

import numpy as np

from repro.analysis.matrix import CourseMatrix
from repro.factorization.kernels import _frobenius_error, _kl_divergence
from repro.factorization.nmf import NMF
from repro.materials.course import Course, CourseLabel
from repro.ontology.node import NodeKind, OntologyNode
from repro.ontology.tree import GuidelineTree
from repro.util.digest import canonical_digest
from repro.util.validation import check_finite, check_matrix, check_nonnegative

_EPS = np.finfo(np.float64).eps


def _objective(model: NMF, a: np.ndarray, w: np.ndarray, h: np.ndarray) -> float:
    if model.loss == "frobenius":
        return _frobenius_error(a, w, h)
    return _kl_divergence(a, w, h)


def _solve_mu(
    model: NMF, a: np.ndarray, w: np.ndarray, h: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float | None]:
    """MU iterations; returns ``(W, H, last_err)``.

    ``last_err`` is the objective evaluated on the converging check
    iteration (``None`` if the run hit ``max_iter`` or ``tol == 0``)
    — callers can reuse it instead of re-deriving the final error.
    """
    err_init = _objective(model, a, w, h)
    err_prev = err_init
    last_err: float | None = None
    model.converged_ = False
    for it in range(1, model.max_iter + 1):
        if model.loss == "frobenius":
            h *= (w.T @ a) / (w.T @ w @ h + model.l2_reg * h + model.l1_reg + _EPS)
            w *= (a @ h.T) / (w @ (h @ h.T) + model.l2_reg * w + model.l1_reg + _EPS)
        else:
            wh = w @ h + _EPS
            h *= (w.T @ (a / wh)) / (w.T.sum(axis=1, keepdims=True) + model.l1_reg + _EPS)
            wh = w @ h + _EPS
            w *= ((a / wh) @ h.T) / (h.sum(axis=1)[None, :] + model.l1_reg + _EPS)
        model.n_iter_ = it
        if model.tol > 0 and it % model.check_every == 0:
            err = _objective(model, a, w, h)
            if (err_prev - err) / max(err_init, _EPS) < model.tol:
                model.converged_ = True
                last_err = err
                break
            err_prev = err
    return w, h, last_err


def _solve_hals(
    model: NMF, a: np.ndarray, w: np.ndarray, h: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float | None]:
    """HALS: cyclic rank-one updates of W's columns and H's rows.

    Returns ``(W, H, last_err)`` like :func:`_solve_mu`.
    """
    err_init = _frobenius_error(a, w, h)
    err_prev = err_init
    last_err: float | None = None
    model.converged_ = False
    for it in range(1, model.max_iter + 1):
        # Update H rows given W.
        wtw = w.T @ w
        wta = w.T @ a
        for j in range(model.n_components):
            grad = wta[j] - wtw[j] @ h - model.l1_reg
            denom = wtw[j, j] + model.l2_reg + _EPS
            h[j] = np.maximum(h[j] + grad / denom, 0.0)
        # Update W columns given H.
        hht = h @ h.T
        aht = a @ h.T
        for j in range(model.n_components):
            grad = aht[:, j] - w @ hht[:, j] - model.l1_reg
            denom = hht[j, j] + model.l2_reg + _EPS
            w[:, j] = np.maximum(w[:, j] + grad / denom, 0.0)
        model.n_iter_ = it
        if model.tol > 0 and it % model.check_every == 0:
            err = _frobenius_error(a, w, h)
            if (err_prev - err) / max(err_init, _EPS) < model.tol:
                model.converged_ = True
                last_err = err
                break
            err_prev = err
    return w, h, last_err


def _model_and_start(
    a: np.ndarray, spec: Mapping[str, Any]
) -> tuple[NMF, np.ndarray, np.ndarray]:
    model = NMF(**{k: v for k, v in spec.items() if k not in ("W0", "H0")})
    w, h = model._initialize(a, spec.get("W0"), spec.get("H0"))
    return model, w, h


def _bundle(w, h, err, n_iter, converged) -> dict[str, Any]:
    return dict(
        w=w,
        h=h,
        err=np.float64(err),
        n_iter=np.int64(n_iter),
        converged=np.bool_(converged),
    )


def oracle_fits(a: np.ndarray, specs: Sequence[Mapping[str, Any]]) -> list[dict]:
    """One reference fit per spec, in order, on the full dense ``a``."""
    a = np.ascontiguousarray(check_finite(check_nonnegative(check_matrix(a))))
    out = []
    for spec in specs:
        model, w, h = _model_and_start(a, spec)
        solve = _solve_mu if model.solver == "mu" else _solve_hals
        w, h, last_err = solve(model, a, w, h)
        err = last_err if last_err is not None else _objective(model, a, w, h)
        out.append(_bundle(w, h, err, model.n_iter_, model.converged_))
    return out


# -- guideline-tree queries and the course matrix ----------------------------


def oracle_tags(tree: GuidelineTree) -> list[OntologyNode]:
    """Tag nodes (topics and outcomes) by a fresh preorder traversal."""
    return [n for n in tree.iter_preorder() if n.is_tag]


def oracle_area_of(tree: GuidelineTree, node_id: str) -> OntologyNode | None:
    """The nearest AREA at or above ``node_id``, by walking ancestors."""
    node = tree[node_id]
    if node.kind is NodeKind.AREA:
        return node
    for anc in tree.ancestors(node_id):
        if anc.kind is NodeKind.AREA:
            return anc
    return None


def oracle_course_matrix(
    courses: Sequence[Course],
    *,
    tree: GuidelineTree | None = None,
    label: CourseLabel | None = None,
    full_universe: bool = False,
    weighting: str = "binary",
) -> CourseMatrix:
    """``A`` by two passes over :func:`oracle_tag_set`: the column universe
    first, then one cell at a time."""
    selected = [c for c in courses if label is None or label in c.labels]
    if full_universe:
        tag_ids: list[str] = list(tree.tag_ids())
    else:
        universe: set[str] = set()
        for c in selected:
            tags = oracle_tag_set(c)
            if tree is not None:
                tags = frozenset(t for t in tags if t in tree)
            universe |= tags
        tag_ids = sorted(universe)
    index = {t: j for j, t in enumerate(tag_ids)}
    a = np.zeros((len(selected), len(tag_ids)))
    for i, c in enumerate(selected):
        for t in oracle_tag_set(c):
            j = index.get(t)
            if j is not None:
                a[i, j] = 1.0
    if weighting == "tfidf":
        n = a.shape[0]
        df = a.sum(axis=0)
        idf = np.log((1.0 + n) / (1.0 + df)) + 1.0
        a = a * idf[None, :]
    return CourseMatrix(a, tuple(c.id for c in selected), tuple(tag_ids))


# -- course memos and the agreement counts -----------------------------------


def oracle_tag_set(course: Course) -> frozenset[str]:
    """The union of the course's material mappings, one material at a time."""
    out: set[str] = set()
    for m in course.materials:
        out |= m.mappings
    return frozenset(out)


def oracle_course_digest(course: Course) -> str:
    """The course digest recipe: header fields plus material digests."""
    return canonical_digest({
        "id": course.id,
        "name": course.name,
        "institution": course.institution,
        "instructor": course.instructor,
        "labels": sorted(l.value for l in course.labels),
        "materials": [m.digest for m in course.materials],
    })


def oracle_agreement_counts(
    courses: Sequence[Course],
    *,
    tree: GuidelineTree | None = None,
    weighted: bool = False,
) -> Counter[str]:
    """Tag id → courses covering it (or summed material weight), one tag
    at a time."""
    counts: Counter[str] = Counter()
    for c in courses:
        if weighted:
            for tag, n in c.tag_counts().items():
                if tree is None or tag in tree:
                    counts[tag] += n
        else:
            for tag in oracle_tag_set(c):
                if tree is None or tag in tree:
                    counts[tag] += 1
    return counts
