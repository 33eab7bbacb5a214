"""Non-negative matrix factorization.

Given a non-negative matrix ``A`` (courses x curriculum tags in the paper),
find non-negative ``W`` (courses x k) and ``H`` (k x tags) minimizing a
divergence between ``A`` and ``W @ H``.

Solvers (``solver=``):

* ``"mu"`` — Lee & Seung multiplicative updates (NIPS 2000), for both the
  Frobenius and generalized Kullback-Leibler objectives.  Updates never
  leave the non-negative orthant and monotonically decrease the objective.
* ``"hals"`` — hierarchical alternating least squares (coordinate descent
  over rank-one factors); typically converges in far fewer iterations for
  the Frobenius objective.  This is the algorithm family behind
  scikit-learn's default ``"cd"`` solver.

Initialization: ``"random"`` (what the paper used), ``"nndsvd"`` and
``"nndsvda"`` (Boutsidis & Gallopoulos 2008) for deterministic starts.

Conventions follow scikit-learn where sensible (``tol=1e-4``,
``max_iter=200``, ``components_`` holding ``H``) so the paper's
"default parameters" setting translates directly.

This module holds the estimator and the initializations; the update
loops live in one place, the stacked engine of
:mod:`repro.factorization.kernels`.  ``fit_transform`` resolves its start
and solves it there as a one-run stack — dense or ``scipy.sparse`` ``A``
alike — so a lone fit and every restart of a batched
:func:`repro.runtime.run_nmf_fits` call return the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse

from repro.util.rng import RngLike, as_rng
from repro.util.validation import check_finite, check_matrix, check_nonnegative

_EPS = np.finfo(np.float64).eps


def nndsvd_init(
    a: np.ndarray,
    n_components: int,
    *,
    variant: str = "nndsvd",
    seed: RngLike = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Non-negative double SVD initialization (Boutsidis & Gallopoulos).

    Each SVD factor pair is split into its positive and negative parts and
    the part with the larger energy is kept, yielding a deterministic,
    sparse, non-negative starting point.  ``variant="nndsvda"`` fills the
    zeros with the matrix mean (useful for multiplicative updates, which
    cannot escape exact zeros); ``"nndsvd"`` leaves them at zero.
    """
    if scipy.sparse.issparse(a):
        # NNDSVD needs a dense SVD; this is a one-time init cost, the
        # solver hot loops stay sparse (see repro.factorization.kernels).
        a = a.toarray()
    a = check_nonnegative(check_matrix(a))
    n, m = a.shape
    k = min(n_components, min(n, m))
    u, s, vt = scipy.linalg.svd(a, full_matrices=False)
    w = np.zeros((n, n_components))
    h = np.zeros((n_components, m))
    # Leading factor: singular vectors of a non-negative matrix can be taken
    # non-negative (Perron-Frobenius).
    w[:, 0] = np.sqrt(s[0]) * np.abs(u[:, 0])
    h[0, :] = np.sqrt(s[0]) * np.abs(vt[0, :])
    for j in range(1, k):
        x, y = u[:, j], vt[j, :]
        xp, xn = np.maximum(x, 0), np.maximum(-x, 0)
        yp, yn = np.maximum(y, 0), np.maximum(-y, 0)
        xp_n, yp_n = np.linalg.norm(xp), np.linalg.norm(yp)
        xn_n, yn_n = np.linalg.norm(xn), np.linalg.norm(yn)
        if xp_n * yp_n >= xn_n * yn_n:
            u_j, v_j, sigma = xp / max(xp_n, _EPS), yp / max(yp_n, _EPS), xp_n * yp_n
        else:
            u_j, v_j, sigma = xn / max(xn_n, _EPS), yn / max(yn_n, _EPS), xn_n * yn_n
        lbd = np.sqrt(s[j] * sigma)
        w[:, j] = lbd * u_j
        h[j, :] = lbd * v_j
    if variant == "nndsvda":
        mean = a.mean()
        w[w == 0] = mean
        h[h == 0] = mean
    elif variant == "nndsvdar":
        rng = as_rng(seed)
        mean = a.mean()
        w[w == 0] = mean * rng.random((w == 0).sum()) / 100.0
        h[h == 0] = mean * rng.random((h == 0).sum()) / 100.0
    elif variant != "nndsvd":
        raise ValueError(f"unknown NNDSVD variant {variant!r}")
    return w, h


def _random_init(
    a: np.ndarray, n_components: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """scikit-learn's scaled random init: entries ~ |N(0, sqrt(mean/k))|."""
    scale = np.sqrt(a.mean() / max(n_components, 1))
    w = np.abs(rng.standard_normal((a.shape[0], n_components))) * scale
    h = np.abs(rng.standard_normal((n_components, a.shape[1]))) * scale
    return w, h


def nmf_restart_specs(
    a: np.ndarray,
    n_components: int,
    *,
    seed: RngLike = None,
    solver: str = "hals",
    init: str = "random",
    n_restarts: int = 1,
    **nmf_kwargs,
) -> list[dict]:
    """Pre-drawn fit specs for a multi-restart batch (one dict per run).

    Randomness is resolved *here*, in the caller's generator order: each
    spec carries an explicit ``W0``/``H0`` starting point and is therefore
    fully deterministic, which is what lets
    :func:`repro.runtime.run_nmf_fits` run the batch in one engine call
    or answer it from the result cache with bit-identical output.
    ``init="random"`` draws ``n_restarts`` starting points from the shared
    generator exactly as the sequential restart loop would; deterministic
    inits (``nndsvd`` family) produce a single run.
    """
    if init == "custom":
        raise ValueError("nmf_restart_specs resolves inits itself; "
                         "pass init='random' or an NNDSVD variant")
    if not scipy.sparse.issparse(a):
        a = np.asarray(a, dtype=float)
    rng = as_rng(seed)
    runs = max(n_restarts if init == "random" else 1, 1)
    specs: list[dict] = []
    for _ in range(runs):
        if init == "random":
            w0, h0 = _random_init(a, n_components, rng)
        else:
            w0, h0 = nndsvd_init(a, n_components, variant=init, seed=rng)
        specs.append(
            dict(
                n_components=n_components,
                solver=solver,
                init="custom",
                W0=w0,
                H0=h0,
                **nmf_kwargs,
            )
        )
    return specs


@dataclass
class NMF:
    """Non-negative matrix factorization estimator.

    Parameters
    ----------
    n_components:
        Rank ``k`` of the factorization — interpreted in the paper as the
        number of *course types* to extract.
    solver:
        ``"mu"`` (multiplicative updates) or ``"hals"``.
    loss:
        ``"frobenius"`` or ``"kullback-leibler"`` (MU solver only).
    init:
        ``"random"``, ``"nndsvd"``, ``"nndsvda"``, or ``"custom"`` (supply
        ``W0``/``H0`` to :meth:`fit_transform`).
    max_iter, tol:
        Stopping rule mirrors scikit-learn: check the relative decrease of
        the objective every ``check_every`` iterations against ``tol``.
    l2_reg, l1_reg:
        Optional ridge / lasso penalties applied symmetrically to W and H.
    seed:
        RNG seed for random initialization.

    Attributes (set by fit)
    -----------------------
    components_ : ``H`` (k x tags); ``W`` is returned by ``fit_transform``.
    reconstruction_err_ : final ``||A - WH||_F`` (or KL divergence).
    n_iter_ : iterations actually run.
    converged_ : whether the tolerance was reached before ``max_iter``.
    """

    n_components: int
    solver: str = "mu"
    loss: str = "frobenius"
    init: str = "random"
    max_iter: int = 200
    tol: float = 1e-4
    check_every: int = 10
    l2_reg: float = 0.0
    l1_reg: float = 0.0
    seed: RngLike = None

    components_: np.ndarray | None = field(default=None, repr=False)
    reconstruction_err_: float = field(default=np.nan, repr=False)
    n_iter_: int = field(default=0, repr=False)
    converged_: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        if self.n_components < 1:
            raise ValueError(f"n_components must be >= 1, got {self.n_components}")
        if self.solver not in ("mu", "hals"):
            raise ValueError(f"unknown solver {self.solver!r}")
        if self.loss not in ("frobenius", "kullback-leibler"):
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.solver == "hals" and self.loss != "frobenius":
            raise ValueError("HALS solver supports the frobenius loss only")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.tol < 0:
            raise ValueError("tol must be >= 0")
        if self.check_every < 1:
            raise ValueError(
                f"check_every must be >= 1, got {self.check_every}"
            )
        if self.l2_reg < 0 or self.l1_reg < 0:
            raise ValueError("regularization strengths must be >= 0")

    # -- public API ----------------------------------------------------------

    def fit_transform(
        self,
        a: np.ndarray,
        *,
        W0: np.ndarray | None = None,
        H0: np.ndarray | None = None,
    ) -> np.ndarray:
        """Factor ``a``; returns ``W`` and stores ``H`` in ``components_``.

        ``a`` may be a ``scipy.sparse`` matrix, in which case the solve
        runs through the sparse kernels (Frobenius loss only) without
        ever materializing a dense ``n x m`` array in the hot loop.
        """
        from repro.factorization.kernels import _solve_stacked, validate_input

        a = validate_input(a)
        w, h = self._initialize(a, W0, H0)
        (bundle,) = _solve_stacked(a, self, [w], [h])
        self.components_ = bundle["h"]
        self.reconstruction_err_ = float(bundle["err"])
        self.n_iter_ = int(bundle["n_iter"])
        self.converged_ = bool(bundle["converged"])
        return bundle["w"]

    def fit(self, a: np.ndarray) -> "NMF":
        """Fit and return self (``W`` is discarded; use ``fit_transform``)."""
        self.fit_transform(a)
        return self

    def transform(self, a: np.ndarray, *, max_iter: int | None = None) -> np.ndarray:
        """Project new rows onto the learned ``H`` (W-only MU iterations)."""
        if self.components_ is None:
            raise RuntimeError("NMF must be fitted before transform()")
        a = check_finite(check_nonnegative(check_matrix(a)))
        h = self.components_
        if a.shape[1] != h.shape[1]:
            raise ValueError(
                f"feature mismatch: A has {a.shape[1]} columns, H has {h.shape[1]}"
            )
        rng = as_rng(self.seed)
        w = np.abs(rng.standard_normal((a.shape[0], h.shape[0]))) * np.sqrt(
            a.mean() / h.shape[0] + _EPS
        )
        hht = h @ h.T
        iters = max_iter if max_iter is not None else self.max_iter
        for _ in range(iters):
            numer = a @ h.T
            denom = w @ hht + self.l2_reg * w + self.l1_reg + _EPS
            w *= numer / denom
        return w

    def inverse_transform(self, w: np.ndarray) -> np.ndarray:
        """Reconstruct ``W @ H``."""
        if self.components_ is None:
            raise RuntimeError("NMF must be fitted before inverse_transform()")
        return np.asarray(w, dtype=float) @ self.components_

    # -- internals -----------------------------------------------------------

    def _initialize(
        self, a: np.ndarray, W0: np.ndarray | None, H0: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        if self.init == "custom":
            if W0 is None or H0 is None:
                raise ValueError("init='custom' requires W0 and H0")
            w = check_nonnegative(check_matrix(W0, "W0")).copy()
            h = check_nonnegative(check_matrix(H0, "H0")).copy()
            if w.shape != (a.shape[0], self.n_components):
                raise ValueError(f"W0 must be {(a.shape[0], self.n_components)}, got {w.shape}")
            if h.shape != (self.n_components, a.shape[1]):
                raise ValueError(f"H0 must be {(self.n_components, a.shape[1])}, got {h.shape}")
            return w, h
        if self.init == "random":
            return _random_init(a, self.n_components, as_rng(self.seed))
        if self.init in ("nndsvd", "nndsvda", "nndsvdar"):
            return nndsvd_init(a, self.n_components, variant=self.init, seed=self.seed)
        raise ValueError(f"unknown init {self.init!r}")
