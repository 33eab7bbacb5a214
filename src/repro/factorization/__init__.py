"""Matrix factorization and dimension-reduction stack, implemented from scratch.

The paper computes all factorizations with scikit-learn v1.3.0; this package
re-implements the needed algorithms on bare NumPy/SciPy so the reproduction
is self-contained:

* :class:`NMF` — non-negative matrix factorization (the paper's method):
  Lee–Seung multiplicative updates (Frobenius and KL objectives) and HALS
  coordinate descent, with random / NNDSVD / NNDSVDa initialization.
  Every fit — one estimator call, a restart batch, an out-of-core solve —
  runs the one stacked engine of :mod:`repro.factorization.kernels`.
* :class:`PCA` — principal component analysis (named as an alternative in
  §5.3/§6).
* :func:`classical_mds` / :func:`smacof` — multidimensional scaling, used by
  CS Materials' 2-D search-result maps (§3.1.2).
* :class:`KMeans` — k-means++ (substrate for spectral co-clustering).
* :class:`SpectralCoclustering` — the bi-clustered matrix view (§3.1.1).
* :func:`batched_nmf_fits` — vectorized multi-restart NMF (stacked tensor
  updates, sparse-aware hot loops), bit-identical to one :class:`NMF` fit
  per restart; :func:`outofcore_nmf_fits` streams a memory-mapped ``A``
  in row blocks.
"""

from repro.factorization.nmf import NMF, nndsvd_init
from repro.factorization.kernels import batched_nmf_fits
from repro.factorization.outofcore import (
    outofcore_nmf_fits,
    row_blocks,
    stream_incidence_memmap,
    write_incidence_memmap,
)
from repro.factorization.pca import PCA
from repro.factorization.mds import MDSResult, classical_mds, smacof, stress
from repro.factorization.kmeans import KMeans
from repro.factorization.bicluster import SpectralCoclustering
from repro.factorization.ordering import hierarchical_order
from repro.factorization.consensus import (
    consensus_matrix,
    cophenetic_correlation,
    cophenetic_k_profile,
)

__all__ = [
    "NMF",
    "batched_nmf_fits",
    "nndsvd_init",
    "outofcore_nmf_fits",
    "row_blocks",
    "stream_incidence_memmap",
    "write_incidence_memmap",
    "PCA",
    "MDSResult",
    "classical_mds",
    "smacof",
    "stress",
    "KMeans",
    "SpectralCoclustering",
    "hierarchical_order",
    "consensus_matrix",
    "cophenetic_correlation",
    "cophenetic_k_profile",
]
