"""Feature synthesis for the dataset stand-ins.

Real datasets attach bag-of-words vectors (Cora/Citeseer), profile
indicators (Facebook), gene signatures (PPI), venue counts (ACM-DBLP)
or dense language-model embeddings (DBP15K).  The synthesisers here
produce features with matching *statistical character* — sparsity,
community correlation, dimensionality — which is what the alignment
algorithms actually exploit.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import GraphError
from repro.utils.random import check_random_state


def community_bag_of_words(
    labels: np.ndarray,
    n_features: int,
    words_per_node: int = 20,
    topic_concentration: float = 0.8,
    seed=None,
) -> np.ndarray:
    """0/1 bag-of-words features correlated with community labels.

    Each community owns a block of "topic words"; every node samples
    ``words_per_node`` words, drawing from its community's block with
    probability ``topic_concentration`` and from the whole vocabulary
    otherwise.  Mirrors how citation-network bag-of-words features
    cluster by research area.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise GraphError("labels must be a 1-D array")
    if n_features < 1:
        raise GraphError("n_features must be positive")
    rng = check_random_state(seed)
    communities = np.unique(labels)
    n_comm = communities.shape[0]
    block = max(1, n_features // max(n_comm, 1))
    feats = np.zeros((labels.shape[0], n_features))
    for i, lab in enumerate(labels):
        comm_idx = int(np.searchsorted(communities, lab))
        lo = (comm_idx * block) % n_features
        hi = min(lo + block, n_features)
        for _ in range(words_per_node):
            if hi > lo and rng.random() < topic_concentration:
                w = int(rng.integers(lo, hi))
            else:
                w = int(rng.integers(0, n_features))
            feats[i, w] = 1.0
    return feats


def degree_correlated_features(
    degrees: np.ndarray, n_features: int, noise: float = 0.3, seed=None
) -> np.ndarray:
    """Dense features whose leading directions correlate with degree.

    Models profile-like features where activity level (degree) leaks
    into the attributes, as in social networks.
    """
    degrees = np.asarray(degrees, dtype=np.float64)
    if n_features < 1:
        raise GraphError("n_features must be positive")
    rng = check_random_state(seed)
    n = degrees.shape[0]
    base = np.log1p(degrees)[:, None]
    directions = rng.standard_normal((1, n_features))
    feats = base @ directions + noise * rng.standard_normal((n, n_features))
    return feats


def random_orthogonal_matrix(dim: int, seed=None) -> np.ndarray:
    """Haar-random orthogonal matrix via QR of a Gaussian matrix."""
    if dim < 1:
        raise GraphError("dim must be positive")
    rng = check_random_state(seed)
    gauss = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(gauss)
    # fix signs so the distribution is Haar rather than QR-skewed
    return q * np.sign(np.diag(r))
