"""Shared test oracles: hand-rolled determinants, random SPD instances and
times that count the ufunc work done on them.

The determinant oracle deliberately avoids ``np.linalg`` so the library's
determinant identities are checked against an independent evaluation route.

Property tests run under a derandomized hypothesis profile: the same
examples on every run, no example database and no deadline, so a run's
outcome and time do not depend on the machine or on earlier runs.
"""

import numpy as np
from hypothesis import settings

from genvarswap import validate_correlation

settings.register_profile("derandomized", derandomize=True, database=None, deadline=None, max_examples=50)
settings.load_profile("derandomized")


def laplace_det(m) -> float:
    """Determinant by recursive cofactor (Laplace) expansion along row 0."""
    m = [[float(x) for x in row] for row in np.asarray(m)]
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0.0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1.0) ** j * m[0][j] * laplace_det(minor)
    return total


def random_correlation(rng, n=3):
    """Random well-conditioned correlation matrix via a normalized Gram matrix."""
    factors = rng.standard_normal((n, n + 3))
    gram = factors @ factors.T + 0.5 * np.eye(n)
    scale = 1.0 / np.sqrt(np.diag(gram))
    return validate_correlation(gram * np.outer(scale, scale))


class CountedTimes(np.ndarray):
    """Times whose ufunc results stay counted: ``counts[name]`` adds up the size of each."""

    def __array_finalize__(self, obj):
        self.counts = getattr(obj, "counts", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        out = getattr(ufunc, method)(*map(np.asarray, inputs), **kwargs)
        if method != "__call__":
            return out
        self.counts[ufunc.__name__] += out.size
        out = out.view(CountedTimes)
        out.counts = self.counts
        return out
