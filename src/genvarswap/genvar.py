"""Instantaneous covariance matrices and their determinants.

The portfolio return covariance factorizes as Sigma_1 = D C D with
D = diag(sigma_i), so |Sigma_1| = |C| prod sigma_i^2. The BNS covariance
adds a rank-one jump term, Sigma_2 = Sigma_1 + lambda Var[Z_1*] rho rho^T,
whose determinant follows from the matrix determinant lemma:

    |Sigma_2| = |Sigma_1| (1 + lambda Var[Z_1*] rho^T Sigma_1^-1 rho).

With u_i = rho_i prod_{l != i} sigma_l this is one quadratic form,
|Sigma_2| = |C| (prod_l sigma_l^2 + lambda Var[Z_1*] u^T C^-1 u), which
divides by no sigma_i and so holds where a vol touches zero. Expanded over
the entries of C^-1 it is the polynomial the pricing formulas use. Both
forms are implemented and cross-checked in the tests.

The weights of the lemma's bracket, (1 or 2) delta_ij for the pairs
i <= j, delta = C^-1, are set in one place, ``_jump_weights``. The BNS
closed form multiplies them by rho_i rho_j for all its parameter sets at
once; ``_jump_terms`` lists the pairs with a nonzero coefficient for the
vectorized determinant here and the Monte Carlo integrals.

All functions are pure and safe for concurrent invocation. The ``*_values``
variants evaluate determinants along whole ensembles of variance paths at
once and are the kernels used by the Monte Carlo module: on a recorded
ensemble, and for |Sigma_1| on each stack of grid rows a Heston block has
just made, into the block's draw tile, idle once the chunk's normals are
transposed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CorrelationMatrix
from .errors import DimensionMismatch, ValidationError

__all__ = [
    "InstantaneousVols",
    "build_sigma1",
    "det_sigma1",
    "build_sigma2",
    "det_sigma2",
    "det_sigma1_values",
    "det_sigma2_values",
]


@dataclass(frozen=True, eq=False)
class InstantaneousVols:
    """Length-n vector of instantaneous volatilities, all strictly positive."""

    sigma: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.sigma, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError(f"sigma must be a nonempty vector, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
            raise ValidationError("all instantaneous vols must be finite and > 0")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "sigma", arr)

    @property
    def n(self) -> int:
        return self.sigma.size


def _check_dims(vols: InstantaneousVols, corr: CorrelationMatrix) -> None:
    if vols.n != corr.n:
        raise DimensionMismatch(f"{vols.n} vols vs {corr.n}x{corr.n} correlation")


def _check_rho(rho, n: int) -> np.ndarray:
    arr = np.asarray(rho, dtype=float)
    if arr.shape != (n,):
        raise DimensionMismatch(f"rho must have shape ({n},), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("rho entries must be finite")
    return arr


def _check_jump_scale(lambda_: float, var_z1: float) -> tuple[float, float]:
    lambda_ = float(lambda_)
    var_z1 = float(var_z1)
    if not (0.0 < lambda_ < math.inf):
        raise ValidationError(f"lambda must be finite and > 0, got {lambda_}")
    if not (0.0 <= var_z1 < math.inf):
        raise ValidationError(f"var_z1 must be finite and >= 0, got {var_z1}")
    return lambda_, var_z1


def _jump_weights(corr: CorrelationMatrix) -> np.ndarray:
    """The weights (1 if i == j else 2) delta_ij of the determinant lemma's bracket, i <= j.

    lambda Var[Z_1*] rho^T Sigma_1^-1 rho is lambda Var[Z_1*] times the sum
    of weight_ij rho_i rho_j / (sigma_i sigma_j) over this upper triangle,
    delta = C^-1 (``SingularCorrelation`` where C has no inverse).
    """
    return np.triu(corr.inverse() * (2.0 - np.eye(corr.n)))


def _jump_terms(
    corr: CorrelationMatrix, rho: np.ndarray, jump_scale: float
) -> list[tuple[int, int, float]]:
    """The nonzero terms (i, j, weight) of the determinant lemma's bracket, i <= j.

    A term of ``_jump_weights`` is kept where its coefficient weight rho_i
    rho_j is nonzero, in row-major order over the pairs; there are none
    where ``jump_scale`` = lambda Var[Z_1*] is 0, and C^-1 is read only
    when some rho_i is nonzero.
    """
    if jump_scale == 0.0 or not np.any(rho):
        return []
    weights = _jump_weights(corr)
    rows, cols = np.nonzero(weights * rho[:, None] * rho)
    return [(i, j, weights[i, j]) for i, j in zip(rows.tolist(), cols.tolist())]


def build_sigma1(vols: InstantaneousVols, corr: CorrelationMatrix) -> np.ndarray:
    """Covariance matrix with entries c_lm sigma_l sigma_m (Sigma_1 = DCD)."""
    _check_dims(vols, corr)
    s = vols.sigma
    return np.outer(s, s) * corr.c


def det_sigma1(vols: InstantaneousVols, corr: CorrelationMatrix) -> float:
    """|Sigma_1| = |C| prod sigma_i^2."""
    _check_dims(vols, corr)
    return corr.det_c * float(np.prod(vols.sigma**2))


def build_sigma2(
    vols: InstantaneousVols,
    corr: CorrelationMatrix,
    rho,
    lambda_: float,
    var_z1: float,
) -> np.ndarray:
    """Sigma_2 = Sigma_1 + lambda Var[Z_1*] rho rho^T."""
    rho = _check_rho(rho, vols.n)
    lambda_, var_z1 = _check_jump_scale(lambda_, var_z1)
    return build_sigma1(vols, corr) + lambda_ * var_z1 * np.outer(rho, rho)


def det_sigma2(
    vols: InstantaneousVols,
    corr: CorrelationMatrix,
    rho,
    lambda_: float,
    var_z1: float,
) -> float:
    """|Sigma_2| via the matrix determinant lemma.

    Uses Sigma_1^-1 = D^-1 C^-1 D^-1, which needs sigma > 0 (enforced by
    ``InstantaneousVols``) and an invertible correlation matrix.
    """
    _check_dims(vols, corr)
    rho = _check_rho(rho, vols.n)
    lambda_, var_z1 = _check_jump_scale(lambda_, var_z1)
    delta = corr.inverse()
    s = vols.sigma
    quad_form = float((rho / s) @ delta @ (rho / s))
    return corr.det_c * float(np.prod(s**2)) * (1.0 + lambda_ * var_z1 * quad_form)


def det_sigma1_values(
    variances: np.ndarray, corr: CorrelationMatrix, *, out: np.ndarray | None = None
) -> np.ndarray:
    """|Sigma_1| for an array of variance vectors (last axis = assets).

    ``out``, if given, is a float array of the result's shape that receives
    the values and is returned, so that a caller evaluating many stacks of
    rows can reuse one buffer; the values are the same bits either way.
    """
    variances = np.asarray(variances, dtype=float)
    if variances.shape[-1] != corr.n:
        raise DimensionMismatch(
            f"last axis has {variances.shape[-1]} assets, correlation has {corr.n}"
        )
    values = np.prod(variances, axis=-1, out=out)
    values *= corr.det_c
    return values


def det_sigma2_values(
    variances: np.ndarray,
    corr: CorrelationMatrix,
    rho,
    lambda_: float,
    var_z1: float,
) -> np.ndarray:
    """|Sigma_2| for an array of variance vectors (last axis = assets).

    Evaluates the determinant lemma as one quadratic form,

        |C| [ prod_l v_l + lambda Var[Z_1*] u^T C^-1 u ],
        u_i = rho_i prod_{l != i} sigma_l,

    on per-asset planes. u is built from products of the other vols, never
    by dividing by sigma_i, so the value is continuous down to v_i = 0 and
    floored simulator variances need no special case.
    """
    variances = np.asarray(variances, dtype=float)
    n = corr.n
    if variances.shape[-1] != n:
        raise DimensionMismatch(
            f"last axis has {variances.shape[-1]} assets, correlation has {n}"
        )
    rho = _check_rho(rho, n)
    lambda_, var_z1 = _check_jump_scale(lambda_, var_z1)
    terms = _jump_terms(corr, rho, lambda_ * var_z1)
    if not terms:
        return det_sigma1_values(variances, corr)

    base = np.prod(variances, axis=-1)
    sigma = [np.sqrt(variances[..., l]) for l in range(n)]
    # u_i = ((rho_i s_a) s_b)... over the assets l != i in order
    u = {
        i: math.prod((sigma[l] for l in range(n) if l != i), start=rho[i])
        for i in np.flatnonzero(rho)
    }
    # bracket = ((0 + t_1) + t_2)... over the terms, t = ((weight u_i) u_j)
    bracket = sum(weight * u[i] * u[j] for i, j, weight in terms)
    return corr.det_c * (base + lambda_ * var_z1 * bracket)
