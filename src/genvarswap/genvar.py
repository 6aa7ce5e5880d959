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

All functions are pure and safe for concurrent invocation. The ``*_values``
variants evaluate determinants along whole ensembles of variance paths at
once and are the kernels used by the Monte Carlo module, which calls them
once per row tile of a block. ``det_sigma2_values`` works in place in
per-thread scratch planes (square roots, u_i, the pair term) that are
reused while a tile's shape fits, so only the returned array is new; its
operations and their order are those of the one-temporary-per-operation
form, so the values are the same to the bit.
"""

from __future__ import annotations

import math
import threading
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


# A thread keeps its scratch between calls up to this size; larger calls
# (whole ensembles rather than tiles) get buffers that are freed on return.
_SCRATCH_KEEP_BYTES = 1 << 23
_scratch = threading.local()


def _scratch_planes(k: int, shape: tuple) -> list[np.ndarray]:
    """k float planes of ``shape`` from the calling thread's scratch buffer.

    The buffer is reused while it fits, so the determinant of each row tile
    of a Monte Carlo block allocates nothing but its result. Planes of one
    call never overlap; a later call overwrites them.
    """
    size = math.prod(shape)
    buffer = getattr(_scratch, "buffer", np.empty((0, 0)))
    if buffer.shape[0] < k or buffer.shape[1] < size:
        buffer = np.empty((max(k, buffer.shape[0]), max(size, buffer.shape[1])))
        if buffer.nbytes <= _SCRATCH_KEEP_BYTES:
            _scratch.buffer = buffer
    return [row[:size].reshape(shape) for row in buffer[:k]]


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


def det_sigma1_values(variances: np.ndarray, corr: CorrelationMatrix) -> np.ndarray:
    """|Sigma_1| for an array of variance vectors (last axis = assets)."""
    variances = np.asarray(variances, dtype=float)
    if variances.shape[-1] != corr.n:
        raise DimensionMismatch(
            f"last axis has {variances.shape[-1]} assets, correlation has {corr.n}"
        )
    return corr.det_c * np.prod(variances, axis=-1)


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
    delta = corr.inverse()

    shape = variances.shape[:-1]
    jumping = np.flatnonzero(rho)
    if var_z1 == 0.0 or not jumping.size:
        (base,) = _scratch_planes(1, shape)
        return corr.det_c * np.prod(variances, axis=-1, out=base)

    m = jumping.size
    base, bracket, pair, *planes = _scratch_planes(3 + n + m, shape)
    sigma, u = planes[:n], planes[n:]
    np.prod(variances, axis=-1, out=base)
    for l in range(n):
        np.sqrt(variances[..., l], out=sigma[l])
    for ui, i in zip(u, jumping):
        # u_i = ((rho_i s_a) s_b)... over the assets l != i in order
        first, *rest = (sigma[l] for l in range(n) if l != i)
        np.multiply(rho[i], first, out=ui)
        for s in rest:
            ui *= s
    # bracket = ((0 + t_1) + t_2)... over the pairs i <= j, t = ((c delta_ij) u_i) u_j
    bracket.fill(0.0)
    for a, i in enumerate(jumping):
        for b in range(a, m):
            np.multiply((1.0 if a == b else 2.0) * delta[i, jumping[b]], u[a], out=pair)
            pair *= u[b]
            bracket += pair
    bracket *= lambda_ * var_z1
    bracket += base
    return corr.det_c * bracket
