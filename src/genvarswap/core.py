"""Domain parameter types, contract types, and validation.

All rates and times are in years; variances are annualized. The generalized
variance of an n-asset portfolio is the determinant of its instantaneous
return covariance matrix and therefore carries units of variance^n. A swap
strike ``k_var`` must be quoted in those same variance^n units.

Every value a caller passes is turned into floats here, once, by one of two
readers. ``_as_float`` reads a scalar and ``_as_floats`` an array. A number
is a real scalar (a Python or numpy int or float, or a 0-d numeric array) or
an array of them. A str, bytes, bool or None is not a number and raises
``InvalidConfig`` ("{name} must be a number, got ..."). An integer beyond
the float range reads as +-inf, which the rule or invariant that follows
rejects.

The rules for a valid scalar live here too, one message each:
``_require_finite`` ("{name} must be finite, got ..."), ``_require_positive``
("... must be finite and > 0 ...") and ``_require_nonnegative`` ("... must be
finite and >= 0 ..."). Each reads its value through ``_as_float`` and raises
``ValidationError``. ``_FIELD_RULES`` gives each model field its rule once.
The parameter objects, calibration's stacked columns and the closed forms'
bare arguments all read them. A parameter object stores the float its rule
returns, so JSON ``2`` and ``2.0`` build the same object.

Every type is immutable after construction and safe to share across threads.
Each type serializes to/from a plain JSON dictionary whose keys match the
field names below (``lambda_`` maps to the JSON key ``"lambda"``); these
dictionaries are the configuration format consumed by the command line
interface.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from .errors import (
    BadDiagonal,
    InvalidConfig,
    MissingSubordinatorSpec,
    NotPositiveSemiDefinite,
    NotSymmetric,
    SingularCorrelation,
    ValidationError,
)

__all__ = [
    "CorrelationMatrix",
    "validate_correlation",
    "HestonAssetParams",
    "GammaOuSpec",
    "BnsAssetParams",
    "BnsPortfolioParams",
    "SwapContract",
    "LeverageSignWarning",
]

# Eigenvalues of a data-estimated correlation matrix can dip below zero by
# rounding; anything above this floor is treated as PSD.
PSD_EIGENVALUE_FLOOR = -1e-10

# Below this determinant the matrix is treated as singular and no inverse
# entries are cached.
SINGULAR_DET_FLOOR = 1e-12


class LeverageSignWarning(UserWarning):
    """A jump loading rho > 0 reverses the usual leverage sign convention."""


def _as_float(name: str, value) -> float:
    """A caller's real number as a float: the one reader of a scalar.

    A Python or numpy int or float, or a 0-d numeric array, is a number; an
    integer beyond the float range reads as +-inf, which the rule that
    follows rejects. A str, bytes, bool, None or anything else raises
    ``InvalidConfig``: ``float()`` alone would take "2.0" and True.
    """
    if type(value) is float:  # the rules' hot path
        return value
    if isinstance(value, np.ndarray) and value.ndim == 0:
        value = value[()]  # its numpy scalar, judged as any other
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise InvalidConfig(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _as_floats(name: str, values) -> np.ndarray:
    """A caller's array of real numbers as a float64 array: the one reader of an array.

    The array numpy makes is judged. A numeric one is converted, and float64
    passes through uncopied, so ``[True, 2.0]`` reads as floats. Any other
    (strings, bools, objects such as ``10**400``, ragged rows) is read entry
    by entry, as the caller gave them, through ``_as_float``.
    """
    try:
        array = np.asarray(values)
    except ValueError:  # ragged rows
        array = np.asarray(values, dtype=object)
    if array.dtype.kind not in "iuf":
        read = np.vectorize(lambda x: _as_float(name, x), otypes=[float])
        array = read(np.asarray(values, dtype=object))
    return array.astype(float, copy=False)


def _exp(x: float) -> float:
    """e^x, or inf past the float range (x > 709.78), where ``math.exp`` raises."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _real_vector(name: str, values) -> np.ndarray:
    """A list of numbers as a float array, each entry read by ``_as_float``."""
    if not isinstance(values, (list, tuple)):
        raise InvalidConfig(f"{name} must be a list of numbers, got {values!r}")
    return np.array([_as_float(name, x) for x in values])


def _real_matrix(name: str, rows) -> np.ndarray:
    """A list of lists of numbers as a float array, each row read by ``_real_vector``."""
    if not isinstance(rows, (list, tuple)):
        raise InvalidConfig(f"{name} must be a list of rows, got {rows!r}")
    return np.array([_real_vector(name, row) for row in rows])


def _whole_number(name: str, value) -> int:
    """``value`` as an int; a non-number, a fraction, NaN or infinity raises InvalidConfig."""
    number = _as_float(name, value)
    if isinstance(value, numbers.Integral):  # exactly, whatever its size
        return int(value)
    try:
        whole = int(number)
    except (OverflowError, ValueError) as exc:  # infinity, NaN
        raise InvalidConfig(f"{name} must be an integer ({exc})") from None
    if whole != number:
        raise InvalidConfig(f"{name} must be an integer, got {value!r}")
    return whole


def _rule(condition: str, holds):
    """A check of a named scalar: finite and ``holds``, else "{name} must be finite{condition}"."""

    def require(name: str, value) -> float:
        value = _as_float(name, value)
        if not (math.isfinite(value) and holds(value)):
            raise ValidationError(f"{name} must be finite{condition}, got {value!r}")
        return value

    return require


_require_finite = _rule("", lambda x: True)
_require_positive = _rule(" and > 0", lambda x: x > 0.0)
_require_nonnegative = _rule(" and >= 0", lambda x: x >= 0.0)

# The rule of each model and contract field, whatever shape its value comes in.
_FIELD_RULES = {
    **dict.fromkeys(
        ("k", "theta2", "sigma0_2", "gamma", "lambda", "b", "maturity"), _require_positive
    ),
    **dict.fromkeys(("kappa1", "kappa2", "kappa2_star", "a"), _require_nonnegative),
    **dict.fromkeys(("rho", "k_var", "r", "notional"), _require_finite),
}


def _check_field(name: str, value) -> float:
    """``value`` as a float, checked by the rule of the field ``name``."""
    return _FIELD_RULES[name](name, value)


class _NumberFields:
    """A frozen dataclass whose number fields are named in ``_FIELD_RULES``.

    Each such field is stored as the float its rule returns, in field
    order, so a caller's ``2`` and ``2.0`` build the same object. The JSON
    form is the fields by name; ``from_dict`` passes each value to the
    constructor as it is, and a field with a default may be left out.
    """

    def __post_init__(self):
        for f in fields(self):
            if f.name in _FIELD_RULES:
                object.__setattr__(self, f.name, _check_field(f.name, getattr(self, f.name)))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict):
        given = [f.name for f in fields(cls) if f.name in d or f.default is MISSING]
        return cls(**{name: d[name] for name in given})


@dataclass(frozen=True, eq=False)
class CorrelationMatrix:
    """Validated correlation matrix with cached determinant and inverse.

    Fields
    ------
    n : asset count
    c : n x n correlation matrix (read-only array)
    det_c : |C|, clamped at zero from below against rounding
    delta : entries of C^-1, or None when |C| is below ``SINGULAR_DET_FLOOR``
    """

    n: int
    c: np.ndarray
    det_c: float
    delta: np.ndarray | None

    def inverse(self) -> np.ndarray:
        """Return the cached C^-1 entries, or raise ``SingularCorrelation``."""
        if self.delta is None:
            raise SingularCorrelation(
                f"|C| = {self.det_c:.3e} is below {SINGULAR_DET_FLOOR:.0e}; "
                "inverse entries are unavailable"
            )
        return self.delta

    def to_dict(self) -> dict:
        return {"n": self.n, "c": self.c.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "CorrelationMatrix":
        return validate_correlation(_real_matrix("c", d["c"]))


def validate_correlation(c) -> CorrelationMatrix:
    """Validate a raw square matrix and cache |C| and the inverse entries.

    Rejects non-square, non-symmetric, non-unit-diagonal, or non-PSD input.
    Symmetry and the unit diagonal are enforced to 1e-10 absolute; the PSD
    check tolerates eigenvalues down to ``PSD_EIGENVALUE_FLOOR``. When
    |C| > ``SINGULAR_DET_FLOOR`` the inverse is computed and verified
    against C * C^-1 = I to 1e-10 element-wise.
    """
    arr = _as_floats("correlation", c)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NotSymmetric(f"correlation matrix must be square, got shape {arr.shape}")
    n = arr.shape[0]
    if n < 2:
        raise NotSymmetric(f"correlation matrix needs n >= 2 assets, got n = {n}")
    if not np.all(np.isfinite(arr)):
        raise NotSymmetric("correlation matrix contains non-finite entries")
    if not np.allclose(arr, arr.T, rtol=0.0, atol=1e-10):
        raise NotSymmetric("correlation matrix is not symmetric within 1e-10")
    if not np.allclose(np.diag(arr), 1.0, rtol=0.0, atol=1e-10):
        raise BadDiagonal("correlation matrix diagonal must be 1 within 1e-10")

    sym = 0.5 * (arr + arr.T)
    eigenvalues = np.linalg.eigvalsh(sym)
    if eigenvalues[0] < PSD_EIGENVALUE_FLOOR:
        raise NotPositiveSemiDefinite(
            f"smallest eigenvalue {eigenvalues[0]:.3e} is below the "
            f"{PSD_EIGENVALUE_FLOOR:.0e} rounding floor"
        )

    det_c = max(float(np.linalg.det(sym)), 0.0)
    delta = None
    if det_c > SINGULAR_DET_FLOOR:
        delta = np.linalg.inv(sym)
        if not np.allclose(sym @ delta, np.eye(n), rtol=0.0, atol=1e-10):
            raise SingularCorrelation(
                "correlation matrix is too ill-conditioned: C * C^-1 deviates "
                "from the identity by more than 1e-10"
            )
        delta = 0.5 * (delta + delta.T)
        delta.setflags(write=False)
    sym.setflags(write=False)
    return CorrelationMatrix(n=n, c=sym, det_c=det_c, delta=delta)


@dataclass(frozen=True)
class HestonAssetParams(_NumberFields):
    """One asset's square-root variance process parameters.

    ``k`` is the mean-reversion speed (1/year), ``theta2`` the long-run
    variance, ``sigma0_2`` the initial variance, and ``gamma`` the vol of
    vol. ``gamma`` is used only by the simulator: the expected variance
    e^{-k t}(sigma0^2 - theta^2) + theta^2 is gamma-free, so no closed-form
    price depends on it.
    """

    k: float
    theta2: float
    sigma0_2: float
    gamma: float


@dataclass(frozen=True)
class GammaOuSpec(_NumberFields):
    """Compound-Poisson subordinator with exponential jumps (Gamma-OU BDLP).

    ``a`` is the jump rate and ``b`` the inverse mean jump size, so the
    cumulants of Z_1 are kappa1 = a/b, kappa2 = 2a/b^2, kappa3 = 6a/b^3.
    This family satisfies the usual positivity conditions and admits exact
    simulation, which is why the simulator uses it.
    """

    a: float
    b: float

    @classmethod
    def from_cumulants(cls, kappa1: float, kappa2: float) -> "GammaOuSpec":
        """Moment-match (kappa1, kappa2): a = 2 kappa1^2/kappa2, b = 2 kappa1/kappa2."""
        kappa1 = _require_positive("kappa1", kappa1)
        kappa2 = _require_positive("kappa2", kappa2)
        return cls(a=2.0 * kappa1 * kappa1 / kappa2, b=2.0 * kappa1 / kappa2)

    # kappa_{m+1} = m kappa_m / b: no power of b is formed, so no cumulant
    # raises where b^m would overflow or underflow.
    @property
    def kappa1(self) -> float:
        return self.a / self.b

    @property
    def kappa2(self) -> float:
        return 2.0 * self.kappa1 / self.b

    @property
    def kappa3(self) -> float:
        return 3.0 * self.kappa2 / self.b


@dataclass(frozen=True)
class BnsAssetParams(_NumberFields):
    """One asset's non-Gaussian OU variance parameters.

    ``kappa1``/``kappa2`` are the first/second cumulants of the driving
    subordinator Z_1 (jump-size mean and variance), ``rho`` the loading of
    the common jump in the return equation. The leverage convention is
    rho <= 0; a positive value is accepted but flagged with a
    ``LeverageSignWarning``. An optional ``subordinator`` spec must agree
    with (kappa1, kappa2) to 1e-8 relative, since those two fix a Gamma-OU
    law; ``_jump_law`` decides the law the simulator and the third
    cumulant use.
    """

    sigma0_2: float
    kappa1: float
    kappa2: float
    rho: float = 0.0
    subordinator: GammaOuSpec | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.subordinator is not None:
            for name in ("kappa1", "kappa2"):
                stated, implied = getattr(self, name), getattr(self.subordinator, name)
                if not math.isclose(implied, stated, rel_tol=1e-8):
                    raise ValidationError(
                        f"subordinator has {name} = {implied!r}, the asset states {stated!r}"
                    )
        if self.rho > 0.0:
            warnings.warn(
                f"rho = {self.rho} is positive; the leverage convention is rho <= 0",
                LeverageSignWarning,
                stacklevel=2,
            )

    def to_dict(self) -> dict:
        return {name: v for name, v in asdict(self).items() if v is not None}

    @classmethod
    def from_dict(cls, d: dict) -> "BnsAssetParams":
        sub = d.get("subordinator")
        sub = None if sub is None else GammaOuSpec.from_dict(sub)
        return super().from_dict({**d, "subordinator": sub})


def _jump_law(asset: BnsAssetParams) -> GammaOuSpec | None:
    """The law of an asset's subordinator Z^i, for the simulator and the third cumulant.

    None for the deterministic drift Z_t = kappa1 t when kappa2 = 0;
    otherwise the Gamma-OU law moment-matched to (kappa1, kappa2)
    (Barndorff-Nielsen & Shephard 2001), which needs kappa1 > 0. A stated
    spec is that law already, as ``BnsAssetParams`` checks.
    """
    if asset.kappa2 == 0.0:
        return None
    if asset.kappa1 > 0.0:
        return GammaOuSpec.from_cumulants(asset.kappa1, asset.kappa2)
    raise MissingSubordinatorSpec(
        "kappa1 = 0 with kappa2 > 0 has no jump law: a Gamma-OU law with "
        "kappa1 = a/b = 0 has a = 0 and so kappa2 = 0"
    )


@dataclass(frozen=True)
class BnsPortfolioParams:
    """BNS portfolio: per-asset variance processes plus the common jump.

    A single OU decay rate ``lambda_`` is shared by every asset's variance
    process. ``kappa2_star`` is Var[Z_1*] of the common return-jump
    subordinator Z*, which enters the return equations only and never the
    variance processes.
    """

    assets: tuple[BnsAssetParams, ...]
    lambda_: float
    kappa2_star: float

    def __post_init__(self):
        object.__setattr__(self, "assets", tuple(self.assets))
        if not self.assets:
            raise ValidationError("assets must be nonempty")
        object.__setattr__(self, "lambda_", _check_field("lambda", self.lambda_))
        object.__setattr__(self, "kappa2_star", _check_field("kappa2_star", self.kappa2_star))

    @property
    def n(self) -> int:
        return len(self.assets)

    @property
    def rho(self) -> np.ndarray:
        return np.array([a.rho for a in self.assets])

    def to_dict(self) -> dict:
        return {
            "assets": [a.to_dict() for a in self.assets],
            "lambda": self.lambda_,
            "kappa2_star": self.kappa2_star,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BnsPortfolioParams":
        return cls(
            assets=tuple(BnsAssetParams.from_dict(a) for a in d["assets"]),
            lambda_=d["lambda"],
            kappa2_star=d["kappa2_star"],
        )


@dataclass(frozen=True)
class SwapContract(_NumberFields):
    """Variance swap terms.

    ``k_var`` is the strike in the same units as the realized generalized
    variance, i.e. variance^n for an n-asset portfolio. ``r`` is the
    continuously compounded rate (1/year), ``maturity`` is in years and
    ``notional`` in currency units.
    """

    k_var: float
    r: float
    maturity: float
    notional: float
