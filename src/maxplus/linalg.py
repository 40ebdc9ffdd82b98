"""Vectors and matrices over the max-plus semiring, with residuated operators."""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from itertools import chain

from .semiring import (
    ZERO, MaxPlusScalar, _check_tolerance, _floats_to_json, residual, scalars_equal
)


class DimensionMismatch(ValueError):
    """Operands live in different ambient dimensions."""


class Record:
    """Immutable value over its ``__slots__``: compared, hashed and printed field-wise."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._fields()))
        return f"{type(self).__name__}({fields})"


class TropVector:
    """Immutable max-plus vector: it holds its float coordinates (-inf for the zero),
    its ``sort_key()``, and builds the MaxPlusScalar of a coordinate when it is read."""

    __slots__ = ("_key",)

    def __init__(self, coords: Iterable[MaxPlusScalar]):
        cs = tuple(coords)
        if not cs:
            raise ValueError("vector dimension must be at least 1")
        for c in cs:
            if not isinstance(c, MaxPlusScalar):
                raise TypeError(f"coordinates must be MaxPlusScalar, got {c!r}")
        self._key = tuple([c._value for c in cs])

    @classmethod
    def of(cls, *values) -> "TropVector":
        """Build from plain numbers; -inf (or float('-inf')) gives the zero."""
        return cls(MaxPlusScalar(v) for v in values)

    @classmethod
    def _of_floats(cls, coords: tuple) -> "TropVector":
        """The vector of a checked ``sort_key()`` tuple, which it keeps."""
        v = _new(cls)
        v._key = coords
        return v

    @classmethod
    def zero(cls, dim: int) -> "TropVector":
        if dim < 1:
            raise ValueError("vector dimension must be at least 1")
        return cls._of_floats((-math.inf,) * dim)

    @property
    def dim(self) -> int:
        return len(self._key)

    def __len__(self) -> int:
        return len(self._key)

    def __iter__(self):
        return map(_scalar, self._key)

    def __getitem__(self, i: int) -> MaxPlusScalar:
        if isinstance(i, slice):
            return tuple(map(_scalar, self._key[i]))
        return _scalar(self._key[i])

    def join(self, other: "TropVector") -> "TropVector":
        """Pointwise max (vector semiring addition)."""
        if other.dim != self.dim:
            raise DimensionMismatch(f"dim {self.dim} vs {other.dim}")
        return TropVector._of_floats(tuple(map(max, self._key, other._key)))

    def scale(self, lam: MaxPlusScalar) -> "TropVector":
        """lam + each coordinate; a sum that overflows to -inf is the zero."""
        key = tuple([lam._value + c for c in self._key])
        if math.inf in key:
            raise ValueError("max-plus scalar must be finite or -inf, got inf")
        return TropVector._of_floats(key)

    @property
    def is_zero_vector(self) -> bool:
        return max(self._key) == -math.inf

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TropVector):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def sort_key(self) -> tuple:
        """Lexicographic key with -inf below every finite value."""
        return self._key

    def __repr__(self) -> str:
        return f"TropVector({', '.join(f'{c:g}' for c in self._key)})"

    def to_json(self) -> list:
        """The coordinates by the one rule of ``_floats_to_json``."""
        return _floats_to_json(self._key)

    @classmethod
    def from_json(cls, obj) -> "TropVector":
        if not isinstance(obj, list) or not obj:
            raise ValueError(f"expected a non-empty array of scalars, got {obj!r}")
        return cls(MaxPlusScalar.from_json(v) for v in obj)


def vectors_equal(u: TropVector, v: TropVector, tolerance: float = 0.0) -> bool:
    """Coordinate-wise scalars_equal; False when the dimensions differ."""
    if tolerance == 0.0:
        return u == v
    _check_tolerance(tolerance)
    return u.dim == v.dim and all(scalars_equal(a, b, tolerance) for a, b in zip(u, v))


class TropMatrix:
    """Column-major matrix: columns are the generators of a cone or set.

    An empty matrix (no columns) is allowed but then needs an explicit
    ambient dimension.
    """

    __slots__ = ("_columns", "_dim")

    def __init__(self, columns: Iterable[TropVector], dim: int | None = None):
        if dim is not None and (isinstance(dim, bool) or not isinstance(dim, int) or dim < 1):
            raise ValueError(f"dim must be an integer >= 1, got {dim!r}")
        cols = tuple(columns)
        if cols:
            n = cols[0].dim
            for c in cols:
                if c.dim != n:
                    raise DimensionMismatch("columns have mixed dimensions")
            if dim is not None and dim != n:
                raise DimensionMismatch(f"declared dim {dim} but columns have dim {n}")
            self._dim = n
        elif dim is None:
            raise ValueError("empty matrix needs an explicit dimension")
        else:
            self._dim = dim
        self._columns = cols

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def ncols(self) -> int:
        return len(self._columns)

    @property
    def columns(self) -> tuple:
        return self._columns

    def __iter__(self):
        return iter(self._columns)

    def __getitem__(self, k: int) -> TropVector:
        return self._columns[k]

    def __repr__(self) -> str:
        return f"TropMatrix({list(self._columns)!r})"

    def to_json(self) -> list:
        return [c.to_json() for c in self._columns]

    @classmethod
    def from_json(cls, obj, dim: int | None = None) -> "TropMatrix":
        if not isinstance(obj, list):
            raise ValueError(f"expected an array of vectors, got {obj!r}")
        return cls((TropVector.from_json(v) for v in obj), dim=dim)


_new = object.__new__


def _scalar(value: float) -> MaxPlusScalar:
    """The scalar of a checked float, built without the checks of ``__init__``."""
    s = _new(MaxPlusScalar)
    s._value = value
    return s


def _read_rows(obj, dim: int | None = None) -> tuple[list[tuple], int]:
    """(the ``sort_key()`` of each column, the dimension) of ``TropMatrix.from_json(obj,
    dim)``, read in one pass that checks each distinct scalar once by ``from_json``; a
    document that pass cannot read goes to ``TropMatrix.from_json``, which raises."""
    if (type(obj) is list and {list} == set(map(type, obj)) and len(set(map(len, obj))) == 1
            and obj[0] and (dim is None or type(dim) is int and dim == len(obj[0]))):
        flat = list(chain.from_iterable(obj))
        # types first: in a set of values a bool would hide behind an equal int
        if {int, float, str}.issuperset(map(type, flat)):
            try:
                for v in set(flat):
                    MaxPlusScalar.from_json(v)
            except ValueError:
                pass
            else:
                # float() reads each accepted scalar as from_json does, "-inf" included
                return list(zip(*[map(float, flat)] * len(obj[0]))), len(obj[0])
    M = TropMatrix.from_json(obj, dim)
    return [c.sort_key() for c in M.columns], M.dim


def combine(M: TropMatrix, lambdas: Sequence[MaxPlusScalar]) -> TropVector:
    """Max-plus linear combination of the columns: max_k (lambda_k + M[:,k])."""
    if len(lambdas) != M.ncols:
        raise DimensionMismatch(f"{M.ncols} columns but {len(lambdas)} coefficients")
    out = TropVector.zero(M.dim)
    for lam, col in zip(lambdas, M.columns):
        out = out.join(col.scale(lam))
    return out


def left_residual(M: TropMatrix, x: TropVector) -> list[float]:
    """Greatest lambda_k with lambda_k + M[:,k] <= x, per column, as floats.

    +inf at zero columns (and where x_i - M[i,k] overflows); -inf where
    column k is finite at a coordinate where x is the zero.
    """
    if x.dim != M.dim:
        raise DimensionMismatch(f"dim {M.dim} vs {x.dim}")
    out = []
    for col in M.columns:
        out.append(min(residual(x[i], col[i]) for i in range(M.dim)))
    return out


def project(M: TropMatrix, x: TropVector) -> TropVector:
    """Canonical projection: greatest element of cone(columns of M) below x."""
    # +inf (a zero column, or a float overflow) gets no weight
    lams = [ZERO if r == math.inf else MaxPlusScalar(r) for r in left_residual(M, x)]
    return combine(M, lams)
