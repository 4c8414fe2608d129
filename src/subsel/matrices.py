"""Ground-set data representations and similarity-matrix construction.

Two containers:

* :class:`FeatureMatrix` wraps an n x D non-negative dense matrix of
  per-example feature values (the input to feature-based selection).
* :class:`SimilarityMatrix` wraps an n x n non-negative pairwise-similarity
  table, either dense or sparse. Absent sparse entries mean similarity zero.

Entry orientation: ``S[i][j]`` is read as "similarity of candidate i to
covered element j". Asymmetric dense matrices are accepted.

Both similarity builders divide rows by their norms and then take one
product ``unit @ unit.T``, so the result is symmetric bit for bit: numpy
computes a C-contiguous array times its own transpose with BLAS syrk, which
computes one triangle and mirrors it, and its loop without BLAS adds the
same products in the same order for (i, j) and (j, i).

Both containers are immutable after construction and safe to share across
concurrent readers.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .exceptions import (
    ConstraintViolationError,
    DegenerateInputError,
    InputError,
    NegativeCosineError,
    TripleValidationError,
    _integer,
)

__all__ = [
    "FeatureMatrix",
    "SimilarityMatrix",
    "squared_correlation_similarity",
    "cosine_similarity",
    "sparse_from_triples",
    "as_similarity",
    "TRIPLE_DTYPE",
]

#: Structured dtype of a triples array accepted by :func:`sparse_from_triples`.
TRIPLE_DTYPE = np.dtype([("row", np.int64), ("col", np.int64), ("value", np.float64)])

# Largest n accepted by sparse_from_triples: its sort key rows * n + cols
# stays below n * n, which must fit in int64.
_MAX_SPARSE_N = 3_037_000_499


def _is_csr(data) -> bool:
    """Whether ``data`` has the attributes of a CSR matrix (scipy's, or a look-alike)."""
    return all(hasattr(data, a) for a in ("indptr", "indices", "data", "shape"))


def _refuse_sparse(values, what: str) -> None:
    """InputError naming the type when ``values`` is a sparse matrix (scipy's or a look-alike)."""
    if _is_csr(values) or hasattr(values, "tocsr"):
        raise InputError(
            f"{what} must be a dense array, got a sparse {type(values).__name__}; "
            "convert it with .toarray()"
        )


def _as_2d_float(values, what: str) -> np.ndarray:
    """A new float64 copy of ``values``, checked to be 2-D with at least one row and column."""
    _refuse_sparse(values, what)
    arr = np.array(values, dtype=np.float64, copy=True)
    if arr.ndim != 2:
        raise InputError(f"{what} must be 2-dimensional, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DegenerateInputError(f"{what} must have at least one row and one column, got shape {arr.shape}")
    return arr


def _kind(value: float) -> str:
    return "negative" if value < 0.0 else "non-finite"


def _check_values(arr: np.ndarray, what: str) -> None:
    """ConstraintViolationError at the first entry (row-major) of the 2-D
    ``arr`` that is not finite and >= 0; its ``position`` is (row, column).

    ``min`` is NaN when any entry is, so ``min >= 0`` rules out NaN and
    negatives; +inf is then the only non-finite value left, which ``max``
    finds. Two reductions cost about what one ``(arr >= 0).all()`` did.
    """
    if arr.min() >= 0.0 and arr.max() < np.inf:
        return
    ok = (arr >= 0.0) & (arr < np.inf)
    r, c = (int(i) for i in np.unravel_index(int(np.argmin(ok)), arr.shape))
    value = float(arr[r, c])
    raise ConstraintViolationError(
        f"{_kind(value)} {what} {value} at row {r}, column {c} "
        f"(every {what} must be finite and non-negative)",
        position=(r, c),
    )


class FeatureMatrix:
    """Dense n x D matrix of non-negative feature values.

    Rows are examples, columns are features. Every entry must be finite and
    >= 0; this is what makes the feature-based objective monotone (an inf
    entry would turn gains into NaN). Every column must also sum to a finite
    value, so no selection's accumulated feature mass can overflow to inf;
    a column that does not is reported at the first row where its running
    sum overflows.

    ``values`` is always copied, so the caller's array is never frozen or
    aliased; the matrix holds that one copy.
    """

    def __init__(self, values):
        self._adopt(_as_2d_float(values, "feature matrix"))

    @classmethod
    def _from_owned(cls, arr: np.ndarray) -> "FeatureMatrix":
        """Check a 2-D float64 array and wrap it without copying.

        For arrays the library made and nobody else holds: ``arr`` is made
        read-only in place and becomes the matrix's storage.
        """
        matrix = cls.__new__(cls)
        matrix._adopt(arr)
        return matrix

    def _adopt(self, arr: np.ndarray) -> None:
        _check_values(arr, "feature value")
        with np.errstate(over="ignore"):
            if arr.sum(axis=0).max() == np.inf:
                running = np.cumsum(arr, axis=0)
                row, col = np.unravel_index(int(np.argmax(running == np.inf)), arr.shape)
                raise ConstraintViolationError(
                    f"feature column {col} sum overflows at row {row} (column sums must be finite)",
                    position=(int(row), int(col)),
                )
        arr.setflags(write=False)
        self._values = arr

    @property
    def values(self) -> np.ndarray:
        """Read-only (n, D) float64 array."""
        return self._values

    @property
    def n_examples(self) -> int:
        return self._values.shape[0]

    @property
    def n_features(self) -> int:
        return self._values.shape[1]

    def __repr__(self):
        return f"FeatureMatrix(n_examples={self.n_examples}, n_features={self.n_features})"


class SimilarityMatrix:
    """Square n x n table of non-negative similarities, dense or sparse.

    ``SimilarityMatrix(values)`` copies a dense square array and checks that
    every entry is finite and >= 0, as ``FeatureMatrix(values)`` does;
    asymmetry is allowed. The sparse form, built by :func:`sparse_from_triples`,
    stores rows in CSR layout with columns sorted ascending; entries not
    stored are zero.
    """

    def __init__(self, values):
        self._adopt(_as_2d_float(values, "similarity matrix"))

    @classmethod
    def _from_owned(cls, arr: np.ndarray) -> "SimilarityMatrix":
        """Check a square 2-D float64 array and wrap it without copying, as
        FeatureMatrix._from_owned does."""
        matrix = cls.__new__(cls)
        matrix._adopt(arr)
        return matrix

    @classmethod
    def _from_csr(cls, indptr: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> "SimilarityMatrix":
        """Wrap read-only CSR arrays that sparse_from_triples built and checked."""
        matrix = cls.__new__(cls)
        matrix._dense = None
        matrix._indptr, matrix._cols, matrix._vals = indptr, cols, vals
        matrix._n = len(indptr) - 1
        return matrix

    def _adopt(self, arr: np.ndarray) -> None:
        if arr.shape[0] != arr.shape[1]:
            raise InputError(f"similarity matrix must be square, got shape {arr.shape}")
        _check_values(arr, "similarity")
        arr.setflags(write=False)
        self._dense = arr
        self._indptr = self._cols = self._vals = None
        self._n = arr.shape[0]

    @property
    def n_examples(self) -> int:
        return self._n

    @property
    def is_sparse(self) -> bool:
        return self._dense is None

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        if self.is_sparse:
            return len(self._vals)
        return int(self._n) * int(self._n)

    def row(self, i: int) -> tuple[np.ndarray | slice, np.ndarray]:
        """Stored entries of row i as (cols, vals), cols ascending.

        Dense storage stores every column: ``cols`` is ``slice(None)`` and
        ``vals`` the whole row, so ``x[cols]`` reads any length-n ``x`` alike.
        """
        if self._dense is not None:
            return slice(None), self._dense[i]
        lo, hi = self._indptr[i], self._indptr[i + 1]
        return self._cols[lo:hi], self._vals[lo:hi]

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense (n, n) array (copy)."""
        if self._dense is not None:
            return self._dense.copy()
        out = np.zeros((self._n, self._n))
        out[np.repeat(np.arange(self._n), np.diff(self._indptr)), self._cols] = self._vals
        return out

    def __repr__(self):
        kind = "sparse" if self.is_sparse else "dense"
        return f"SimilarityMatrix(n_examples={self._n}, {kind}, nnz={self.nnz})"


def _feature_values(data, what: str) -> np.ndarray:
    """Accept a FeatureMatrix or any 2-D array-like of finite values.

    Similarity construction does not require non-negative inputs (only the
    resulting similarities must be non-negative), so raw arrays are allowed.
    """
    if isinstance(data, FeatureMatrix):
        return data.values
    arr = _as_2d_float(data, what)
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        r, c = (int(i) for i in bad[0])
        raise ConstraintViolationError(
            f"non-finite value {float(arr[r, c])} in {what} at row {r}, column {c}", position=(r, c)
        )
    return arr


def _scaled_rows(arr: np.ndarray) -> np.ndarray:
    """Each row of ``arr`` times the power of two that brings its largest
    magnitude into [0.5, 1); an all-zero row stays zero.

    Both similarity builders scale every row this way first. The scaling is
    exact and commutes with every correctly rounded operation they apply
    (sums, products, ``sqrt``, division, and BLAS dot products, whose order
    does not depend on the values) unless an entry becomes subnormal. So a
    row times any power of two has the same similarities, bit for bit, and
    no sum of squares can overflow or underflow.
    """
    _, exponent = np.frexp(np.abs(arr).max(axis=1))
    return np.ldexp(arr, -exponent[:, None])


def squared_correlation_similarity(data) -> SimilarityMatrix:
    """Pairwise squared Pearson correlations of the rows of ``data``.

    Output is bitwise symmetric with entries in [0, 1] and unit diagonal. Rows need
    at least three coordinates (with two, every squared correlation is 1) and
    must not be constant (a zero-variance row makes the correlation
    undefined). A single row gives ``[[1.0]]``. Rows are first scaled by
    powers of two (see :func:`_scaled_rows`), which changes no bit of the
    result, so rows of any finite magnitude work.

    Rows are centred on their means before the one product of unit rows
    (see the module docstring), whose array is squared and clamped in place
    and adopted by the SimilarityMatrix without a copy, so building it peaks
    at about one n x n float64 array.
    """
    arr = _feature_values(data, "input matrix")
    if arr.shape[1] < 3:
        raise InputError(f"squared-correlation similarity needs at least 3 features per row "
                         f"(with 2, every squared correlation is 1), got {arr.shape[1]}")
    # Compared exactly: the variance of a constant row can keep rounding
    # residue (np.var([0.1, 0.1, 0.1]) is 1.9e-34), which would pass as a
    # tiny correlation.
    flat = np.flatnonzero(arr.max(axis=1) == arr.min(axis=1))
    if flat.size:
        raise DegenerateInputError(
            f"row {flat[0]} has zero variance across its features; correlation is undefined",
            row=int(flat[0]),
        )
    unit = _scaled_rows(arr)
    unit -= unit.mean(axis=1, keepdims=True)
    # A row that is not constant keeps a non-zero entry after centring.
    # einsum sums the squares without an n x d temporary, which at 2,000 x 64
    # cost ~1 MB of peak RSS through np.linalg.norm.
    unit /= np.sqrt(np.einsum("ij,ij->i", unit, unit))[:, None]
    sim = unit @ unit.T
    np.square(sim, out=sim)
    np.minimum(sim, 1.0, out=sim)
    # Self-correlation is exactly 1 by definition; avoid last-ulp residue.
    np.fill_diagonal(sim, 1.0)
    return SimilarityMatrix._from_owned(sim)


def cosine_similarity(data, clamp_negative: bool = False) -> SimilarityMatrix:
    """Pairwise cosine similarities of the rows of ``data``.

    Rows must not be all-zero. Negative cosines (possible when the input has
    negative entries) violate the non-negativity invariant: by default they
    raise, because silently clamping changes the objective; pass
    ``clamp_negative=True`` to replace them with 0 instead. Rows are first
    scaled by powers of two (see :func:`_scaled_rows`), which changes no bit
    of the result, so rows of any finite magnitude work.

    As for :func:`squared_correlation_similarity`, the n x n result is one
    product of unit rows, symmetric bit for bit, computed in place in one
    array that the SimilarityMatrix adopts without a copy.
    """
    unit = _scaled_rows(_feature_values(data, "input matrix"))
    norms = np.linalg.norm(unit, axis=1)  # at least 0.5, or 0 for an all-zero row
    if not norms.all():
        row = int(np.argmin(norms))
        raise DegenerateInputError(f"row {row} is all-zero; cosine similarity is undefined", row=row)
    unit /= norms[:, None]
    sim = unit @ unit.T
    np.clip(sim, -1.0, 1.0, out=sim)
    np.fill_diagonal(sim, 1.0)
    if clamp_negative:
        np.maximum(sim, 0.0, out=sim)
    elif sim.min() < 0.0:
        r, c = (int(i) for i in np.unravel_index(int(np.argmax(sim < 0.0)), sim.shape))
        raise NegativeCosineError(
            f"cosine similarity is negative ({float(sim[r, c])}) for rows {r} and {c}; "
            "pass clamp_negative=True to zero negatives",
            (r, c), float(sim[r, c]),
        )
    return SimilarityMatrix._from_owned(sim)


def _check_sparse_size(n: int) -> None:
    """Refuse an ``n`` that sparse_from_triples cannot build a matrix for."""
    if n < 1:
        raise DegenerateInputError(f"similarity matrix needs at least one example, got n={n}")
    if n > _MAX_SPARSE_N:
        raise InputError(
            f"sparse similarity matrix of n={n} examples is too large: n must be at most "
            f"{_MAX_SPARSE_N}, so that n * n pairs fit a 64-bit index"
        )


def sparse_from_triples(n: int, triples: Iterable[Sequence] | np.ndarray) -> SimilarityMatrix:
    """Build a sparse SimilarityMatrix from (row, col, value) triples.

    ``triples`` is an iterable of 3-sequences or a structured array of
    :data:`TRIPLE_DTYPE`. Indices must lie in [0, n), values must be finite
    and >= 0, and no (row, col) pair may repeat. Entries not listed are zero.
    Validation errors identify the first offending triple in input order by
    its position in the input sequence; range and value errors take
    precedence over duplicates. ``n`` is an integer of at most 3,037,000,499,
    so that the n * n pairs fit a 64-bit index.
    """
    n = _integer("n", n)
    _check_sparse_size(n)
    if not (isinstance(triples, np.ndarray) and triples.dtype == TRIPLE_DTYPE):
        triples = _triple_array(triples)
    rows, cols, vals = triples["row"], triples["col"], triples["value"]

    bad_index = (rows < 0) | (rows >= n) | (cols < 0) | (cols >= n)
    bad = bad_index | ~((vals >= 0.0) & (vals < np.inf))
    if bad.any():
        k = int(np.argmax(bad))
        t = triples[k].item()
        if bad_index[k]:
            raise TripleValidationError(f"triple #{k} index out of range for n={n}: {t}", k, t)
        raise TripleValidationError(f"triple #{k} has {_kind(t[2])} value: {t}", k, t)
    del bad_index, bad

    # One int64 key per pair, ordered as (row, col); exact, since
    # 0 <= key < n * n <= 2**63 - 1.
    key = rows * n + cols
    order = np.argsort(key, kind="stable")  # equal pairs keep input order
    key = key[order]
    repeat = key[1:] == key[:-1]
    if repeat.any():
        k = int(order[1:][repeat].min())  # earliest later occurrence in input order
        t = triples[k].item()
        raise TripleValidationError(f"duplicate (row, col) pair in triple #{k}: {t}", k, t)
    del key, repeat

    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    cols_s = cols[order]
    vals_s = vals[order]
    for a in (indptr, cols_s, vals_s):
        a.setflags(write=False)
    return SimilarityMatrix._from_csr(indptr, cols_s, vals_s)


def as_similarity(data) -> SimilarityMatrix:
    """``data`` as a SimilarityMatrix: as is, from a CSR matrix, or from a dense square array.

    CSR input is duck-typed on ``indptr``, ``indices``, ``data`` and
    ``shape`` (``scipy.sparse.csr_matrix`` has them; scipy is not needed)
    and goes through :func:`sparse_from_triples`, so range, value and
    duplicate checks live in one place. Other sparse formats are refused:
    a CSC matrix has the same attributes with rows and columns swapped.
    """
    if isinstance(data, SimilarityMatrix):
        return data
    if not _is_csr(data):
        return SimilarityMatrix(data)
    if getattr(data, "format", "csr") != "csr":
        raise InputError(f"sparse similarity matrix must be CSR, got format {data.format!r}; "
                         "convert it with .tocsr()")
    shape = tuple(data.shape)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise InputError(f"similarity matrix must be square, got shape {shape}")
    n = shape[0]
    indptr, indices, values = (np.asarray(a) for a in (data.indptr, data.indices, data.data))
    if (indptr.shape != (n + 1,) or indptr.dtype.kind not in "iu" or indices.ndim != 1
            or indices.dtype.kind not in "iu" or values.dtype.kind not in "iuf"
            or indptr[0] != 0 or (np.diff(indptr) < 0).any()
            or indptr[-1] != len(indices) or values.shape != indices.shape):
        raise InputError(
            "malformed CSR similarity matrix: indptr must be n + 1 integers rising from 0 "
            "to the number of stored entries, with one integer column index and one real "
            "value per entry"
        )
    triples = np.empty(len(indices), dtype=TRIPLE_DTYPE)
    triples["row"] = np.repeat(np.arange(n), np.diff(indptr))
    triples["col"] = indices
    triples["value"] = values
    return sparse_from_triples(n, triples)


def _triple_array(triples: Iterable[Sequence]) -> np.ndarray:
    """Convert an iterable of (row, col, value) sequences to a TRIPLE_DTYPE array."""
    triples = list(triples)
    out = np.empty(len(triples), dtype=TRIPLE_DTYPE)
    for k, t in enumerate(triples):
        try:
            i, j, v = t
            out[k] = (int(i), int(j), float(v))
        except (TypeError, ValueError, OverflowError) as exc:
            raise TripleValidationError(
                f"malformed triple #{k}: {t!r} ({exc})",
                k,
                tuple(t) if hasattr(t, "__len__") else (t,),
            ) from None
    return out
