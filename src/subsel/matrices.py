"""Ground-set data representations and similarity-matrix construction.

Two containers:

* :class:`FeatureMatrix` wraps an n x D non-negative dense matrix of
  per-example feature values (the input to feature-based selection).
* :class:`SimilarityMatrix` wraps an n x n non-negative pairwise-similarity
  table, either dense or sparse. Absent sparse entries mean similarity zero.

Entry orientation: ``S[i][j]`` is read as "similarity of candidate i to
covered element j". Asymmetric dense matrices are accepted.

Each input has one intake: both dense containers share one copy-or-adopt
body and one overflow rule, running sums in index order that stay finite
(:class:`_Owned`), and the similarity builders' input check is the scaling
pass they start with (:func:`_scaled_rows`).

Both similarity builders divide rows by their norms and fill the product
``unit @ unit.T`` tile by tile (see :func:`_unit_gram`): each tile on or
above the diagonal is one BLAS product, finished elementwise, checked by
one reduction and copied into its mirror while it is still in cache. So the
result is symmetric bit for bit by construction, and it is written once and
not read again. One whole-matrix product cost more: numpy mirrors its
triangle with a strided loop that took about twice the BLAS time at
n = 2,000, and each finishing step was another pass over the n x n array.

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


# Bytes of rows _check_values reduces at a time: still in cache for the second reduction.
_CHECK_CHUNK_BYTES = 256 * 1024


def _check_values(arr: np.ndarray, what: str) -> float:
    """ConstraintViolationError at the first entry (row-major) of the 2-D
    ``arr`` that is not finite and >= 0; its ``position`` is (row, column).
    Returns the largest entry.

    ``min`` is NaN when any entry is, so ``min >= 0`` rules out NaN and
    negatives; +inf is then the only non-finite value left, which ``max``
    finds. Both reduce one chunk of rows at a time, in order, so the array
    is read from memory once and the first bad chunk holds the first bad entry.
    """
    step = max(1, _CHECK_CHUNK_BYTES // (arr.shape[1] * arr.itemsize))
    peak = 0.0
    for start in range(0, arr.shape[0], step):
        chunk = arr[start:start + step]
        top = chunk.max()
        if chunk.min() >= 0.0 and top < np.inf:
            peak = max(peak, float(top))
            continue
        ok = (chunk >= 0.0) & (chunk < np.inf)
        r, c = (int(i) for i in np.unravel_index(int(np.argmin(ok)), chunk.shape))
        value = float(chunk[r, c])
        raise ConstraintViolationError(
            f"{_kind(value)} {what} {value} at row {start + r}, column {c} "
            f"(every {what} must be finite and non-negative)",
            position=(start + r, c),
        )
    return peak


# Half the largest float64. A sum, in any order, of n entries in
# [0, _HALF_MAX / n] rounds to at most _HALF_MAX * (1 + n * eps), which is
# finite: a matrix whose largest entry is that small skips the overflow scan.
_HALF_MAX = float(np.finfo(np.float64).max) / 2


def _first_overflow(arr: np.ndarray, axis: int) -> tuple[int, int] | None:
    """The row-major first (row, column) of the 2-D ``arr`` at which a running
    sum along ``axis`` (0: down each column, 1: along each row) is inf, or None.
    Each chunk of rows is summed under a row of the last sums before it: down
    the columns that row is the first term, so the sums equal one whole-array
    ``np.cumsum`` bit for bit; along the rows it sums alone and is dropped.
    """
    step = max(1, _CHECK_CHUNK_BYTES // (arr.shape[1] * arr.itemsize))
    sums = np.full((1, arr.shape[1]), -0.0)  # -0.0 + x is x for every x
    with np.errstate(over="ignore"):
        for start in range(0, arr.shape[0], step):
            running = np.cumsum(np.vstack((sums, arr[start:start + step])), axis=axis)[1:]
            over = running == np.inf
            if over.any():
                r, c = (int(i) for i in np.unravel_index(int(np.argmax(over)), over.shape))
                return start + r, c
            sums = running[-1:]
    return None


class _Owned:
    """The dense containers' one intake. ``Cls(values)`` copies ``values``;
    ``Cls._from_owned(arr, **adopt)`` adopts a 2-D float64 array the library
    made and nobody else holds. ``_adopt`` checks that every entry is finite
    and >= 0 and that every running sum along ``_axis`` stays finite (summed
    only when the largest entry times the length along ``_axis`` passes half
    the largest float64), then freezes the array and hands it to ``_keep``.
    ``checked=True`` skips both checks, for the builders' checked tiles.
    Subclasses name the matrix, its entries and the overflow, formatted
    with (row, column), in ``_what``, ``_entry`` and ``_overflow``.
    """

    def __init__(self, values):
        self._adopt(_as_2d_float(values, self._what))

    @classmethod
    def _from_owned(cls, arr: np.ndarray, **adopt):
        matrix = cls.__new__(cls)
        matrix._adopt(arr, **adopt)
        return matrix

    def _adopt(self, arr: np.ndarray, checked: bool = False) -> None:
        if not checked and _check_values(arr, self._entry) > _HALF_MAX / arr.shape[self._axis]:
            at = _first_overflow(arr, self._axis)
            if at is not None:
                raise ConstraintViolationError(self._overflow.format(*at), position=at)
        arr.setflags(write=False)
        self._keep(arr)


class FeatureMatrix(_Owned):
    """Dense n x D matrix of non-negative feature values.

    Rows are examples, columns are features. Every entry must be finite and
    >= 0; this is what makes the feature-based objective monotone (an inf
    entry would turn gains into NaN). Every column's running sum, row by
    row, must also stay finite, so no selection's feature mass can overflow;
    a refusal names the row where the first such sum overflows.

    ``values`` is always copied, so the caller's array is never frozen or
    aliased; the matrix holds that one copy.
    """

    _what, _entry, _axis = "feature matrix", "feature value", 0
    _overflow = "feature column {1} sum overflows at row {0} (column sums must be finite)"

    def _keep(self, arr: np.ndarray) -> None:
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


class SimilarityMatrix(_Owned):
    """Square n x n table of non-negative similarities, dense or sparse.

    ``SimilarityMatrix(values)`` copies a dense square array and checks it
    as ``FeatureMatrix(values)`` does, with running sums along each row (its
    candidate's first gain) instead of down each column; asymmetry is
    allowed. The sparse form, built by :func:`sparse_from_triples`, stores
    rows in CSR layout with columns sorted ascending; entries not stored are
    zero.
    """

    _what, _entry, _axis = "similarity matrix", "similarity", 1
    _overflow = "similarity row {0} sum overflows at column {1} (row sums must be finite)"

    @classmethod
    def _from_csr(cls, indptr: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> "SimilarityMatrix":
        """Wrap read-only CSR arrays that sparse_from_triples built and checked."""
        matrix = cls.__new__(cls)
        matrix._dense = None
        matrix._indptr, matrix._cols, matrix._vals = indptr, cols, vals
        matrix._n = len(indptr) - 1
        return matrix

    def _adopt(self, arr: np.ndarray, checked: bool = False) -> None:
        if arr.shape[0] != arr.shape[1]:
            raise InputError(f"similarity matrix must be square, got shape {arr.shape}")
        super()._adopt(arr, checked)

    def _keep(self, arr: np.ndarray) -> None:
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


def _scaled_rows(data) -> np.ndarray:
    """The rows of ``data`` (a FeatureMatrix or a 2-D array-like, negative
    values allowed), each times the power of two that brings its largest
    magnitude into [0.5, 1); an all-zero row stays zero.

    This is both builders' input check: a row's largest magnitude is NaN or
    inf exactly when the row holds one, so the first such row, and the first
    such column in it, give the first non-finite entry in row-major order.

    The scaling is exact and commutes with every correctly rounded operation
    the builders apply (sums, products, ``sqrt``, division, and BLAS dot
    products, whose order does not depend on the values) unless an entry
    becomes subnormal. So a row times any power of two has the same
    similarities, bit for bit, and no sum of squares can overflow or underflow.
    """
    arr = data.values if isinstance(data, FeatureMatrix) else _as_2d_float(data, "input matrix")
    peak = np.abs(arr).max(axis=1)
    bad = ~np.isfinite(peak)
    if bad.any():
        r = int(np.argmax(bad))
        c = int(np.argmin(np.isfinite(arr[r])))
        raise ConstraintViolationError(
            f"non-finite value {float(arr[r, c])} in input matrix at row {r}, column {c}", position=(r, c)
        )
    _, exponent = np.frexp(peak)
    # A copy made here is scaled in place; a FeatureMatrix's read-only values are not.
    return np.ldexp(arr, -exponent[:, None], out=arr if arr.flags.writeable else None)


# Side of _unit_gram's tiles: 512 KiB of float64, which stays in a 2 MiB L2
# cache. Of sides 96 to 384 it was fastest, or within noise, for n = 1,000 to 8,000.
_TILE = 256


def _unit_gram(unit: np.ndarray, finish) -> tuple[np.ndarray, bool]:
    """``unit @ unit.T`` with a unit diagonal and the elementwise ``finish``
    applied in place, built one upper-triangle tile at a time (one
    ``np.matmul`` each) and mirrored tile by tile. Up to ``_TILE`` rows it is
    the single product ``np.matmul(unit, unit.T)``.

    ``finish(tile)`` returns whether its tile is now finite and >= 0, found
    with one reduction while the tile is in cache. Returns the matrix and
    whether every tile was, so a clean result needs no second scan.
    """
    n = len(unit)
    out = np.empty((n, n))
    valid = True
    for i in range(0, n, _TILE):
        rows = unit[i:i + _TILE]
        for j in range(i, n, _TILE):
            tile = out[i:i + _TILE, j:j + _TILE]
            np.matmul(rows, unit[j:j + _TILE].T, out=tile)
            if i == j:
                # Self-similarity is exactly 1 by definition; avoid last-ulp residue.
                # Set before finish, which maps 1 to 1: residue above 1 needs no clamp.
                np.fill_diagonal(tile, 1.0)
            valid &= finish(tile)
            if i != j:
                out[j:j + _TILE, i:i + _TILE] = tile.T
    return out, valid


def _square_at_most_one(tile: np.ndarray) -> bool:
    """Square ``tile`` and clamp it to 1; returns whether it holds no NaN.
    Squares are never negative, and one ``max`` (NaN if any entry is) both
    checks the tile and tells whether the clamp pass is needed at all."""
    np.square(tile, out=tile)
    peak = tile.max()
    if peak > 1.0:
        np.minimum(tile, 1.0, out=tile)
    return not np.isnan(peak)


def squared_correlation_similarity(data) -> SimilarityMatrix:
    """Pairwise squared Pearson correlations of the rows of ``data``.

    Output is bitwise symmetric with entries in [0, 1] and unit diagonal. Rows need
    at least three coordinates (with two, every squared correlation is 1) and
    must not be constant (a zero-variance row makes the correlation
    undefined). A single row gives ``[[1.0]]``. Rows are first scaled by
    powers of two in :func:`_scaled_rows`, which changes no bit of the
    result, so rows of any finite magnitude work. That pass is also the
    input check: a NaN or inf entry is refused before any other fault.

    Rows are centred and divided by their norms; the product of these unit
    rows is built tile by tile and squared, checked and clamped to 1 while
    in cache (see the module docstring). The SimilarityMatrix adopts that
    one n x n array without a copy or a second scan.
    """
    unit = _scaled_rows(data)
    if unit.shape[1] < 3:
        raise InputError(f"squared-correlation similarity needs at least 3 features per row "
                         f"(with 2, every squared correlation is 1), got {unit.shape[1]}")
    # Compared exactly: the variance of a constant row can keep rounding
    # residue (np.var([0.1, 0.1, 0.1]) is 1.9e-34), which would pass as a
    # tiny correlation. Scaling keeps exactly the constant rows constant.
    flat = np.flatnonzero(unit.max(axis=1) == unit.min(axis=1))
    if flat.size:
        raise DegenerateInputError(
            f"row {flat[0]} has zero variance across its features; correlation is undefined",
            row=int(flat[0]),
        )
    unit -= unit.mean(axis=1, keepdims=True)
    # A row that is not constant keeps a non-zero entry after centring.
    # einsum sums the squares without an n x d temporary, which at 2,000 x 64
    # cost ~1 MB of peak RSS through np.linalg.norm.
    unit /= np.sqrt(np.einsum("ij,ij->i", unit, unit))[:, None]
    sim, valid = _unit_gram(unit, _square_at_most_one)
    return SimilarityMatrix._from_owned(sim, checked=valid)


def cosine_similarity(data, clamp_negative: bool = False) -> SimilarityMatrix:
    """Pairwise cosine similarities of the rows of ``data``.

    Rows need at least two coordinates (with one, every cosine is 1 or -1)
    and must not be all-zero. Negative cosines (possible when the input has
    negative entries) violate the non-negativity invariant: by default they
    raise, because silently clamping changes the objective; pass
    ``clamp_negative=True`` to replace them with 0 instead. Rows are first
    scaled by powers of two in :func:`_scaled_rows`, which changes no bit
    of the result, so rows of any finite magnitude work. That pass is also
    the input check: a NaN or inf entry is refused before any other fault.

    As for :func:`squared_correlation_similarity`, the product of unit rows
    is built tile by tile, clipped (and clamped) and checked while in cache,
    in one array that the SimilarityMatrix adopts without a copy or a second
    scan.
    """
    unit = _scaled_rows(data)
    if unit.shape[1] < 2:
        raise InputError(f"cosine similarity needs at least 2 features per row "
                         f"(with 1, every cosine is 1 or -1), got {unit.shape[1]}")
    norms = np.linalg.norm(unit, axis=1)  # at least 0.5, or 0 for an all-zero row
    if not norms.all():
        row = int(np.argmin(norms))
        raise DegenerateInputError(f"row {row} is all-zero; cosine similarity is undefined", row=row)
    unit /= norms[:, None]

    def clip(tile: np.ndarray) -> bool:
        np.clip(tile, -1.0, 1.0, out=tile)
        if clamp_negative:
            np.maximum(tile, 0.0, out=tile)
        return tile.min() >= 0.0  # False for a negative or NaN entry

    sim, valid = _unit_gram(unit, clip)
    try:
        return SimilarityMatrix._from_owned(sim, checked=valid)
    except ConstraintViolationError as exc:  # clipped entries are finite: a negative one
        (r, c), value = exc.position, float(sim[exc.position])
        raise NegativeCosineError(
            f"cosine similarity is negative ({value}) for rows {r} and {c}; "
            "pass clamp_negative=True to zero negatives",
            (r, c), value,
        ) from None


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
    and >= 0, no (row, col) pair may repeat, and every row must sum to a
    finite value. Entries not listed are zero. Validation errors identify
    the first offending triple in input order by its position in the input
    sequence; range and value errors take precedence over duplicates, and
    duplicates over a row sum that overflows, which is reported at the
    triple where the row's running sum, in column order, overflows. ``n``
    is an integer of at most 3,037,000,499, so that the n * n pairs fit a
    64-bit index.
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
    # Gated on the largest entry times the longest row, so ordinary values skip the scan.
    if len(vals_s) and vals_s.max() > _HALF_MAX / np.diff(indptr).max():
        k = _overflowing_triple(indptr, vals_s, order)
        if k is not None:
            t = triples[k].item()
            raise TripleValidationError(f"triple #{k} overflows the sum of row {t[0]}: {t}", k, t)
    for a in (indptr, cols_s, vals_s):
        a.setflags(write=False)
    return SimilarityMatrix._from_csr(indptr, cols_s, vals_s)


def _overflowing_triple(indptr: np.ndarray, vals: np.ndarray, order: np.ndarray) -> int | None:
    """Input position of the first triple, in input order, at which its
    row's running sum in column order overflows; None when no row's does.
    ``vals`` holds the CSR values and ``order[i]`` the input position of
    ``vals[i]``.
    """
    rows = np.flatnonzero(np.diff(indptr))  # reduceat needs non-empty segments
    with np.errstate(over="ignore"):
        sums = np.add.reduceat(vals, indptr[rows])
        firsts = []
        for r in rows[sums == np.inf]:
            lo, hi = indptr[r], indptr[r + 1]
            over = np.cumsum(vals[lo:hi]) == np.inf
            if over.any():
                firsts.append(int(order[lo + np.argmax(over)]))
    return min(firsts, default=None)


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
