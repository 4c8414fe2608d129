"""Batch front-end: read a dataset or similarity matrix, select, write the ranking.

Input formats
-------------
csv
    One example per line, comma-separated 64-bit reals, optionally preceded
    by a single header line skipped with --header (csv only). For
    ``--similarity precomputed`` the CSV must be the square similarity
    matrix itself.
triples
    Sparse similarity entries: a required leading ``n=<count>`` line, then
    one ``row,col,value`` line per stored entry; row and col are integers.
    Only valid together with
    ``--function facility-location --similarity precomputed``.

Both are UTF-8 text. Lines end in ``\n`` or ``\r\n`` (a lone ``\r`` also
works), the last line needs no line end, and blank or whitespace-only lines
are skipped. Fields are split on commas and nothing else: quotes are not
stripped, so ``"1"`` is an error, and a line of empty fields such as ``,``
is an error, not a blank line. Numbers use Python's float syntax (signs,
exponents). Every value must be finite: ``nan`` and ``inf`` are rejected
with the file and line they are on.

Parsing streams the file: a file whose every line is a record is read by
``np.loadtxt`` straight from its path, without an in-memory copy of the
text. Any other file (blank lines, non-ASCII bytes, other line ends, a
malformed record) is read again by a per-line reader, which accepts the
same syntax and names the first bad line. A feature matrix parsed by
either reader is adopted by the selection without a copy.

The output file carries a ``rank,index,gain`` header and one line per
selected example, gains printed with 17 significant digits so they parse
back to the exact float. Progress under --verbose goes to stderr; the
output path is written atomically and only on success.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import warnings
from contextlib import contextmanager
from typing import Iterator, Sequence

import numpy as np

from .exceptions import InputError, NegativeCosineError
from . import objectives
from .matrices import TRIPLE_DTYPE, SimilarityMatrix, _check_sparse_size, sparse_from_triples
from .selector import SIMILARITY_KINDS, FacilityLocationSelector, FeatureBasedSelector

__all__ = ["build_parser", "run", "main"]


class CliError(Exception):
    """Diagnostic carrying a ready-to-print message."""


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="subsel",
        description="Select a representative low-redundancy subset of a dataset.",
    )
    p.add_argument(
        "--function",
        required=True,
        choices=["facility-location", "feature-based"],
        help="objective to maximize",
    )
    p.add_argument("--k", required=True, type=int, help="number of examples to select")
    p.add_argument(
        "--concave",
        choices=sorted(objectives._SATURATORS),
        help="saturating function for feature-based selection (default sqrt)",
    )
    p.add_argument(
        "--similarity",
        choices=SIMILARITY_KINDS,
        help="similarity source for facility-location selection",
    )
    p.add_argument("--input", required=True, help="input data file")
    p.add_argument(
        "--format",
        choices=["csv", "triples"],
        default="csv",
        help="input file format (default csv)",
    )
    p.add_argument(
        "--header",
        action="store_true",
        help="skip one header line at the top of a csv input",
    )
    p.add_argument("--initial", help="file of indices to force into the selection, one per line")
    p.add_argument("--output", required=True, help="output csv path (rank,index,gain)")
    p.add_argument("--verbose", action="store_true", help="progress records on stderr")
    return p


def _validate_flags(args) -> None:
    if args.k < 1:
        raise CliError("--k must be at least 1")
    if args.function == "feature-based":
        if args.similarity is not None:
            raise CliError("--similarity is only valid with --function facility-location")
        if args.format == "triples":
            raise CliError("--format triples is only valid with --function facility-location")
    else:
        if args.concave is not None:
            raise CliError("--concave is only valid with --function feature-based")
        if args.similarity is None:
            raise CliError("--function facility-location requires --similarity")
        if args.format == "triples" and args.similarity != "precomputed":
            raise CliError("--format triples requires --similarity precomputed")
    if args.format == "triples" and args.header:
        raise CliError("--header is only valid with --format csv")


@contextmanager
def _opened(path: str):
    """The input file opened for binary reading; read errors become CliError."""
    try:
        with open(path, "rb") as fh:
            yield fh
    except OSError as exc:
        raise CliError(f"{path}: cannot read input ({exc.strerror or exc})") from None


def _records(path: str, skip: int = 0) -> Iterator[tuple[int, str]]:
    """Yield (line number, stripped text) of every non-blank line of ``path``
    after its first ``skip`` lines."""
    with _opened(path) as fh:
        data = fh.read()
    try:
        lines = data.decode("utf-8-sig").splitlines()
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: cannot read input (not UTF-8 text: {exc})") from None
    for no, line in enumerate(lines[skip:], start=skip + 1):
        if line := line.strip():
            yield no, line


def _parse(path: str, no: int, field: str, kind, what: str):
    """``kind(field)``, or CliError naming ``path:no`` and the field."""
    try:
        return kind(field)
    except ValueError:
        raise CliError(f"{path}:{no}: cannot parse {field.strip()!r} as {what}") from None


# Bytes a plain input line may hold besides a "\r" that ends it.
_PLAIN_BYTES = bytes(range(0x20, 0x7F)) + b"\t\n"

# Bytes _loadtxt's prescan reads at a time. With 1 MiB, the np.loadtxt call
# after it peaked ~0.5 MB higher in RSS on a 10k x 50 CSV.
_PRESCAN_CHUNK = 1 << 16


def _loadtxt(path: str, dtype: np.dtype, skip: int) -> tuple[np.ndarray, range] | None:
    """(records, line numbers) of ``path`` after its first ``skip`` lines, read
    by np.loadtxt, or None unless that gives one record for every such line.

    Only printable ASCII files whose lines end in ``\\n`` or ``\\r\\n`` qualify:
    np.loadtxt and str.splitlines break those at the same places.
    """
    n_lines, last = 0, b""
    with _opened(path) as fh:
        while chunk := fh.read(_PRESCAN_CHUNK):
            if chunk.endswith(b"\r"):
                chunk += fh.read(1)
            rest = chunk.translate(None, _PLAIN_BYTES)
            if rest and (rest.strip(b"\r") or chunk.count(b"\r\n") != len(rest)):
                return None
            n_lines += chunk.count(b"\n")
            last = chunk[-1:]
    n_lines += last not in (b"", b"\n")
    if n_lines <= skip:
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            records = np.loadtxt(
                path, dtype=dtype, delimiter=",", comments=None, skiprows=skip,
                ndmin=1 if dtype.names else 2, encoding="ascii",
            )
        except (OSError, ValueError, Warning):
            return None
    if len(records) != n_lines - skip:
        return None
    return records, range(skip + 1, n_lines + 1)


def load_csv_matrix(path: str, header: bool) -> tuple[np.ndarray, Sequence[int]]:
    """Parse a CSV of reals. Returns (matrix, line number of each row)."""
    return _loadtxt(path, np.dtype(np.float64), int(header)) or _csv_by_line(path, header)


def load_triples(path: str) -> tuple[int, np.ndarray | list[tuple[int, int, float]], Sequence[int]]:
    """Parse a triples file. Returns (n, triples, line number of each triple).

    ``triples`` is a :data:`~subsel.matrices.TRIPLE_DTYPE` array, or a list
    of tuples where the per-line reader ran; sparse_from_triples takes both.
    The count is checked before any triple is read.
    """
    with _opened(path) as fh:
        head = fh.readline().removesuffix(b"\n").removesuffix(b"\r")
    # A printable ASCII first line is line 1 to str.splitlines too.
    if head.strip().startswith(b"n=") and not head.translate(None, _PLAIN_BYTES):
        n = _parse_count(path, 1, head.decode("ascii").strip())
        loaded = _loadtxt(path, TRIPLE_DTYPE, 1)
        if loaded is not None:
            return n, *loaded
    return _triples_by_line(path)


# The per-line readers below run only on files the numpy path above does not
# take. They accept every file the CLI accepts and name the first bad line of
# every file it rejects. Fields are split on commas; quotes are not stripped.


def _csv_by_line(path: str, header: bool) -> tuple[np.ndarray, list[int]]:
    rows: list[list[float]] = []
    lines: list[int] = []
    for no, line in _records(path, int(header)):
        fields = line.split(",")
        if not rows:
            width = len(fields)
        elif len(fields) != width:
            raise CliError(f"{path}:{no}: expected {width} fields, got {len(fields)}")
        try:
            rows.append([float(field) for field in fields])
        except ValueError:
            for field in fields:  # name the first field float() refuses
                _parse(path, no, field, float, "a number")
            raise
        lines.append(no)
    if not rows:
        raise CliError(f"{path}: empty dataset")
    return np.array(rows, dtype=np.float64), lines


def _parse_count(path: str, no: int, line: str) -> int:
    if not line.startswith("n="):
        raise CliError(f"{path}:{no}: triples input must start with an 'n=<count>' line")
    n = _parse(path, no, line[2:], int, "a count")
    try:
        _check_sparse_size(n)
    except InputError as exc:
        raise CliError(f"{path}:{no}: {exc}") from None
    return n


def _triple(line: str) -> tuple[int, int, float]:
    row, col, value = line.split(",")
    return int(row), int(col), float(value)


def _triples_by_line(path: str) -> tuple[int, list[tuple[int, int, float]], list[int]]:
    records = _records(path)
    first = next(records, None)
    if first is None:
        raise CliError(f"{path}: empty dataset")
    n = _parse_count(path, *first)
    triples: list[tuple[int, int, float]] = []
    lines: list[int] = []
    for no, line in records:
        triples.append(_parse(path, no, line, _triple, "'row,col,value'"))
        lines.append(no)
    return n, triples, lines


def load_initial(path: str) -> tuple[list[int], list[int]]:
    """Parse an ``--initial`` file of indices, one per line; ``#`` starts a
    comment. Returns (indices, line number of each index)."""
    indices: list[int] = []
    lines: list[int] = []
    for no, line in _records(path):
        if text := line.split("#", 1)[0].strip():
            indices.append(_parse(path, no, text, int, "an index"))
            lines.append(no)
    return indices, lines


def _build_selector(args, initial: list[int] | None):
    common = dict(initial=initial, verbose=args.verbose)
    if args.function == "feature-based":
        return FeatureBasedSelector(args.k, concave=args.concave or "sqrt", **common)
    return FacilityLocationSelector(args.k, similarity=args.similarity, **common)


def _located(exc: Exception, path: str, lines: Sequence[int]) -> CliError:
    """``exc`` as a CliError, prefixed with ``path:line`` when it names a row, else ``path``."""
    row = getattr(exc, "row", None)
    return CliError(f"{path}: {exc}" if row is None else f"{path}:{lines[row]}: {exc}")


def _write_output(path: str, result) -> None:
    body = "rank,index,gain\n" + "".join(
        "%d,%d,%.17g\n" % (rank, index, gain)
        for rank, (index, gain) in enumerate(zip(result.ranking, result.gains))
    )
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(prefix=".subsel-", dir=directory)
    except OSError as exc:
        raise CliError(f"{path}: cannot write output ({exc.strerror or exc})") from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(body)
        os.replace(tmp, path)
    except OSError as exc:
        os.unlink(tmp)
        raise CliError(f"{path}: cannot write output ({exc.strerror or exc})") from None


def run(args) -> int:
    _validate_flags(args)
    initial, initial_lines = load_initial(args.initial) if args.initial else (None, [])
    try:
        selector = _build_selector(args, initial)
    except InputError as exc:
        raise _located(exc, args.initial, initial_lines) from None
    if args.format == "triples":
        n, triples, lines = load_triples(args.input)
    else:
        matrix, lines = load_csv_matrix(args.input, args.header)
    try:
        # The parsed arrays are ours alone: adopt them rather than copy them.
        if args.format == "triples":
            data = sparse_from_triples(n, triples)
        elif args.similarity == "precomputed":
            data = SimilarityMatrix._from_owned(matrix)
        elif args.function == "feature-based":
            # objectives.FeatureMatrix is the class the objective takes as is.
            data = objectives.FeatureMatrix._from_owned(matrix)
        else:
            data = matrix
        selector.fit(data)
    except NegativeCosineError as exc:
        first, second = (lines[row] for row in exc.position)
        raise CliError(
            f"{args.input}:{first}: cosine similarity is negative ({exc.value}) for the rows "
            f"on lines {first} and {second}; --similarity squared-correlation is never negative"
        ) from None
    except InputError as exc:
        raise _located(exc, args.input, lines) from None
    except IndexError as exc:  # an --initial index that is not an example
        raise _located(exc, args.initial, initial_lines) from None
    _write_output(args.output, selector.result_)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
    except CliError as exc:
        print(f"subsel: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
