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
are skipped. Numbers use Python's float syntax (signs, exponents). Every
value must be finite: ``nan`` and ``inf`` are rejected with the file and
line they are on.

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
import csv
import os
import sys
import tempfile
import warnings
from contextlib import contextmanager
from typing import Sequence

import numpy as np

from .exceptions import (
    ConstraintViolationError,
    DegenerateInputError,
    InputError,
    TripleValidationError,
)
from . import objectives
from .matrices import TRIPLE_DTYPE, SimilarityMatrix, _check_sparse_size, sparse_from_triples
from .selector import FacilityLocationSelector, FeatureBasedSelector

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
        choices=["sqrt", "log"],
        help="saturating function for feature-based selection (default sqrt)",
    )
    p.add_argument(
        "--similarity",
        choices=["precomputed", "squared-correlation", "cosine"],
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
    p.add_argument(
        "--naive-rounds",
        type=int,
        default=0,
        help="naive greedy rounds before switching to lazy greedy; the result is "
        "identical for any value. Each naive round evaluates every remaining "
        "candidate, so on typical data they cost more evaluations and time than "
        "the lazy queue (default 0, pure lazy)",
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
    if args.naive_rounds < 0:
        raise CliError("--naive-rounds must be non-negative")


@contextmanager
def _opened(path: str):
    """The input file opened for binary reading; read errors become CliError."""
    try:
        with open(path, "rb") as fh:
            yield fh
    except OSError as exc:
        raise CliError(f"{path}: cannot read input ({exc.strerror or exc})") from None


def _read_lines(path: str) -> list[str]:
    with _opened(path) as fh:
        data = fh.read()
    try:
        return data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: cannot read input (not UTF-8 text: {exc})") from None


# Bytes a plain input line may hold besides a "\r" that ends it.
_PLAIN_BYTES = bytes(range(0x20, 0x7F)) + b"\t\n"


def _plain_line_count(path: str) -> int | None:
    """Number of lines in ``path``, or None unless it is printable ASCII whose
    lines end in ``\\n`` or ``\\r\\n``.

    For such a file np.loadtxt and str.splitlines break lines at the same
    places, so numpy's rows map onto line numbers whenever no line is blank.
    """
    lines, last = 0, b""
    with _opened(path) as fh:
        while chunk := fh.read(1 << 20):
            if chunk.endswith(b"\r"):
                chunk += fh.read(1)
            rest = chunk.translate(None, _PLAIN_BYTES)
            if rest and (rest.strip(b"\r") or chunk.count(b"\r\n") != len(rest)):
                return None
            lines += chunk.count(b"\n")
            last = chunk[-1:]
    return lines + (last not in (b"", b"\n"))


def _loadtxt(path: str, dtype: np.dtype, skiprows: int) -> np.ndarray | None:
    """Comma-separated records of ``path`` after ``skiprows`` lines, or None
    when numpy refuses the file (blank-only input included)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.loadtxt(
                path, dtype=dtype, delimiter=",", comments=None, skiprows=skiprows,
                ndmin=1 if dtype.names else 2, encoding="ascii",
            )
        except (OSError, ValueError, Warning):
            return None


def load_csv_matrix(path: str, header: bool) -> tuple[np.ndarray, Sequence[int]]:
    """Parse a CSV of reals. Returns (matrix, line number of each row)."""
    first = 2 if header else 1
    n_lines = _plain_line_count(path)
    if n_lines is not None and n_lines >= first:
        matrix = _loadtxt(path, np.dtype(np.float64), first - 1)
        if matrix is not None and len(matrix) == n_lines - first + 1:
            return matrix, range(first, n_lines + 1)
    return _csv_by_line(path, header)


def load_triples(path: str) -> tuple[int, np.ndarray | list[tuple[int, int, float]], Sequence[int]]:
    """Parse a triples file. Returns (n, triples, line number of each triple).

    ``triples`` is a :data:`~subsel.matrices.TRIPLE_DTYPE` array, or a list
    of tuples where the per-line reader ran; sparse_from_triples takes both.
    """
    n_lines = _plain_line_count(path)
    if n_lines is not None and n_lines >= 2:
        with _opened(path) as fh:
            first = fh.readline().decode("ascii").strip()
        if first.startswith("n="):
            n = _parse_count(path, 1, first)
            triples = _loadtxt(path, TRIPLE_DTYPE, 1)
            if triples is not None and len(triples) == n_lines - 1:
                return n, triples, range(2, n_lines + 1)
    return _triples_by_line(path)


# The per-line readers below run only on files the numpy path above does not
# take. They accept every file the CLI accepts and name the first bad line of
# every file it rejects.


def _csv_by_line(path: str, header: bool) -> tuple[np.ndarray, list[int]]:
    rows: list[list[float]] = []
    lines: list[int] = []
    width = None
    reader = csv.reader(_read_lines(path))
    for lineno, record in enumerate(reader, start=1):
        if header and lineno == 1:
            continue
        if not record or all(not cell.strip() for cell in record):
            continue
        if width is None:
            width = len(record)
        elif len(record) != width:
            raise CliError(f"{path}:{lineno}: expected {width} fields, got {len(record)}")
        try:
            rows.append([float(cell) for cell in record])
        except ValueError:
            bad = next(c for c in record if not _is_float(c))
            raise CliError(f"{path}:{lineno}: cannot parse {bad.strip()!r} as a number") from None
        lines.append(lineno)
    if not rows:
        raise CliError(f"{path}: empty dataset")
    return np.array(rows, dtype=np.float64), lines


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _parse_count(path: str, lineno: int, line: str) -> int:
    if not line.startswith("n="):
        raise CliError(f"{path}:{lineno}: triples input must start with an 'n=<count>' line")
    try:
        n = int(line[2:])
    except ValueError:
        raise CliError(f"{path}:{lineno}: cannot parse {line[2:]!r} as a count") from None
    try:
        _check_sparse_size(n)
    except InputError as exc:
        raise CliError(f"{path}:{lineno}: {exc}") from None
    return n


def _triples_by_line(path: str) -> tuple[int, list[tuple[int, int, float]], list[int]]:
    raw = [(i + 1, line.strip()) for i, line in enumerate(_read_lines(path))]
    rows = [(no, line) for no, line in raw if line]
    if not rows:
        raise CliError(f"{path}: empty dataset")
    n = _parse_count(path, *rows[0])
    triples: list[tuple[int, int, float]] = []
    lines: list[int] = []
    for no, line in rows[1:]:
        parts = line.split(",")
        if len(parts) != 3:
            raise CliError(f"{path}:{no}: expected 'row,col,value', got {line!r}")
        try:
            triples.append((int(parts[0]), int(parts[1]), float(parts[2])))
        except ValueError:
            raise CliError(f"{path}:{no}: cannot parse {line!r} as 'row,col,value'") from None
        lines.append(no)
    return n, triples, lines


def load_initial(path: str) -> list[int]:
    indices = []
    for no, line in enumerate(_read_lines(path), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            indices.append(int(line))
        except ValueError:
            raise CliError(f"{path}:{no}: cannot parse {line!r} as an index") from None
    return indices


def _build_selector(args):
    common = dict(
        naive_rounds=args.naive_rounds,
        initial=load_initial(args.initial) if args.initial else None,
        verbose=args.verbose,
    )
    if args.function == "feature-based":
        return FeatureBasedSelector(args.k, concave=args.concave or "sqrt", **common)
    return FacilityLocationSelector(args.k, similarity=args.similarity, **common)


def _load_data(args):
    """Parse the input file into selector-ready data plus row -> line mapping."""
    if args.format == "triples":
        n, triples, lines = load_triples(args.input)
        try:
            return sparse_from_triples(n, triples), lines
        except TripleValidationError as exc:
            raise CliError(f"{_where(args.input, lines, exc.triple_index)}: {exc}") from None
    matrix, lines = load_csv_matrix(args.input, args.header)
    if args.similarity == "precomputed" and matrix.shape[0] != matrix.shape[1]:
        raise CliError(
            f"{args.input}: precomputed similarity matrix must be square, "
            f"got {matrix.shape[0]} rows of {matrix.shape[1]} fields"
        )
    return matrix, lines


def _where(path: str, lines: Sequence[int], row: int | None) -> str:
    """``path:line`` of data row ``row``, or just ``path`` when no row is known."""
    return path if row is None else f"{path}:{lines[row]}"


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
    selector = _build_selector(args)
    data, lines = _load_data(args)
    try:
        # The parsed matrix is ours alone: adopt it rather than copy it.
        if args.similarity == "precomputed" and args.format == "csv":
            data = SimilarityMatrix._from_owned(data)
        elif args.function == "feature-based":
            # objectives.FeatureMatrix is the class the objective takes as is.
            data = objectives.FeatureMatrix._from_owned(data)
        selector.fit(data)
    except DegenerateInputError as exc:
        raise CliError(f"{_where(args.input, lines, exc.row)}: {exc}") from None
    except ConstraintViolationError as exc:
        row = None if exc.position is None else exc.position[0]
        raise CliError(f"{_where(args.input, lines, row)}: {exc}") from None
    except (InputError, IndexError) as exc:
        raise CliError(str(exc)) from None
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
