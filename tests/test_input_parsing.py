"""CLI input parsing: the numpy path agrees with the per-line reader.

Files whose every line is a record are parsed by ``np.loadtxt``; every other
file goes through the per-line reader, which also writes every diagnostic.
These tests hold the two to the same arrays and the same line numbers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsel import (
    ConstraintViolationError,
    DegenerateInputError,
    InputError,
    TripleValidationError,
    cli,
)
from subsel.cli import main
from subsel.matrices import TRIPLE_DTYPE

FINITE = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


def write(path, text):
    path.write_bytes(text.encode("utf-8"))
    return str(path)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def csv_both(path, header=False):
    """(numpy-path result, per-line result) for one CSV file."""
    return cli.load_csv_matrix(path, header), cli._csv_by_line(path, header)


def triples_both(path):
    return cli.load_triples(path), cli._triples_by_line(path)


class TestCsvParity:
    @given(
        st.data(),
        st.sampled_from(["\n", "\r\n"]),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_matrices(self, tmp_path_factory, data, newline, final_newline, header):
        n = data.draw(st.integers(1, 8))
        d = data.draw(st.integers(1, 5))
        matrix = data.draw(st.lists(st.lists(FINITE, min_size=d, max_size=d), min_size=n, max_size=n))
        text = newline.join(
            (["a,b"] if header else []) + [",".join(map(repr, row)) for row in matrix]
        ) + (newline if final_newline else "")
        path = write(tmp_path_factory.mktemp("csv") / "in.csv", text)
        (fast, fast_lines), (slow, slow_lines) = csv_both(path, header)
        assert isinstance(fast_lines, range)  # the numpy path took the file
        assert same_bits(fast, slow)
        assert same_bits(fast, np.array(matrix, dtype=np.float64))
        assert list(fast_lines) == slow_lines == list(range(1 + header, n + 1 + header))

    @pytest.mark.parametrize(
        "text,header,expected,lines",
        [
            ("1,2\r\n3,4\r\n", False, [[1, 2], [3, 4]], [1, 2]),
            ("1,2\n3,4", False, [[1, 2], [3, 4]], [1, 2]),
            ("\n1,2\n\n3,4\n\n", False, [[1, 2], [3, 4]], [2, 4]),
            ("1,2\n  \t\n3,4\n", False, [[1, 2], [3, 4]], [1, 3]),
            ("1,2\r3,4\r", False, [[1, 2], [3, 4]], [1, 2]),
            ("1,2\r\r\n3,4\n", False, [[1, 2], [3, 4]], [1, 3]),
            ("+1.5,2e3\n1E-3,+4.0e+0\n", False, [[1.5, 2000.0], [0.001, 4.0]], [1, 2]),
            (" 1 , 2 \n3,4\n", False, [[1, 2], [3, 4]], [1, 2]),
            ("a,b\n1,2\n", True, [[1, 2]], [2]),
            ("\n1,2\n", True, [[1, 2]], [2]),
            ("größe,x\r\n5,6\r\n", True, [[5, 6]], [2]),
            ("7\n8\n", False, [[7], [8]], [1, 2]),
        ],
    )
    def test_explicit_cases(self, tmp_path, text, header, expected, lines):
        (fast, fast_lines), (slow, slow_lines) = csv_both(write(tmp_path / "in.csv", text), header)
        assert same_bits(fast, np.array(expected, dtype=np.float64))
        assert same_bits(fast, slow)
        assert list(fast_lines) == slow_lines == lines


    def test_crlf_split_across_prescan_chunks(self, tmp_path):
        # A "\r\n" whose "\r" ends one prescan chunk and whose "\n" starts
        # the next must not send the file to the per-line reader.
        chunk = cli._PRESCAN_CHUNK
        rows = [f"{i},{i * 0.25!r},{-i}" for i in range(2 * chunk // 12)]
        text = "\r\n".join(rows) + "\r\n"
        cut = text.rindex("\r\n", 0, chunk)  # move the line break found there to the boundary
        text = text[:cut] + " " * (chunk - 1 - cut) + text[cut:]
        assert len(text) > chunk and text[chunk - 1:chunk + 1] == "\r\n"
        (fast, fast_lines), (slow, slow_lines) = csv_both(write(tmp_path / "in.csv", text))
        assert isinstance(fast_lines, range)  # the numpy path took the file
        assert same_bits(fast, slow)
        assert same_bits(fast, np.array([[i, i * 0.25, -i] for i in range(len(rows))], dtype=np.float64))
        assert list(fast_lines) == slow_lines == list(range(1, len(rows) + 1))


class TestTriplesParity:
    @given(st.data(), st.sampled_from(["\n", "\r\n"]), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_random_triples(self, tmp_path_factory, data, newline, final_newline):
        n = data.draw(st.integers(1, 6))
        pairs = data.draw(
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), min_size=1, max_size=12)
        )
        triples = [(i, j, data.draw(FINITE)) for i, j in pairs]
        text = newline.join([f"n={n}"] + [f"{i},{j},{v!r}" for i, j, v in triples])
        path = write(tmp_path_factory.mktemp("triples") / "in.txt", text + (newline if final_newline else ""))
        (n_fast, fast, fast_lines), (n_slow, slow, slow_lines) = triples_both(path)
        assert isinstance(fast_lines, range)
        assert n_fast == n_slow == n
        assert same_bits(fast, np.array(slow, dtype=TRIPLE_DTYPE))
        assert same_bits(fast, np.array(triples, dtype=TRIPLE_DTYPE))
        assert list(fast_lines) == slow_lines == list(range(2, len(triples) + 2))

    @pytest.mark.parametrize(
        "text,lines",
        [
            ("n=3\r\n0,1,0.5\r\n2,2,1e0\r\n", [2, 3]),
            ("n=3\n0,1,0.5\n2,2,1e0", [2, 3]),
            ("\nn=3\n\n0,1,0.5\n  \n2,2,1e0\n", [4, 6]),
            (" n=3 \n+0, 1 ,+5E-1\n2,2,1e0\n", [2, 3]),
        ],
    )
    def test_explicit_cases(self, tmp_path, text, lines):
        (n, fast, fast_lines), (_, slow, slow_lines) = triples_both(write(tmp_path / "in.txt", text))
        assert n == 3
        expected = np.array([(0, 1, 0.5), (2, 2, 1.0)], dtype=TRIPLE_DTYPE)
        assert same_bits(np.asarray(fast, dtype=TRIPLE_DTYPE), expected)
        assert same_bits(np.array(slow, dtype=TRIPLE_DTYPE), expected)
        assert list(fast_lines) == slow_lines == lines


def run_main(tmp_path, args, text, name):
    path = write(tmp_path / name, text)
    return main([*args, "--input", path, "--output", str(tmp_path / "out.csv")])


FEATURES = ["--function", "feature-based", "--k", "1"]
PRECOMPUTED = ["--function", "facility-location", "--similarity", "precomputed", "--k", "1"]
CORRELATION = ["--function", "facility-location", "--similarity", "squared-correlation", "--k", "1"]
TRIPLES = PRECOMPUTED + ["--format", "triples"]


class TestBoundaryDiagnostics:
    @pytest.mark.parametrize(
        "args,text,name,where",
        [
            (FEATURES, "1,2\n3,inf\n", "in.csv", "in.csv:2"),
            (FEATURES, "1,2\n\nnan,4\n", "in.csv", "in.csv:3"),
            (PRECOMPUTED, "1,0.5\ninf,1\n", "in.csv", "in.csv:2"),
            (PRECOMPUTED, "1,nan\n0.5,1\n", "in.csv", "in.csv:1"),
            (CORRELATION, "1,2,3\n4,5,6\n7,-inf,9\n", "in.csv", "in.csv:3"),
            (TRIPLES, "n=2\n0,0,1.0\n1,1,inf\n", "in.txt", "in.txt:3"),
            (TRIPLES, "n=2\n0,0,1.0\n\n1,1,nan\n", "in.txt", "in.txt:4"),
        ],
    )
    def test_non_finite_values_name_file_and_line(self, tmp_path, capsys, args, text, name, where):
        assert run_main(tmp_path, args, text, name) == 1
        err = capsys.readouterr().err
        assert f"{where}:" in err and "non-finite" in err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize(
        "args,text,name,where,field",
        [
            (FEATURES, '"1",2\n3,4\n', "in.csv", "in.csv:1", '\'"1"\''),
            (FEATURES, "1,2\n , \n", "in.csv", "in.csv:2", "''"),
            (FEATURES, "1,2\n,\n3,4\n", "in.csv", "in.csv:2", "''"),
            (PRECOMPUTED, "1,0.5\n0.5,'1'\n", "in.csv", "in.csv:2", "\"'1'\""),
            (TRIPLES, 'n=2\n0,0,1.0\n"1",1,1.0\n', "in.txt", "in.txt:3", "row,col,value"),
        ],
    )
    def test_quotes_and_empty_fields_name_file_and_line(
        self, tmp_path, capsys, args, text, name, where, field
    ):
        # Fields are split on commas and parsed as Python numbers: quotes are
        # not stripped, and a line of empty fields is not blank.
        assert run_main(tmp_path, args, text, name) == 1
        err = capsys.readouterr().err
        assert f"{where}: cannot parse " in err and field in err
        assert "Traceback" not in err
        # The loader and the per-line reader behind it name the same line.
        path = str(tmp_path / name)
        if name == "in.txt":
            loaders = [cli.load_triples, cli._triples_by_line]
        else:
            loaders = [lambda p: cli.load_csv_matrix(p, False), lambda p: cli._csv_by_line(p, False)]
        for load in loaders:
            with pytest.raises(cli.CliError) as exc:
                load(path)
            assert str(exc.value).startswith(f"{tmp_path / where}: cannot parse ")

    def test_fractional_index_is_rejected(self, tmp_path, capsys):
        assert run_main(tmp_path, TRIPLES, "n=2\n0,0,1.0\n1.5,1,1.0\n", "in.txt") == 1
        err = capsys.readouterr().err
        assert "in.txt:3" in err and "row,col,value" in err

    @pytest.mark.parametrize("text", ["n=3037000500\n0,0,1.0\n", "n=3037000500\n0,0,1.0\n\n  \n"])
    def test_count_too_large_for_a_sparse_matrix_names_the_count_line(self, tmp_path, capsys, text):
        # Refused before any triple is read or any array is allocated.
        assert run_main(tmp_path, TRIPLES, text, "in.txt") == 1
        err = capsys.readouterr().err
        assert "in.txt:1:" in err and "at most 3037000499" in err
        assert "Traceback" not in err

    def test_invalid_utf8_is_a_read_error(self, tmp_path, capsys):
        (tmp_path / "in.csv").write_bytes(b"1,2\n\xff3,4\n")
        code = main([*FEATURES, "--input", str(tmp_path / "in.csv"),
                     "--output", str(tmp_path / "out.csv")])
        assert code == 1
        assert "cannot read input" in capsys.readouterr().err


class TestErrorRows:
    """The CLI maps one attribute, ``InputError.row``, to a line of the input."""

    def test_every_error_type_sets_row(self):
        assert ConstraintViolationError("m", position=(3, 1)).row == 3
        assert TripleValidationError("m", 5, (5, 0, -1.0)).row == 5
        assert DegenerateInputError("m", row=2).row == 2
        assert InputError("m").row is None
        assert ConstraintViolationError("m").row is None
        assert str(TripleValidationError("m", 5, (5, 0, -1.0))) == "m"

    def test_error_without_a_row_names_the_file(self, tmp_path, capsys):
        assert run_main(tmp_path, PRECOMPUTED, "1,0.5,0.2\n0.5,1,0.3\n", "in.csv") == 1
        err = capsys.readouterr().err
        assert err == (f"subsel: error: {tmp_path / 'in.csv'}: "
                       "similarity matrix must be square, got shape (2, 3)\n")


class TestByteOrderMark:
    """Excel and Notepad start UTF-8 files with a byte-order mark (U+FEFF).
    A file that starts with one reads as the same file without it."""

    BOM = "\ufeff"
    CASES = [
        (["--function", "feature-based", "--k", "3"], "in.csv", "1,2\n3,0.5\n0,4\n", None),
        (["--function", "feature-based", "--k", "2", "--header"], "in.csv", "a,b\r\n1,2\r\n3,4\r\n", None),
        (["--function", "facility-location", "--similarity", "precomputed", "--k", "2",
          "--format", "triples"], "in.txt", "n=3\n0,0,1.0\n1,2,0.5\n2,1,0.25\n", None),
        (["--function", "feature-based", "--k", "3"], "in.csv", "1,2\n3,0.5\n0,4\n", "2\n# then\n0\n"),
    ]

    def _run(self, tmp_path, args, name, text, initial, bom_on):
        """Output bytes of one run; ``bom_on`` is "input" or "initial" or ""."""
        path = write(tmp_path / name, (self.BOM if bom_on == "input" else "") + text)
        extra = []
        if initial is not None:
            extra = ["--initial", write(tmp_path / "init.txt",
                                        (self.BOM if bom_on == "initial" else "") + initial)]
        out = tmp_path / "out.csv"
        assert main([*args, *extra, "--input", path, "--output", str(out)]) == 0
        return out.read_bytes()

    @pytest.mark.parametrize("args,name,text,initial", CASES,
                             ids=["csv", "csv-header-crlf", "triples", "initial"])
    def test_leading_mark_gives_the_same_output(self, tmp_path, args, name, text, initial):
        plain = self._run(tmp_path, args, name, text, initial, "")
        assert self._run(tmp_path, args, name, text, initial, "input") == plain
        if initial is not None:
            assert self._run(tmp_path, args, name, text, initial, "initial") == plain

    @pytest.mark.parametrize("args,name,text,initial,where,field", [
        (FEATURES, "in.csv", "1,2\n\ufeff3,4\n", None, "in.csv:2", "'\\ufeff3'"),
        (TRIPLES, "in.txt", "\ufeffn=2\n\ufeff0,0,1.0\n", None, "in.txt:2", "'\\ufeff0,0,1.0'"),
        (FEATURES, "in.csv", "1,2\n3,4\n", "\ufeff0\n\ufeff1\n", "init.txt:2", "'\\ufeff1'"),
    ], ids=["csv", "triples", "initial"])
    def test_mark_inside_a_file_is_refused(self, tmp_path, capsys, args, name, text, initial,
                                           where, field):
        extra = [] if initial is None else ["--initial", write(tmp_path / "init.txt", initial)]
        code = main([*args, *extra, "--input", write(tmp_path / name, text),
                     "--output", str(tmp_path / "out.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{where}: cannot parse {field}" in err
        assert not (tmp_path / "out.csv").exists()
