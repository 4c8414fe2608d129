"""Command-line behavior: formats, diagnostics, exit codes, output contract."""

import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from subsel.cli import main

S3_CSV = "1,0.5,0.2\n0.5,1,0.3\n0.2,0.3,1\n"
F2_CSV = "4,9\n1,0\n"


def run_cli(tmp_path, *args, input_text=None, input_name="in.csv"):
    """Invoke main() with an input file and return (exit code, output path)."""
    in_path = tmp_path / input_name
    if input_text is not None:
        in_path.write_text(input_text)
    out_path = tmp_path / "out.csv"
    code = main([*args, "--input", str(in_path), "--output", str(out_path)])
    return code, out_path


class TestFeatureBased:
    def test_singleton_output(self, tmp_path):
        code, out = run_cli(
            tmp_path, "--function", "feature-based", "--k", "1", input_text=F2_CSV
        )
        assert code == 0
        assert out.read_text() == "rank,index,gain\n0,0,5\n"

    def test_gains_round_trip_through_17_digits(self, tmp_path):
        code, out = run_cli(
            tmp_path, "--function", "feature-based", "--k", "2", input_text=F2_CSV
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "rank,index,gain"
        gains = [float(line.split(",")[2]) for line in lines[1:]]
        assert gains[0] == 5.0
        assert gains[1] == math.sqrt(5.0) - 2.0

    def test_log_concave_and_header(self, tmp_path):
        text = "a,b\n" + str(math.e - 1.0) + ",0\n0,0.5\n"
        code, out = run_cli(
            tmp_path,
            "--function", "feature-based", "--k", "1",
            "--concave", "log", "--header",
            input_text=text,
        )
        assert code == 0
        rank0 = out.read_text().splitlines()[1]
        assert rank0.startswith("0,0,")
        assert float(rank0.split(",")[2]) == pytest.approx(1.0, rel=1e-15)

    def test_negative_feature_names_file_and_line(self, tmp_path, capsys):
        code, out = run_cli(
            tmp_path, "--function", "feature-based", "--k", "1",
            input_text="1,2\n3,-4\n",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "in.csv:2" in err and "non-negative" in err
        assert not out.exists()

    def test_overflowing_column_sum_names_file_and_line(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow RuntimeWarning would raise
            code, out = run_cli(
                tmp_path, "--function", "feature-based", "--k", "3",
                input_text="1e308\n1e308\n1\n",
            )
        assert code == 1
        err = capsys.readouterr().err
        assert "in.csv:2:" in err and "column sums must be finite" in err
        assert "RuntimeWarning" not in err
        assert not out.exists()


class TestFacilityLocation:
    def test_overflowing_row_sum_names_file_and_line(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow RuntimeWarning would raise
            code, out = run_cli(
                tmp_path, "--function", "facility-location", "--similarity", "precomputed",
                "--k", "1", input_text="0,0\n1e308,1e308\n",
            )
        assert code == 1
        err = capsys.readouterr().err
        assert "in.csv:2:" in err and "row sums must be finite" in err
        assert not out.exists()

    def test_precomputed_csv(self, tmp_path):
        code, out = run_cli(
            tmp_path,
            "--function", "facility-location", "--similarity", "precomputed",
            "--k", "2",
            input_text=S3_CSV,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "0,1,1.8"
        assert lines[2].startswith("1,2,")
        assert float(lines[2].split(",")[2]) == pytest.approx(0.7, rel=1e-12)

    def test_triples_input(self, tmp_path):
        triples = "n=3\n" + "".join(
            f"{i},{j},{v}\n"
            for i, row in enumerate([[1, 0.5, 0.2], [0.5, 1, 0.3], [0.2, 0.3, 1]])
            for j, v in enumerate(row)
        )
        code, out = run_cli(
            tmp_path,
            "--function", "facility-location", "--similarity", "precomputed",
            "--format", "triples", "--k", "1",
            input_text=triples, input_name="in.txt",
        )
        assert code == 0
        assert out.read_text().splitlines()[1].startswith("0,1,")

    def test_non_square_precomputed_rejected(self, tmp_path, capsys):
        code, _ = run_cli(
            tmp_path,
            "--function", "facility-location", "--similarity", "precomputed",
            "--k", "1",
            input_text="1,0.5,0.2\n0.5,1,0.3\n",
        )
        assert code == 1
        assert "square" in capsys.readouterr().err

    def test_negative_similarity_names_file_and_line(self, tmp_path, capsys):
        code, _ = run_cli(
            tmp_path,
            "--function", "facility-location", "--similarity", "precomputed",
            "--k", "1",
            input_text="1,0.5\n-0.1,1\n",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "in.csv:2" in err and "negative similarity" in err

    @pytest.mark.parametrize("args, what", [
        (["--function", "feature-based"], "feature value"),
        (["--function", "facility-location", "--similarity", "precomputed"], "similarity"),
    ])
    def test_value_errors_print_plain_floats(self, tmp_path, capsys, args, what):
        code, _ = run_cli(tmp_path, *args, "--k", "1", input_text="1,2\n-1,1\n")
        assert code == 1
        err = capsys.readouterr().err
        assert f"in.csv:2: negative {what} -1.0 at row 1, column 0" in err
        assert "np.float64" not in err

    def test_squared_correlation_zero_variance_row(self, tmp_path, capsys):
        code, _ = run_cli(
            tmp_path,
            "--function", "facility-location", "--similarity", "squared-correlation",
            "--k", "1",
            input_text="1,2,3\n5,5,5\n",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "in.csv:2" in err and "variance" in err

    def test_cosine_zero_row(self, tmp_path, capsys):
        code, _ = run_cli(
            tmp_path,
            "--function", "facility-location", "--similarity", "cosine",
            "--k", "1",
            input_text="1,2\n0,0\n",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "in.csv:2" in err and "all-zero" in err

    @pytest.mark.parametrize("similarity, text, message", [
        ("cosine", "x\n1\n2\n3\n0.5\n", "cosine similarity needs at least 2 features per row"),
        ("squared-correlation", "x,y\n1,2\n3,7\n5,-1\n",
         "squared-correlation similarity needs at least 3 features per row"),
    ], ids=["cosine", "squared-correlation"])
    def test_too_few_features_names_the_file(self, tmp_path, capsys, similarity, text, message):
        code, out = run_cli(
            tmp_path,
            "--function", "facility-location", "--similarity", similarity,
            "--k", "2", "--header",
            input_text=text,
        )
        # A fault of the whole matrix names the file and no line.
        assert code == 1
        assert f"in.csv: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_cosine_names_both_lines_and_no_python_keyword(self, tmp_path, capsys):
        code, out = run_cli(
            tmp_path,
            "--function", "facility-location", "--similarity", "cosine",
            "--k", "1", "--header",
            input_text="x,y\n1,0\n-1,0.5\n",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "in.csv:2: cosine similarity is negative (-0.894" in err
        assert "for the rows on lines 2 and 3" in err
        assert "clamp_negative" not in err
        assert not out.exists()


class TestTriplesDiagnostics:
    def run_triples(self, tmp_path, text):
        return run_cli(
            tmp_path,
            "--function", "facility-location", "--similarity", "precomputed",
            "--format", "triples", "--k", "1",
            input_text=text, input_name="in.txt",
        )

    def test_missing_count_line(self, tmp_path, capsys):
        code, _ = self.run_triples(tmp_path, "0,0,1.0\n")
        assert code == 1
        assert "n=<count>" in capsys.readouterr().err

    def test_unparseable_count(self, tmp_path, capsys):
        code, _ = self.run_triples(tmp_path, "n=three\n0,0,1.0\n")
        assert code == 1
        assert "in.txt:1" in capsys.readouterr().err

    def test_malformed_triple_line(self, tmp_path, capsys):
        code, _ = self.run_triples(tmp_path, "n=2\n0,0\n")
        assert code == 1
        assert "in.txt:2" in capsys.readouterr().err

    def test_duplicate_pair_names_later_line(self, tmp_path, capsys):
        code, _ = self.run_triples(tmp_path, "n=2\n0,0,1.0\n1,1,1.0\n0,0,2.0\n")
        assert code == 1
        err = capsys.readouterr().err
        assert "in.txt:4" in err and "duplicate" in err

    def test_out_of_range_index_names_line(self, tmp_path, capsys):
        code, _ = self.run_triples(tmp_path, "n=2\n0,5,1.0\n")
        assert code == 1
        err = capsys.readouterr().err
        assert "in.txt:2" in err and "out of range" in err

    def test_negative_value_names_line(self, tmp_path, capsys):
        code, _ = self.run_triples(tmp_path, "n=2\n\n0,0,-1.0\n")
        assert code == 1
        assert "in.txt:3" in capsys.readouterr().err

    def test_overflowing_row_sum_names_line(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow RuntimeWarning would raise
            code, out = self.run_triples(tmp_path, "n=2\n1,0,1e308\n1,1,1e308\n")
        assert code == 1
        err = capsys.readouterr().err
        assert "in.txt:3:" in err and "overflows the sum of row 1" in err
        assert not out.exists()


class TestParsingDiagnostics:
    def test_missing_input_file(self, tmp_path, capsys):
        code, out = run_cli(
            tmp_path, "--function", "feature-based", "--k", "1", input_text=None
        )
        assert code == 1
        assert "cannot read input" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_input(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "--function", "feature-based", "--k", "1", input_text="\n\n")
        assert code == 1
        assert "empty dataset" in capsys.readouterr().err

    def test_ragged_rows(self, tmp_path, capsys):
        code, _ = run_cli(
            tmp_path, "--function", "feature-based", "--k", "1", input_text="1,2\n3,4,5\n"
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "in.csv:2" in err and "expected 2 fields, got 3" in err

    def test_non_numeric_cell(self, tmp_path, capsys):
        code, _ = run_cli(
            tmp_path, "--function", "feature-based", "--k", "1", input_text="1,2\n3,oops\n"
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "in.csv:2" in err and "oops" in err

    def test_blank_lines_are_skipped(self, tmp_path):
        code, out = run_cli(
            tmp_path, "--function", "feature-based", "--k", "1",
            input_text="\n4,9\n\n1,0\n",
        )
        assert code == 0
        assert out.read_text().splitlines()[1] == "0,0,5"


class TestFlagValidation:
    CASES = [
        (["--function", "feature-based", "--k", "1", "--similarity", "cosine"], "--similarity"),
        (["--function", "feature-based", "--k", "1", "--format", "triples"], "triples"),
        (["--function", "facility-location", "--k", "1", "--similarity", "precomputed",
          "--concave", "log"], "--concave"),
        (["--function", "facility-location", "--k", "1"], "--similarity"),
        (["--function", "facility-location", "--k", "1", "--similarity", "cosine",
          "--format", "triples"], "precomputed"),
        (["--function", "feature-based", "--k", "0"], "--k"),
    ]

    @pytest.mark.parametrize("args,needle", CASES)
    def test_invalid_combinations(self, tmp_path, capsys, args, needle):
        code, out = run_cli(tmp_path, *args, input_text=F2_CSV)
        assert code == 1
        assert needle in capsys.readouterr().err
        assert not out.exists()

    def test_parallelism_flag_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                tmp_path, "--function", "feature-based", "--k", "1", "--parallelism", "2",
                input_text=F2_CSV,
            )
        assert exc.value.code == 2
        assert "unrecognized arguments: --parallelism" in capsys.readouterr().err

    def test_header_requires_csv_format(self, tmp_path, capsys):
        code, _ = run_cli(
            tmp_path,
            "--function", "facility-location", "--similarity", "precomputed",
            "--format", "triples", "--header", "--k", "1",
            input_text="n=1\n0,0,1.0\n", input_name="in.txt",
        )
        assert code == 1
        assert "--header" in capsys.readouterr().err

    def test_unknown_choice_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--function", "feature-based", "--k", "1", "--format", "arrow",
                  "--input", "x", "--output", "y"])


class TestInitialFile:
    def test_forces_selection_prefix(self, tmp_path):
        init = tmp_path / "init.txt"
        init.write_text("1  # keep this one\n\n")
        in_path = tmp_path / "in.csv"
        in_path.write_text(F2_CSV)
        out_path = tmp_path / "out.csv"
        code = main([
            "--function", "feature-based", "--k", "2",
            "--initial", str(init),
            "--input", str(in_path), "--output", str(out_path),
        ])
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[1].startswith("0,1,")
        assert lines[2].startswith("1,0,")

    def test_comment_lines_are_skipped(self, tmp_path):
        init = tmp_path / "init.txt"
        init.write_text("# forced picks\n  # none yet\n\n1 # the second row\n")
        in_path = tmp_path / "in.csv"
        in_path.write_text(F2_CSV)
        out_path = tmp_path / "out.csv"
        code = main([
            "--function", "feature-based", "--k", "1",
            "--initial", str(init),
            "--input", str(in_path), "--output", str(out_path),
        ])
        assert code == 0
        assert out_path.read_text().splitlines()[1].startswith("0,1,")

    def test_bad_index_line(self, tmp_path, capsys):
        init = tmp_path / "init.txt"
        init.write_text("zero\n")
        in_path = tmp_path / "in.csv"
        in_path.write_text(F2_CSV)
        code = main([
            "--function", "feature-based", "--k", "1",
            "--initial", str(init),
            "--input", str(in_path), "--output", str(tmp_path / "out.csv"),
        ])
        assert code == 1
        assert "init.txt:1" in capsys.readouterr().err

    def test_out_of_range_index_fails_cleanly(self, tmp_path, capsys):
        init = tmp_path / "init.txt"
        init.write_text("7\n")
        in_path = tmp_path / "in.csv"
        in_path.write_text(F2_CSV)
        code = main([
            "--function", "feature-based", "--k", "1",
            "--initial", str(init),
            "--input", str(in_path), "--output", str(tmp_path / "out.csv"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "out of range" in err
        assert "init.txt:1: initial index 7 out of range for 2 examples" in err

    @pytest.mark.parametrize("text, needle", [
        ("1\n\n1  # again\n", "init.txt:3: initial indices must be distinct"),
        ("0\n# two picks\n1\n0\n", "init.txt:4: initial indices must be distinct"),
        ("0\n1\n\n5\n", "init.txt:4: 3 initial indices exceed the selection size k = 2"),
    ], ids=["repeat", "repeat-after-a-comment", "more-than-k"])
    def test_rejected_indices_name_file_and_line(self, tmp_path, capsys, text, needle):
        init = tmp_path / "init.txt"
        init.write_text(text)
        code, out = run_cli(
            tmp_path, "--function", "feature-based", "--k", "2", "--initial", str(init),
            input_text=F2_CSV,
        )
        assert code == 1
        assert needle in capsys.readouterr().err
        assert not out.exists()


class TestOutputContract:
    def test_failure_leaves_existing_output_untouched(self, tmp_path, capsys):
        out_path = tmp_path / "out.csv"
        out_path.write_text("sentinel\n")
        in_path = tmp_path / "in.csv"
        in_path.write_text("1,-2\n")
        code = main([
            "--function", "feature-based", "--k", "1",
            "--input", str(in_path), "--output", str(out_path),
        ])
        assert code == 1
        assert out_path.read_text() == "sentinel\n"
        capsys.readouterr()

    def test_no_temp_files_left_behind(self, tmp_path):
        code, out = run_cli(
            tmp_path, "--function", "feature-based", "--k", "2", input_text=F2_CSV
        )
        assert code == 0
        leftovers = [p.name for p in tmp_path.iterdir() if p.name.startswith(".subsel-")]
        assert leftovers == []

    def test_byte_identical_across_runs_and_knobs(self, tmp_path):
        rng = np.random.default_rng(127)
        text = "\n".join(",".join(f"{v:.12f}" for v in row) for row in rng.uniform(size=(40, 6)))
        outputs = set()
        for _ in range(3):
            code, out = run_cli(
                tmp_path, "--function", "feature-based", "--k", "10", input_text=text,
            )
            assert code == 0
            outputs.add(out.read_bytes())
        assert len(outputs) == 1

    def test_verbose_progress_on_stderr_only(self, tmp_path, capsys):
        code, out = run_cli(
            tmp_path, "--function", "feature-based", "--k", "2", "--verbose",
            input_text=F2_CSV,
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "step=0" in captured.err
        assert captured.out == ""
        assert out.read_text().startswith("rank,index,gain\n")


class TestModuleEntryPoint:
    def test_python_dash_m_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "subsel", "--help"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert "--function" in proc.stdout

    def test_missing_required_flag_is_a_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "subsel", "--k", "1"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
