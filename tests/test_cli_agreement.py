"""The ``subsel`` command and the selectors accept, reject and rank alike.

Each generated input is a small CSV or triples file, with or without an
``--initial`` file. The same values go to the selectors as arrays. Both
sides must fail together, or succeed with the same ranking and the same
gain bytes (the CLI prints 17 significant digits, which parse back exactly).
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from subsel import (
    FacilityLocationSelector,
    FeatureBasedSelector,
    InputError,
    sparse_from_triples,
)
from subsel.cli import main

# Values that are fine, zero, negative, huge (their sums overflow) or not finite.
VALUES = [0.0, -0.0, 0.25, 1.0, 3.5, 1e-300, 1e308, -1.0, math.nan, math.inf, -math.inf]
CASES = [
    ("feature-based", "sqrt", "csv"),
    ("feature-based", "log", "csv"),
    ("facility-location", "precomputed", "csv"),
    ("facility-location", "precomputed", "triples"),
    ("facility-location", "squared-correlation", "csv"),
    ("facility-location", "cosine", "csv"),
]


def _rows(data, n, d):
    """``n`` rows of ``d`` values. Two inputs in three hold only fine values;
    the rest draw some cells from all of VALUES. A row is at times constant
    or all zero."""
    fine = st.floats(0.0, 10.0) | st.sampled_from(VALUES[:6])
    clean = data.draw(st.sampled_from([True, True, False]), label="clean")
    value = fine if clean else fine | st.sampled_from(VALUES)
    rows = []
    for _ in range(n):
        shape = data.draw(st.sampled_from(["drawn"] * 10 + ["constant", "zero"]))
        if shape == "drawn":
            rows.append(data.draw(st.lists(value, min_size=d, max_size=d)))
        else:
            rows.append([data.draw(fine) if shape == "constant" else 0.0] * d)
    return rows


def _library(function, kind, k, initial, make_data):
    """What the selectors make of the input: ``"error"`` or (ranking, gain bytes)."""
    try:
        if function == "feature-based":
            selector = FeatureBasedSelector(k, concave=kind, initial=initial)
        else:
            selector = FacilityLocationSelector(k, similarity=kind, initial=initial)
        selector.fit(make_data())
    except (InputError, IndexError):
        return "error"
    return selector.ranking_, np.array(selector.gains_).tobytes()


def _command(tmp, function, kind, fmt, k, initial, text):
    """What ``subsel`` makes of the same input, read back from its output file."""
    (tmp / "in.txt").write_text(text)
    args = ["--function", function, "--k", str(k), "--format", fmt,
            "--input", str(tmp / "in.txt"), "--output", str(tmp / "out.csv")]
    args += ["--concave", kind] if function == "feature-based" else ["--similarity", kind]
    if initial is not None:
        (tmp / "initial.txt").write_text("".join(f"{i!r}\n" for i in initial))
        args += ["--initial", str(tmp / "initial.txt")]
    if main(args) != 0:
        assert not (tmp / "out.csv").exists()
        return "error"
    lines = (tmp / "out.csv").read_text().splitlines()
    assert lines[0] == "rank,index,gain"
    fields = [line.split(",") for line in lines[1:]]
    return (tuple(int(index) for _, index, _ in fields),
            np.array([float(gain) for _, _, gain in fields]).tobytes())


@given(st.data(), st.sampled_from(CASES))
@settings(max_examples=300, deadline=None)
def test_command_and_selectors_agree(tmp_path_factory, data, case):
    function, kind, fmt = case
    n = data.draw(st.integers(1, 6), label="n")
    k = data.draw(st.integers(1, n + 1), label="k")
    # Mostly no initial file; else one to three indices, mostly in range,
    # at times repeated, more than k of them, out of range or not an integer.
    index = (st.integers(0, n - 1) | st.integers(0, n - 1) | st.integers(-1, n)
             | st.sampled_from([0.5, 1.5]))
    initial = data.draw(st.none() | st.none() | st.lists(index, min_size=1, max_size=3),
                        label="initial")
    if fmt == "triples":
        # Entries are drawn from every cell, and at times from a row past n.
        cells = [(i, j) for i in range(n + data.draw(st.integers(0, 1))) for j in range(n)]
        picked = data.draw(st.lists(st.sampled_from(cells), max_size=2 * n, unique=True))
        value = st.floats(0.0, 10.0) | st.sampled_from(VALUES)
        triples = [(i, j, data.draw(value)) for i, j in picked]
        text = f"n={n}\n" + "".join(f"{i},{j},{v!r}\n" for i, j, v in triples)
        make_data = lambda: sparse_from_triples(n, triples)
    else:
        d = n if kind == "precomputed" else data.draw(st.integers(1, 4), label="d")
        rows = _rows(data, n, d)
        text = "".join(",".join(repr(v) for v in row) + "\n" for row in rows)
        make_data = lambda: np.array(rows)
    tmp = tmp_path_factory.mktemp("agree")
    expected = _library(function, kind, k, initial, make_data)
    assert _command(tmp, function, kind, fmt, k, initial, text) == expected
