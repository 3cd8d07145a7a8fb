"""Property and fuzz tests for ``ingest``.

Valid cells must read back bit for bit as the values written, in any of
the spellings a file may use.  Malformed files must fail as one
``IngestError`` whose problems each name a file and a line, never as a raw
exception.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surrank.dataio import IngestSpec, ingest
from surrank.errors import IngestError

GROUPS = {"unpaired": ("treated", "control"), "paired": ("post", "pre")}
GROUP_COLUMN = {"unpaired": "arm", "paired": "timepoint"}
MISSING_TOKENS = ("", "na", "nan", "null", "none")


def _spell(x: float, form: str, pad: str) -> str:
    if form == "repr":
        text = repr(x)
    elif form == "signed":
        text = repr(x) if np.signbit(x) else "+" + repr(x)
    elif form == "exponent":
        text = f"{x:.17e}"
    else:
        text = f"{x:.17E}"
    return pad + text + pad[::-1]


cells = st.tuples(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(("repr", "signed", "exponent", "EXPONENT")),
    st.sampled_from(("", " ", "\t", "  \t")),
).map(lambda c: (c[0], _spell(*c)))


def _rows(design, n_a, n_b):
    """(subject, group) keys of a study, one row per key."""
    a, b = GROUPS[design]
    if design == "paired":
        return [(f"u{i}", g) for i in range(n_a) for g in (a, b)]
    return [(f"t{i}", a) for i in range(n_a)] + [(f"c{i}", b) for i in range(n_b)]


def _write(path, header, rows):
    """A comma-separated file; no header makes it empty."""
    lines = [] if header is None else [header, *rows]
    path.write_text("".join(",".join(fields) + "\n" for fields in lines))
    return str(path)


@given(design=st.sampled_from(sorted(GROUPS)), n_a=st.integers(2, 5), n_b=st.integers(2, 5),
       p=st.integers(1, 4), data=st.data())
def test_valid_cells_read_back_as_float_reads_them(tmp_path_factory, design, n_a, n_b, p,
                                                   data):
    tmp = tmp_path_factory.mktemp("spell")
    keys = _rows(design, n_a, n_b)
    drawn = data.draw(st.lists(st.lists(cells, min_size=p + 1, max_size=p + 1),
                               min_size=len(keys), max_size=len(keys)))
    group = GROUP_COLUMN[design]
    resp = _write(tmp / "resp.csv", ["subject", group, "response"],
                  [[s, g, row[0][1]] for (s, g), row in zip(keys, drawn)])
    cand = _write(tmp / "cand.csv", ["subject", group, *(f"m{j}" for j in range(p))],
                  [[s, g, *(text for _, text in row[1:])] for (s, g), row in zip(keys, drawn)])
    back = ingest(IngestSpec(resp, cand, design=design))

    a, b = GROUPS[design]
    for label, response, candidates in ((a, back.response_a, back.candidates_a),
                                        (b, back.response_b, back.candidates_b)):
        rows = [row for (_, g), row in zip(keys, drawn) if g == label]
        expected = np.array([[float(text) for _, text in row] for row in rows])
        exact = np.array([[x for x, _ in row] for row in rows])
        got = np.column_stack([response, candidates])
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
        assert np.array_equal(got.view(np.int64), exact.view(np.int64))


def _mixed_case(token, flips):
    return "".join(c.upper() if f else c for c, f in zip(token, flips))


bad_values = st.one_of(
    st.tuples(st.sampled_from(MISSING_TOKENS), st.lists(st.booleans(), min_size=4, max_size=4),
              st.sampled_from(("", " ", "\t"))).map(
        lambda t: t[2] + _mixed_case(t[0], t[1]) + t[2]),
    st.sampled_from(("nan", "NaN", "-nan", "inf", "-inf", "Infinity", "+INF", "1e400",
                     "-1e999", "1..5", "0x10", "3,0", "five")),
)

MUTATIONS = ("short_row", "long_row", "bad_value", "duplicate", "one_timepoint",
             "renamed_subject", "empty", "header_only")


@pytest.mark.parametrize("design, mutation", [
    (design, mutation) for design in sorted(GROUPS) for mutation in MUTATIONS
    if design == "paired" or mutation != "one_timepoint"])
@pytest.mark.parametrize("target", ["resp", "cand"])
@settings(max_examples=15)
@given(n=st.integers(2, 4), p=st.integers(1, 3), data=st.data())
def test_malformed_files_fail_with_file_and_line(tmp_path_factory, design, mutation, target,
                                                 n, p, data):
    tmp = tmp_path_factory.mktemp("fuzz")
    keys = _rows(design, n, n)
    rng = np.random.default_rng(len(keys) * 10 + p)
    group = GROUP_COLUMN[design]
    values = rng.normal(size=(len(keys), p + 1)).tolist()
    tables = {
        "resp": [["subject", group, "response"],
                 [[s, g, repr(v[0])] for (s, g), v in zip(keys, values)]],
        "cand": [["subject", group, *(f"m{j}" for j in range(p))],
                 [[s, g, *map(repr, v[1:])] for (s, g), v in zip(keys, values)]],
    }
    header, rows = tables[target]
    k = data.draw(st.integers(0, len(rows) - 1))
    line = k + 2  # the header is line 1
    if mutation == "short_row":
        rows[k] = rows[k][:-1]
    elif mutation == "long_row":
        rows[k] = [*rows[k], "0.5"]
    elif mutation == "bad_value":
        rows[k][data.draw(st.integers(2, len(header) - 1))] = data.draw(bad_values)
    elif mutation == "duplicate":
        rows.append(list(rows[k]))
        line = len(rows) + 1
    elif mutation == "one_timepoint":
        subject = rows[k][0]
        del rows[k]
        line = 2 + next(i for i, row in enumerate(rows) if row[0] == subject)
    elif mutation == "renamed_subject":
        # the subject is then in one file only, reported at its first line
        subject = rows[k][0]
        for row in rows:
            if row[0] == subject:
                row[0] = "zz"
        line = 2 + next(i for i, row in enumerate(rows) if row[0] == "zz")
    elif mutation == "header_only":
        rows.clear()
        line = 1
    else:
        tables[target] = (None, [])
        line = 1

    paths = {name: _write(tmp / f"{name}.csv", *table) for name, table in tables.items()}

    try:
        ingest(IngestSpec(paths["resp"], paths["cand"], design=design))
    except IngestError as err:
        message = str(err)
    else:
        raise AssertionError(f"{mutation} in {target} was accepted")
    assert f"{paths[target]}:{line}: " in message
    problems = message.splitlines()
    if problems[0] == "ingestion failed:":
        problems = [p.strip() for p in problems[1:] if not p.strip().startswith("...")]
    located = re.compile(r"^(%s|%s):\d+: " % tuple(map(re.escape, paths.values())))
    assert all(located.match(problem) for problem in problems), problems


@pytest.mark.parametrize("token", ["", " ", "NA", "na", "nA", "NaN", "nan", " NAN ", "-nan",
                                   "NULL", "null", "Null", "None", "none", "NONE", "inf",
                                   "-inf", "Infinity", "+INF", "1e400", "five"])
@pytest.mark.parametrize("in_candidates", [False, True])
def test_every_missing_or_non_finite_token_is_reported_at_its_cell(tmp_path, token,
                                                                   in_candidates):
    keys = _rows("unpaired", 3, 3)
    resp_rows = [[s, g, repr(0.5 + i)] for i, (s, g) in enumerate(keys)]
    cand_rows = [[s, g, repr(1.5 * i), repr(-2.0 * i)] for i, (s, g) in enumerate(keys)]
    (cand_rows[4] if in_candidates else resp_rows[4])[-1] = token
    resp = _write(tmp_path / "resp.csv", ["subject", "arm", "response"], resp_rows)
    cand = _write(tmp_path / "cand.csv", ["subject", "arm", "m0", "m1"], cand_rows)
    path, column = (cand, "m1") if in_candidates else (resp, "response")
    with pytest.raises(IngestError) as excinfo:
        ingest(IngestSpec(resp, cand))
    assert (f"{path}:6: missing or non-numeric value {token!r} in column {column!r}"
            in str(excinfo.value))
