"""Tests for delimited-text ingestion and report emission."""

import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from surrank import dataio
from surrank.dataio import (
    IngestSpec,
    default_delimiter,
    format_screening_table,
    ingest,
    rank_scatter,
    read_table,
    write_dataset,
    write_evaluation_summary,
    write_rank_scatter,
    write_screening_table,
    write_selected,
    write_table,
    write_volcano,
    write_weights,
)
from surrank.errors import IngestError
from surrank.inference import TestConfig, surrogate_test
from surrank.pipeline import CombinedSurrogate, Dataset, ScreeningReport, screen
from surrank.rankstats import u_statistic


def awkward_dataset(design):
    rng = np.random.default_rng(404)
    resp_a = rng.normal(2.0, 1.3, 9)
    resp_b = rng.normal(0.0, 0.7, 9 if design == "paired" else 7)
    resp_a[0] = 0.1 + 0.2  # not exactly representable as a short decimal
    resp_b[1] = -1e-17
    cands_a = rng.normal(size=(9, 3)) * 1e6
    cands_b = rng.normal(size=(resp_b.size, 3))
    names = ("geneA", "geneB", "geneC")
    if design == "paired":
        return Dataset.paired(resp_a, resp_b, cands_a, cands_b, names=names)
    return Dataset.unpaired(resp_a, resp_b, cands_a, cands_b, names=names)


@pytest.mark.parametrize("design", ["unpaired", "paired"])
def test_round_trip_preserves_values_and_statistics(tmp_path, design):
    data = awkward_dataset(design)
    spec = write_dataset(data, str(tmp_path / "resp.csv"), str(tmp_path / "cand.csv"))
    back = ingest(spec)

    assert back.design == data.design
    assert back.names == data.names
    assert back.ids_a == data.ids_a
    assert back.ids_b == data.ids_b
    assert np.array_equal(back.response_a, data.response_a)
    assert np.array_equal(back.response_b, data.response_b)
    assert np.array_equal(back.candidates_a, data.candidates_a)
    assert np.array_equal(back.candidates_b, data.candidates_b)

    assert u_statistic(back.response_sample()).value == u_statistic(data.response_sample()).value
    for name in data.names:
        assert (u_statistic(back.candidate_sample(name)).value
                == u_statistic(data.candidate_sample(name)).value)


def test_tab_delimiter_is_inferred_from_extension(tmp_path):
    assert default_delimiter("x.tsv") == "\t"
    assert default_delimiter("x.csv") == ","
    data = awkward_dataset("unpaired")
    spec = write_dataset(data, str(tmp_path / "resp.tsv"), str(tmp_path / "cand.tsv"))
    assert "\t" in (tmp_path / "resp.tsv").read_text()
    back = ingest(spec)
    assert np.array_equal(back.response_a, data.response_a)


def test_paired_ingestion_keys_on_timepoint_labels_not_row_order(tmp_path):
    resp = tmp_path / "resp.csv"
    cand = tmp_path / "cand.csv"
    resp.write_text(
        "subject,timepoint,response\n"
        "u2,pre,1.5\n"
        "u1,post,9.0\n"
        "u2,post,7.0\n"
        "u1,pre,2.5\n"
    )
    cand.write_text(
        "subject,timepoint,g1\n"
        "u1,pre,0.25\n"
        "u2,post,4.0\n"
        "u1,post,3.0\n"
        "u2,pre,0.5\n"
    )
    data = ingest(IngestSpec(str(resp), str(cand), design="paired"))
    # subject order follows first appearance in the response file
    assert data.ids_a == ("u2", "u1")
    assert np.array_equal(data.response_a, [7.0, 9.0])
    assert np.array_equal(data.response_b, [1.5, 2.5])
    assert np.array_equal(data.candidates_a[:, 0], [4.0, 3.0])
    assert np.array_equal(data.candidates_b[:, 0], [0.5, 0.25])


def base_files(tmp_path, cand_lines=None, resp_lines=None):
    resp = tmp_path / "resp.csv"
    cand = tmp_path / "cand.csv"
    resp.write_text(resp_lines if resp_lines is not None else (
        "subject,arm,response\n"
        "a1,treated,3.0\n"
        "a2,treated,4.0\n"
        "b1,control,1.0\n"
        "b2,control,0.5\n"
    ))
    cand.write_text(cand_lines if cand_lines is not None else (
        "subject,arm,g1,g2\n"
        "a1,treated,1.0,2.0\n"
        "a2,treated,1.5,2.5\n"
        "b1,control,0.1,0.2\n"
        "b2,control,0.3,0.4\n"
    ))
    return IngestSpec(str(resp), str(cand))


def test_missing_cell_is_rejected_with_row_context(tmp_path):
    spec = base_files(
        tmp_path,
        cand_lines=(
            "subject,arm,g1,g2\n"
            "a1,treated,1.0,2.0\n"
            "a2,treated,,2.5\n"
            "b1,control,0.1,0.2\n"
            "b2,control,0.3,0.4\n"
        ),
    )
    with pytest.raises(IngestError, match=r"cand\.csv:3.*'g1'"):
        ingest(spec)


def test_non_numeric_cell_is_rejected_with_row_context(tmp_path):
    spec = base_files(
        tmp_path,
        resp_lines=(
            "subject,arm,response\n"
            "a1,treated,3.0\n"
            "a2,treated,high\n"
            "b1,control,1.0\n"
            "b2,control,0.5\n"
        ),
    )
    with pytest.raises(IngestError, match=r"resp\.csv:3.*'high'"):
        ingest(spec)


def test_duplicate_subject_group_is_rejected(tmp_path):
    spec = base_files(
        tmp_path,
        resp_lines=(
            "subject,arm,response\n"
            "a1,treated,3.0\n"
            "a1,treated,3.5\n"
            "b1,control,1.0\n"
        ),
        cand_lines=(
            "subject,arm,g1,g2\n"
            "a1,treated,1.0,2.0\n"
            "b1,control,0.1,0.2\n"
        ),
    )
    with pytest.raises(IngestError, match="duplicate entry for subject 'a1'"):
        ingest(spec)


def test_unmatched_subjects_between_files_are_rejected(tmp_path):
    spec = base_files(
        tmp_path,
        cand_lines=(
            "subject,arm,g1,g2\n"
            "a1,treated,1.0,2.0\n"
            "a2,treated,1.5,2.5\n"
            "b1,control,0.1,0.2\n"
            "b9,control,0.3,0.4\n"
        ),
    )
    with pytest.raises(IngestError) as excinfo:
        ingest(spec)
    assert "'b2'" in str(excinfo.value)
    assert "'b9'" in str(excinfo.value)


def test_paired_subject_with_one_timepoint_is_rejected(tmp_path):
    resp = tmp_path / "resp.csv"
    cand = tmp_path / "cand.csv"
    resp.write_text(
        "subject,timepoint,response\n"
        "u1,post,9.0\n"
        "u1,pre,2.5\n"
        "u2,post,7.0\n"
    )
    cand.write_text(
        "subject,timepoint,g1\n"
        "u1,post,3.0\n"
        "u1,pre,0.25\n"
        "u2,post,4.0\n"
    )
    with pytest.raises(IngestError, match="subject 'u2' has only"):
        ingest(IngestSpec(str(resp), str(cand), design="paired"))


def test_unknown_group_label_is_rejected(tmp_path):
    spec = base_files(
        tmp_path,
        resp_lines=(
            "subject,arm,response\n"
            "a1,treated,3.0\n"
            "b1,placebo,1.0\n"
        ),
        cand_lines=(
            "subject,arm,g1,g2\n"
            "a1,treated,1.0,2.0\n"
            "b1,control,0.1,0.2\n"
        ),
    )
    with pytest.raises(IngestError, match="unknown 'arm' label 'placebo'"):
        ingest(spec)


def test_subject_in_both_arms_is_rejected(tmp_path):
    spec = base_files(
        tmp_path,
        resp_lines=(
            "subject,arm,response\n"
            "a1,treated,3.0\n"
            "a1,control,1.0\n"
            "b1,control,0.5\n"
        ),
        cand_lines=(
            "subject,arm,g1,g2\n"
            "a1,treated,1.0,2.0\n"
            "b1,control,0.1,0.2\n"
        ),
    )
    with pytest.raises(IngestError, match="both arms"):
        ingest(spec)


def test_inconsistent_arm_across_files_is_rejected(tmp_path):
    spec = base_files(
        tmp_path,
        cand_lines=(
            "subject,arm,g1,g2\n"
            "a1,treated,1.0,2.0\n"
            "a2,control,1.5,2.5\n"
            "b1,control,0.1,0.2\n"
            "b2,control,0.3,0.4\n"
        ),
    )
    with pytest.raises(IngestError, match="'a2'"):
        ingest(spec)


def test_missing_columns_and_empty_files_are_rejected(tmp_path):
    spec = base_files(tmp_path, resp_lines="subject,arm\na1,treated\n")
    with pytest.raises(IngestError, match="'response'"):
        ingest(spec)

    spec = base_files(tmp_path, cand_lines="subject,arm\na1,treated\n")
    with pytest.raises(IngestError, match="no candidate columns"):
        ingest(spec)

    spec = base_files(tmp_path, cand_lines="subject,arm,g1,g2\n")
    with pytest.raises(IngestError, match="no data rows"):
        ingest(spec)

    missing = IngestSpec(str(tmp_path / "nope.csv"), spec.candidates_path)
    with pytest.raises(IngestError, match="cannot open"):
        ingest(missing)


def test_header_names_are_stripped_and_matched_by_position(tmp_path):
    spec = base_files(
        tmp_path,
        resp_lines=(
            "subject, arm, response\n"
            "a1,treated,3.0\n"
            "a2,treated,4.0\n"
            "b1,control,1.0\n"
            "b2,control,0.5\n"
        ),
        cand_lines=(
            " subject ,arm ,g1, g2\n"
            " a1,treated ,1.0,2.0\n"
            "a2 , treated,1.5,2.5\n"
            "b1,control,0.1,0.2\n"
            "b2,control,0.3,0.4\n"
        ),
    )
    data = ingest(spec)
    assert data.names == ("g1", "g2")
    assert data.ids_a == ("a1", "a2")
    assert np.array_equal(data.response_b, [1.0, 0.5])
    assert np.array_equal(data.candidates_a, [[1.0, 2.0], [1.5, 2.5]])


def test_duplicate_column_name_is_one_header_error(tmp_path):
    spec = base_files(
        tmp_path,
        cand_lines=(
            "subject,arm,g1,g2,g1\n"
            "a1,treated,1.0,2.0,3.0\n"
            "a2,treated,1.5,2.5,3.5\n"
            "b1,control,0.1,0.2,0.3\n"
            "b2,control,0.3,0.4,0.5\n"
        ),
    )
    with pytest.raises(IngestError, match=r"^\S*cand\.csv:1: duplicate column name\(s\) 'g1'$"):
        ingest(spec)


def test_empty_column_name_is_one_header_error(tmp_path):
    # a trailing delimiter on every line gives the header an empty last name
    spec = base_files(
        tmp_path,
        cand_lines=(
            "subject,arm,g1,g2,\n"
            "a1,treated,1.0,2.0,\n"
            "a2,treated,1.5,2.5,\n"
            "b1,control,0.1,0.2,\n"
            "b2,control,0.3,0.4,\n"
        ),
    )
    with pytest.raises(IngestError,
                       match=r"^\S*cand\.csv:1: empty column name at position\(s\) 5$"):
        ingest(spec)


def test_unreadable_files_are_ingest_errors(tmp_path):
    spec = base_files(tmp_path)
    (tmp_path / "cand.csv").write_bytes(b"subject,arm,g1\na1,treated,\xff\n")
    with pytest.raises(IngestError, match=r"cand\.csv:\d+: unreadable text"):
        ingest(spec)
    # longer than the csv module's field size limit
    (tmp_path / "cand.csv").write_text("subject,arm,g1\na1,treated,1\n"
                                       f"b1,control,{'7' * 200_000}\n")
    with pytest.raises(IngestError, match=r"cand\.csv:3: unreadable row"):
        ingest(spec)


def test_hash_in_labels_and_names_is_not_a_comment(tmp_path):
    spec = base_files(
        tmp_path,
        resp_lines=(
            "subject,arm,response\n"
            "s#1,treated,3.0\n"
            "a2,treated,4.0\n"
            "b1,control,1.0\n"
            "b#2,control,0.5\n"
        ),
        cand_lines=(
            "subject,arm,g1,gene#2\n"
            "s#1,treated,1.0,2.0\n"
            "a2,treated,1.5,2.5\n"
            "b1,control,0.1,0.2\n"
            "b#2,control,0.3,0.4\n"
        ),
    )
    data = ingest(spec)
    assert data.names == ("g1", "gene#2")
    assert data.ids_a == ("s#1", "a2")
    assert data.ids_b == ("b1", "b#2")
    assert np.array_equal(data.response_a, [3.0, 4.0])
    assert np.array_equal(data.candidates_a, [[1.0, 2.0], [1.5, 2.5]])
    assert np.array_equal(data.candidates_b, [[0.1, 0.2], [0.3, 0.4]])


@pytest.mark.parametrize("token", ["1_000", "١"])
@pytest.mark.parametrize("in_candidates", [False, True])
def test_digit_separators_and_non_ascii_digits_are_rejected(tmp_path, token, in_candidates):
    # Python's float reads both; numpy's C reader reads neither
    spec = base_files(tmp_path)
    target, column = ("cand", "g2") if in_candidates else ("resp", "response")
    path = tmp_path / f"{target}.csv"
    lines = path.read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0] + "," + token
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IngestError) as excinfo:
        ingest(spec)
    assert (f"{path}:4: missing or non-numeric value {token!r} in column {column!r}"
            in str(excinfo.value))


def test_c_reader_failure_without_a_located_problem_is_still_an_ingest_error(
        tmp_path, monkeypatch):
    # a rescan that finds nothing must not let the file through
    monkeypatch.setattr(dataio, "_is_number", lambda text: True)
    spec = base_files(tmp_path, cand_lines=("subject,arm,g1,g2\n"
                                            "a1,treated,1.0,2.0\n"
                                            "a2,treated,1_5,2.5\n"
                                            "b1,control,0.1,0.2\n"
                                            "b2,control,0.3,0.4\n"))
    with pytest.raises(IngestError, match=r"\n  \S*cand\.csv: could not convert string '1_5'"):
        ingest(spec)


@pytest.mark.parametrize("relation", ["more", "fewer"])
@pytest.mark.parametrize("target", ["resp", "cand"])
def test_every_row_wider_or_narrower_than_the_header_is_reported(tmp_path, relation,
                                                                 target):
    spec = base_files(tmp_path)
    path = tmp_path / f"{target}.csv"
    header, *rows = path.read_text().splitlines()
    # every row has the same width, so only the header tells them apart
    rows = [row + ",9.0" if relation == "more" else row.rsplit(",", 1)[0] for row in rows]
    path.write_text("\n".join([header, *rows]) + "\n")
    with pytest.raises(IngestError) as excinfo:
        ingest(spec)
    message = str(excinfo.value)
    for line in range(2, len(rows) + 2):
        assert f"{path}:{line}: row has {relation} fields than the header" in message


@pytest.mark.parametrize("text", ["", "subject,arm,g1,g2\n", "subject,arm,g1,g2\r\n\r\n\n"])
def test_empty_or_header_only_file_fails_at_line_one_without_a_warning(tmp_path, text):
    spec = base_files(tmp_path, cand_lines=text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IngestError, match=r"^\S*cand\.csv:1: "):
            ingest(spec)


def test_line_break_inside_a_quoted_cell_is_read_and_later_lines_keep_their_numbers(
        tmp_path):
    resp_lines = ('subject,arm,response\n'
                  'a1,treated,3.0\n'
                  '"a\n2",treated,4.0\n'
                  'b1,control,1.0\n'
                  'b2,control,0.5\n')
    cand_lines = ('subject,arm,g1,g2\n'
                  'a1,treated,1.0,2.0\n'
                  '"a\n2",treated,"1.5\n",2.5\n'
                  'b1,control,0.1,0.2\n'
                  'b2,control,0.3,0.4\n')
    spec = base_files(tmp_path, cand_lines, resp_lines)
    data = ingest(spec)
    assert data.ids_a == ("a1", "a\n2")
    assert np.array_equal(data.response_a, [3.0, 4.0])
    assert np.array_equal(data.candidates_a, [[1.0, 2.0], [1.5, 2.5]])

    # a row's line is the last physical line it reaches, in both passes
    base_files(tmp_path, cand_lines.replace("0.3,0.4", "0.3,oops"), resp_lines)
    with pytest.raises(IngestError,
                       match=r"cand\.csv:7: missing or non-numeric value 'oops' in column 'g2'"):
        ingest(spec)
    base_files(tmp_path, cand_lines.replace("b2,", "zz,"), resp_lines)
    with pytest.raises(IngestError,
                       match=r"cand\.csv:7: subject 'zz' is not in \S*resp\.csv"):
        ingest(spec)


def test_labels_reach_the_converters_as_text_under_numpy_1_defaults(tmp_path, monkeypatch):
    # before numpy 2, loadtxt's default encoding='bytes' handed converters latin-1 bytes
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *args, encoding="bytes", **kwargs:
                        loadtxt(*args, encoding=encoding, **kwargs))
    resp_lines = ("subject,arm,response\n"
                  "被験者1,treated,3.0\n"
                  "a2,treated,4.0\n"
                  "b1,control,1.0\n"
                  "b2,control,0.5\n")
    cand_lines = resp_lines.replace("response", "g1")
    data = ingest(base_files(tmp_path, cand_lines, resp_lines))
    assert data.ids_a == ("被験者1", "a2")
    assert np.array_equal(data.candidates_a[:, 0], data.response_a)


def test_a_file_the_c_reader_rejects_reports_every_row_problem_at_once(tmp_path):
    spec = base_files(tmp_path, cand_lines=("subject,arm,g1,g2\n"
                                            "a1,treated,1.0,2.0\n"
                                            "a2,treated,oops,2.5\n"
                                            ",treated,1.0,2.0\n"
                                            "b1,placebo,0.1,0.2\n"
                                            "b2,control,0.3,0.4\n"
                                            "b2,control,0.3\n"
                                            "a1,treated,1.0,2.0\n"))
    with pytest.raises(IngestError) as excinfo:
        ingest(spec)
    path, message = spec.candidates_path, str(excinfo.value)
    for problem in (f"{path}:3: missing or non-numeric value 'oops' in column 'g1'",
                    f"{path}:4: empty 'subject' cell",
                    f"{path}:5: unknown 'arm' label 'placebo'",
                    f"{path}:7: row has fewer fields than the header",
                    f"{path}:8: duplicate entry for subject 'a1' with arm 'treated' "
                    f"(first seen at line 2)"):
        assert problem in message


def test_blank_lines_crlf_and_quotes_keep_values_and_line_numbers(tmp_path):
    data = awkward_dataset("unpaired")
    plain = write_dataset(data, str(tmp_path / "resp.csv"), str(tmp_path / "cand.csv"))
    header, *rows = (tmp_path / "cand.csv").read_text().splitlines()
    quoted = ['"' + row.replace(",", '","') + '"' for row in rows]
    # data rows 1-4 on lines 2-5, a blank line 6, data row k + 1 on line k + 3 after it
    lines = [header, *quoted[:4], "", *quoted[4:]]
    fancy = tmp_path / "fancy.csv"
    fancy.write_bytes(("\r\n".join(lines) + "\r\n").encode())
    spec = IngestSpec(plain.response_path, str(fancy))

    back, expected = ingest(spec), ingest(plain)
    assert back.names == expected.names
    assert (back.ids_a, back.ids_b) == (expected.ids_a, expected.ids_b)
    for name in ("response_a", "response_b", "candidates_a", "candidates_b"):
        assert getattr(back, name).tobytes() == getattr(expected, name).tobytes()

    k = 7
    subject = rows[k].split(",")[0]
    lines[k + 2] = lines[k + 2].replace(f'"{subject}"', '"renamed"')
    fancy.write_bytes(("\r\n".join(lines) + "\r\n").encode())
    with pytest.raises(IngestError) as excinfo:
        ingest(spec)
    assert f"{fancy}:{k + 3}: subject 'renamed' is not in {plain.response_path}" in str(
        excinfo.value)


def test_spec_validation():
    with pytest.raises(IngestError, match="'crossover'"):
        IngestSpec("r.csv", "c.csv", design="crossover")
    with pytest.raises(IngestError, match="labels must differ"):
        IngestSpec("r.csv", "c.csv", group_a="x", group_b="x")


def columns_report(names, u_candidate, delta, sigma, ci_lower, ci_upper, raw_p, adjusted_p,
                   selected):
    """A hand-built unpaired report from its columns, none degenerate."""
    return ScreeningReport(
        tuple(names), *(np.array(column, dtype=float) for column in (
            u_candidate, delta, sigma, ci_lower, ci_upper, raw_p, adjusted_p)),
        np.zeros(len(names), dtype=bool), tuple(selected), epsilon_used=0.2, method="bh",
        alpha=0.05, mode="noninferiority", design="unpaired", u_response=0.95, n_a=20, n_b=20)


def manual_report():
    return columns_report(names=("g1", "g2", "g3"), u_candidate=(0.9, 0.6, 0.88),
                          delta=(0.05, 0.35, 0.07), sigma=(0.02, 0.05, 0.03),
                          ci_lower=(0.01, 0.25, 0.0), ci_upper=(0.09, 0.45, 0.14),
                          raw_p=(0.001, 0.4, 0.002), adjusted_p=(0.003, 0.6, 0.003),
                          selected=("g1", "g3"))


@st.composite
def tied_reports(draw):
    """Hand-built reports whose adjusted p-values and absolute gaps tie often."""
    names = draw(st.lists(st.text(alphabet=st.sampled_from("aAbé中ß\x00"), min_size=1,
                                  max_size=3), min_size=1, max_size=12, unique=True))
    column = st.lists(st.sampled_from([0.0, -0.0, 0.25, -0.25, 0.5]), min_size=len(names),
                      max_size=len(names))
    pvalues = st.lists(st.sampled_from([0.0, 0.01, 1.0]), min_size=len(names),
                       max_size=len(names))
    delta, adjusted = draw(column), draw(pvalues)
    return columns_report(names, [0.5] * len(names), delta, [0.1] * len(names), delta, delta,
                          adjusted, adjusted, selected=())


@given(tied_reports(), st.integers(0, 12))
def test_screening_table_and_its_rendering_follow_the_evidence_order(report, limit):
    expected = sorted(report.names, key=lambda name: (report.row(name).adjusted_p,
                                                      abs(report.row(name).delta), name))
    assert [report.names[j] for j in report.evidence_order()] == expected
    rendered = format_screening_table(report, limit=limit).splitlines()[1:]
    assert [line.split()[0] for line in rendered] == expected[:limit]


def test_screening_table_round_trips_at_full_precision(tmp_path):
    report = manual_report()
    path = tmp_path / "screen.csv"
    write_screening_table(report, str(path))
    fields, rows = read_table(str(path))
    assert fields == ["name", "delta", "ci_lower", "ci_upper", "sigma", "raw_p", "adjusted_p"]
    # adjusted p ties break by absolute gap, so g1 precedes g3
    assert [r["name"] for r in rows] == ["g1", "g3", "g2"]
    assert float(rows[0]["delta"]) == 0.05
    assert float(rows[2]["adjusted_p"]) == 0.6


def test_selected_list_and_weights(tmp_path):
    report = manual_report()
    selected = tmp_path / "selected.txt"
    write_selected(report, str(selected))
    assert selected.read_text() == "g1\ng3\n"

    combined = CombinedSurrogate(
        members=("g1", "g3"), weights=(20.0, 1 / 0.07),
        standardization=((0.5, 1.25), (0.2, 2.5)), degenerate_members=("g3",),
    )
    path = tmp_path / "weights.csv"
    write_weights(combined, str(path))
    _, rows = read_table(str(path))
    assert [r["name"] for r in rows] == ["g1", "g3"]
    assert float(rows[1]["weight"]) == 1 / 0.07
    assert rows[0]["degenerate"] == "false"
    assert rows[1]["degenerate"] == "true"


def test_evaluation_summary_lists_markers_with_metrics(tmp_path):
    response = awkward_dataset("unpaired").response_sample()
    marker = awkward_dataset("unpaired").candidate_sample("geneA")
    res = surrogate_test(response, marker, TestConfig(epsilon=0.3))
    path = tmp_path / "eval.csv"
    write_evaluation_summary([("gamma", res)], str(path))
    fields, rows = read_table(str(path))
    assert fields[:3] == ["marker", "u_response", "u_marker"]
    assert rows[0]["marker"] == "gamma"
    assert float(rows[0]["p_value"]) == res.p_value
    assert rows[0]["reject"] in ("true", "false")


def test_evaluation_summary_writes_a_whole_number_margin_as_a_float(tmp_path):
    response = awkward_dataset("unpaired").response_sample()
    marker = awkward_dataset("unpaired").candidate_sample("geneA")
    res = surrogate_test(response, marker, TestConfig(epsilon=0))
    assert type(res.epsilon) is float
    path = tmp_path / "eval.csv"
    write_evaluation_summary([("gamma", res)], str(path))
    assert read_table(str(path))[1][0]["epsilon"] == "0.0"


def test_volcano_data_handles_zero_adjusted_p(tmp_path):
    report = columns_report(names=("g1", "g2"), u_candidate=(0.9, 0.6), delta=(0.05, 0.35),
                            sigma=(0.02, 0.05), ci_lower=(0.01, 0.25), ci_upper=(0.09, 0.45),
                            raw_p=(0.0, 0.5), adjusted_p=(0.0, 1.0), selected=("g1",))
    path = tmp_path / "volcano.csv"
    write_volcano(report, str(path))
    _, out = read_table(str(path))
    assert float(out[0]["neg_log10_adjusted_p"]) == np.inf
    assert float(out[1]["neg_log10_adjusted_p"]) == 0.0


def test_rank_scatter_matches_hand_computed_spearman(tmp_path):
    x = np.array([1.0, 2.0, 3.0, 4.0])
    y = np.array([10.0, 30.0, 20.0, 40.0])
    rx, ry, rho = rank_scatter(x, y)
    assert np.array_equal(rx, [1, 2, 3, 4])
    assert np.array_equal(ry, [1, 3, 2, 4])
    # 1 - 6 * sum(d^2) / (n (n^2 - 1)) with d^2 summing to 2
    assert rho == pytest.approx(0.8)

    path = tmp_path / "scatter.csv"
    out_rho = write_rank_scatter(["s1", "s2", "s3", "s4"], ["post"] * 4, x, y, str(path))
    assert out_rho == pytest.approx(0.8)
    _, rows = read_table(str(path))
    assert [float(r["response_rank"]) for r in rows] == [1, 2, 3, 4]

    with pytest.raises(IngestError):
        rank_scatter(x, y[:2])


def test_rank_scatter_uses_midranks_for_ties():
    x = np.array([1.0, 2.0, 2.0, 3.0])
    rx, _, _ = rank_scatter(x, x)
    assert np.array_equal(rx, [1.0, 2.5, 2.5, 4.0])


def test_human_formatting_is_a_separate_rendering_pass():
    report = manual_report()
    text = format_screening_table(report, digits=3)
    lines = text.splitlines()
    assert lines[0].split() == list(("name", "delta", "ci_lower", "ci_upper",
                                     "sigma", "raw_p", "adjusted_p"))
    assert lines[1].startswith("g1")
    assert "0.05" in lines[1]
    assert len(format_screening_table(report, limit=1).splitlines()) == 2
    # full-precision values are untouched by formatting choices
    assert report.row("g1").delta == 0.05


def test_generic_table_round_trip(tmp_path):
    path = tmp_path / "t.tsv"
    write_table(str(path), ("a", "b"), [{"a": 1 / 3, "b": "x"}, {"a": 2.0, "b": "y"}])
    fields, rows = read_table(str(path))
    assert fields == ["a", "b"]
    assert float(rows[0]["a"]) == 1 / 3
    assert rows[1]["b"] == "y"


def test_screening_output_of_real_screen_round_trips(tmp_path):
    rng = np.random.default_rng(11)
    y1 = rng.normal(2.0, 1.0, 30)
    y0 = rng.normal(0.0, 1.0, 30)
    cands1 = np.column_stack([y1 + rng.normal(0, 0.5, 30), rng.normal(size=30)])
    cands0 = np.column_stack([y0 + rng.normal(0, 0.5, 30), rng.normal(size=30)])
    data = Dataset.unpaired(y1, y0, cands1, cands0, names=("good", "noise"))
    report = screen(data, TestConfig(), method="by")
    path = tmp_path / "screen.csv"
    write_screening_table(report, str(path))
    _, rows = read_table(str(path))
    by_name = {r["name"]: r for r in rows}
    for row in report.rows:
        assert float(by_name[row.name]["raw_p"]) == row.raw_p
        assert float(by_name[row.name]["sigma"]) == row.sigma


def test_names_and_ids_with_line_breaks_round_trip(tmp_path):
    # csv quotes a line break only if its line terminator holds one, and the writers end
    # lines in "\n"; a bare "\r" must be quoted too, or the readers split the row there
    rng = np.random.default_rng(3)
    names = ("a\rb", "c", "d\ne", "f\r\ng")
    data = Dataset.unpaired(rng.normal(size=6), rng.normal(size=5), rng.normal(size=(6, 4)),
                            rng.normal(size=(5, 4)), names=names,
                            treated_ids=[f"t\r{i}" for i in range(6)])
    report = screen(data, TestConfig())
    write_screening_table(report, str(tmp_path / "screening.csv"))
    _, rows = read_table(str(tmp_path / "screening.csv"))
    assert [r["name"] for r in rows] == [names[j] for j in report.evidence_order()]
    assert [float(r["sigma"]) for r in rows] == report.sigma[report.evidence_order()].tolist()
    back = ingest(write_dataset(data, str(tmp_path / "resp.csv"), str(tmp_path / "cand.csv")))
    assert (back.names, back.ids_a, back.ids_b) == (data.names, data.ids_a, data.ids_b)
    assert np.array_equal(back.candidates_a, data.candidates_a)
