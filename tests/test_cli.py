"""Tests for the command-line interface."""

from pathlib import Path

import numpy as np
import pytest

from surrank.cli import main
from surrank.dataio import IngestSpec, ingest, read_table, write_dataset, write_table
from surrank.pipeline import Dataset, ScreeningRow


@pytest.fixture()
def files(tmp_path):
    rng = np.random.default_rng(77)
    n1, n0 = 40, 36
    y1 = rng.normal(2.5, 1.0, n1)
    y0 = rng.normal(0.0, 1.0, n0)
    good1 = np.column_stack([y1 + rng.normal(0, 0.6, n1) for _ in range(2)])
    good0 = np.column_stack([y0 + rng.normal(0, 0.6, n0) for _ in range(2)])
    noise1 = rng.normal(1.0, 1.0, (n1, 3))
    noise0 = rng.normal(1.0, 1.0, (n0, 3))
    names = ("goodA", "goodB", "noiseA", "noiseB", "noiseC")
    data = Dataset.unpaired(y1, y0, np.hstack([good1, noise1]),
                            np.hstack([good0, noise0]), names=names)
    resp = tmp_path / "resp.csv"
    cand = tmp_path / "cand.csv"
    write_dataset(data, str(resp), str(cand))
    return tmp_path, str(resp), str(cand)


def base(resp, cand):
    return ["--response", resp, "--candidates", cand]


def test_test_subcommand_writes_result_row(files, capsys):
    tmp_path, resp, cand = files
    out = tmp_path / "res.csv"
    rc = main(["test", *base(resp, cand), "--name", "goodA", "--out", str(out)])
    assert rc == 0
    assert "goodA:" in capsys.readouterr().out
    fields, rows = read_table(str(out))
    assert fields[0] == "marker"
    assert rows[0]["marker"] == "goodA"
    assert 0.0 <= float(rows[0]["p_value"]) <= 1.0


def test_test_subcommand_requires_name_for_multiple_candidates(files, capsys):
    _, resp, cand = files
    assert main(["test", *base(resp, cand)]) == 1
    assert "--name" in capsys.readouterr().err
    assert main(["test", *base(resp, cand), "--name", "nope"]) == 1


def test_test_subcommand_defaults_to_only_candidate(tmp_path, capsys):
    resp = tmp_path / "r.csv"
    cand = tmp_path / "c.csv"
    rows = ["subject,arm,response"] + [f"a{i},treated,{2 + 0.1 * i}" for i in range(5)] \
        + [f"b{i},control,{0.1 * i}" for i in range(5)]
    resp.write_text("\n".join(rows) + "\n")
    rows = ["subject,arm,g1"] + [f"a{i},treated,{1 + 0.1 * i}" for i in range(5)] \
        + [f"b{i},control,{0.05 * i}" for i in range(5)]
    cand.write_text("\n".join(rows) + "\n")
    assert main(["test", *base(str(resp), str(cand))]) == 0
    assert "g1:" in capsys.readouterr().out


def test_screen_subcommand_writes_table_and_selection(files, capsys):
    tmp_path, resp, cand = files
    table = tmp_path / "screen.csv"
    chosen = tmp_path / "sel.txt"
    rc = main(["screen", *base(resp, cand), "--correction", "bonferroni",
               "--out", str(table), "--selected-out", str(chosen)])
    assert rc == 0
    fields, rows = read_table(str(table))
    assert fields == ["name", "delta", "ci_lower", "ci_upper", "sigma",
                      "raw_p", "adjusted_p"]
    assert len(rows) == 5
    listed = chosen.read_text().split()
    assert set(listed) <= {r["name"] for r in rows}
    assert "selected" in capsys.readouterr().out


def test_rise_subcommand_emits_all_report_files(files):
    tmp_path, resp, cand = files
    out = tmp_path / "run"
    rc = main(["rise", *base(resp, cand), "--seed", "5", "--out", str(out)])
    assert rc == 0
    for name in ("screening.csv", "selected.txt", "weights.csv",
                 "evaluation.csv", "volcano.csv", "scatter.csv"):
        assert (out / name).exists()
    _, eval_rows = read_table(str(out / "evaluation.csv"))
    assert eval_rows[0]["marker"] == "gamma"
    # the selected members are re-tested individually with the same margin
    assert len(eval_rows) == 1 + len((out / "selected.txt").read_text().split())
    shared = {row["epsilon"] for row in eval_rows}
    assert len(shared) == 1
    _, weight_rows = read_table(str(out / "weights.csv"))
    assert all(float(r["weight"]) > 0 for r in weight_rows)


def test_rise_and_screen_build_no_screening_rows(files, monkeypatch, capsys):
    tmp_path, resp, cand = files
    built = []
    init = ScreeningRow.__init__
    monkeypatch.setattr(ScreeningRow, "__init__",
                        lambda self, *fields: built.append(fields[0]) or init(self, *fields))
    assert main(["rise", *base(resp, cand), "--seed", "5", "--out", str(tmp_path / "run")]) == 0
    assert main(["screen", *base(resp, cand), "--out", str(tmp_path / "screen.csv")]) == 0
    assert built == []
    assert (tmp_path / "run" / "selected.txt").read_text()


def test_identical_invocation_is_byte_identical(files):
    tmp_path, resp, cand = files
    first = tmp_path / "a"
    second = tmp_path / "b"
    for out in (first, second):
        assert main(["rise", *base(resp, cand), "--seed", "9", "--out", str(out)]) == 0
    for name in ("screening.csv", "selected.txt", "weights.csv",
                 "evaluation.csv", "volcano.csv", "scatter.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()

    sims = [tmp_path / "s1.csv", tmp_path / "s2.csv"]
    for out in sims:
        assert main(["simulate", "--p-total", "5", "--n1", "20", "--n0", "20",
                     "--n-sim", "5", "--seed", "4", "--out", str(out)]) == 0
    assert sims[0].read_bytes() == sims[1].read_bytes()


GOLDEN_RISE = Path(__file__).parent / "data" / "golden_rise"
GOLDEN_FLAGS = {
    "unpaired": ["--power", "0.8"],
    "paired": ["--correction", "by", "--mode", "tost", "--epsilon", "0.15"],
}


@pytest.mark.parametrize("design", sorted(GOLDEN_FLAGS))
def test_rise_reproduces_golden_artifacts(tmp_path, design):
    """``rise`` on a fixed study writes the committed artifacts byte for byte.

    The inputs were written by ``write_dataset`` from seeded synthetic
    studies (some columns rounded to give ties, one flat column), and the
    artifacts are committed ``rise`` output, so any drift in a parser or a
    writer fails here.
    """
    source = GOLDEN_RISE / design
    resp, cand = str(source / "response.csv"), str(source / "candidates.csv")
    out = tmp_path / "run"
    assert main(["rise", *base(resp, cand), "--design", design, *GOLDEN_FLAGS[design],
                 "--seed", "3", "--out", str(out)]) == 0
    for name in ("screening.csv", "selected.txt", "weights.csv",
                 "evaluation.csv", "volcano.csv", "scatter.csv"):
        assert (out / name).read_bytes() == (source / "artifacts" / name).read_bytes(), name

    # the inputs are themselves write_dataset output, so a re-write matches too
    write_dataset(ingest(IngestSpec(resp, cand, design=design)),
                  str(tmp_path / "resp.csv"), str(tmp_path / "cand.csv"))
    assert (tmp_path / "resp.csv").read_bytes() == (source / "response.csv").read_bytes()
    assert (tmp_path / "cand.csv").read_bytes() == (source / "candidates.csv").read_bytes()


@pytest.mark.parametrize("seed, warned", [(3, True), (0, False)])
def test_rise_warns_on_stderr_when_the_derived_margin_is_zero(tmp_path, capsys, seed, warned):
    # split seed 3 of the paired golden study leaves an evaluation margin of 0, seed 0 does not
    source = GOLDEN_RISE / "paired"
    resp, cand = str(source / "response.csv"), str(source / "candidates.csv")
    assert main(["rise", *base(resp, cand), "--design", "paired", "--seed", str(seed),
                 "--out", str(tmp_path / "run")]) == 0
    out, err = capsys.readouterr()
    lines = [line for line in err.splitlines() if line.startswith("warning:")]
    assert len(lines) == (1 if warned else 0)
    assert ("epsilon=0 " in out) == warned
    if warned:
        assert "derived margin is 0 at 15 + 15 observations" in lines[0]
        assert "passes only if the marker significantly beats the response" in lines[0]


def test_evaluate_warns_on_stderr_when_the_derived_margin_is_zero(tmp_path, capsys):
    # a response with no treatment effect leaves no room for a margin
    rng = np.random.default_rng(5)
    data = Dataset.unpaired(rng.normal(size=12), rng.normal(size=10), rng.normal(size=(12, 1)),
                            rng.normal(size=(10, 1)), names=["m"])
    resp, cand, weights = (str(tmp_path / name) for name in ("r.csv", "c.csv", "w.csv"))
    write_dataset(data, resp, cand)
    write_table(weights, ("name", "weight"), [{"name": "m", "weight": 1.0}])
    assert main(["evaluate", *base(resp, cand), "--weights", weights]) == 0
    out, err = capsys.readouterr()
    assert "epsilon=0 " in out
    warnings = [line for line in err.splitlines() if line.startswith("warning:")]
    assert len(warnings) == 1 and "derived margin is 0 at 12 + 10 observations" in warnings[0]
    assert main(["evaluate", *base(resp, cand), "--weights", weights, "--mode", "tost"]) == 0
    assert "so the test cannot pass" in capsys.readouterr().err
    assert main(["evaluate", *base(resp, cand), "--weights", weights, "--epsilon", "0.1"]) == 0
    assert "warning:" not in capsys.readouterr().err


def test_evaluate_does_not_pass_a_constant_combination(tmp_path, capsys):
    rng = np.random.default_rng(9)
    data = Dataset.unpaired(rng.normal(1, 1, 100), rng.normal(0, 1, 100),
                            np.full((100, 1), 2.0), np.full((100, 1), 2.0), names=["constant"])
    resp, cand, weights = (str(tmp_path / name) for name in ("r.csv", "c.csv", "w.csv"))
    write_dataset(data, resp, cand)
    write_table(weights, ("name", "weight"), [{"name": "constant", "weight": 1.0}])
    assert main(["evaluate", *base(resp, cand), "--weights", weights, "--epsilon", "0.4"]) == 0
    out = capsys.readouterr().out
    assert "u_marker=0.5 " in out and "p=1 (no rejection)" in out


def test_simulate_does_not_take_epsilon_for_epsilon_mode(tmp_path, capsys):
    assert main(["simulate", "--epsilon", "0.02", "--n-sim", "2",
                 "--out", str(tmp_path / "sim.csv")]) == 1
    assert "unrecognized arguments: --epsilon 0.02" in capsys.readouterr().err
    # full flag names, from the command line or a config file, still work
    config = tmp_path / "sim.cfg"
    config.write_text("epsilon_mode=adaptive\nn_sim=2\np_total=5\n")
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "a.csv")]) == 0
    assert main(["simulate", "--epsilon-mode", "adaptive", "--n-sim", "2", "--p-total", "5",
                 "--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_evaluate_subcommand_uses_weights_file(files, capsys):
    tmp_path, resp, cand = files
    weights = tmp_path / "w.csv"
    write_table(str(weights), ("name", "weight"),
                [{"name": "goodA", "weight": 2.0}, {"name": "goodB", "weight": 1.0}])
    out = tmp_path / "eval.csv"
    rc = main(["evaluate", *base(resp, cand), "--weights", str(weights),
               "--mode", "tost", "--out", str(out)])
    assert rc == 0
    _, rows = read_table(str(out))
    assert rows[0]["marker"] == "gamma"
    assert "gamma:" in capsys.readouterr().out

    bad = tmp_path / "bad.csv"
    write_table(str(bad), ("name", "weight"), [{"name": "ghost", "weight": 1.0}])
    assert main(["evaluate", *base(resp, cand), "--weights", str(bad)]) == 2
    noweight = tmp_path / "now.csv"
    noweight.write_text("name\ngoodA\n")
    assert main(["evaluate", *base(resp, cand), "--weights", str(noweight)]) == 2


@pytest.mark.parametrize("command", ["evaluate", "report"])
@pytest.mark.parametrize("second_row", ["goodB,-1", "goodB,0", "goodB,nan", "goodB,inf",
                                        "goodA,2"])
def test_weights_file_rejects_what_the_combination_rejects(files, capsys, command,
                                                            second_row):
    # a weight that is not positive and finite, or a name listed twice
    tmp_path, resp, cand = files
    weights = tmp_path / "w.csv"
    weights.write_text(f"name,weight\ngoodA,1\n{second_row}\n")
    name = second_row.split(",")[0]
    rc = main([command, *base(resp, cand), "--weights", str(weights),
               "--out", str(tmp_path / "out.csv")])
    assert rc == 2
    assert f"{weights}:3: candidate {name!r}" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_report_subcommand_emits_rank_scatter(files, capsys):
    tmp_path, resp, cand = files
    weights = tmp_path / "w.csv"
    write_table(str(weights), ("name", "weight"),
                [{"name": "goodA", "weight": 1.0}])
    out = tmp_path / "scatter.csv"
    rc = main(["report", *base(resp, cand), "--weights", str(weights),
               "--out", str(out)])
    assert rc == 0
    fields, rows = read_table(str(out))
    assert fields == ["subject", "block", "response_rank", "marker_rank"]
    assert len(rows) == 76
    assert "spearman_rho" in capsys.readouterr().out


def test_simulate_evaluation_stage_writes_long_format(files, tmp_path):
    out = tmp_path / "ev.csv"
    rc = main(["simulate", "--stage", "evaluation", "--set-size", "4",
               "--rho-grid", "0,1", "--n", "15", "--n-sim", "4",
               "--seed", "2", "--out", str(out)])
    assert rc == 0
    fields, rows = read_table(str(out))
    assert "rho_invalid" in fields
    assert len(rows) == 8
    assert {r["metric"] for r in rows} == {"p_value"}

    assert main(["simulate", "--stage", "evaluation", "--rho-grid", "0,huh",
                 "--out", str(out)]) == 1


@pytest.mark.parametrize("args, message", [
    (["--stage", "screening", "--sigma-corr", "-0.1"], "sigma_corr must be >= 0"),
    (["--stage", "evaluation", "--sigma-corr", "-0.1"], "sigma_corr must be >= 0"),
    (["--stage", "evaluation", "--n", "1"], "need at least 2 per arm"),
], ids=["screening sigma_corr", "evaluation sigma_corr", "evaluation n"])
def test_simulate_stages_reject_the_same_bad_settings(tmp_path, capsys, args, message):
    out = tmp_path / "sim.csv"
    assert main(["simulate", *args, "--n-sim", "2", "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_epsilon_conflicts_with_explicit_power(files, capsys):
    _, resp, cand = files
    rc = main(["test", *base(resp, cand), "--name", "goodA",
               "--epsilon", "0.1", "--power", "0.8"])
    assert rc == 1
    assert "conflicts" in capsys.readouterr().err
    # epsilon alone is fine
    assert main(["test", *base(resp, cand), "--name", "goodA",
                 "--epsilon", "0.1"]) == 0


def test_two_row_file_is_a_data_error(tmp_path, capsys):
    resp = tmp_path / "r.csv"
    cand = tmp_path / "c.csv"
    resp.write_text("subject,arm,response\na1,treated,3.0\nb1,control,1.0\n")
    cand.write_text("subject,arm,g1\na1,treated,1.0\nb1,control,0.2\n")
    assert main(["test", *base(str(resp), str(cand))]) == 2
    assert "data error" in capsys.readouterr().err


def test_ingestion_problems_exit_with_data_code(tmp_path):
    resp = tmp_path / "r.csv"
    cand = tmp_path / "c.csv"
    resp.write_text("subject,arm,response\na1,treated,3.0\nb1,control,1.0\n")
    cand.write_text("subject,arm,g1\na1,treated,\nb1,control,0.2\n")
    assert main(["test", *base(str(resp), str(cand))]) == 2
    assert main(["test", "--response", str(tmp_path / "nope.csv"),
                 "--candidates", str(cand)]) == 2


def test_config_file_supplies_defaults_and_flags_win(files, capsys):
    tmp_path, resp, cand = files
    conf = tmp_path / "conf.txt"
    conf.write_text("alpha=0.01\ncorrection=by\n# a comment\n\n")
    rc = main(["screen", *base(resp, cand), "--config", str(conf)])
    assert rc == 0
    assert "alpha=0.01" in capsys.readouterr().out

    rc = main(["screen", *base(resp, cand), "--config", str(conf), "--alpha", "0.2"])
    assert rc == 0
    assert "alpha=0.2" in capsys.readouterr().out


def test_config_file_problems_are_usage_errors(files, capsys):
    tmp_path, resp, cand = files
    bad = tmp_path / "bad.txt"
    bad.write_text("no equals sign\n")
    assert main(["screen", *base(resp, cand), "--config", str(bad)]) == 1

    unknown = tmp_path / "unknown.txt"
    unknown.write_text("bogus=1\n")
    assert main(["screen", *base(resp, cand), "--config", str(unknown)]) == 1
    assert "bogus" in capsys.readouterr().err

    assert main(["screen", *base(resp, cand), "--config",
                 str(tmp_path / "missing.txt")]) == 1
    assert main(["screen", *base(resp, cand), "--config"]) == 1


def test_paired_design_flows_through_cli(tmp_path, capsys):
    rng = np.random.default_rng(3)
    n = 30
    post = rng.normal(2.0, 1.0, n)
    pre = rng.normal(0.0, 1.0, n)
    data = Dataset.paired(post, pre, (post + rng.normal(0, 0.5, n))[:, None],
                          (pre + rng.normal(0, 0.5, n))[:, None], names=("g1",))
    resp = tmp_path / "r.csv"
    cand = tmp_path / "c.csv"
    write_dataset(data, str(resp), str(cand))
    rc = main(["test", *base(str(resp), str(cand)), "--design", "paired"])
    assert rc == 0
    assert "g1:" in capsys.readouterr().out


def test_missing_command_and_help(capsys):
    assert main([]) == 1
    assert main(["--help"]) == 0
    assert "test" in capsys.readouterr().out


def test_unknown_correction_is_usage_error(files):
    _, resp, cand = files
    assert main(["screen", *base(resp, cand), "--correction", "fancy"]) == 1


def test_unknown_design_is_usage_error_naming_both_designs(files, capsys):
    _, resp, cand = files
    assert main(["screen", *base(resp, cand), "--design", "crossover"]) == 1
    err = capsys.readouterr().err
    assert all(name in err for name in ("crossover", "unpaired", "paired"))
