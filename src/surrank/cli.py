"""Command-line interface.

Subcommands: ``test`` (one candidate against the response), ``screen``
(stage one over all candidates), ``evaluate`` (a weighted combination on
a dataset), ``rise`` (the full two-stage pipeline), ``simulate``
(operating-characteristic experiments), and ``report`` (rank-scatter
data for a combined marker).

Exit codes: 0 success, 1 usage or configuration problem, 2 data problem,
3 numeric failure.  A ``--config`` file supplies ``key=value`` defaults
for any long flag of the subcommand; explicit flags take precedence.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .dataio import (
    IngestSpec,
    _read_weights,
    format_screening_table,
    ingest,
    write_evaluation_summary,
    write_rank_scatter,
    write_screening_table,
    write_selected,
    write_table,
    write_volcano,
    write_weights,
)
from .errors import DataError, NumericError, SurrankError, UsageError
from .inference import TestConfig, surrogate_test
from .multitest import Method
from .pipeline import Dataset, _combined_marker, evaluate, run_pipeline, screen
from .rankstats import _DESIGNS, _stack
from .simulate import DgpConfig, run_evaluation_experiment, run_screening_experiment

_MODES = {"noninf": "noninferiority", "tost": "tost"}
_DEFAULT_POWER = 0.90
_EVALUATION_SIM_POWER = 0.80


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_data_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--response", required=True, help="response file (delimited text)")
    parser.add_argument("--candidates", required=True, help="candidates file (delimited text)")
    parser.add_argument("--design", choices=tuple(_DESIGNS), default="unpaired")
    parser.add_argument("--subject-column", default="subject")
    parser.add_argument("--group-column", default=None,
                        help="arm or timepoint column (default: arm / timepoint)")
    parser.add_argument("--group-a", default=None,
                        help="label of the treated arm or post timepoint")
    parser.add_argument("--group-b", default=None,
                        help="label of the control arm or pre timepoint")
    parser.add_argument("--response-column", default="response")
    parser.add_argument("--delimiter", default=None,
                        help="field delimiter (default: by file extension)")


def _add_test_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--power", type=float, default=None,
                        help=f"power for the adaptive margin (default {_DEFAULT_POWER})")
    parser.add_argument("--epsilon", type=float, default=None,
                        help="fixed margin, overrides the adaptive one")
    parser.add_argument("--mode", choices=tuple(_MODES), default="noninf")


def _add_config_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None,
                        help="key=value file of flag defaults")


def _build_parser() -> _Parser:
    parser = _Parser(prog="surrank",
                     description="Rank-based screening and evaluation of surrogate markers")
    commands = parser.add_subparsers(dest="command", required=True, metavar="command")

    test = commands.add_parser("test", help="test one candidate against the response")
    _add_data_flags(test)
    _add_test_flags(test)
    _add_config_flag(test)
    test.add_argument("--name", default=None,
                      help="candidate column to test (default: the only one)")
    test.add_argument("--out", default=None, help="write the result row here")
    test.set_defaults(func=_cmd_test)

    screen_cmd = commands.add_parser("screen", help="screen all candidates")
    _add_data_flags(screen_cmd)
    _add_test_flags(screen_cmd)
    _add_config_flag(screen_cmd)
    screen_cmd.add_argument("--correction", choices=("bonferroni", "bh", "by", "none"),
                            default="bh")
    screen_cmd.add_argument("--out", default=None, help="write the screening table here")
    screen_cmd.add_argument("--selected-out", default=None,
                            help="write the selected names here")
    screen_cmd.set_defaults(func=_cmd_screen)

    evaluate = commands.add_parser("evaluate",
                                   help="test a weighted combination of candidates")
    _add_data_flags(evaluate)
    _add_test_flags(evaluate)
    _add_config_flag(evaluate)
    evaluate.add_argument("--weights", required=True,
                          help="table with name and weight columns; members are "
                               "standardized on this dataset")
    evaluate.add_argument("--out", default=None, help="write the result row here")
    evaluate.set_defaults(func=_cmd_evaluate)

    rise = commands.add_parser("rise", help="run the full two-stage pipeline")
    _add_data_flags(rise)
    _add_test_flags(rise)
    _add_config_flag(rise)
    rise.add_argument("--correction", choices=("bonferroni", "bh", "by", "none"),
                      default="bh")
    rise.add_argument("--split-ratio", type=float, default=0.75)
    rise.add_argument("--seed", type=int, default=0)
    rise.add_argument("--out", required=True, help="directory for the report files")
    rise.set_defaults(func=_cmd_rise)

    simulate = commands.add_parser("simulate",
                                   help="operating-characteristic experiments")
    _add_config_flag(simulate)
    simulate.add_argument("--stage", choices=("screening", "evaluation"),
                          default="screening")
    simulate.add_argument("--alpha", type=float, default=0.05)
    simulate.add_argument("--power", type=float, default=None,
                          help=f"default {_DEFAULT_POWER} for screening, "
                               f"{_EVALUATION_SIM_POWER} for evaluation")
    simulate.add_argument("--dgp", choices=("normal", "complex"), default="normal")
    simulate.add_argument("--scenario", choices=("none_valid", "ten_pct_valid"),
                          default="none_valid")
    simulate.add_argument("--n1", type=int, default=50)
    simulate.add_argument("--n0", type=int, default=50)
    simulate.add_argument("--p-total", type=int, default=100)
    simulate.add_argument("--target-u", type=float, default=0.9)
    simulate.add_argument("--sigma-corr", type=float, default=0.0)
    simulate.add_argument("--correction", choices=("bonferroni", "bh", "by", "none"),
                          default="none")
    simulate.add_argument("--epsilon-mode", choices=("boundary", "adaptive"),
                          default="boundary",
                          help="margin per replicate: at the observed response "
                               "effect (boundary) or power-derived (adaptive)")
    simulate.add_argument("--n", type=int, default=50,
                          help="per-arm size for the evaluation stage")
    simulate.add_argument("--set-size", type=int, default=20)
    simulate.add_argument("--valid-strength", type=float, default=0.9)
    simulate.add_argument("--rho-grid", default="0,0.2,0.4,0.6,0.8,1.0",
                          help="comma-separated invalid fractions")
    simulate.add_argument("--n-sim", type=int, default=200)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--out", required=True, help="long-format metric table")
    simulate.set_defaults(func=_cmd_simulate)

    report = commands.add_parser("report",
                                 help="rank-scatter data for a combined marker")
    _add_data_flags(report)
    _add_config_flag(report)
    report.add_argument("--weights", required=True,
                        help="table with name and weight columns")
    report.add_argument("--out", required=True, help="rank-scatter table")
    report.set_defaults(func=_cmd_report)

    return parser


def _expand_config(argv: list[str]) -> list[str]:
    """Inline --config file entries as flags that explicit flags override."""
    path = None
    span = None
    for i, token in enumerate(argv):
        if token == "--config":
            if i + 1 >= len(argv):
                raise UsageError("--config needs a file path")
            path, span = argv[i + 1], (i, i + 2)
            break
        if token.startswith("--config="):
            path, span = token.split("=", 1)[1], (i, i + 1)
            break
    if path is None:
        return argv

    entries: list[str] = []
    try:
        lines = open(path).read().splitlines()
    except OSError as err:
        raise UsageError(f"cannot open config file {path}: {err}") from None
    for number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{number}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        entries += ["--" + key.strip().replace("_", "-"), value.strip()]

    rest = argv[:span[0]] + argv[span[1]:]
    at = next((i + 1 for i, token in enumerate(rest) if not token.startswith("-")), len(rest))
    return rest[:at] + entries + rest[at:]


def _spec(args) -> IngestSpec:
    return IngestSpec(
        response_path=args.response,
        candidates_path=args.candidates,
        design=args.design,
        subject_column=args.subject_column,
        group_column=args.group_column,
        group_a=args.group_a,
        group_b=args.group_b,
        response_column=args.response_column,
        delimiter=args.delimiter,
    )


def _config(args, default_power: float = _DEFAULT_POWER) -> TestConfig:
    if args.epsilon is not None and args.power is not None:
        raise UsageError("--epsilon fixes the margin, so it conflicts with --power")
    power = args.power if args.power is not None else default_power
    return TestConfig(alpha=args.alpha, power=power, epsilon=args.epsilon,
                      mode=_MODES[args.mode])


def _method(args) -> Method | None:
    return None if args.correction == "none" else args.correction


def _write_scatter(args, data: Dataset, gamma, path: str) -> float:
    """Rank-scatter table of the response against a marker aligned with ``data``."""
    spec = _spec(args)
    ids = [*data.ids_a, *data.ids_b]
    blocks = [spec.group_a] * data.n_a + [spec.group_b] * data.n_b
    _, values_a, values_b = _stack(data.response_sample(), gamma)
    values = np.concatenate([values_a, values_b])
    return write_rank_scatter(ids, blocks, values[:, 0], values[:, 1], path)


def _print_results(results) -> None:
    for label, res in results:
        verdict = "reject" if res.reject else "no rejection"
        print(f"{label}: u_response={res.u_response:.4g} u_marker={res.u_candidate:.4g} "
              f"delta={res.delta:.4g} ci=[{res.ci_lower:.4g}, {res.ci_upper:.4g}] "
              f"epsilon={res.epsilon:.4g} p={res.p_value:.4g} ({verdict})")


def _cmd_test(args) -> int:
    data = ingest(_spec(args))
    name = args.name
    if name is None:
        if data.p != 1:
            raise UsageError(f"--name is required when the candidates file has "
                             f"{data.p} columns")
        name = data.names[0]
    if name not in data._columns:
        raise UsageError(f"unknown candidate {name!r}")
    result = surrogate_test(data.response_sample(), data.candidate_sample(name),
                            _config(args))
    if args.out:
        write_evaluation_summary([(name, result)], args.out)
    _print_results([(name, result)])
    return 0


def _cmd_screen(args) -> int:
    data = ingest(_spec(args))
    report = screen(data, _config(args), _method(args))
    if args.out:
        write_screening_table(report, args.out)
    if args.selected_out:
        write_selected(report, args.selected_out)
    print(format_screening_table(report, limit=10))
    print(f"selected {len(report.selected)} of {data.p} candidates at "
          f"alpha={report.alpha:g} (epsilon={report.epsilon_used:.4g})")
    return 0


def _cmd_evaluate(args) -> int:
    data = ingest(_spec(args))
    names, weights = _read_weights(args.weights, data)
    result = evaluate(data, _combined_marker(data, names, weights)[0], _config(args))
    if args.out:
        write_evaluation_summary([("gamma", result)], args.out)
    _print_results([("gamma", result)])
    return 0


def _cmd_rise(args) -> int:
    data = ingest(_spec(args))
    result = run_pipeline(data, ratio=args.split_ratio, seed=args.seed,
                          config=_config(args), method=_method(args))
    os.makedirs(args.out, exist_ok=True)
    paths = {name.split(".")[0]: os.path.join(args.out, name)
             for name in ("screening.csv", "selected.txt", "weights.csv", "evaluation.csv",
                          "volcano.csv", "scatter.csv")}
    write_screening_table(result.screening, paths["screening"])
    write_selected(result.screening, paths["selected"])
    write_weights(result.combined, paths["weights"])
    write_evaluation_summary([("gamma", result.evaluation), *result.members],
                             paths["evaluation"])
    write_volcano(result.screening, paths["volcano"])

    rho = _write_scatter(args, result.evaluation_data, result.gamma, paths["scatter"])

    print(f"screening: u_response={result.screening.u_response:.6g} "
          f"epsilon={result.screening.epsilon_used:.6g} "
          f"selected {len(result.screening.selected)} of {data.p} candidates")
    _print_results([("gamma", result.evaluation)])
    print(f"spearman_rho {rho!r}")
    for path in paths.values():
        print(f"wrote {path}")
    return 0


def _screening_sim_rows(args, experiment):
    shared = {
        "stage": "screening",
        "dgp": args.dgp,
        "scenario": args.scenario,
        "n1": args.n1,
        "n0": args.n0,
        "p_total": args.p_total,
        "target_u_s": args.target_u,
        "sigma_corr": args.sigma_corr,
        "correction": args.correction,
        "epsilon_mode": args.epsilon_mode,
    }
    rows = []
    for replicate, metrics in enumerate(experiment.metrics):
        values = {
            "fpr": metrics.fpr,
            "fdp": metrics.fdp,
            "power": metrics.power,
            "tp": metrics.tp,
            "fp": metrics.fp,
            "tn": metrics.tn,
            "fn": metrics.fn,
        }
        rows += [{**shared, "replicate": replicate, "metric": metric, "value": value}
                 for metric, value in values.items()]
    fields = (*shared, "replicate", "metric", "value")
    return fields, rows


def _evaluation_sim_rows(args, power, experiment):
    shared = {
        "stage": "evaluation",
        "dgp": args.dgp,
        "n": args.n,
        "set_size": args.set_size,
        "valid_strength": args.valid_strength,
        "sigma_corr": args.sigma_corr,
        "power": power,
    }
    rows = []
    for g, rho in enumerate(experiment.rho_grid):
        rows += [{**shared, "rho_invalid": rho, "replicate": replicate,
                  "metric": "p_value", "value": float(p)}
                 for replicate, p in enumerate(experiment.pvalues[g])]
    fields = (*shared, "rho_invalid", "replicate", "metric", "value")
    return fields, rows


def _cmd_simulate(args) -> int:
    if args.stage == "screening":
        power = args.power if args.power is not None else _DEFAULT_POWER
        cfg = DgpConfig(dgp=args.dgp, scenario=args.scenario, n1=args.n1, n0=args.n0,
                        p_total=args.p_total, target_u_s=args.target_u,
                        sigma_corr=args.sigma_corr, seed=args.seed)
        experiment = run_screening_experiment(
            cfg, TestConfig(alpha=args.alpha, power=power), method=_method(args),
            n_sim=args.n_sim, boundary_epsilon=args.epsilon_mode == "boundary",
        )
        fields, rows = _screening_sim_rows(args, experiment)
        write_table(args.out, fields, rows)
        print(f"mean fpr={experiment.mean_fpr:.4g} fdp={experiment.mean_fdp:.4g} "
              f"power={experiment.mean_power:.4g} over {args.n_sim} replicates")
    else:
        power = args.power if args.power is not None else _EVALUATION_SIM_POWER
        try:
            rho_grid = tuple(float(r) for r in args.rho_grid.split(","))
        except ValueError:
            raise UsageError(f"--rho-grid must be comma-separated numbers, "
                             f"got {args.rho_grid!r}") from None
        experiment = run_evaluation_experiment(
            n=args.n, valid_strength=args.valid_strength, set_size=args.set_size,
            rho_grid=rho_grid, n_sim=args.n_sim, dgp=args.dgp,
            sigma_corr=args.sigma_corr, alpha=args.alpha, power=power, seed=args.seed,
        )
        fields, rows = _evaluation_sim_rows(args, power, experiment)
        write_table(args.out, fields, rows)
        fractions = " ".join(
            f"{rho:g}:{frac:.4g}"
            for rho, frac in zip(experiment.rho_grid,
                                 experiment.rejection_fraction(args.alpha))
        )
        print(f"rejection fraction by invalid share: {fractions}")
    print(f"wrote {args.out}")
    return 0


def _cmd_report(args) -> int:
    data = ingest(_spec(args))
    names, weights = _read_weights(args.weights, data)
    rho = _write_scatter(args, data, _combined_marker(data, names, weights)[0], args.out)
    print(f"spearman_rho {rho!r}")
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    try:
        raw = list(sys.argv[1:] if argv is None else argv)
        args = _build_parser().parse_args(_expand_config(raw))
        return args.func(args)
    except SystemExit as exit_request:  # --help
        code = exit_request.code
        return int(code) if code is not None else 0
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return 2
    except NumericError as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return 3
    except SurrankError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
