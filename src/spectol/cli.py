"""Command line front end.

Subcommands: sample, embed, sweep, cluster-stability, check.  Exit code 0 on
success, 2 for usage errors (argparse's convention), 1 for runtime failures
with a one-line diagnostic on stderr.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ._util import json_text, write_rows
from .errors import SpectolError
from .experiments import (
    DEFAULT_TOLERANCES,
    graph_source,
    ingest_edge_list,
    load_sweep_config,
    model_from_keys,
    parse_tolerances,
    resolve_dimension,
    run_clustering_stability,
    run_tolerance_sweep,
    summary_path,
    sweep_config_from_dict,
    write_edge_list,
    write_run,
)
from .graph_model import check_assumptions
from .spectral_core import truncated_eigs
from .tolerance import HEURISTIC_RULES, report_from_solve, solve_at_heuristic


def _add_sbm_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sizes", help="comma-separated block sizes, e.g. 300,300,300"
    )
    parser.add_argument("--b-diag", type=float, help="within-block edge probability")
    parser.add_argument(
        "--b-off", type=float, help="between-block edge probability (default 0)"
    )
    parser.add_argument(
        "--b", help="full block matrix, rows separated by ';', e.g. 0.05,0.02;0.02,0.05"
    )


def _model(args):
    """The model the flags name: --graph's edge list or the block model flags."""
    keys = dict(vars(args))
    keys["edge_list"] = keys.pop("graph", None)
    return model_from_keys(keys)


def _report(output, summary: dict) -> None:
    if output:
        print(f"records -> {output}")
        print(f"summary -> {summary_path(output)}")
    else:
        print(json_text(summary), end="")


def _dimension(text: str):
    """argparse type of --dim: 'auto' or an integer >= 1."""
    if text == "auto":
        return text
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected 'auto' or an integer >= 1, got {text!r}"
        )
    return int(text)


def _seed(text: str) -> int:
    """argparse type of --seed: an integer >= 0."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return seed


def _k_range(text: str) -> tuple[int, ...]:
    """argparse type of --k-range: comma-separated integers >= 2."""
    parts = [part.strip() for part in text.split(",")]
    if not all(part.isdecimal() and int(part) >= 2 for part in parts):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers >= 2, got {text!r}"
        )
    return tuple(int(part) for part in parts)


def _cmd_sample(args) -> int:
    _, draw = graph_source(_model(args))
    graph = draw(args.seed)
    write_edge_list(
        args.out, graph, header={"n": graph.n, "m": graph.m, "seed": args.seed}
    )
    print(f"wrote {graph.m} edges on {graph.n} vertices to {args.out}")
    return 0


def _cmd_embed(args) -> int:
    if args.tol is not None:
        # a bad tolerance fails before the file is read or a pilot runs
        parse_tolerances(args.tol, "--tol")
    graph = ingest_edge_list(args.graph).graph
    d = resolve_dimension(args.dim, graph, args.seed)
    if args.tol is not None:
        dec = truncated_eigs(graph, d, args.tol, seed=args.seed)
    else:
        rule = args.tol_heuristic or "spectral"
        dec = solve_at_heuristic(graph, d, rule, seed=args.seed)
    values_path = Path(str(args.out) + ".values.csv")
    vectors_path = Path(str(args.out) + ".vectors.csv")
    write_rows(values_path, "%.17g\n", dec.values)
    write_rows(vectors_path, ",".join(["%.17g"] * dec.values.size) + "\n", dec.vectors)
    status = "converged" if dec.converged else "NOT converged"
    print(
        f"{status}: d={d} tol={dec.tolerance_used:.6g} iterations={dec.iterations} "
        f"matvecs={dec.matvecs} residual={dec.residual:.6g}"
    )
    print(f"values -> {values_path}")
    print(f"vectors -> {vectors_path}")
    return 0 if dec.converged else 1


# the config key each sweep flag sets, where the two names differ
_SWEEP_KEYS = {"graph": "edge_list", "dim": "d", "timing": "record_timing",
               "out": "output"}


def _cmd_sweep(args) -> int:
    # no sweep flag has a default of its own, so a flag is given when it is set
    given = {key: value for key, value in sorted(vars(args).items())
             if value is not None and key not in ("command", "func", "config")}
    if args.config and given:
        flags = ", ".join("--" + key.replace("_", "-") for key in given)
        print(f"error: --config takes no other flags, got {flags}", file=sys.stderr)
        return 2
    if args.config:
        config = load_sweep_config(args.config)
    else:
        data = {_SWEEP_KEYS.get(key, key): value for key, value in given.items()}
        config = sweep_config_from_dict(data)
    _, summary = run_tolerance_sweep(config)
    _report(config.output, summary)
    return 0


def _cmd_cluster_stability(args) -> int:
    # bad tolerances fail before the graph is drawn, the rest before the pilot
    tolerances = parse_tolerances(args.tolerances)
    (reference_tol,) = parse_tolerances(args.reference_tol, "--reference-tol")
    _, draw = graph_source(_model(args))
    records, summary = run_clustering_stability(
        draw(args.seed),
        args.dim,
        tolerances,
        reference_tol=reference_tol,
        seed=args.seed,
        repetitions=args.repetitions,
        k_range=args.k_range,
    )
    if args.out:
        write_run(args.out, records, summary)
    _report(args.out, summary)
    return 0


def _cmd_check(args) -> int:
    spec = _model(args)
    P, draw = graph_source(spec)
    d = spec.k if args.dim == "auto" else args.dim
    graph = draw(args.seed)
    # lambda_1 comes from the d-dimensional solve embed starts from
    solve = solve_at_heuristic(graph, d, "conservative", seed=args.seed)
    report = report_from_solve(graph, solve)
    assumptions = check_assumptions(P, d)
    payload = {
        "n": graph.n,
        "m": graph.m,
        "delta_A": report.delta_A,
        "lambda1_hat": report.spectral_norm_estimate,
        "gamma": assumptions.gamma,
        "heuristic_spectral": report.heuristic_spectral,
        "heuristic_sqrt_n": report.heuristic_sqrt_n,
        "conservative": report.conservative,
        "rank_check": assumptions.rank_matches,
        "gamma_check": assumptions.gamma_check,
        "delta_check": assumptions.delta_check,
    }
    text = json_text(payload)
    if args.out:
        write_rows(args.out, "", (), text)
        print(f"report -> {args.out}")
    else:
        print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectol",
        description="Truncated spectral decomposition of sparse graphs "
        "with noise-calibrated stopping tolerances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample an SBM graph to an edge-list file")
    _add_sbm_arguments(p)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True, help="edge-list output path")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("embed", help="embed a graph from an edge-list file")
    p.add_argument("--graph", required=True, help="edge-list input path")
    p.add_argument(
        "--dim", type=_dimension, default="auto", help="embedding dimension or 'auto'"
    )
    tol = p.add_mutually_exclusive_group()
    tol.add_argument("--tol", type=float, help="explicit stopping tolerance")
    # no default: argparse's exclusion check passes a value that is the
    # default object itself, as an interned "spectral" would be
    tol.add_argument(
        "--tol-heuristic",
        choices=HEURISTIC_RULES,
        help="tolerance rule used when --tol is absent (default spectral)",
    )
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True, help="output prefix for values/vectors")
    p.set_defaults(func=_cmd_embed)

    # no sweep flag has a default: the flags are config keys, whose defaults
    # apply, and a flag next to --config is an error, not silently ignored
    p = sub.add_parser("sweep", help="paired tolerance sweep")
    p.add_argument("--config", help="JSON or key=value config file (no other flags)")
    _add_sbm_arguments(p)
    p.add_argument("--graph", help="edge-list input path (instead of SBM flags)")
    p.add_argument("--dim", type=_dimension)
    p.add_argument("--tolerances", help="e.g. 2^-1..2^-20 or 0.5,0.25,1e-6")
    p.add_argument("--replicates", type=int)
    p.add_argument("--seed", type=_seed)
    p.add_argument("--workers", type=int)
    switch = {"action": "store_true", "default": None}
    p.add_argument("--scaled", **switch, help="also compare scaled embeddings")
    p.add_argument("--timing", **switch, help="record wall-clock times")
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("cluster-stability", help="embed-then-cluster stability study")
    _add_sbm_arguments(p)
    p.add_argument("--graph", help="edge-list input path (instead of SBM flags)")
    p.add_argument("--dim", type=_dimension, default="auto")
    p.add_argument("--tolerances", default=DEFAULT_TOLERANCES, help="e.g. 2^-1..2^-14")
    p.add_argument("--reference-tol", type=float, default=1e-6)
    p.add_argument("--repetitions", type=int, default=10)
    p.add_argument(
        "--k-range", type=_k_range, default=(2, 3, 4, 5, 6),
        help="candidate cluster counts, e.g. 2,3,4",
    )
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=_cmd_cluster_stability)

    p = sub.add_parser("check", help="tolerance report and model assumption checks")
    _add_sbm_arguments(p)
    p.add_argument(
        "--dim", type=_dimension, default="auto",
        help="embedding dimension (default: block count)",
    )
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", help="JSON output path (default: stdout)")
    p.set_defaults(func=_cmd_check)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return int(exit_.code or 0)
    try:
        return args.func(args)
    except (SpectolError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(cli_main())
