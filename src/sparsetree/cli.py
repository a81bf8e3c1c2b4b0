"""Command line front end.

stdout carries only requested machine output (depth-bound prints JSON there);
everything human-readable goes to stderr.  All artifact files are
byte-identical across reruns with the same inputs and seeds; wall-clock
timing enters JSON reports only behind --timing.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

from . import boosting, evaluation, guessing, trees
from .dataset import full_binarize, load_csv, read_binary_csv, write_binary_csv
from .solver import Regularizer, SolverConfig, optimize, run_report


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _or_none(value) -> str:
    return "none" if value is None else str(value)


def _depth_arg(text: str):
    if text.lower() == "none":
        return None
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("depth must be an integer or 'none'") from None
    if v < 1:
        raise argparse.ArgumentTypeError("depth must be >= 1 or 'none'")
    return v


def _add_reference_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-est", dest="n_estimators", metavar="N_EST", type=int, default=20,
                   help="reference ensemble stages")
    p.add_argument("--max-depth", type=int, default=3, help="reference weak-tree depth")
    p.add_argument("--lr", dest="learning_rate", metavar="LR", type=float, default=0.1,
                   help="reference learning rate")
    p.add_argument("--drop-tolerance", type=float, default=0.0,
                   help="allowed training correct-count drop share during elimination")


def cmd_binarize(args) -> int:
    raw = load_csv(args.data)
    bin_data = full_binarize(raw)
    write_binary_csv(bin_data, args.out)
    _log(f"binarized {raw.n_samples} samples x {raw.n_features} features "
         f"into {bin_data.n_columns} columns -> {args.out}")
    return 0


def _eliminate(args, raw):
    return guessing.column_eliminate(raw, args.n_estimators, args.max_depth, args.learning_rate,
                                     drop_tolerance=args.drop_tolerance)


def cmd_guess(args) -> int:
    raw = load_csv(args.data)
    trace = _eliminate(args, raw)
    write_binary_csv(trace.data, args.out_data)
    with open(args.out_trace, "w") as fh:
        fh.write(guessing.trace_to_json(trace))
    _log(f"eliminated {len(trace.steps)} thresholds, kept {len(trace.thresholds)} "
         f"(initial correct {trace.initial_correct}, bar {trace.stopping_bar})")
    _log(f"wrote {args.out_data} and {args.out_trace}")
    return 0


def cmd_train(args) -> int:
    data = read_binary_csv(args.data) if args.pre_binarized else load_csv(args.data)
    # check every option before binarizing or fitting, as guess and benchmark
    # do, whether or not a reference is fit; the reference joins later
    cfg = SolverConfig(
        regularizer=Regularizer.from_text(args.lam, data.n_samples),
        depth_limit=args.depth,
        time_limit_s=args.time_limit_s,
        max_records=args.max_records,
    )
    guessing.check_options(args.n_estimators, args.max_depth, args.learning_rate,
                           args.drop_tolerance)

    if args.guess_thresholds:
        trace = _eliminate(args, data)
        bin_data = trace.data
        _log(f"threshold guessing kept {bin_data.n_columns} columns "
             f"(removed {len(trace.steps)})")
        if args.lb_guess:
            cfg.reference = trace.reference
    else:
        bin_data = data if args.pre_binarized else full_binarize(data)
        if args.lb_guess:
            # fit and reference_labels take the raw or the indicator dataset
            ens = boosting.fit(data, args.n_estimators, args.max_depth, args.learning_rate)
            cfg.reference = guessing.reference_labels(ens, data)

    # a wide exact solve can run long and grow large: say what it will
    # search before it starts
    _log(f"searching {bin_data.n_columns} columns, depth limit {_or_none(cfg.depth_limit)}, "
         f"record budget {_or_none(cfg.max_records)}, time budget {_or_none(cfg.time_limit_s)}")
    if cfg.depth_limit is None and cfg.max_records is None and cfg.time_limit_s is None:
        _log("with no depth limit and no budget the search may not end: --max-records or "
             "--time-limit-s ends it with the best tree so far, --guess-thresholds searches "
             "fewer columns")
    t0 = time.monotonic()
    result = optimize(bin_data, cfg)
    wall = time.monotonic() - t0
    # score the tree as a reader of the artifact would, by feature name and
    # threshold; a mismatch is a bug, and its artifact would mislead
    scored = trees.objective(result.tree, bin_data, cfg.regularizer)
    if scored != result.objective:
        raise ValueError(f"the tree scores {scored}, not the reported objective "
                         f"{result.objective}; nothing written")
    if result.refused_lb_guess:
        _log("lb guessing refused: reference predicts a single class")
    report = run_report(result)
    if args.timing:
        report["wall_time_s"] = wall

    tree_path = f"{args.out}.tree.json"
    report_path = f"{args.out}.report.json"
    with open(tree_path, "w") as fh:
        fh.write(trees.to_json(result.tree))
    with open(report_path, "w") as fh:
        fh.write(json.dumps(report, indent=2))
    _log(trees.pretty(result.tree))
    _log(f"status {result.status}, objective {result.objective} "
         f"(loss {result.loss_count}/{bin_data.n_samples}, {result.leaf_count} leaves), "
         f"{wall:.3f}s")
    _log(f"wrote {tree_path} and {report_path}")
    return 0


def cmd_depth_bound(args) -> int:
    if args.weak_vc is not None:
        vc = args.weak_vc
    else:
        vc = guessing.vc_of_depth_trees(args.weak_depth)
    depth, product = guessing.min_depth_for_ensemble(args.n_estimators, vc)
    print(json.dumps({
        "n_estimators": args.n_estimators,
        "weak_vc": vc,
        "inner_product": product,
        "suggested_depth": depth,
    }))
    return 0


def cmd_benchmark(args) -> int:
    raw = load_csv(args.data)
    # every config field is a flag of the same dest
    cfg = evaluation.BenchmarkConfig(
        **{f.name: getattr(args, f.name) for f in dataclasses.fields(evaluation.BenchmarkConfig)})
    report = evaluation.run_benchmark(raw, cfg)
    with open(args.out_json, "w") as fh:
        fh.write(evaluation.report_to_json(report, include_timing=args.timing))
    if args.out_csv:
        with open(args.out_csv, "w") as fh:
            fh.write(evaluation.report_to_csv(report))
    for f in report.folds:
        if f.completed:
            _log(f"fold {f.fold}: train {f.train_accuracy:.4f} test {f.test_accuracy:.4f} "
                 f"leaves {f.leaves} status {f.status} ({f.wall_time_s:.2f}s)")
        else:
            _log(f"fold {f.fold}: FAILED: {f.error}")
    failed = sum(1 for f in report.folds if not f.completed)
    _log(f"wrote {args.out_json}" + (f" and {args.out_csv}" if args.out_csv else ""))
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sparsetree",
        description="Optimal sparse decision trees with reference-model guessing",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("binarize", help="emit every midpoint indicator column as CSV")
    p.add_argument("data")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_binarize)

    p = sub.add_parser("guess", help="run column elimination, emit reduced data and trace")
    p.add_argument("data")
    _add_reference_args(p)
    p.add_argument("--out-data", required=True)
    p.add_argument("--out-trace", required=True)
    p.set_defaults(fn=cmd_guess)

    p = sub.add_parser("train", help="solve for the optimal sparse tree")
    p.add_argument("data")
    p.add_argument("--lambda", dest="lam", required=True,
                   help="per-leaf penalty, decimal or rational text (exact)")
    p.add_argument("--depth", type=_depth_arg, default=None,
                   help="depth limit, integer or 'none' (default none)")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--pre-binarized", action="store_true",
                   help="input is an indicator-column CSV from `binarize`/`guess`")
    g.add_argument("--guess-thresholds", action="store_true",
                   help="eliminate low-importance thresholds before solving")
    p.add_argument("--lb-guess", action="store_true",
                   help="use reference mistakes as subproblem lower-bound guesses")
    _add_reference_args(p)
    p.add_argument("--time-limit-s", type=float, default=None)
    p.add_argument("--max-records", type=int, default=None,
                   help="stop once more than this many subproblem records exist; "
                        "writes the best tree so far with status record-limit, exit 0")
    p.add_argument("--timing", action="store_true",
                   help="include wall time in the report JSON (breaks rerun byte-identity)")
    p.add_argument("--out", required=True, help="output prefix for .tree.json/.report.json")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("depth-bound", help="depth limit sufficient to match a reference ensemble")
    p.add_argument("--n-estimators", type=int, required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--weak-depth", type=int, help="weak learner depth; VC taken as 2**depth")
    g.add_argument("--weak-vc", type=int, help="weak learner VC dimension, given directly")
    p.set_defaults(fn=cmd_depth_bound)

    p = sub.add_parser("benchmark", help="k-fold pipeline with per-fold medians")
    p.add_argument("data")
    p.add_argument("--folds", type=int, default=5)
    _add_reference_args(p)
    p.add_argument("--seed", type=int, default=0, help="fold shuffle seed")
    p.add_argument("--lambda", dest="regularization", metavar="LAM", default="0.001")
    p.add_argument("--depth", dest="depth_limit", metavar="DEPTH", type=_depth_arg, default=3)
    p.add_argument("--no-lb-guess", dest="use_lb_guess", action="store_false")
    p.add_argument("--no-compare", dest="compare_no_guess", action="store_false",
                   help="skip the paired solve without lb guessing")
    p.add_argument("--time-limit-s", type=float, default=None)
    p.add_argument("--timing", action="store_true")
    p.add_argument("--out-json", required=True)
    p.add_argument("--out-csv", default=None)
    p.set_defaults(fn=cmd_benchmark)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as e:
        _log(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
