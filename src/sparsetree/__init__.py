"""Optimal sparse decision trees with reference-model guessing."""

from .boosting import BoostedEnsemble, DegenerateModelError, ThresholdSet, fit
from .dataset import (
    BinaryDataset,
    DataFormatError,
    RawDataset,
    binarize_with_thresholds,
    equivalence_classes,
    full_binarize,
    load_csv,
    make_raw,
    minority_total,
    read_binary_csv,
    write_binary_csv,
)
from .evaluation import (
    BenchmarkConfig,
    BenchmarkReport,
    brute_force_optimal,
    depth_gap_bound,
    kfold,
    prune_to_depth,
    replicating_tree,
    run_benchmark,
)
from .guessing import (
    EliminationTrace,
    ReferenceLabels,
    column_eliminate,
    min_depth_for_ensemble,
    reference_labels,
    vc_of_depth_trees,
)
from .solver import (
    Regularizer,
    SolveResult,
    SolverConfig,
    optimize,
    run_report,
)
from .trees import Leaf, Split, measure, objective, predict

__version__ = "0.1.0"

__all__ = [
    "BoostedEnsemble",
    "DegenerateModelError",
    "ThresholdSet",
    "fit",
    "BinaryDataset",
    "DataFormatError",
    "RawDataset",
    "binarize_with_thresholds",
    "equivalence_classes",
    "full_binarize",
    "load_csv",
    "make_raw",
    "minority_total",
    "read_binary_csv",
    "write_binary_csv",
    "BenchmarkConfig",
    "BenchmarkReport",
    "brute_force_optimal",
    "depth_gap_bound",
    "kfold",
    "prune_to_depth",
    "replicating_tree",
    "run_benchmark",
    "EliminationTrace",
    "ReferenceLabels",
    "column_eliminate",
    "min_depth_for_ensemble",
    "reference_labels",
    "vc_of_depth_trees",
    "Regularizer",
    "SolveResult",
    "SolverConfig",
    "optimize",
    "run_report",
    "Leaf",
    "Split",
    "measure",
    "objective",
    "predict",
    "__version__",
]
