"""One-class classification toolkit: SVDD, subspace SVDD (gradient and Newton
updates), RBF-kernel feature spaces via the explicit kernel eigenmap, and a
reproducible benchmark harness."""

from .data import DataSet, OccSplit, kfold, load_csv, make_occ_split
from .evaluate import GridSpec, grid_search, run_benchmark, trace_run
from .kernel import NptBasis, build_npt, center_kernel, rbf_kernel
from .metrics import ConfusionCounts, gmean
from .model_store import TrainedModel, load, predict, save
from .pipeline import fit_occ_model, prepare_features
from .settings import MethodSpec, parse_method
from .subspace import TrainConfig, train
from .svdd import AlphaVector, DataDescription, decide_batch, describe, solve_dual

__version__ = "0.1.0"

__all__ = [
    "AlphaVector",
    "ConfusionCounts",
    "DataDescription",
    "DataSet",
    "GridSpec",
    "MethodSpec",
    "NptBasis",
    "OccSplit",
    "TrainConfig",
    "TrainedModel",
    "build_npt",
    "center_kernel",
    "decide_batch",
    "describe",
    "fit_occ_model",
    "gmean",
    "grid_search",
    "kfold",
    "load",
    "load_csv",
    "make_occ_split",
    "parse_method",
    "predict",
    "prepare_features",
    "rbf_kernel",
    "run_benchmark",
    "save",
    "solve_dual",
    "trace_run",
    "train",
]
