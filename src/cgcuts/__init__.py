"""Parallel conflict-graph cut generation for mixed-integer programs."""

from .cliques import CliqueTable, detect_cliques_parallel
from .extend import extend_parallel
from .graph import ConflictGraph, build_graph_parallel
from .merge import removal_flags
from .model_io import (
    CutPool,
    MipModel,
    MpsError,
    export_cut_pool,
    parse_mps,
    parse_mps_file,
    write_augmented_mps,
    write_mps,
)
from .pipeline import Limits, RunStats, run_pipeline, run_pipeline_model
from .presolve import DetectionResult, InfeasibleError, PbcTable, detect
from .triage import TriagePlan, triage

__version__ = "0.1.0"
