"""Truncated spectral decomposition of sparse random graphs.

The package covers the full pipeline: latent-position graph models and
samplers, a block thick-restart Lanczos solver with a relative-residual
stopping rule, tolerance heuristics calibrated to sampling noise, subspace
and clustering metrics, and a reproducible experiment harness with a CLI.
"""
from .errors import (
    DimensionMismatch,
    DomainError,
    NoConvergence,
    ParseError,
    SpectolError,
)
from .graph_model import (
    AssumptionReport,
    FactoredProbabilityMatrix,
    LatentPositions,
    SbmSpec,
    SparseGraph,
    check_assumptions,
    sample_adjacency,
    sbm_to_latent,
)
from .spectral_core import (
    RestartPath,
    SpectralDecomposition,
    dense_eig_oracle,
    estimate_spectral_norm,
    residual_norm,
    truncated_eigs,
)
from .tolerance import (
    ToleranceReport,
    conservative_tolerance,
    expected_squared_deviation_diagonal,
    heuristic_tolerance,
    sampling_error_constant,
    solve_at_heuristic,
    tolerance_report,
)
from .metrics import (
    Clustering,
    SilhouetteResult,
    adjusted_rand_index,
    canonical_angles,
    choose_k_by_silhouette,
    kmeans,
    procrustes_distance,
    silhouette_width,
    zhu_ghodsi_dimension,
)
from .experiments import (
    IngestResult,
    StabilityRecord,
    SweepConfig,
    SweepRecord,
    ingest_edge_list,
    load_sweep_config,
    run_clustering_stability,
    run_tolerance_sweep,
    write_edge_list,
    write_records_csv,
)
from .cli import cli_main

__version__ = "0.1.0"
