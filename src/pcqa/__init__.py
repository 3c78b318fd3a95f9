"""Full-reference point-cloud quality assessment.

The package scores a distorted point cloud against its reference by
comparing color-gradient statistics over local graphs built around
resampled keypoints, alongside classic point-wise distance and PSNR
baselines, plus fixture generation and MOS-correlation tooling.
"""

from .baselines import (
    METRIC_IDS,
    BaselineResult,
    ErrorPair,
    estimate_normals,
    geometry_psnr,
    p2_errors,
    psnr_yuv,
    run_baselines,
)
from .cloud import BoundingBox, PointCloud, bounding_box, merged_bounding_box
from .colorspace import decompose, to_gcm, to_yuv
from .distort import KINDS, LEVEL_PRESETS, DistortionSpec, apply_distortion
from .errors import (
    DegenerateCloudWarning,
    DomainError,
    DuplicateKeyError,
    Error,
    ParseError,
    SchemaError,
    TruncationError,
    ValidationError,
)
from .evaluate import EvalReport, evaluate_records, evaluate_scores, logistic_fit
from .graph import GraphParams, SignalAttribute, WeightedNeighborhood, edge_weight
from .graphsim import (
    POOLING_PRESETS,
    GraphSimConfig,
    SimilarityScore,
    build_local_graph_pair,
    graphsim,
)
from .mos import MosRow, load_mos_csv
from .ply_io import load_ply, save_ply
from .resample import KeypointSet, ResampleConfig, frequency_scores, resample
from .spatial import SpatialIndex

__version__ = "0.1.0"

__all__ = [
    "BaselineResult",
    "BoundingBox",
    "DegenerateCloudWarning",
    "DistortionSpec",
    "DomainError",
    "DuplicateKeyError",
    "Error",
    "ErrorPair",
    "EvalReport",
    "GraphParams",
    "GraphSimConfig",
    "KINDS",
    "KeypointSet",
    "LEVEL_PRESETS",
    "METRIC_IDS",
    "MosRow",
    "ParseError",
    "PointCloud",
    "POOLING_PRESETS",
    "ResampleConfig",
    "SchemaError",
    "SignalAttribute",
    "SimilarityScore",
    "SpatialIndex",
    "TruncationError",
    "ValidationError",
    "WeightedNeighborhood",
    "apply_distortion",
    "bounding_box",
    "build_local_graph_pair",
    "decompose",
    "edge_weight",
    "estimate_normals",
    "evaluate_records",
    "evaluate_scores",
    "frequency_scores",
    "geometry_psnr",
    "graphsim",
    "load_mos_csv",
    "load_ply",
    "logistic_fit",
    "merged_bounding_box",
    "p2_errors",
    "psnr_yuv",
    "resample",
    "run_baselines",
    "save_ply",
    "to_gcm",
    "to_yuv",
    "__version__",
]
