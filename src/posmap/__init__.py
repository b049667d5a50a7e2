"""Public-open-space mapping toolkit.

Calibrated monocular cameras over a ground plane: annotation I/O and class
treatments, camera calibration, behavioral mapping of detections to world
coordinates, mergeable density rasters, detector evaluation with an error
ladder, and a synthetic scene generator for end-to-end validation.
"""

__version__ = "0.1.0"

from .calibrate import (
    calibrate_intrinsics_planar,
    ground_mapping_error,
    solve_extrinsics,
)
from .camera import CameraModel, Distortion, Intrinsics, Pose, load_camera, save_camera
from .coco import Dataset, load_dataset, save_dataset
from .density import kde_raster, merge_rasters
from .errors import (
    ConfigError,
    DataError,
    GeometryError,
    NumericError,
    PosmapError,
    SolverError,
)
from .evaluation import (
    dataset_stats,
    diagnose_errors,
    evaluate_detections,
    iou_bbox,
    iou_mask,
    match_detections,
    mean_ap,
    pr_curve,
)
from .mapping import GroundObservation, MapExtent, locate, map_frame
from .simulate import SimConfig, default_camera, simulate
from .taxonomy import Taxonomy, Treatment, default_taxonomy, default_treatments

__all__ = [
    "__version__",
    "CameraModel",
    "ConfigError",
    "DataError",
    "Dataset",
    "Distortion",
    "GeometryError",
    "GroundObservation",
    "Intrinsics",
    "MapExtent",
    "NumericError",
    "Pose",
    "PosmapError",
    "SimConfig",
    "SolverError",
    "Taxonomy",
    "Treatment",
    "calibrate_intrinsics_planar",
    "dataset_stats",
    "default_camera",
    "default_taxonomy",
    "default_treatments",
    "diagnose_errors",
    "evaluate_detections",
    "ground_mapping_error",
    "iou_bbox",
    "iou_mask",
    "kde_raster",
    "load_camera",
    "load_dataset",
    "locate",
    "map_frame",
    "match_detections",
    "mean_ap",
    "merge_rasters",
    "pr_curve",
    "save_camera",
    "save_dataset",
    "simulate",
    "solve_extrinsics",
]
