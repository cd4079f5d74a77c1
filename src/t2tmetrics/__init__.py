"""Quantify how well a training set represents a test set.

The toolkit scores per-detection train2test distances (squared Mahalanobis
distance from a Gaussian fitted to training features), summarizes them as
the distance-ranked average precision AP_t2t next to conventional AP, maps
accuracies back to same-domain image counts, and emits CSV/SVG diagnostics.

Importing the package loads no numpy. ``errors`` and ``fsio`` load with it;
every other submodule is in ``sys.modules`` and is an attribute of the
package from the start, but its code runs on its first attribute access
(``importlib.util.LazyLoader``). Each public name below resolves through the
module ``__getattr__`` of PEP 562, so it loads its home module on first use,
and is bound in the package from then on.
"""

import importlib.util
import sys

from . import errors, fsio

# Each public name, by the module that defines it.
_PUBLIC = {
    "errors": (
        "BindingError", "DataError", "NumericalError", "ParseError", "SingularCovarianceError",
        "T2TError", "UndefinedMetricError", "ValidationError",
    ),
    "ingest": (
        "BoundingBox", "Detection", "DetectionSet", "FeatureMatrix", "GroundTruthInstance",
        "GroundTruthSet", "ImageInfo", "bind_features", "load_detections",
        "load_feature_matrix", "load_ground_truth", "write_detections",
        "write_feature_matrix", "write_ground_truth",
    ),
    "matching": ("IOU_GRID", "MatchOutcome", "iou", "iou_matcher", "match_detections"),
    "feature_model": (
        "AnnotatedEntry", "DistanceAnnotatedOutcome", "GaussianTrainModel", "Kind",
        "annotate_distances", "default_regularization", "fit_gaussian", "load_model",
        "model_from_moments", "save_model", "train2test_distances",
    ),
    "metrics": (
        "DEFAULT_SCORE_THRESHOLDS", "MetricReport", "ap_t2t", "ap_t2t_profile",
        "average_precision", "metric_report",
    ),
    "replacement": (
        "AccuracyCurve", "ReplacementResult", "average_runs", "build_accuracy_curve",
        "matching_image_count",
    ),
    "report": (
        "BarChart", "Histogram", "Series", "SeriesPlot", "distance_histogram", "export_csv",
        "render_svg", "replacement_rows_csv", "scaling_series",
    ),
    "scenario": ("Scenario", "ScenarioSpec", "generate_scenario", "shrink_tp_distances"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def _lazy(name: str):
    """Register the submodule ``name`` without running its code."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


ingest = _lazy("ingest")
matching = _lazy("matching")
feature_model = _lazy("feature_model")
metrics = _lazy("metrics")
report = _lazy("report")
replacement = _lazy("replacement")
scenario = _lazy("scenario")


def __getattr__(name: str):
    """A public name, bound here on first use as an eager import would bind it."""
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(globals()[home], name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
