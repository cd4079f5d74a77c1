"""Sets and outcomes built from record objects, and turned back into plain tuples.

The library holds every set and outcome as columns, built by one constructor
that takes the columns. Tests that read more easily in terms of records
(``ImageInfo``, ``GroundTruthInstance``, ``Detection``, ``AnnotatedEntry``)
build their sets and outcomes here, through those public constructors, and
compare two of them with ``plain(a) == plain(b)``.

A detection set holds its bound features as one ``FeatureMatrix`` and a row
index per detection; ``detection_set`` stacks the features of the bound
detections, in order, into that matrix, so all of them have one shape.
"""

from __future__ import annotations

import numpy as np

from t2tmetrics import (
    DetectionSet,
    DistanceAnnotatedOutcome,
    FeatureMatrix,
    GroundTruthSet,
    ImageInfo,
    Kind,
    MatchOutcome,
)


def _box(box) -> tuple[float, float, float, float]:
    return box.x, box.y, box.w, box.h


def ground_truth(images, instances) -> GroundTruthSet:
    return GroundTruthSet(
        images=tuple(images),
        ids=[inst.instance_id for inst in instances],
        image_ids=[inst.image_id for inst in instances],
        boxes=[_box(inst.box) for inst in instances],
    )


def detection_set(detections) -> DetectionSet:
    detections = tuple(detections)
    bound = [k for k, det in enumerate(detections) if det.feature is not None]
    rows = np.full(len(detections), -1)
    rows[bound] = np.arange(len(bound))
    features = FeatureMatrix(
        data=np.array([detections[k].feature for k in bound]),
        row_ids=tuple(map(str, bound)),
    ) if bound else None
    return DetectionSet(
        ids=[det.detection_id for det in detections],
        image_ids=[det.image_id for det in detections],
        boxes=[_box(det.box) for det in detections],
        scores=[det.score for det in detections],
        features=features,
        feature_rows=rows,
    )


def match_outcome(true_positives, false_positives, false_negatives) -> MatchOutcome:
    """The outcome in which each of ``true_positives``, a (Detection, instance
    id) pair, claims its instance and each of ``false_positives`` claims none.

    Its detections are the TPs, then the FPs, and its instances the claimed
    ones, then ``false_negatives``. An outcome reads only the ids of its
    instances, so they all lie on one placeholder image with one box. The
    kept detections go in rank order (-score, detection_id), whatever order
    they are given in.
    """
    true_positives = list(true_positives)
    dets = detection_set([det for det, _ in true_positives] + list(false_positives))
    gt_ids = [inst_id for _, inst_id in true_positives] + list(false_negatives)
    gts = GroundTruthSet(images=(ImageInfo("image", "", 1, 1),), ids=gt_ids,
                         image_ids=["image"] * len(gt_ids), boxes=[(0, 0, 1, 1)] * len(gt_ids))
    kept = sorted(range(len(dets)), key=lambda k: (-dets.scores[k], dets.ids[k]))
    return MatchOutcome(
        dets=dets,
        gts=gts,
        kept=kept,
        claims=[k if k < len(true_positives) else -1 for k in kept],
    )


def annotated_outcome(entries, total_gt: int) -> DistanceAnnotatedOutcome:
    """The annotated outcome holding ``entries`` in the order given."""
    return DistanceAnnotatedOutcome(
        ids=[e.detection_id for e in entries],
        tp=[e.kind is Kind.TP for e in entries],
        scores=[e.score for e in entries],
        dist=[e.distance for e in entries],
        total_gt=total_gt,
    )


def false_negatives(outcome: MatchOutcome) -> tuple[str, ...]:
    """The ids of the instances that no kept detection claimed, in the order of ``gts``."""
    taken = set(outcome.claims.tolist())
    return tuple(inst_id for k, inst_id in enumerate(outcome.gts.ids) if k not in taken)


def _detection(det) -> tuple:
    feature = None if det.feature is None else tuple(det.feature.tolist())
    return det.detection_id, det.image_id, det.box, det.score, feature


def plain(obj):
    """``obj`` as nested tuples of records and values, so that ``==`` compares
    the values; a tuple is converted item by item, and anything else is
    returned as it is."""
    if isinstance(obj, GroundTruthSet):
        return obj.images, obj.instances
    if isinstance(obj, DetectionSet):
        return tuple(map(_detection, obj.detections))
    if isinstance(obj, MatchOutcome):
        return (
            tuple((_detection(det), inst_id) for det, inst_id in obj.true_positives),
            tuple(map(_detection, obj.false_positives)),
            false_negatives(obj),
            obj.total_gt,
        )
    if isinstance(obj, DistanceAnnotatedOutcome):
        return obj.entries, obj.total_gt
    if isinstance(obj, tuple):
        return tuple(map(plain, obj))
    return obj
