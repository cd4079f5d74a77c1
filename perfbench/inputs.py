"""Write a workload's seeded inputs and the facts its checks need.

Usage: ``python inputs.py WORK_DIR`` with the package on ``PYTHONPATH``.
``WORK_DIR/request.json`` holds ``{"spec": {...ScenarioSpec fields...},
"train_prefixes": [...]}``. The scenario files go to ``WORK_DIR/inputs``
through the public ``t2tmetrics`` API, the same request always giving the
same bytes, together with ``facts.json``: the planted kind, score and
reference distance of every detection, per-detection candidate-pair counts
and the environment record.

It runs as a child process so that the measuring process never holds numpy,
scipy or the generated arrays.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg

import t2tmetrics
from t2tmetrics import FeatureMatrix, ScenarioSpec, generate_scenario, write_feature_matrix

SRC = Path(t2tmetrics.__file__).resolve().parent.parent


def reference_distances(train: np.ndarray, test: np.ndarray) -> np.ndarray:
    """Squared Mahalanobis distances by an independent route.

    Mean and ddof=1 covariance of the training rows, epsilon = 1e-6 *
    trace / d, and a Cholesky solve instead of an explicit inverse.
    """
    mean = train.mean(axis=0)
    cov = np.cov(train, rowvar=False, ddof=1)
    d = cov.shape[0]
    cov += 1e-6 * np.trace(cov) / d * np.eye(d)
    factor = np.linalg.cholesky(cov)
    z = scipy.linalg.solve_triangular(factor, (test - mean).T, lower=True)
    return np.einsum("ij,ij->j", z, z)


def _blas_threads() -> int | None:
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def _git_commit(root: Path) -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "t2tmetrics").glob("*.py")):
        src_hash.update(path.name.encode() + path.read_bytes())
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": np.__config__.CONFIG["Build Dependencies"]["blas"].get("version"),
        "blas_threads": _blas_threads(),
        "package": t2tmetrics.__file__,
        "src_sha256": src_hash.hexdigest(),
        "git_commit": _git_commit(SRC.parent),
    }


def main(work: Path) -> None:
    request = json.loads((work / "request.json").read_text(encoding="utf-8"))
    spec = ScenarioSpec.from_dict(request["spec"])
    scn = generate_scenario(spec)
    out = work / "inputs"
    scn.write(out)
    train = scn.train_features
    for n in request["train_prefixes"]:
        write_feature_matrix(FeatureMatrix(data=train.data[:n], row_ids=train.row_ids[:n]),
                             out / f"train_{n}.t2tfeat")

    gt_per_image: dict[str, int] = {}
    for inst in scn.ground_truth.instances:
        gt_per_image[inst.image_id] = gt_per_image.get(inst.image_id, 0) + 1
    dets = scn.detections.detections
    distances = reference_distances(train.data, scn.test_features.data)
    facts = {
        "spec": spec.to_dict(),
        "train_prefixes": request["train_prefixes"],
        "pairs": [[d.score, gt_per_image.get(d.image_id, 0)] for d in dets],
        "reference": {
            d.detection_id: ["tp" if d.detection_id in scn.tp_detection_ids else "fp",
                             d.score, float(distances[i])]
            for i, d in enumerate(dets)
        },
        "environment": environment(spec.seed),
    }
    (out / "facts.json").write_text(json.dumps(facts), encoding="utf-8")


if __name__ == "__main__":
    main(Path(sys.argv[1]))
