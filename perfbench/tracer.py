"""Run one ``t2t`` command with a span around every call into the package's layers.

Usage: ``python tracer.py SPANS_JSON COMMAND [ARGS...]`` with the package on
``PYTHONPATH``. It times ``import t2tmetrics.cli``, wraps the public functions
of each layer module wherever they are bound (so ``cli`` and ``metrics``,
which import them by name, call the wrappers), runs ``t2tmetrics.cli.main``
and writes the spans, kept in memory until then, to SPANS_JSON. The exit
code is the command's.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

LAYERS = ("ingest", "feature_model", "matching", "metrics", "report", "fsio", "replacement")
# Called once per box pair or feature row: a span each would swamp the run.
PER_ITEM = frozenset({"matching.iou", "feature_model.train2test_distance"})
INPUT_LOADERS = frozenset({
    "ingest.load_ground_truth", "ingest.load_detections", "ingest.load_feature_matrix",
})


class Tracer:
    """Spans as [name, start, end, parent index, note] in call order."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.annotated_ids: set[str] = set()

    def wrap(self, name: str, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, None]
            self.spans.append(span)
            self.stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            span[4] = self.note(name, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def note(self, name: str, arguments: dict, result) -> dict | None:
        """Counts taken after the span closed, so they cost no span time."""
        if name == "matching.match_detections":
            return {
                "iou": arguments.get("iou_threshold", 0.5),
                "score": arguments.get("score_threshold", 0.0),
                "kept": len(result.true_positives) + len(result.false_positives),
            }
        if name == "feature_model.annotate_distances":
            self.annotated_ids.update(e.detection_id for e in result.entries)
            return {"entries": len(result.entries)}
        if name == "fsio.write_bytes":
            return {"bytes": len(arguments["data"])}
        if name in INPUT_LOADERS:
            return {"bytes": os.path.getsize(arguments["path"])}
        return None

    def install(self) -> None:
        import t2tmetrics.cli

        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"t2tmetrics.{layer}"]
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_") and name not in PER_ITEM):
                    wrappers[obj] = self.wrap(name, obj)
        wrappers[t2tmetrics.cli.main] = self.wrap("cli.main", t2tmetrics.cli.main)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "t2tmetrics" or mod_name.startswith("t2tmetrics."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        setattr(module, attr, wrappers[obj])


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import t2tmetrics.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    code = t2tmetrics.cli.main(argv)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({
            "import_s": import_s,
            "package": t2tmetrics.__file__,
            "spans": tracer.spans,
            "distinct_annotated": len(tracer.annotated_ids),
        }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
