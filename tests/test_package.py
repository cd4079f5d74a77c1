"""The package namespace: each public name is its home module's object, and
each is used by the package or says why it stays public."""

import ast
import sys
from pathlib import Path

import pytest

import t2tmetrics

# The public names that are not classes or functions, which name their module.
CONSTANTS = {"IOU_GRID": "t2tmetrics.matching", "DEFAULT_SCORE_THRESHOLDS": "t2tmetrics.metrics"}

# The public names that no code of the package uses, each with the reason it stays.
UNUSED_BUT_PUBLIC = {
    "ap_t2t": "the README's library example scores one annotated outcome with it",
    "iou": "the per-pair IoU, which each cell of the IoU table reproduces bit for bit",
    "model_from_moments": "a documented library entry point: a model of given moments",
    "train2test_distances": "a documented library entry point: the distances of feature rows",
    "scaling_series": "the paper's scaling plot of AP_t2t against training size, not yet run",
    "shrink_tp_distances": "plants a known shift of TP distances that an AP_t2t interval must see",
}


def test_each_public_name_is_the_object_its_home_module_defines():
    assert len(set(t2tmetrics.__all__)) == len(t2tmetrics.__all__) == 62
    for name in t2tmetrics.__all__:
        obj = getattr(t2tmetrics, name)
        home = CONSTANTS.get(name) or obj.__module__
        assert home.startswith("t2tmetrics."), name
        assert vars(sys.modules[home])[name] is obj, name


def test_dir_and_star_import_list_every_public_name():
    assert set(t2tmetrics.__all__) <= set(dir(t2tmetrics))
    namespace: dict = {}
    exec("from t2tmetrics import *", namespace)
    for name in t2tmetrics.__all__:
        assert namespace[name] is getattr(t2tmetrics, name), name


def test_an_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'nope'"):
        t2tmetrics.nope


def _defined(statement: ast.stmt) -> set[str]:
    """The names a top-level statement binds as a definition."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return {statement.name}
    targets = statement.targets if isinstance(statement, ast.Assign) else [
        getattr(statement, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _used(statement: ast.stmt, modules: set[str]) -> set[str]:
    """The names a statement reads, bare or as an attribute of a package module."""
    used = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            used.add(node.attr)
    return used


def test_each_public_name_is_used_outside_its_definition_or_says_why_it_stays():
    package = Path(t2tmetrics.__file__).parent
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")]
    modules = {path.stem for path in package.glob("*.py")}
    used = set()
    for tree in trees:
        for statement in tree.body:
            used |= _used(statement, modules) - _defined(statement)
    unused = set(t2tmetrics.__all__) - used
    assert unused == set(UNUSED_BUT_PUBLIC)
