"""The package namespace: each public name is its home module's object."""

import sys

import pytest

import t2tmetrics

# The public names that are not classes or functions, which name their module.
CONSTANTS = {"IOU_GRID": "t2tmetrics.matching", "DEFAULT_SCORE_THRESHOLDS": "t2tmetrics.metrics"}


def test_each_public_name_is_the_object_its_home_module_defines():
    assert len(set(t2tmetrics.__all__)) == len(t2tmetrics.__all__) == 68
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
