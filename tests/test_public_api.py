"""The package's public surface: __all__ and the names the package binds agree."""

import types

import plantflow


def test_all_lists_every_public_name_once():
    public = {name for name, value in vars(plantflow).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(plantflow.__all__) == public | {"__version__"}
    assert len(plantflow.__all__) == len(set(plantflow.__all__))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from plantflow import *", namespace)
    assert set(plantflow.__all__) <= set(namespace)
