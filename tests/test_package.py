"""The package's exports: each module's `__all__`, joined in import order and
loaded on first use."""

import importlib

import pytest
from helpers import fresh_python

import hyperspec

MODULES = ("hypergraph", "canonical", "families", "spectral", "alpha_normal",
           "transforms", "enumeration")


def module(name):
    return importlib.import_module(f"hyperspec.{name}")


def test_all_joins_the_modules_lists_in_import_order():
    joined = [name for m in MODULES for name in module(m).__all__]
    assert hyperspec.__all__ == joined
    assert len(set(joined)) == len(joined)


@pytest.mark.parametrize("m", MODULES)
def test_each_name_is_its_modules_object(m):
    for name in module(m).__all__:
        assert getattr(hyperspec, name) is getattr(module(m), name)


def test_dir_lists_every_name_in_a_fresh_process():
    code = "import hyperspec; print(set(hyperspec.__all__) <= set(dir(hyperspec)))"
    assert fresh_python(code) == "True\n"


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from hyperspec import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(hyperspec.__all__)


def test_unknown_name_is_missing():
    assert not hasattr(hyperspec, "no_such_name")


def test_submodule_import_from_a_fresh_process():
    code = ("import hyperspec; from hyperspec import spectral; "
            "print(spectral.__name__, spectral is hyperspec.spectral)")
    assert fresh_python(code) == "hyperspec.spectral True\n"
