"""The package's public surface: every ``__all__`` name resolves, and importing
the package or its CLI loads only what it must."""

import importlib

import pytest

import czfid

from conftest import python


def test_every_public_name_resolves_to_its_home_object():
    namespace: dict = {}
    exec("from czfid import *", namespace)
    assert len(set(czfid.__all__)) == len(czfid.__all__) == 36
    for name in czfid.__all__:
        home = importlib.import_module(f"czfid.{czfid._HOMES[name]}")
        assert getattr(czfid, name) is namespace[name] is getattr(home, name)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(czfid.__all__)
    assert set(czfid.__all__) <= set(dir(czfid))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'czfid' has no attribute 'no_such_name'$"):
        czfid.no_such_name
    assert not hasattr(czfid, "no_such_name")
    with pytest.raises(ImportError, match="cannot import name 'no_such_name' from 'czfid'"):
        exec("from czfid import no_such_name", {})


def test_submodules_import_from_the_package():
    from czfid import core, tomography

    assert core.cz_choi is czfid.cz_choi and tomography.r_operator is czfid.r_operator


def test_import_czfid_loads_no_numpy_until_a_name_is_used():
    code = ("import sys, czfid; print('numpy' in sys.modules, czfid.__version__); "
            "czfid.estimate; print('numpy' in sys.modules, 'estimate' in vars(czfid))")
    assert python(code).split() == ["False", "0.1.0", "True", "True"]


def test_cli_defaults_openblas_threads_to_one():
    code = "import os, czfid.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert python(code) == "1"
    assert python(code, OPENBLAS_NUM_THREADS="3") == "3"
