"""The package's public surface: every ``__all__`` name resolves, and importing
the package or its CLI loads only what it must."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import czfid

SRC = Path(__file__).resolve().parent.parent / "src"


def python(code: str, **env: str) -> str:
    """Run ``code`` in a fresh interpreter with ``env`` and no preset ``OPENBLAS_NUM_THREADS``; return stdout."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), base.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env={**base, **env},
                          capture_output=True, text=True, timeout=60, check=True)
    return done.stdout.strip()


def test_every_public_name_resolves_to_its_home_object():
    namespace: dict = {}
    exec("from czfid import *", namespace)
    assert len(set(czfid.__all__)) == len(czfid.__all__) == 37
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
