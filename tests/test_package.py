"""Package-level API surface tests."""

import importlib
import os
import subprocess
import sys

import pytest

import repro

#: Every package whose ``__init__`` exports lazily (repro._lazy).
SUBPACKAGES = [
    "repro.core", "repro.hw", "repro.netsim", "repro.eval",
    "repro.netsim.routing", "repro.obs", "repro.faults", "repro.analysis",
    "repro.verify", "repro.serve",
]


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)

    @pytest.mark.parametrize("modname", SUBPACKAGES)
    def test_all_exports_resolve(self, modname):
        mod = importlib.import_module(modname)
        assert hasattr(mod, "__all__") and mod.__all__
        for name in mod.__all__:
            assert hasattr(mod, name), f"{modname}.{name} in __all__ but missing"

    @pytest.mark.parametrize("modname", ["repro"] + SUBPACKAGES)
    def test_dir_lists_every_export_before_it_is_loaded(self, modname):
        # In a fresh interpreter: dir() must not depend on what happened
        # to be imported already, and a typo in a lazy table (a name the
        # submodule does not define) must fail here, not at first use.
        code = (
            "import importlib, sys\n"
            f"mod = importlib.import_module({modname!r})\n"
            "assert 'numpy' not in sys.modules, 'importing the package loaded numpy'\n"
            "missing = set(mod.__all__) - set(dir(mod))\n"
            "assert not missing, missing\n"
            "for name in mod.__all__:\n"
            "    getattr(mod, name)\n"
            "    assert name in vars(mod), name  # resolved once, then cached\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        )
        assert done.returncode == 0, done.stderr

    def test_star_import_and_attribute_chain(self):
        namespace = {}
        exec("from repro.netsim import *", namespace)
        assert {"Network", "Router", "run_simulation"} <= set(namespace)
        assert repro.core.VCAllocator is repro.VCAllocator
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            repro.eval.nope
        with pytest.raises(ImportError):
            from repro.eval import nope  # noqa: F401

    @pytest.mark.parametrize("modname", SUBPACKAGES)
    def test_all_sorted_unique(self, modname):
        mod = importlib.import_module(modname)
        assert len(set(mod.__all__)) == len(mod.__all__)

    def test_top_level_reexports(self):
        for name in repro.__all__:
            assert hasattr(repro, name)

    def test_every_public_symbol_documented(self):
        for modname in SUBPACKAGES:
            mod = importlib.import_module(modname)
            for name in mod.__all__:
                obj = getattr(mod, name)
                if callable(obj) or isinstance(obj, type):
                    assert obj.__doc__, f"{modname}.{name} lacks a docstring"

    def test_module_docstrings(self):
        import pkgutil

        for modname in SUBPACKAGES:
            pkg = importlib.import_module(modname)
            assert pkg.__doc__
            for info in pkgutil.iter_modules(pkg.__path__):
                sub = importlib.import_module(f"{modname}.{info.name}")
                assert sub.__doc__, f"{sub.__name__} lacks a module docstring"
