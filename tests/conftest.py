"""Suite-wide isolation of the on-disk result stores.

Every test gets ``REPRO_COST_CACHE`` and ``REPRO_SWEEP_CACHE`` pointed
at files of its own, so tier-1 never reads or writes ``~/.cache`` -- and
a test that monkeypatches a netlist builder or a DRC rule and then calls
``main([...])`` can never be answered from an entry another test stored
(patching a function does not change the source digest the offline
store is salted with).  Subprocesses inherit the environment.
"""

import pytest


@pytest.fixture(autouse=True)
def isolated_result_stores(tmp_path_factory, monkeypatch):
    stores = tmp_path_factory.mktemp("stores")
    monkeypatch.setenv("REPRO_COST_CACHE", str(stores / "offline-store.json"))
    monkeypatch.setenv("REPRO_SWEEP_CACHE", str(stores / "sweep-cache.json"))
