"""Lazy package exports (PEP 562): a package ``__init__`` names what it
re-exports and from which submodule, and the submodule is imported on
the first attribute access -- so ``import repro.eval.runner`` pays for
the runner, not for every module ``repro.eval`` re-exports.

Usage, in a package ``__init__``::

    if TYPE_CHECKING:              # keeps the names visible to mypy
        from .plan import FaultPlan
    __all__ = ["FaultPlan"]
    __getattr__, __dir__ = lazy_exports(__name__, {".plan": ["FaultPlan"]})

``from pkg import name``, ``pkg.name``, ``from pkg import *`` and
``dir(pkg)`` behave as they did when the names were imported eagerly.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, List, Mapping, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str,
    exports: Mapping[str, Sequence[str]],
    submodules: Sequence[str] = (),
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """Module-level ``(__getattr__, __dir__)`` for ``package``.

    ``exports`` maps a submodule (relative, ``".plan"``) to the names it
    provides; ``submodules`` are child modules exposed as attributes
    themselves (``repro.core``).  A resolved name is stored on the
    package, so ``__getattr__`` runs once per name.
    """
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        if name in origin:
            value = getattr(import_module(origin[name], package), name)
        elif name in submodules:
            value = import_module(f".{name}", package)
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted({*vars(sys.modules[package]), *origin, *submodules})

    return __getattr__, __dir__
