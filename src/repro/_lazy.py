"""Lazy package exports (PEP 562 module ``__getattr__`` and ``__dir__``).

Each package ``__init__`` maps its public names to the submodule that
defines them instead of importing every submodule up front.  A name is
imported on first access, so ``import repro`` loads no numerical stack and
each command pays only for the modules it uses::

    _EXPORTS = {"FokkerPlanckSolver": ".solver", ...}
    __getattr__, __dir__ = _lazy.lazy_exports(__name__, _EXPORTS)
    __all__ = list(_EXPORTS)
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from typing import Callable, Dict, List, Tuple


def lazy_exports(package: str, exports: Dict[str, str]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``__getattr__`` and ``__dir__`` of *package*.

    *exports* maps each public name to the module defining it, relative to
    *package* (``".solver"``, ``"..queueing.scenarios"``).  A resolved name
    is bound in the package namespace, so later lookups are plain attribute
    reads (and patching the package attribute works as for an eager
    import).  Submodules resolve by attribute too:
    ``import repro; repro.core.solver``.
    """

    def __getattr__(name: str):
        source = exports.get(name)
        if source is not None:
            value = getattr(importlib.import_module(source, package), name)
        elif (not name.startswith("__")
              and importlib.util.find_spec(f"{package}.{name}") is not None):
            value = importlib.import_module(f"{package}.{name}")
        else:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
