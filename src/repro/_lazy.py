"""Lazy package re-exports: a name is imported on its first access.

A package ``__init__`` that re-exports its submodules' public names
eagerly makes ``import repro`` (or ``import repro.session``) load every
implementation module, numpy included, even for a command that uses
none of them.  :func:`lazy_exports` builds the package's ``__all__``
and the module-level ``__getattr__``/``__dir__`` pair (PEP 562) that
resolves each declared name only when something reads it.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Tuple


def lazy_exports(package: str, exports: Dict[str, str]
                 ) -> Tuple[List[str], Callable[[str], object],
                            Callable[[], List[str]]]:
    """The ``(__all__, __getattr__, __dir__)`` of *package*.

    *exports* maps each re-exported name to the module that defines
    it, and its keys are the returned ``__all__``.  A resolved name is
    stored in the package namespace, so its module is imported once and
    later reads are plain attribute hits.
    Names outside *exports* raise ``AttributeError``, which lets
    ``from package import submodule`` fall back to a submodule import.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        module = exports.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return list(exports), __getattr__, __dir__
