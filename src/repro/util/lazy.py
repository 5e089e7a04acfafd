"""Package front doors that import a submodule only when a name from it
is first used (PEP 562 module ``__getattr__``).

A package lists its public names by the submodule that defines them;
``from repro.core import rho`` then loads :mod:`repro.core.formulas`
and nothing else.  A name that is the last component of its module
path stands for the module itself (``repro.api``, ``repro.util.tables``).
"""

from __future__ import annotations

import sys
from collections.abc import Callable

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, table: dict[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """``__all__``, ``__getattr__`` and ``__dir__`` for ``package``,
    whose ``table`` maps each submodule path (relative, as in a
    ``from . import``) to the public names it exports."""
    where: dict[str, str] = {}
    for module, names in table.items():
        level = len(module) - len(module.lstrip("."))
        absolute = f"{package.rsplit('.', level - 1)[0]}.{module[level:]}"
        where.update(dict.fromkeys(names, absolute))

    def __getattr__(name: str) -> object:
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        # The import statement's own machinery, so ``-X importtime``
        # reports lazily loaded modules like any other.
        __import__(module)
        loaded = sys.modules[module]
        if module.rpartition(".")[2] == name:
            return loaded
        return getattr(loaded, name)

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return list(where), __getattr__, __dir__
