"""Lazy package re-exports (PEP 562), shared by the package ``__init__``s.

A package lists its public names in one ``_EXPORTS`` table, public name
-> defining module, and gets its module-level ``__getattr__`` and
``__dir__`` from :func:`lazy_exports`. A name's module is imported on
the name's first use, so importing the package imports none of them.
"""

import importlib
import typing


def lazy_exports(
    namespace: typing.Dict[str, object], exports: typing.Mapping[str, str]
) -> typing.Tuple[typing.Callable[[str], object], typing.Callable[[], typing.List[str]]]:
    """The ``__getattr__`` and ``__dir__`` of the package whose globals
    are ``namespace``: a resolved name is cached there, so each is
    looked up once."""
    package = namespace["__name__"]

    def __getattr__(name: str) -> object:
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(module), name)
        return value

    def __dir__() -> typing.List[str]:
        return sorted({*namespace, *exports})

    return __getattr__, __dir__
