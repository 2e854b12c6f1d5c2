"""Tropicalization of toric prevarieties built from systems of fans."""

import importlib

__all__ = ["INF", "Infinity"]
__version__ = "0.1.0"


def _lazy(namespace, source, names):
    """A module __getattr__ (PEP 562): the first use of one of names imports
    source and binds all of them, the very same objects, in namespace."""
    def __getattr__(name):
        if name not in names:
            raise AttributeError("module %r has no attribute %r"
                                 % (namespace["__name__"], name))
        module = importlib.import_module(source)
        namespace.update((n, getattr(module, n)) for n in names)
        return namespace[name]
    return __getattr__


__getattr__ = _lazy(globals(), "prevtrop.extreal", ("INF", "Infinity"))
