"""Backend selection for the hot kernels.

Prefers the compiled extension (``_kernels_cy``) and falls back to the pure
twin when it is absent.  Set ``CKGEO_PURE=1`` to force the pure backend.  The
twin-equality tests and the ``kernels`` benchmark workload load both backends
by name through :func:`load_backend` instead.  Both backends implement the
same four functions with identical outputs:

    ck_ball, klein_ball, z2_ball, ck_geodesics
"""

from __future__ import annotations

import importlib
import os
from types import ModuleType

from . import _kernels_py


def load_backend(name: str) -> ModuleType:
    """Load a backend by name: ``"pure"`` or ``"compiled"``.

    Raises ImportError for ``"compiled"`` when the extension is not built.
    """
    if name == "pure":
        return _kernels_py
    if name == "compiled":
        return importlib.import_module("ckgeo._kernels_cy")
    raise ValueError(f"unknown kernel backend {name!r}")


def _select() -> ModuleType:
    if os.environ.get("CKGEO_PURE") == "1":
        return _kernels_py
    try:
        return load_backend("compiled")
    except ImportError:
        return _kernels_py


_impl = _select()

BACKEND: str = _impl.BACKEND
ck_ball = _impl.ck_ball
klein_ball = _impl.klein_ball
z2_ball = _impl.z2_ball
ck_geodesics = _impl.ck_geodesics
