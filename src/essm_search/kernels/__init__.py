"""Kernel dispatch: compiled Cython board kernels with a pure-Python fallback.

The compiled module is chosen automatically when its extension was built.
Selection can be overridden by the ESSM_SEARCH_KERNEL environment variable
or at runtime with :func:`use` (values: auto, compiled, pure). Both
implementations are behaviorally identical; only throughput differs.
"""

from __future__ import annotations

import os

from . import queens_py as _pure

try:
    from . import _queens_cy as _compiled  # type: ignore[attr-defined]
except ImportError:
    _compiled = None

_CHOICES = ("auto", "compiled", "pure")


def _resolve(choice: str):
    if choice not in _CHOICES:
        raise ValueError(f"kernel must be one of {_CHOICES}, got {choice!r}")
    if choice == "pure":
        return _pure
    if choice == "compiled":
        if _compiled is None:
            raise RuntimeError("compiled kernels are not available; build the "
                               "extension or select the pure kernel")
        return _compiled
    return _compiled if _compiled is not None else _pure


_active = _resolve(os.environ.get("ESSM_SEARCH_KERNEL", "auto"))


def use(choice: str) -> None:
    """Switch the active kernel. Affects kernel calls made after the call;
    not meant to be flipped while searches are running."""
    global _active
    _active = _resolve(choice)


def active():
    """The module currently serving kernel calls."""
    return _active


def active_name() -> str:
    return _active.KERNEL_NAME


def compiled_available() -> bool:
    return _compiled is not None


def implementations() -> dict:
    """Name-to-module map of every importable kernel implementation."""
    out = {"pure": _pure}
    if _compiled is not None:
        out["compiled"] = _compiled
    return out
