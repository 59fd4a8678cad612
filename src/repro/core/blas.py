"""Read and set the thread count of the loaded OpenBLAS libraries.

numpy and scipy each bundle their own OpenBLAS: numpy's
``libscipy_openblas64_`` (64-bit integers, ``*64_`` symbols) and scipy's
``libscipy_openblas``.  Setting only one of them leaves half the kernels
at the default, and ``OPENBLAS_NUM_THREADS`` only takes effect before a
library loads.  This module finds every loaded OpenBLAS through
``ctypes`` and drives its own ``get``/``set_num_threads`` exports, in
the manner of threadpoolctl (https://github.com/joblib/threadpoolctl):

* :func:`threads` — each library's thread count by name, or
  :data:`UNCONTROLLED` when no setter was found;
* :func:`blas_threads` — a context that sets every library to ``n``
  threads and restores each library's own count on exit.

Calling a setter starts that library's thread server when it is not
running, so :func:`set_threads` leaves a library that already reads
``n`` alone.  Loaded objects are listed with ``dl_iterate_phdr`` (Linux)
again whenever its load counters move, so a library loaded after the
first call is still found; elsewhere nothing is found and every call
changes nothing.
"""

from __future__ import annotations

import ctypes
import os
import sys
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import NamedTuple

__all__ = ["UNCONTROLLED", "blas_threads", "set_threads", "threads"]

#: What :func:`threads` reports when no OpenBLAS setter was found.
UNCONTROLLED = "uncontrolled"

#: ``(getter, setter)`` export pairs, tried in order on each library:
#: numpy's 64-bit-integer build, then scipy's build.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


class _Library(NamedTuple):
    """One loaded OpenBLAS: its short name and thread-count exports."""

    name: str
    get: Callable[[], int]
    set: Callable[[int], object]


class _PhdrInfo(ctypes.Structure):
    # The leading fields of ``struct dl_phdr_info``.  ``adds`` and
    # ``subs`` count the objects loaded and unloaded so far; the C
    # library fills them where the callback's ``size`` covers them.
    _fields_ = [
        ("addr", ctypes.c_void_p),
        ("name", ctypes.c_char_p),
        ("phdr", ctypes.c_void_p),
        ("phnum", ctypes.c_uint16),
        ("adds", ctypes.c_ulonglong),
        ("subs", ctypes.c_ulonglong),
    ]


_Visit = ctypes.CFUNCTYPE(
    ctypes.c_int, ctypes.POINTER(_PhdrInfo), ctypes.c_size_t, ctypes.c_void_p
)


def _walk(visit: Callable[[_PhdrInfo, int], int]) -> None:
    """``visit(info, size)`` each loaded object until it returns non-zero."""
    if sys.platform.startswith("linux"):
        callback = _Visit(lambda info, size, _data: visit(info.contents, size))
        ctypes.CDLL(None).dl_iterate_phdr(callback, None)


def _loaded_objects() -> list[str]:
    """Paths of the shared objects loaded into this process (Linux)."""
    paths: list[str] = []

    def visit(info: _PhdrInfo, _size: int) -> int:
        if info.name:
            paths.append(os.fsdecode(info.name))
        return 0

    _walk(visit)
    return paths


def _load_events() -> tuple[int, int] | None:
    """Objects loaded and unloaded so far, or ``None`` where not counted."""
    events: list[tuple[int, int]] = []

    def visit(info: _PhdrInfo, size: int) -> int:
        if size >= ctypes.sizeof(_PhdrInfo):
            events.append((info.adds, info.subs))
        return 1  # every entry carries the same counts

    _walk(visit)
    return events[0] if events else None


def _discover() -> tuple[_Library, ...]:
    found: list[_Library] = []
    for path in _loaded_objects():
        filename = os.path.basename(path)
        if "openblas" not in filename:
            continue
        lib = ctypes.CDLL(path)
        for getter, setter in _SYMBOLS:
            if hasattr(lib, getter) and hasattr(lib, setter):
                get = getattr(lib, getter)
                get.restype = ctypes.c_int
                # "libscipy_openblas64_-32a4b2a6.so" -> "libscipy_openblas64_"
                name = filename.split("-")[0].split(".")[0]
                found.append(_Library(name, get, getattr(lib, setter)))
                break
    return tuple(found)


_found: tuple[_Library, ...] = ()
#: :func:`_load_events` when ``_found`` was listed.
_found_at: tuple[int, int] | None = None


def _libraries() -> tuple[_Library, ...]:
    """The OpenBLAS libraries loaded now, in load order.

    Listed again whenever an object was loaded or unloaded since the last
    listing, so a library loaded after the first call is still found.
    """
    global _found, _found_at
    events = _load_events()
    if events is None or events != _found_at:
        _found, _found_at = _discover(), events
    return _found


def threads() -> dict[str, int] | str:
    """Each library's thread count by name, or :data:`UNCONTROLLED`."""
    libraries = _libraries()
    if not libraries:
        return UNCONTROLLED
    return {lib.name: lib.get() for lib in libraries}


def set_threads(n: int) -> None:
    """Set every library that does not already read ``n`` to ``n`` threads."""
    for lib in _libraries():
        if lib.get() != n:
            lib.set(n)


@contextmanager
def blas_threads(n: int) -> Iterator[None]:
    """Run the block at ``n`` BLAS threads, then restore each library.

    A process forked inside the block inherits ``n`` without starting
    any BLAS thread of its own.
    """
    saved = [(lib, lib.get()) for lib in _libraries()]
    for lib, count in saved:
        if count != n:
            lib.set(n)
    try:
        yield
    finally:
        for lib, count in saved:
            if lib.get() != count:
                lib.set(count)
