"""Monkey-patch interposition of the interpreter's file-I/O entry points.

:class:`Interposer` is a context manager that replaces ``builtins.open``
and a table of ``os`` functions with wrappers that hand the call's
operation type and path to
:meth:`LiveStage.admit <repro.interpose.live_stage.LiveStage.admit>`
*before* invoking the real call -- interception semantics matching the
paper's LD_PRELOAD shim as closely as pure Python allows.

The patch set covers the metadata and directory-management surface an
application exercises through the standard library.  Reads and writes go
through file objects rather than module functions, so data-op throttling
wraps the object returned by ``open`` (read/write methods acquire from
the stage per call).

The classifier matches absolute path text against mounts and rule
prefixes, so the wrappers absolutise what the application typed
(:func:`_resolve`); a ``str`` that already starts with ``/`` -- the
common case -- pays only that first-character test.
"""

from __future__ import annotations

import builtins
import functools
import os
import threading
from typing import Any, Callable, Dict, Optional

from repro.errors import InterpositionError
from repro.core.requests import OperationType
from repro.interpose.live_stage import LiveStage

__all__ = ["Interposer"]

#: os-module function name -> (operation type, positional index and keyword
#: of the path argument the call is classified by: where the entry is made
#: or looked up, so ``symlink`` goes by the link, not its target text).
#: (os.open is handled separately so the returned fd's path is recorded.)
_OS_TABLE: Dict[str, tuple[OperationType, int, str]] = {
    "stat": (OperationType.STAT, 0, "path"),
    "lstat": (OperationType.LSTAT, 0, "path"),
    "chmod": (OperationType.CHMOD, 0, "path"),
    "chown": (OperationType.CHOWN, 0, "path"),
    "truncate": (OperationType.TRUNCATE, 0, "path"),
    "unlink": (OperationType.UNLINK, 0, "path"),
    "remove": (OperationType.UNLINK, 0, "path"),
    "link": (OperationType.LINK, 0, "src"),
    "symlink": (OperationType.LINK, 1, "dst"),
    "readlink": (OperationType.STAT, 0, "path"),
    "rename": (OperationType.RENAME, 0, "src"),
    "replace": (OperationType.RENAME, 0, "src"),
    "mkdir": (OperationType.MKDIR, 0, "path"),
    "rmdir": (OperationType.RMDIR, 0, "path"),
    "listdir": (OperationType.READDIR, 0, "path"),
    "scandir": (OperationType.READDIR, 0, "path"),
    "statvfs": (OperationType.STATFS, 0, "path"),
    "utime": (OperationType.CHMOD, 0, "path"),
    "getxattr": (OperationType.GETXATTR, 0, "path"),
    "setxattr": (OperationType.SETXATTR, 0, "path"),
    "listxattr": (OperationType.LISTXATTR, 0, "path"),
    "removexattr": (OperationType.REMOVEXATTR, 0, "path"),
}


#: fd-based os functions: name -> operation type.  The wrapper resolves
#: the fd to a path via the interposer's descriptor table (populated by
#: the os.open wrapper), so mount differentiation works for fd calls too.
_FD_TABLE: Dict[str, OperationType] = {
    "close": OperationType.CLOSE,
    "fstat": OperationType.FSTAT,
    "fchmod": OperationType.CHMOD,
    "ftruncate": OperationType.TRUNCATE,
    "fsync": OperationType.FSYNC,
    "read": OperationType.READ,
    "write": OperationType.WRITE,
}


def _resolve(value: Any) -> str:
    """Absolute path text for the classifier; ``""`` (unknown, treated as
    PFS-bound) for an fd or anything else that names no path."""
    try:
        path = os.fsdecode(value)
    except TypeError:
        return ""
    return os.path.abspath(path) if path else ""


class _ThrottledFile:
    """Proxy around a file object that throttles read/write calls."""

    def __init__(self, inner: Any, admit: Callable, path: str) -> None:
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(self, "_admit", admit)
        object.__setattr__(self, "_path", path)

    def read(self, *args, **kwargs):
        self._admit(OperationType.READ, self._path)
        return self._inner.read(*args, **kwargs)

    def write(self, data, *args, **kwargs):
        self._admit(OperationType.WRITE, self._path)
        return self._inner.write(data, *args, **kwargs)

    def readline(self, *args, **kwargs):
        self._admit(OperationType.READ, self._path)
        return self._inner.readline(*args, **kwargs)

    def close(self) -> None:
        self._admit(OperationType.CLOSE, self._path)
        self._inner.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __iter__(self):
        return iter(self._inner)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def __setattr__(self, name: str, value: Any) -> None:
        setattr(self._inner, name, value)


class Interposer:
    """Context manager installing/removing the interposition patches.

    Nested installation is rejected: like a double LD_PRELOAD of the same
    shim, it would double-throttle every call.
    """

    _active_lock = threading.Lock()
    _active: Optional["Interposer"] = None

    def __init__(self, stage: LiveStage, wrap_file_io: bool = True) -> None:
        self.stage = stage
        self.wrap_file_io = wrap_file_io
        self._saved_open: Optional[Callable] = None
        self._saved_os: Dict[str, Callable] = {}
        self.intercepted_calls = 0
        #: fd -> path for descriptors opened through the patched os.open.
        self._fd_paths: Dict[int, str] = {}

    # -- wrappers ----------------------------------------------------------------
    # Each binds ``stage.admit`` once, when install() builds it, and hands
    # it the op and an absolute path: no request record on the way.
    def _make_os_open_wrapper(self, original: Callable):
        """os.open: throttle, then remember the returned fd's path."""
        admit = self.stage.admit

        @functools.wraps(original)
        def wrapper(path, *args, **kwargs):
            resolved = path
            if type(resolved) is not str or resolved[:1] != "/":
                resolved = _resolve(resolved)
            self.intercepted_calls += 1
            admit(OperationType.OPEN, resolved)
            fd = original(path, *args, **kwargs)
            if isinstance(fd, int):
                self._fd_paths[fd] = resolved
            return fd

        return wrapper

    def _make_fd_wrapper(self, original: Callable, name: str, op: OperationType):
        """fd-based os call: resolve the fd to a path, throttle, forward."""
        admit = self.stage.admit
        fd_paths = self._fd_paths
        forget = name == "close"

        @functools.wraps(original)
        def wrapper(fd, *args, **kwargs):
            known = isinstance(fd, int)
            self.intercepted_calls += 1
            admit(op, fd_paths.get(fd, "") if known else "")
            result = original(fd, *args, **kwargs)
            if forget and known:
                fd_paths.pop(fd, None)
            return result

        return wrapper

    def _make_os_wrapper(
        self, original: Callable, op: OperationType, path_idx: int, keyword: str
    ):
        admit = self.stage.admit

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            path = args[path_idx] if len(args) > path_idx else kwargs.get(keyword)
            if type(path) is not str or path[:1] != "/":
                path = _resolve(path)
            self.intercepted_calls += 1
            admit(op, path)
            return original(*args, **kwargs)

        return wrapper

    def _make_open_wrapper(self, original: Callable):
        admit = self.stage.admit

        @functools.wraps(original)
        def wrapper(file, *args, **kwargs):
            path = file
            if type(path) is not str or path[:1] != "/":
                path = _resolve(path)
            self.intercepted_calls += 1
            admit(OperationType.OPEN, path)
            handle = original(file, *args, **kwargs)
            if self.wrap_file_io and path:
                return _ThrottledFile(handle, admit, path)
            return handle

        return wrapper

    # -- install / remove ------------------------------------------------------------
    def install(self) -> None:
        with Interposer._active_lock:
            if Interposer._active is not None:
                raise InterpositionError("an Interposer is already installed")
            Interposer._active = self
        self._saved_open = builtins.open
        builtins.open = self._make_open_wrapper(builtins.open)
        for name, (op, path_idx, keyword) in _OS_TABLE.items():
            original = getattr(os, name, None)
            if original is None:
                continue  # platform without this call (e.g. xattr on mac)
            self._saved_os[name] = original
            setattr(os, name, self._make_os_wrapper(original, op, path_idx, keyword))
        # os.open gets fd bookkeeping; fd-based calls resolve through it.
        self._saved_os["open"] = os.open
        os.open = self._make_os_open_wrapper(os.open)
        for name, op in _FD_TABLE.items():
            original = getattr(os, name, None)
            if original is None:
                continue
            self._saved_os[name] = original
            setattr(os, name, self._make_fd_wrapper(original, name, op))

    def remove(self) -> None:
        with Interposer._active_lock:
            if Interposer._active is not self:
                raise InterpositionError("this Interposer is not installed")
            Interposer._active = None
        if self._saved_open is not None:
            builtins.open = self._saved_open
            self._saved_open = None
        for name, original in self._saved_os.items():
            setattr(os, name, original)
        self._saved_os.clear()
        self._fd_paths.clear()

    def __enter__(self) -> "Interposer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()
