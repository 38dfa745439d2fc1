"""POSIX request model: operation types, classes, and the request record.

The PADLL prototype re-implements 42 POSIX calls spanning four operation
classes (data, metadata, extended attributes, directory management).  We
reproduce exactly that surface: :data:`POSIX_SURFACE` lists the 42 calls,
each mapped to its class and to the *MDS operation kind* it induces at the
metadata server (the kinds LustrePerfMon reports in the paper's trace
study), or to ``read``/``write`` for the data ops PADLL counts and
throttles but no MDS serves.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

__all__ = [
    "OperationClass",
    "OperationType",
    "Request",
    "POSIX_SURFACE",
    "MDS_OP_KINDS",
    "MDS_KIND_BY_OP",
    "MDS_CLASSES",
    "OP_CLASS_BY_OP",
    "mds_kind",
    "op_class",
    "batch_request",
]


class OperationClass(enum.Enum):
    """The four operation classes PADLL differentiates on."""

    DATA = "data"
    METADATA = "metadata"
    EXTENDED_ATTRIBUTES = "ext_attr"
    DIRECTORY_MANAGEMENT = "dir_mgmt"


class OperationType(enum.Enum):
    """The 42 POSIX calls the PADLL data plane intercepts."""

    # -- data (8) ----------------------------------------------------------
    READ = "read"
    WRITE = "write"
    PREAD = "pread"
    PWRITE = "pwrite"
    READV = "readv"
    WRITEV = "writev"
    LSEEK = "lseek"
    FSYNC = "fsync"
    # -- metadata (14) -----------------------------------------------------
    OPEN = "open"
    OPEN64 = "open64"
    CREAT = "creat"
    CLOSE = "close"
    STAT = "stat"
    LSTAT = "lstat"
    FSTAT = "fstat"
    RENAME = "rename"
    UNLINK = "unlink"
    LINK = "link"
    CHMOD = "chmod"
    CHOWN = "chown"
    TRUNCATE = "truncate"
    STATFS = "statfs"
    # -- directory management (8) -------------------------------------------
    MKDIR = "mkdir"
    MKNOD = "mknod"
    RMDIR = "rmdir"
    OPENDIR = "opendir"
    READDIR = "readdir"
    CLOSEDIR = "closedir"
    SYNC = "sync"
    RENAMEAT = "renameat"
    # -- extended attributes (12) --------------------------------------------
    GETXATTR = "getxattr"
    LGETXATTR = "lgetxattr"
    FGETXATTR = "fgetxattr"
    SETXATTR = "setxattr"
    LSETXATTR = "lsetxattr"
    FSETXATTR = "fsetxattr"
    LISTXATTR = "listxattr"
    LLISTXATTR = "llistxattr"
    FLISTXATTR = "flistxattr"
    REMOVEXATTR = "removexattr"
    LREMOVEXATTR = "lremovexattr"
    FREMOVEXATTR = "fremovexattr"


#: op type -> (operation class, MDS operation kind, ``read``/``write`` for a
#: data op, or None for a client-local call).
_SURFACE: dict[OperationType, tuple[OperationClass, Optional[str]]] = {
    # data ops bypass the MDS; lseek is client-local but still interceptable.
    OperationType.READ: (OperationClass.DATA, "read"),
    OperationType.WRITE: (OperationClass.DATA, "write"),
    OperationType.PREAD: (OperationClass.DATA, "read"),
    OperationType.PWRITE: (OperationClass.DATA, "write"),
    OperationType.READV: (OperationClass.DATA, "read"),
    OperationType.WRITEV: (OperationClass.DATA, "write"),
    OperationType.LSEEK: (OperationClass.DATA, None),
    OperationType.FSYNC: (OperationClass.DATA, "sync"),
    # metadata ops hit the MDS.
    OperationType.OPEN: (OperationClass.METADATA, "open"),
    OperationType.OPEN64: (OperationClass.METADATA, "open"),
    OperationType.CREAT: (OperationClass.METADATA, "open"),
    OperationType.CLOSE: (OperationClass.METADATA, "close"),
    OperationType.STAT: (OperationClass.METADATA, "getattr"),
    OperationType.LSTAT: (OperationClass.METADATA, "getattr"),
    OperationType.FSTAT: (OperationClass.METADATA, "getattr"),
    OperationType.RENAME: (OperationClass.METADATA, "rename"),
    OperationType.UNLINK: (OperationClass.METADATA, "unlink"),
    OperationType.LINK: (OperationClass.METADATA, "link"),
    OperationType.CHMOD: (OperationClass.METADATA, "setattr"),
    OperationType.CHOWN: (OperationClass.METADATA, "setattr"),
    OperationType.TRUNCATE: (OperationClass.METADATA, "setattr"),
    OperationType.STATFS: (OperationClass.METADATA, "statfs"),
    # directory management.
    OperationType.MKDIR: (OperationClass.DIRECTORY_MANAGEMENT, "mkdir"),
    OperationType.MKNOD: (OperationClass.DIRECTORY_MANAGEMENT, "mknod"),
    OperationType.RMDIR: (OperationClass.DIRECTORY_MANAGEMENT, "rmdir"),
    OperationType.OPENDIR: (OperationClass.DIRECTORY_MANAGEMENT, "open"),
    OperationType.READDIR: (OperationClass.DIRECTORY_MANAGEMENT, "getattr"),
    OperationType.CLOSEDIR: (OperationClass.DIRECTORY_MANAGEMENT, "close"),
    OperationType.SYNC: (OperationClass.DIRECTORY_MANAGEMENT, "sync"),
    OperationType.RENAMEAT: (OperationClass.DIRECTORY_MANAGEMENT, "rename"),
    # extended attributes all resolve to getattr/setattr-style MDS work.
    OperationType.GETXATTR: (OperationClass.EXTENDED_ATTRIBUTES, "getattr"),
    OperationType.LGETXATTR: (OperationClass.EXTENDED_ATTRIBUTES, "getattr"),
    OperationType.FGETXATTR: (OperationClass.EXTENDED_ATTRIBUTES, "getattr"),
    OperationType.SETXATTR: (OperationClass.EXTENDED_ATTRIBUTES, "setattr"),
    OperationType.LSETXATTR: (OperationClass.EXTENDED_ATTRIBUTES, "setattr"),
    OperationType.FSETXATTR: (OperationClass.EXTENDED_ATTRIBUTES, "setattr"),
    OperationType.LISTXATTR: (OperationClass.EXTENDED_ATTRIBUTES, "getattr"),
    OperationType.LLISTXATTR: (OperationClass.EXTENDED_ATTRIBUTES, "getattr"),
    OperationType.FLISTXATTR: (OperationClass.EXTENDED_ATTRIBUTES, "getattr"),
    OperationType.REMOVEXATTR: (OperationClass.EXTENDED_ATTRIBUTES, "setattr"),
    OperationType.LREMOVEXATTR: (OperationClass.EXTENDED_ATTRIBUTES, "setattr"),
    OperationType.FREMOVEXATTR: (OperationClass.EXTENDED_ATTRIBUTES, "setattr"),
}

#: Read-only view of the whole intercepted surface.
POSIX_SURFACE = dict(_SURFACE)

#: The MDS operation kinds LustrePerfMon reports (paper section II-A), in the
#: paper's order, plus the data kinds (counted and throttled; no MDS serves
#: them).
MDS_OP_KINDS: tuple[str, ...] = (
    "open",
    "close",
    "getattr",
    "setattr",
    "rename",
    "mkdir",
    "mknod",
    "rmdir",
    "statfs",
    "sync",
    "unlink",
    "link",
    "read",
    "write",
)


#: op type -> MDS operation kind, as a plain dict: hot paths (delivery sinks,
#: the PFS client) do one dict lookup instead of a property + function call.
MDS_KIND_BY_OP: dict[OperationType, Optional[str]] = {
    op: pair[1] for op, pair in _SURFACE.items()
}

#: op type -> operation class, same rationale as :data:`MDS_KIND_BY_OP`.
OP_CLASS_BY_OP: dict[OperationType, OperationClass] = {
    op: pair[0] for op, pair in _SURFACE.items()
}

#: The classes whose every call is MDS work: what a ``metadata`` channel
#: catches.  Data is the one class with calls no MDS serves.
MDS_CLASSES: frozenset[OperationClass] = frozenset(OperationClass) - {
    cls for cls, kind in _SURFACE.values() if kind in (None, "read", "write")
}


def op_class(op: OperationType) -> OperationClass:
    """Operation class of a POSIX call."""
    return _SURFACE[op][0]


def mds_kind(op: OperationType) -> Optional[str]:
    """MDS operation kind induced by a POSIX call (None = client-local)."""
    return _SURFACE[op][1]


@dataclass(slots=True)
class Request:
    """One intercepted POSIX request (or a fluid batch of identical ones).

    ``count`` is the number of operations this record represents.  The
    live path always uses ``count=1``; the fluid experiment path submits
    per-tick batches with large (possibly fractional) counts -- token-bucket
    arithmetic is linear in the count, so batching is exact.
    """

    op: OperationType
    path: str = ""
    job_id: str = ""
    count: float = 1.0
    submitted_at: float = field(default=0.0, compare=False)
    #: MDS kind pre-resolved by the creator (None = not resolved yet).
    #: Delivery sinks consult this before falling back to the per-op table;
    #: batch producers that already know the kind set it to skip the lookup.
    kind_hint: Optional[str] = field(default=None, compare=False, repr=False)
    #: Telemetry trace context (``repro.telemetry.trace.TraceContext``) when
    #: this request was head-sampled; ``None`` for the (default) untraced case.
    trace: Optional[object] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValueError(f"request count must be positive, got {self.count}")

    @property
    def op_class(self) -> OperationClass:
        return OP_CLASS_BY_OP[self.op]

    @property
    def mds_kind(self) -> Optional[str]:
        return MDS_KIND_BY_OP[self.op]

    def split(self, first: float) -> tuple["Request", "Request"]:
        """Split a batch into (granted, remainder) sub-batches."""
        if not 0 < first < self.count:
            raise ValueError(f"cannot split count={self.count} at {first}")
        head = batch_request(
            self.op, self.path, self.job_id, first,
            submitted_at=self.submitted_at, kind_hint=self.kind_hint,
            trace=self.trace,
        )
        tail = batch_request(
            self.op, self.path, self.job_id, self.count - first,
            submitted_at=self.submitted_at, kind_hint=self.kind_hint,
            trace=self.trace,
        )
        return head, tail


_new_request = Request.__new__


def batch_request(
    op: OperationType,
    path: str,
    job_id: str,
    count: float,
    submitted_at: float = 0.0,
    kind_hint: Optional[str] = None,
    trace: Optional[object] = None,
) -> Request:
    """Allocate a :class:`Request` without dataclass-init overhead.

    The fluid experiment path creates one record per (tick, kind, slice) --
    millions per run -- so the ``__init__``/``__post_init__`` validation
    cost is first-order there.  Callers guarantee ``count > 0`` (batch
    counts are derived from validated traces).
    """
    request = _new_request(Request)
    request.op = op
    request.path = path
    request.job_id = job_id
    request.count = count
    request.submitted_at = submitted_at
    request.kind_hint = kind_hint
    request.trace = trace
    return request
