"""Request differentiation: deciding which channel (if any) handles a request.

PADLL stages must distinguish requests destined to the shared PFS from
requests to other file systems (xfs scratch, NFS home, ...), and then route
PFS-bound requests to the enforcement channel matching their attributes
(operation type, operation class, path prefix, job).  A request matching no
rule is *passed through* -- submitted to the file system unthrottled --
which mirrors the paper's behaviour for non-PFS traffic.

Rules are evaluated in priority order (highest first, then insertion
order), so an administrator can install a specific rule ("open calls to
/scratch/foo") above a broad one ("all metadata").

Fast path
---------
``classify`` (and ``decide``, the same lookup for the live wrappers, which
hold an op and a path but no request record) is called once per
intercepted request -- millions of times per experiment -- so decisions
are memoised in a generation-stamped cache keyed on
``(op value, job_id, dirname(path))`` (the operation class is implied by
the operation type, so it needs no key slot).  Caching per *directory*
is exact except when some rule prefix or PFS mount points at an entry
*inside* that directory, in which case siblings can classify differently;
those directories are precomputed and fall back to exact-path keys, as do
paths with no directory part at all.  The cache is invalidated whenever
the rule table changes.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.core.requests import OperationClass, OperationType, Request, batch_request

__all__ = ["Decision", "PASSTHROUGH", "ClassifierRule", "Classifier"]

#: Decisions cached per classifier before the cache is reset (a safety
#: bound for adversarial path churn; experiments use a few dozen keys).
_CACHE_LIMIT = 8192


@dataclass(frozen=True, slots=True)
class Decision:
    """Outcome of classification: target channel or passthrough."""

    channel_id: Optional[str]
    rule_name: str = ""

    @property
    def enforced(self) -> bool:
        return self.channel_id is not None


#: Shared decision object for unmatched requests.
PASSTHROUGH = Decision(channel_id=None, rule_name="<passthrough>")


def _normalise_prefix(prefix: str) -> str:
    """Normalise a path prefix so '/scratch' matches '/scratch/x' not '/scratchy'."""
    prefix = prefix.rstrip("/")
    return prefix or "/"


def _under(path: str, pairs: tuple[tuple[str, str], ...]) -> bool:
    """True when ``path`` lies under a prefix of ``pairs``, each a
    normalised ``(prefix, prefix + "/")``."""
    for prefix, slashed in pairs:
        if prefix == "/":
            if path.startswith("/"):
                return True
        elif path == prefix or path.startswith(slashed):
            return True
    return False


def _dirname(path: str) -> str:
    """Directory part of ``path`` (posixpath.dirname without the import cost)."""
    i = path.rfind("/")
    if i > 0:
        return path[:i]
    if i == 0:
        return "/"
    return ""


@dataclass(frozen=True, slots=True)
class ClassifierRule:
    """One differentiation rule.

    Every non-``None`` attribute is a conjunct: the rule matches a request
    only when all configured attributes match.  An empty conjunct set is
    rejected -- a rule must constrain *something*.
    """

    name: str
    channel_id: str
    op_types: Optional[frozenset[OperationType]] = None
    op_classes: Optional[frozenset[OperationClass]] = None
    path_prefixes: Optional[tuple[str, ...]] = None
    job_ids: Optional[frozenset[str]] = None
    priority: int = 0
    #: Precomputed (prefix, prefix + "/") pairs so matching never builds
    #: the slash-terminated string per request.
    _prefix_pairs: Optional[tuple[tuple[str, str], ...]] = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("classifier rule needs a name")
        if not self.channel_id:
            raise ConfigError(f"rule {self.name!r} needs a channel id")
        if (
            self.op_types is None
            and self.op_classes is None
            and self.path_prefixes is None
            and self.job_ids is None
        ):
            raise ConfigError(f"rule {self.name!r} constrains nothing")
        if self.op_types is not None:
            object.__setattr__(self, "op_types", frozenset(self.op_types))
        if self.op_classes is not None:
            object.__setattr__(self, "op_classes", frozenset(self.op_classes))
        if self.path_prefixes is not None:
            prefixes = tuple(_normalise_prefix(p) for p in self.path_prefixes)
            if not prefixes:
                raise ConfigError(f"rule {self.name!r} has an empty prefix list")
            object.__setattr__(self, "path_prefixes", prefixes)
            object.__setattr__(
                self, "_prefix_pairs", tuple((p, p + "/") for p in prefixes)
            )
        if self.job_ids is not None:
            object.__setattr__(self, "job_ids", frozenset(self.job_ids))

    def matches(self, request: Request) -> bool:
        if self.op_types is not None and request.op not in self.op_types:
            return False
        if self.op_classes is not None and request.op_class not in self.op_classes:
            return False
        if self.job_ids is not None and request.job_id not in self.job_ids:
            return False
        pairs = self._prefix_pairs
        return pairs is None or _under(request.path, pairs)


class Classifier:
    """Ordered rule table with an optional PFS mount filter.

    When ``pfs_mounts`` is given, any request whose path falls outside every
    mount is passed through *before* rule evaluation -- the paper's
    "requests submitted to POSIX file systems other than the PFS" case.
    Requests with an empty path (e.g. fd-only calls whose path is unknown)
    are treated as PFS-bound, the conservative choice.
    """

    def __init__(
        self,
        rules: Iterable[ClassifierRule] = (),
        pfs_mounts: Optional[Sequence[str]] = None,
    ) -> None:
        self._rules: list[ClassifierRule] = []
        #: Sort keys parallel to ``_rules``: negated priority, so bisect on
        #: an ascending list yields descending-priority order with stable
        #: (insertion-order) placement among equal priorities.
        self._rule_keys: list[int] = []
        self._names: set[str] = set()
        self._mounts: Optional[tuple[str, ...]] = None
        self._mount_pairs: Tuple[tuple[str, str], ...] = ()
        if pfs_mounts is not None:
            self._mounts = tuple(_normalise_prefix(m) for m in pfs_mounts)
            if not self._mounts:
                raise ConfigError("pfs_mounts must not be empty when given")
            self._mount_pairs = tuple((m, m + "/") for m in self._mounts)
        #: Decision cache; bumped-and-cleared on any rule-table change.
        self._cache: Dict[tuple, Decision] = {}
        self._generation = 0
        #: Directories containing a rule prefix or mount endpoint: paths in
        #: these directories use exact-path cache keys (see module docs).
        self._ambiguous_dirs: frozenset[str] = self._compute_ambiguous_dirs()
        for rule in rules:
            self.add_rule(rule)

    @property
    def rules(self) -> tuple[ClassifierRule, ...]:
        """Rules in evaluation order."""
        return tuple(self._rules)

    @property
    def pfs_mounts(self) -> Optional[tuple[str, ...]]:
        return self._mounts

    @property
    def generation(self) -> int:
        """Bumped on every rule-table change (cache-invalidation stamp)."""
        return self._generation

    def _compute_ambiguous_dirs(self) -> frozenset[str]:
        dirs = set()
        for rule in self._rules:
            for prefix in rule.path_prefixes or ():
                dirs.add(_dirname(prefix))
        for mount in self._mounts or ():
            dirs.add(_dirname(mount))
        return frozenset(dirs)

    def _invalidate(self) -> None:
        self._generation += 1
        self._cache.clear()
        self._ambiguous_dirs = self._compute_ambiguous_dirs()

    def add_rule(self, rule: ClassifierRule) -> None:
        """Insert a rule, keeping the table sorted by descending priority.

        Insertion among equal priorities is stable (earlier installs win).
        Duplicate detection and placement are O(log n) via a name set and
        a parallel sort-key list.
        """
        if rule.name in self._names:
            raise ConfigError(f"duplicate rule name {rule.name!r}")
        key = -rule.priority
        idx = bisect_right(self._rule_keys, key)
        self._rule_keys.insert(idx, key)
        self._rules.insert(idx, rule)
        self._names.add(rule.name)
        self._invalidate()

    def remove_rule(self, name: str) -> None:
        for i, rule in enumerate(self._rules):
            if rule.name == name:
                del self._rules[i]
                del self._rule_keys[i]
                self._names.discard(name)
                self._invalidate()
                return
        raise ConfigError(f"no rule named {name!r}")

    def classify(self, request: Request) -> Decision:
        """Return the decision for ``request`` (first matching rule wins)."""
        return self.decide(request.op, request.job_id, request.path)

    def decide(self, op: OperationType, job_id: str, path: str) -> Decision:
        """:meth:`classify` for a caller that holds no :class:`Request`.

        The key carries the op's value string (``Enum.__hash__`` is a
        Python-level call) and inlines :func:`_dirname`; a hit runs no
        other frame.  Slash-less paths -- the empty "unknown" path and
        relative names, which decide differently -- are keyed exactly.
        """
        i = path.rfind("/")
        directory = path[:i] if i > 0 else "/"
        if i < 0 or directory in self._ambiguous_dirs:
            key = (op._value_, job_id, path, True)
        else:
            key = (op._value_, job_id, directory, False)
        decision = self._cache.get(key)
        if decision is not None:
            return decision
        decision = self._classify_uncached(batch_request(op, path, job_id, 1.0))
        if len(self._cache) >= _CACHE_LIMIT:
            self._cache.clear()
        self._cache[key] = decision
        return decision

    def _classify_uncached(self, request: Request) -> Decision:
        path = request.path
        if self._mount_pairs and path and not _under(path, self._mount_pairs):
            return PASSTHROUGH
        for rule in self._rules:
            if rule.matches(request):
                return Decision(channel_id=rule.channel_id, rule_name=rule.name)
        return PASSTHROUGH
