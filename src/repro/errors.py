"""Exception hierarchy for the SRB reproduction.

Every layer of the stack (network, storage drivers, MCAT, core broker,
MySRB) raises subclasses of :class:`SrbError` so that callers can catch
coarsely (``except SrbError``) or precisely (``except ReplicaUnavailable``).

The taxonomy mirrors the error surfaces the paper describes: permission
checks at multiple levels, unavailable storage systems that trigger replica
failover, lock conflicts, and namespace violations such as link chaining.
"""

from __future__ import annotations


class SrbError(Exception):
    """Base class for every error raised by this package."""


# --------------------------------------------------------------------------
# namespace / catalog errors
# --------------------------------------------------------------------------

class NamespaceError(SrbError):
    """Base class for logical-namespace violations."""


class InvalidPath(NamespaceError):
    """A logical path is syntactically invalid."""


class NoSuchObject(NamespaceError):
    """Logical path does not resolve to a data object or collection."""


class NoSuchCollection(NamespaceError):
    """Logical path does not resolve to a collection."""


class AlreadyExists(NamespaceError):
    """Attempt to create an object or collection that already exists."""


class NotEmpty(NamespaceError):
    """Attempt to remove a collection that still has children."""


class LinkChainError(NamespaceError):
    """Attempt to create a link whose target is itself a link.

    The paper forbids chained links: "An attempt to link to another link
    object will result in a direct link to the parent object."  The core
    collapses chains automatically; this error is raised only by low-level
    APIs asked to create a chain explicitly.
    """


# --------------------------------------------------------------------------
# metadata errors
# --------------------------------------------------------------------------

class MetadataError(SrbError):
    """Base class for metadata-layer failures."""


class MandatoryMetadataMissing(MetadataError):
    """Ingestion omitted an attribute the collection curator made mandatory."""

    def __init__(self, names):
        self.names = tuple(names)
        super().__init__(f"missing mandatory metadata: {', '.join(self.names)}")


class VocabularyViolation(MetadataError):
    """A structural attribute value is outside its restricted vocabulary."""


class NoSuchSchema(MetadataError):
    """Reference to an unregistered type-oriented metadata schema."""


class ExtractionError(MetadataError):
    """A metadata extraction method failed on its input."""


class QueryError(MetadataError):
    """Malformed MCAT attribute query."""


# --------------------------------------------------------------------------
# storage / resource errors
# --------------------------------------------------------------------------

class StorageError(SrbError):
    """Base class for physical-storage failures."""


class NoSuchResource(StorageError):
    """Unknown physical or logical resource name."""


class ResourceUnavailable(StorageError):
    """The storage system is down; callers may fail over to a replica."""


class NoSuchPhysicalFile(StorageError):
    """Physical path missing inside a storage resource."""


class StorageFull(StorageError):
    """Resource capacity exhausted."""


class PinnedFile(StorageError):
    """Delete or move refused because the copy holds a live pin."""


class ContainerError(StorageError):
    """Container-specific failure (bad member, not-a-container, ...)."""


# --------------------------------------------------------------------------
# replication errors
# --------------------------------------------------------------------------

class ReplicationError(SrbError):
    """Base class for replica-management failures."""


class ReplicaUnavailable(ReplicationError):
    """No replica of the object could be reached."""


class NoSuchReplica(ReplicationError):
    """Replica number does not exist for the object."""


# --------------------------------------------------------------------------
# security errors
# --------------------------------------------------------------------------

class AuthError(SrbError):
    """Base class for authentication failures."""


class BadCredentials(AuthError):
    """Password / challenge-response verification failed."""


class SessionExpired(AuthError):
    """MySRB session key passed its expiry (60 minutes by default)."""


class InvalidTicket(AuthError):
    """Proxy ticket failed validation (expired, forged, wrong audience)."""


class AccessDenied(SrbError):
    """ACL check failed for the requested operation."""

    def __init__(self, principal, action, target):
        self.principal = principal
        self.action = action
        self.target = target
        super().__init__(f"{principal!s} may not {action} {target!s}")


# --------------------------------------------------------------------------
# concurrency errors
# --------------------------------------------------------------------------

class LockError(SrbError):
    """Base class for lock/pin/version conflicts."""


class LockConflict(LockError):
    """Operation conflicts with a shared/exclusive lock held by another user."""


class NotCheckedOut(LockError):
    """Checkin attempted on an object that is not checked out."""


class AlreadyCheckedOut(LockError):
    """Checkout attempted on an object already checked out."""


# --------------------------------------------------------------------------
# network / federation errors
# --------------------------------------------------------------------------

class NetworkError(SrbError):
    """Base class for simulated-network failures."""


class HostUnreachable(NetworkError):
    """Destination host is down or partitioned."""


class RpcError(NetworkError):
    """Remote procedure call failed at the protocol layer."""


class NoSuchServer(NetworkError):
    """Federation has no server with the requested name."""


class ServerBusy(SrbError):
    """Admission control shed the request: the server's worker pool is
    saturated and its request queue is full.

    Carries a ``retry_after`` hint (virtual seconds until a worker is
    expected to free up) so callers can back off instead of hammering a
    saturated server — the fast-fail half of the open-loop load plane.
    Deliberately *not* a :class:`NetworkError`: the network delivered
    the request fine; the server refused to queue it.
    """

    def __init__(self, host: str, retry_after: float):
        self.host = host
        self.retry_after = float(retry_after)
        super().__init__(
            f"server on host {host!r} is at capacity; "
            f"retry after {self.retry_after:.4f}s")


# --------------------------------------------------------------------------
# misc
# --------------------------------------------------------------------------

class TLangError(SrbError):
    """T-language parse or evaluation failure."""


class DatabaseError(SrbError):
    """Relational-engine failure (bad SQL, unknown table, type mismatch)."""


class UnsupportedOperation(SrbError):
    """Operation the paper defines as unsupported for this object kind.

    Examples: copying a URL/SQL/method object, replicating a file inside a
    registered directory, physically moving a container member.
    """
