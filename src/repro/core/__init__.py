"""The SRB core: federated servers, client API, replication, containers."""

from repro.core.access import AccessController, satisfies
from repro.core.client import SrbClient
from repro.core.containers import ContainerManager
from repro.core.federation import Federation
from repro.core.locking import (
    DEFAULT_LOCK_LIFETIME_S,
    DEFAULT_PIN_LIFETIME_S,
    LockManager,
)
from repro.core.replication import synchronize
from repro.core.server import SrbServer

__all__ = [
    "Federation", "SrbServer", "SrbClient",
    "AccessController", "satisfies",
    "ContainerManager", "LockManager",
    "synchronize",
    "DEFAULT_LOCK_LIFETIME_S", "DEFAULT_PIN_LIFETIME_S",
]
