"""Simulated external web space for registered URL objects.

"A URL.  The user can specify any URL including ftp calls and cgi
queries.  On retrieval, the contents of the URL are retrieved and
displayed.  The contents of the URL are not stored in the SRB on
registration."

The :class:`WebSpace` stands in for the outside internet: URLs map to
static bytes or to callables (cgi queries whose answer varies with time).
Fetches charge network transfer from the hosting site to the requesting
host, so retrieving a registered URL costs WAN time like everything else.
"""

from __future__ import annotations

from typing import Callable, Dict, Union
from urllib.parse import urlparse

from repro.errors import NoSuchPhysicalFile, StorageError
from repro.net.simnet import Network

ContentProvider = Union[bytes, Callable[[], bytes]]


class WebSpace:
    """Registry of external URLs reachable from the grid."""

    def __init__(self, network: Network, host: str = "www"):
        self.network = network
        self.host = host
        if host not in [h.name for h in network.hosts()]:
            network.add_host(host, site="internet")
        self._content: Dict[str, ContentProvider] = {}
        self.fetches = 0

    def publish(self, url: str, content: ContentProvider) -> None:
        """Make ``url`` resolvable.  ``content`` may be bytes or a callable
        returning bytes (a cgi query whose answer can vary with time)."""
        self._validate(url)
        self._content[url] = content

    @staticmethod
    def _validate(url: str) -> None:
        parsed = urlparse(url)
        if parsed.scheme not in ("http", "https", "ftp"):
            raise StorageError(f"unsupported URL scheme in {url!r}")
        if not parsed.netloc:
            raise StorageError(f"URL needs a host: {url!r}")

    def fetch(self, url: str, requesting_host: str) -> bytes:
        """Retrieve the current contents of ``url`` onto ``requesting_host``.

        Charges one request message plus the response transfer.
        """
        self._validate(url)
        provider = self._content.get(url)
        if provider is None:
            raise NoSuchPhysicalFile(f"URL not resolvable: {url!r}")
        data = provider() if callable(provider) else provider
        if not isinstance(data, (bytes, bytearray)):
            raise StorageError(f"URL {url!r} provider returned non-bytes")
        self.network.transfer(requesting_host, self.host, 256)   # request
        self.network.transfer(self.host, requesting_host, len(data))
        self.fetches += 1
        return bytes(data)
