"""Shared utilities: virtual clock, id factories, logical-path algebra."""

from repro.util.clock import SimClock
from repro.util.ids import IdFactory, session_key
from repro.util import paths

__all__ = ["SimClock", "IdFactory", "session_key", "paths"]
