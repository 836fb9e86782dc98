"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: config problems exit 2,
failed verifications exit 1, infrastructure faults exit 3.
"""
from __future__ import annotations


class OscboundError(Exception):
    """Base class for all package-specific errors."""


class DomainError(OscboundError, ValueError):
    """An input lies outside the mathematical domain of an operation."""


class GeometryError(OscboundError, RuntimeError):
    """Discrete geometry is unusable: grid too coarse, degenerate minimum, etc."""


class ConfigError(OscboundError, ValueError):
    """A run configuration is malformed (unknown key, bad type, bad value)."""
