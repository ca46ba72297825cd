"""Exception hierarchy for the cluster substrate."""

from __future__ import annotations


class ClusterError(Exception):
    """Base class for every error raised by :mod:`repro.cluster`."""


class ConfigurationError(ClusterError):
    """Raised for invalid cluster configuration (e.g. RF larger than cluster)."""


class UnknownNodeError(ClusterError):
    """Raised when an operation references a node that is not a member."""


class TopologyError(ClusterError):
    """Raised for invalid topology changes (e.g. removing the last node)."""
