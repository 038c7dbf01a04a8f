"""Exception hierarchy for the TPUPoint reproduction.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
callers can catch the whole library with a single except clause while the
subsystem-specific subclasses keep error handling precise.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An object was configured with invalid or inconsistent options."""


class GraphError(ReproError):
    """A computational graph is malformed or an op is used incorrectly."""


class PartitionError(GraphError):
    """The host/TPU partitioner could not place the graph."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class StorageError(ReproError):
    """A cloud-storage bucket or object operation failed."""


class CheckpointError(StorageError):
    """A checkpoint could not be saved, found, or restored."""


class ProfilerError(ReproError):
    """TPUPoint-Profiler misuse (double start, stop before start, ...)."""


class ProfileServiceError(ProfilerError):
    """The gRPC-style profile service rejected or dropped a request."""


class FaultInjectionError(ProfileServiceError):
    """An injected fault fired at a pipeline boundary.

    Carries the fault ``kind`` (the :class:`repro.faults.FaultKind` value)
    and whether the failure is ``retryable`` — the resilient profile
    client retries only errors flagged retryable.
    """

    def __init__(self, message: str, kind: str = "error", retryable: bool = True):
        super().__init__(message)
        self.kind = kind
        self.retryable = retryable


class CircuitOpenError(ProfilerError):
    """The profile client's circuit breaker is open; no request was sent."""


class JournalError(ProfilerError):
    """The record journal could not be written, read, or recovered."""


class CodecError(ProfilerError):
    """A binary record payload, block, or wire frame failed to encode/decode."""


class AnalyzerError(ReproError):
    """TPUPoint-Analyzer received unusable profile data."""


class ClusteringError(AnalyzerError):
    """A clustering algorithm was invoked with invalid hyper-parameters."""


class AnalyzerMemoryError(AnalyzerError):
    """A clustering method exceeded the analyzer's memory budget."""


class ServeError(ReproError):
    """Fleet profiling service misuse (unknown job, bad lifecycle move)."""


class UnknownJobError(ServeError):
    """A query or ingest named a job id the fleet has never registered."""


class ShardError(ServeError):
    """Sharded-fleet misuse (bad shard count, resize while ingesting)."""


class ObsError(ReproError):
    """Self-observability misuse (bad metric name, unparseable dump)."""


class OptimizerError(ReproError):
    """TPUPoint-Optimizer misuse or tuning failure."""


class QualityViolationError(OptimizerError):
    """A parameter adjustment changed program output and was rolled back."""


class SearchExhausted(OptimizerError):
    """A trial evaluator cannot measure another trial (its step budget is spent).

    Strategies that can stop early catch it and keep the best
    configuration measured so far.
    """
