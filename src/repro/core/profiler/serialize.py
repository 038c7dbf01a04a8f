"""Profile-record serialization.

The real TPUPoint persists statistical records into Cloud Storage so the
analyzer can run long after training finished, possibly on another
machine. This module provides the equivalent offline path: a record
store is a directory holding one binary block file
(:mod:`repro.core.profiler.codec`) plus a manifest, so
``TPUPointAnalyzer`` can be fed from disk (the CLI's ``analyze``
subcommand does exactly that).

Records also have a stable JSON view (:func:`record_to_dict`). Nothing
writes it to disk any more; it defines the canonical encoding the
end-to-end :func:`record_checksum` is computed over (in memory), and it
is how record stores and journals written before the binary codec are
read back.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

from repro.core.profiler.record import OperatorStats, ProfileRecord, StepStats
from repro.errors import JournalError, ProfilerError
from repro.runtime.events import DeviceKind, StepKind

SCHEMA_VERSION = 1


def record_to_dict(record: ProfileRecord) -> dict:
    """A JSON-serializable view of one record."""
    return {
        "schema": SCHEMA_VERSION,
        "index": record.index,
        "window_start_us": record.window_start_us,
        "window_end_us": record.window_end_us,
        "truncated": record.truncated,
        "final": record.final,
        "steps": [
            {
                "step": step.step,
                "kind": step.kind.value if step.kind is not None else None,
                "start_us": step.start_us,
                "end_us": step.end_us,
                "tpu_idle_us": step.tpu_idle_us,
                "mxu_flops": step.mxu_flops,
                "operators": [
                    {
                        "name": stats.name,
                        "device": stats.device.value,
                        "count": stats.count,
                        "total_duration_us": stats.total_duration_us,
                    }
                    for stats in step.operators.values()
                ],
            }
            for step in record.steps.values()
        ],
    }


def canonical_payload(payload: dict) -> str:
    """The canonical JSON encoding checksums are computed over.

    Sorted keys and fixed separators make the encoding stable across a
    JSON round-trip, so a checksum computed at the producer still
    verifies after the payload was parsed and re-encoded.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def payload_checksum(payload: dict) -> int:
    """CRC-32 of the canonical encoding of a record payload."""
    return zlib.crc32(canonical_payload(payload).encode("utf-8"))


def record_checksum(record: ProfileRecord) -> int:
    """End-to-end integrity checksum of one record.

    Producers stamp records with this before hand-off; the fleet service
    and the journal recovery loader recompute it to detect corruption in
    transit or on disk.
    """
    return payload_checksum(record_to_dict(record))


def record_from_dict(payload: dict) -> ProfileRecord:
    """Rebuild a record from its JSON view."""
    schema = payload.get("schema")
    if schema != SCHEMA_VERSION:
        raise ProfilerError(f"unsupported record schema {schema!r}")
    record = ProfileRecord(
        index=int(payload["index"]),
        window_start_us=float(payload["window_start_us"]),
        window_end_us=float(payload["window_end_us"]),
        truncated=bool(payload.get("truncated", False)),
        final=bool(payload.get("final", False)),
    )
    for step_payload in payload["steps"]:
        step = StepStats(
            step=int(step_payload["step"]),
            kind=StepKind(step_payload["kind"]) if step_payload.get("kind") else None,
            start_us=float(step_payload.get("start_us", 0.0)),
            end_us=float(step_payload.get("end_us", 0.0)),
            tpu_idle_us=float(step_payload.get("tpu_idle_us", 0.0)),
            mxu_flops=float(step_payload.get("mxu_flops", 0.0)),
        )
        for op_payload in step_payload["operators"]:
            device = DeviceKind(op_payload["device"])
            step.operators[(op_payload["name"], device.value)] = OperatorStats(
                name=op_payload["name"],
                device=device,
                count=int(op_payload["count"]),
                total_duration_us=float(op_payload["total_duration_us"]),
            )
        record.steps[step.step] = step
    return record


#: File carrying every record of a binary record store.
BINARY_RECORDS_FILE = "records.bin"


def save_records(records: list[ProfileRecord], directory: str | Path) -> Path:
    """Write records plus a manifest under ``directory``; returns it.

    The records go to one block file written through
    :class:`~repro.core.profiler.journal.RecordJournal` — one CRC-checked
    block per record — and :func:`load_records` reads the store back.
    """
    from repro.core.profiler import codec
    from repro.core.profiler.journal import RecordJournal

    directory = Path(directory)
    journal = RecordJournal(directory / BINARY_RECORDS_FILE)
    try:
        for record in records:
            journal.append(record)
    finally:
        journal.close()
    manifest = {
        "schema": SCHEMA_VERSION,
        "format": "binary",
        "codec": codec.CODEC_VERSION,
        "num_records": len(records),
        "records": [BINARY_RECORDS_FILE],
    }
    with open(directory / "manifest.json", "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2)
    return directory


def _load_json(path: Path):
    """The JSON value in ``path``; raises :class:`ProfilerError` naming the file."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as error:
        raise ProfilerError(f"cannot read {path}: {error.strerror}") from None
    except ValueError as error:
        raise ProfilerError(f"unparseable JSON in {path}: {error}") from None


def _load_block_file(path: Path) -> tuple[ProfileRecord, ...]:
    """Every record of one binary store file; raises :class:`ProfilerError` naming it.

    The file is read as a strict journal recovery: a corrupt block, a
    torn tail or a missing file magic is an error, not a skip.
    """
    from repro.core.profiler.journal import detect_journal_format, recover_journal

    try:
        if detect_journal_format(path) != "binary":
            raise JournalError("it lacks the binary record magic")
        recovery = recover_journal(path, strict=True)
        if recovery.torn_tail:
            raise JournalError("its last block is cut short")
    except (JournalError, OSError) as error:
        raise ProfilerError(f"cannot load record store file {path}: {error}") from None
    return recovery.records


def load_records(directory: str | Path) -> list[ProfileRecord]:
    """Load records previously written by :func:`save_records`.

    The manifest names the store's format: ``binary``, or ``json`` for
    stores written before the binary codec (one JSON file per record;
    a manifest without a ``format`` field is one of those).
    """
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise ProfilerError(f"no manifest.json under {directory}")
    manifest = _load_json(manifest_path)
    if not isinstance(manifest, dict):
        raise ProfilerError(f"{manifest_path} is not a record-store manifest")
    if manifest.get("schema") != SCHEMA_VERSION:
        raise ProfilerError(f"unsupported manifest schema {manifest.get('schema')!r}")
    found = manifest.get("format", "json")
    if found not in ("binary", "json"):
        raise ProfilerError(f"unsupported record format {found!r} in {manifest_path}")
    names = manifest.get("records")
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        raise ProfilerError(f"{manifest_path} does not list its record files")
    records = []
    for name in names:
        path = directory / name
        if found == "binary":
            records.extend(_load_block_file(path))
            continue
        try:
            records.append(record_from_dict(_load_json(path)))
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as error:
            raise ProfilerError(f"malformed record file {path}: {error!r}") from None
    records.sort(key=lambda record: record.index)
    return records
