"""Profile-record serialization.

The real TPUPoint persists statistical records into Cloud Storage so the
analyzer can run long after training finished, possibly on another
machine. This module provides the equivalent offline path: records
round-trip through a stable JSON schema, one file per record plus a
manifest, so ``TPUPointAnalyzer`` can be fed from disk (the CLI's
``analyze`` subcommand does exactly that).
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

from repro.core.profiler.record import OperatorStats, ProfileRecord, StepStats
from repro.errors import ProfilerError
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

RECORD_FORMATS = ("binary", "json")


def save_records(
    records: list[ProfileRecord], directory: str | Path, format: str = "json"
) -> Path:
    """Write records plus a manifest under ``directory``; returns it.

    ``format="json"`` (the historical layout) writes one JSON file per
    record; ``format="binary"`` writes a single columnar block file
    (:mod:`repro.core.profiler.codec`) — one CRC-checked block per
    record. Either way :func:`load_records` reads the store back via
    the manifest's ``format`` field.
    """
    if format not in RECORD_FORMATS:
        raise ProfilerError(
            f"unknown record format {format!r}; expected one of "
            + "/".join(RECORD_FORMATS)
        )
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if format == "binary":
        from repro.core.profiler import codec

        with open(directory / BINARY_RECORDS_FILE, "wb") as handle:
            handle.write(codec.MAGIC)
            for seq, record in enumerate(records):
                handle.write(codec.encode_block(seq, record))
        manifest = {
            "schema": SCHEMA_VERSION,
            "format": "binary",
            "codec": codec.CODEC_VERSION,
            "num_records": len(records),
            "records": [BINARY_RECORDS_FILE],
        }
    else:
        names = []
        for record in records:
            name = f"record-{record.index:06d}.json"
            with open(directory / name, "w", encoding="utf-8") as handle:
                json.dump(record_to_dict(record), handle)
            names.append(name)
        manifest = {
            "schema": SCHEMA_VERSION,
            "format": "json",
            "num_records": len(records),
            "records": names,
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


def load_records(directory: str | Path, format: str = "auto") -> list[ProfileRecord]:
    """Load records previously written by :func:`save_records`.

    ``format="auto"`` follows the manifest (stores written before the
    ``format`` field exists are JSON); naming a format instead asserts
    the store matches it, so a pipeline that expects binary records
    fails loudly on a JSON store rather than silently reading it.
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
    if found not in RECORD_FORMATS:
        raise ProfilerError(f"unsupported record format {found!r} in {manifest_path}")
    if format not in RECORD_FORMATS + ("auto",):
        raise ProfilerError(
            f"unknown record format {format!r}; expected auto, "
            + ", or ".join(RECORD_FORMATS)
        )
    if format != "auto" and format != found:
        raise ProfilerError(
            f"records under {directory} are stored as {found}, not {format}"
        )
    names = manifest.get("records")
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        raise ProfilerError(f"{manifest_path} does not list its record files")
    records = []
    if found == "binary":
        from repro.core.profiler import codec

        for name in names:
            try:
                data = (directory / name).read_bytes()
            except OSError as error:
                raise ProfilerError(f"cannot read {directory / name}: {error.strerror}") from None
            if not data.startswith(codec.MAGIC):
                raise ProfilerError(
                    f"{directory / name} lacks the binary record magic"
                )
            view = memoryview(data)
            offset = len(codec.MAGIC)
            while offset < len(view):
                read = codec.read_block(view, offset)
                if read.status != "ok":
                    raise ProfilerError(
                        f"corrupt record store {directory / name}: {read.error}"
                    )
                records.append(read.record)
                offset = read.next_offset
    else:
        for name in names:
            path = directory / name
            try:
                records.append(record_from_dict(_load_json(path)))
            except (AttributeError, KeyError, TypeError, ValueError) as error:
                raise ProfilerError(f"malformed record file {path}: {error!r}") from None
    records.sort(key=lambda record: record.index)
    return records
