"""Parse and summarize observability dumps.

The read side of the exposition formats: ``tpupoint obs`` (and the CI
smoke job) feed the files written by ``--trace-out`` / ``--metrics-out``
back through these parsers, so a malformed dump fails loudly instead of
silently producing a file no viewer can load.

* :func:`load_trace` validates chrome://tracing JSON (the Trace Event
  Format both the workload and toolchain exporters emit).
* :func:`parse_prometheus` validates text exposition (``# HELP`` /
  ``# TYPE`` headers and ``name{labels} value`` samples).

Both raise :class:`~repro.errors.ObsError` on malformed input; the
``summarize_*`` helpers return the human-readable lines the CLI prints.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from repro.errors import ObsError

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$"
)
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
_ESCAPE_RE = re.compile(r"\\(.)")
_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n"}


def _unescape_label_value(value: str) -> str:
    """Invert the writer's label escaping (``\\\\``, ``\\"``, ``\\n``).

    A single left-to-right pass, so ``\\\\n`` round-trips to a literal
    backslash + ``n`` rather than a newline. Unknown escapes pass the
    escaped character through, matching Prometheus parser behavior.
    """
    return _ESCAPE_RE.sub(
        lambda match: _UNESCAPES.get(match.group(1), match.group(1)), value
    )


def load_trace(path: str | Path) -> list[dict]:
    """Load a chrome://tracing file; returns its event list."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        raise ObsError(f"cannot read trace {path}: {error}") from error
    if isinstance(payload, list):
        events = payload
    elif isinstance(payload, dict) and isinstance(payload.get("traceEvents"), list):
        events = payload["traceEvents"]
    else:
        raise ObsError(f"{path} is not Trace Event Format (no traceEvents array)")
    for event in events:
        if not isinstance(event, dict) or "ph" not in event:
            raise ObsError(f"{path} holds a malformed trace event: {event!r}")
        if event["ph"] == "X" and (
            not isinstance(event.get("name"), str)
            or _as_float(event.get("ts")) is None
            or _as_float(event.get("dur")) is None
            or not isinstance(event.get("args", {}), dict)
        ):
            raise ObsError(
                f"{path}: complete event needs a name, numeric ts/dur and "
                f"an args object: {event!r}"
            )
    return events


def parse_prometheus(text: str) -> dict[str, list[tuple[dict, float]]]:
    """Parse text exposition into ``{metric: [(labels, value), ...]}``."""
    samples: dict[str, list[tuple[dict, float]]] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ObsError(f"metrics line {number} is not exposition format: {line!r}")
        raw = match.group("value")
        try:
            value = float("inf") if raw == "+Inf" else float(raw)
        except ValueError as error:
            raise ObsError(f"metrics line {number} has a bad value: {line!r}") from error
        labels = {
            key: _unescape_label_value(raw_value)
            for key, raw_value in _LABEL_PAIR_RE.findall(match.group("labels") or "")
        }
        samples.setdefault(match.group("name"), []).append((labels, value))
    return samples


def load_metrics(path: str | Path) -> dict[str, list[tuple[dict, float]]]:
    """Load a metrics dump (``.prom``/``.txt`` text or ``.json``)."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise ObsError(f"cannot read metrics {path}: {error}") from error
    if path.suffix == ".json":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ObsError(f"{path} is not valid JSON: {error}") from error
        if not isinstance(payload, dict):
            raise ObsError(f"{path} is not a metrics snapshot object")
        samples: dict[str, list[tuple[dict, float]]] = {}
        for name, family in payload.items():
            entries = family.get("samples", []) if isinstance(family, dict) else None
            if not isinstance(entries, list):
                raise ObsError(f"{path} holds a malformed metric family {name!r}")
            for sample in entries:
                labels = sample.get("labels", {}) if isinstance(sample, dict) else None
                if not isinstance(labels, dict):
                    raise ObsError(
                        f"{path} holds a malformed sample of {name!r}: {sample!r}"
                    )
                value = _as_float(sample.get("value", sample.get("count", 0)))
                if value is None:
                    raise ObsError(
                        f"{path} holds a non-numeric sample of {name!r}: {sample!r}"
                    )
                samples.setdefault(name, []).append((dict(labels), value))
        return samples
    return parse_prometheus(text)


def _load_json_object(path: Path, what: str) -> dict:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        raise ObsError(f"cannot read {what} {path}: {error}") from error
    if not isinstance(payload, dict):
        raise ObsError(f"{path} is not a {what} object")
    return payload


def load_health(path: str | Path) -> dict:
    """Load and validate a ``tpupoint health --out`` dump.

    Checks the ring payloads structurally (via
    :meth:`~repro.obs.timeseries.RingStore.from_dict`) so a torn ring —
    mismatched tick/value arrays, non-increasing ticks — fails loudly,
    and checks the shard views and SLO rows :func:`summarize_health`
    reads. Returns the validated payload.
    """
    from repro.obs.timeseries import RingStore

    path = Path(path)
    payload = _load_json_object(path, "health dump")
    rings = payload.get("rings")
    if rings is None:
        raise ObsError(f"{path} is not a health dump (no 'rings' object)")
    shards = payload.get("shards") or {}
    if not isinstance(shards, dict):
        raise ObsError(f"{path} holds a malformed health dump: 'shards' is not an object")
    slos = payload.get("slos", [])
    if not isinstance(slos, list) or not all(_is_slo_row(status) for status in slos):
        raise ObsError(f"{path} holds a malformed health dump: bad 'slos' array")
    try:
        RingStore.from_dict(rings)
        for label, shard_rings in shards.items():
            if not isinstance(label, str):
                raise ObsError(f"bad shard label {label!r}")
            RingStore.from_dict(shard_rings)
    except ObsError as error:
        raise ObsError(f"{path} holds a malformed ring dump: {error}") from error
    alerts = payload.get("alerts")
    if alerts is not None:
        _validate_alerts(path, alerts)
    return payload


_EVENT_KEYS = ("tick", "rule", "scope", "transition")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_float(value) -> float | None:
    """``value`` as a float when it is a JSON number a float can hold, else None."""
    if not _is_number(value):
        return None
    try:
        return float(value)
    except OverflowError:
        return None


def _is_slo_row(status) -> bool:
    """Whether one ``slos`` row holds what :func:`summarize_health` formats."""
    return isinstance(status, dict) and all(
        _is_number(status.get(key, 0.0)) for key in ("ratio", "target")
    )


def _validate_alerts(path: Path, payload: dict) -> None:
    if not isinstance(payload, dict):
        raise ObsError(f"{path} holds a malformed alert dump: not an object")
    events = payload.get("events")
    if not isinstance(events, list):
        raise ObsError(f"{path} holds a malformed alert dump: no 'events' array")
    for event in events:
        if not isinstance(event, dict) or any(key not in event for key in _EVENT_KEYS):
            raise ObsError(
                f"{path} holds a malformed alert event (needs "
                f"{'/'.join(_EVENT_KEYS)}): {event!r}"
            )
        if event["transition"] not in ("fired", "resolved"):
            raise ObsError(
                f"{path} holds an alert event with a bad transition: {event!r}"
            )
        if not _is_number(event["tick"]):
            raise ObsError(f"{path} holds an alert event with a bad tick: {event!r}")
    for key in ("rules", "active"):
        entries = payload.get(key, [])
        if not isinstance(entries, list) or any(
            not isinstance(entry, dict) for entry in entries
        ):
            raise ObsError(f"{path} holds a malformed alert dump: bad {key!r} array")


def load_alerts(path: str | Path) -> dict:
    """Load and validate a ``tpupoint alerts --out`` dump."""
    path = Path(path)
    payload = _load_json_object(path, "alert dump")
    if "events" not in payload or "rules" not in payload:
        raise ObsError(f"{path} is not an alert dump (no 'events'/'rules')")
    _validate_alerts(path, payload)
    return payload


def summarize_trace(path: str | Path) -> list[str]:
    """Human-readable summary lines for one trace file."""
    events = load_trace(path)
    complete = [e for e in events if e.get("ph") == "X"]
    names = sorted({e["name"] for e in complete})
    with_parent = sum(1 for e in complete if "parent_id" in e.get("args", {}))
    lines = [
        f"{path}: chrome://tracing, {len(events)} events "
        f"({len(complete)} spans, {with_parent} nested, {len(names)} names)",
    ]
    for event in sorted(complete, key=lambda e: -float(e.get("dur", 0.0)))[:5]:
        lines.append(f"  {float(event['dur']) / 1e3:10.3f} ms  {event['name']}")
    return lines


def summarize_metrics(path: str | Path) -> list[str]:
    """Human-readable summary lines for one metrics file."""
    samples = load_metrics(path)
    total = sum(len(entries) for entries in samples.values())
    lines = [f"{path}: {len(samples)} metrics, {total} samples"]
    for name in sorted(samples):
        entries = samples[name]
        if len(entries) == 1 and not entries[0][0]:
            lines.append(f"  {name} = {entries[0][1]:g}")
        else:
            lines.append(f"  {name} ({len(entries)} series)")
    return lines


def summarize_health(path: str | Path) -> list[str]:
    """Human-readable summary lines for one health dump."""
    payload = load_health(path)
    rings = payload.get("rings", {}).get("series", {})
    points = sum(len(ring.get("ticks", [])) for ring in rings.values())
    shards = payload.get("shards") or {}
    lines = [
        f"{path}: health dump @ tick {payload.get('tick', 0)}, "
        f"{len(rings)} fleet series ({points} points), {len(shards)} shard views",
    ]
    for status in payload.get("slos", []):
        flame = " BURNING" if status.get("burning") else ""
        lines.append(
            f"  slo {status.get('name')}: ratio {status.get('ratio', 0.0):.1%} "
            f"target {status.get('target', 0.0):.0%}{flame}"
        )
    alerts = payload.get("alerts") or {}
    active = alerts.get("active", [])
    lines.append(f"  alerts: {len(alerts.get('events', []))} events, {len(active)} active")
    for alert in active:
        lines.append(
            f"    {alert.get('rule')} ({alert.get('scope')}) "
            f"since tick {alert.get('since_tick')}"
        )
    return lines


def summarize_alerts(path: str | Path) -> list[str]:
    """Human-readable summary lines for one alert dump."""
    payload = load_alerts(path)
    events = payload.get("events", [])
    fired = sum(1 for event in events if event.get("transition") == "fired")
    lines = [
        f"{path}: alert dump, {len(payload.get('rules', []))} rules, "
        f"{len(events)} events ({fired} fired), "
        f"{len(payload.get('active', []))} active",
    ]
    for event in events:
        lines.append(
            f"  [tick {event['tick']:>4}] {event['rule']} "
            f"({event['scope']}) {event['transition']}"
        )
    return lines


def summarize(path: str | Path) -> list[str]:
    """Dispatch on file shape: trace, metrics, health, or alert dump."""
    path = Path(path)
    if path.suffix == ".json":
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            raise ObsError(f"cannot read {path}: {error}") from error
        if isinstance(payload, list) or (
            isinstance(payload, dict) and "traceEvents" in payload
        ):
            return summarize_trace(path)
        if isinstance(payload, dict) and "rings" in payload:
            return summarize_health(path)
        if isinstance(payload, dict) and "events" in payload and "rules" in payload:
            return summarize_alerts(path)
        return summarize_metrics(path)
    return summarize_metrics(path)
