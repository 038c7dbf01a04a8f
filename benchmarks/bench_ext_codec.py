"""Extension: binary record codec throughput + streaming analyzer exactness.

Two claims, each measured and asserted (docs/performance.md):

1. The binary block journal appends AND recovers at >= 3x the JSONL
   journal's throughput. Throughput is normalized to the *JSONL* byte
   volume of the same records (the payload both formats carry), so the
   binary format cannot win by merely writing fewer bytes — it must
   spend less time per record.
2. The streaming analyzer produces labels bit-identical to the batch
   k-means pipeline on the same records.

``--quick`` (the CI codec-smoke guard) runs a smaller matrix with the
same assertions.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from _harness import emit
from repro.core.analyzer import TPUPointAnalyzer
from repro.core.analyzer.streaming import StreamingAnalyzer
from repro.core.profiler.journal import RecordJournal, recover_journal
from repro.core.profiler.record import OperatorStats, ProfileRecord, StepStats
from repro.runtime.events import DeviceKind, StepKind

_PHASE_OPS = (
    ("MatMul", "fusion", "InfeedDequeueTuple", "Reshape", "Send"),
    ("conv2d", "pool", "softmax", "OutfeedEnqueueTuple", "Recv"),
    ("SaveV2", "MergeV2Checkpoints", "ShardedFilename"),
    ("embed", "gather", "one_hot", "pad"),
)


def _journal_record(index: int, steps: int = 8, ops: int = 12) -> ProfileRecord:
    """A record shaped like a real profile window (dense operator maps)."""
    record = ProfileRecord(
        index=index, window_start_us=index * 1e6, window_end_us=(index + 1) * 1e6
    )
    for s in range(steps):
        number = index * steps + s
        step = StepStats(step=number, kind=StepKind.TRAIN)
        step.start_us = number * 1_000.0
        step.end_us = step.start_us + 950.0
        step.tpu_idle_us = 120.0 + (number % 7)
        step.mxu_flops = 2.5e9 + number
        for o in range(ops):
            name = f"op_{o}_{_PHASE_OPS[o % 4][o % 3]}"
            device = DeviceKind.TPU if o % 3 else DeviceKind.HOST
            step.operators[(name, device.value)] = OperatorStats(
                name=name,
                device=device,
                count=1 + o,
                total_duration_us=10.0 * (o + 1) + number % 5,
            )
        record.steps[number] = step
    return record


def _phased_records(phases: int = 4, block: int = 40):
    """Phase-contiguous stream: one step signature per phase."""
    records = []
    number = 0
    for phase in range(phases):
        record = ProfileRecord(
            index=len(records), window_start_us=0.0, window_end_us=1.0
        )
        for _ in range(block):
            step = StepStats(step=number, kind=StepKind.TRAIN)
            step.start_us = number * 100.0
            step.end_us = step.start_us + 95.0
            step.tpu_idle_us = 11.0
            step.mxu_flops = 1e9
            for position, name in enumerate(_PHASE_OPS[phase]):
                step.operators[(name, DeviceKind.TPU.value)] = OperatorStats(
                    name=name,
                    device=DeviceKind.TPU,
                    count=2 + position,
                    total_duration_us=20.0 * (position + 1),
                )
            record.steps[number] = step
            number += 1
            if len(record.steps) == 32:
                records.append(record)
                record = ProfileRecord(
                    index=len(records), window_start_us=0.0, window_end_us=1.0
                )
        if record.steps:
            records.append(record)
    return records


def _journal_round_trip(directory: Path, records, format: str, repeats: int = 3):
    """Best-of-``repeats`` (append_seconds, recover_seconds, bytes_on_disk)."""
    append_seconds = recover_seconds = float("inf")
    path = directory / f"bench.{format}"
    for _ in range(repeats):
        path.unlink(missing_ok=True)
        journal = RecordJournal(path, format=format)
        began = time.perf_counter()
        for record in records:
            journal.append(record)
        append_seconds = min(append_seconds, time.perf_counter() - began)
        journal.close()
        began = time.perf_counter()
        recovery = recover_journal(path)
        recover_seconds = min(recover_seconds, time.perf_counter() - began)
        assert recovery.lossless and len(recovery.records) == len(records)
    return append_seconds, recover_seconds, path.stat().st_size


def run_journal_comparison(records, directory: Path, min_speedup: float) -> list[str]:
    json_append, json_recover, json_bytes = _journal_round_trip(
        directory, records, "json"
    )
    bin_append, bin_recover, bin_bytes = _journal_round_trip(
        directory, records, "binary"
    )
    mb = json_bytes / 1e6  # both throughputs normalized to the JSONL volume
    append_speedup = json_append / bin_append
    recover_speedup = json_recover / bin_recover
    lines = [
        f"records          : {len(records)} "
        f"({json_bytes} JSONL bytes, {bin_bytes} binary bytes)",
        f"append           : jsonl {mb / json_append:8.1f} MB/s   "
        f"binary {mb / bin_append:8.1f} MB/s   ({append_speedup:.1f}x)",
        f"recover          : jsonl {mb / json_recover:8.1f} MB/s   "
        f"binary {mb / bin_recover:8.1f} MB/s   ({recover_speedup:.1f}x)",
    ]
    assert append_speedup >= min_speedup, (
        f"binary append is only {append_speedup:.1f}x JSONL "
        f"(required >= {min_speedup}x)"
    )
    assert recover_speedup >= min_speedup, (
        f"binary recover is only {recover_speedup:.1f}x JSONL "
        f"(required >= {min_speedup}x)"
    )
    return lines


def run_exactness() -> list[str]:
    records = _phased_records()
    batch = TPUPointAnalyzer(records).kmeans_phases()
    streaming = StreamingAnalyzer()
    for record in records:
        streaming.fold_record(record)
    streaming.finish()
    analysis = streaming.analyze()
    assert np.array_equal(analysis.labels, batch.labels), (
        "streaming labels diverged from batch"
    )
    return [
        f"streaming        : labels bit-identical to batch "
        f"(k={analysis.params['k']}, {len(analysis.labels)} steps)"
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument("--out-dir", default=None, help="scratch directory")
    args = parser.parse_args(argv)

    if args.out_dir is None:
        import tempfile

        scratch = tempfile.TemporaryDirectory(prefix="bench_codec_")
        directory = Path(scratch.name)
    else:
        directory = Path(args.out_dir)
        directory.mkdir(parents=True, exist_ok=True)

    num_records = 80 if args.quick else 400
    records = [_journal_record(i) for i in range(num_records)]

    lines = run_journal_comparison(records, directory, min_speedup=3.0)
    lines += run_exactness()
    emit(
        "ext_codec",
        "binary record codec + streaming analyzer"
        + (" (quick)" if args.quick else ""),
        lines,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
