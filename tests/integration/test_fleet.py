"""Fleet service end-to-end: live OLS parity, concurrent jobs, CLI."""

from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.core.analyzer import TPUPointAnalyzer
from repro.core.analyzer.ols import ols_labels
from repro.serve import FleetService, FleetServiceOptions, run_fleet
from repro.workloads.runner import run_workload
from repro.workloads.spec import WorkloadSpec

GOLDEN = Path(__file__).resolve().parents[1] / "data" / "golden"


def _stream_through_service(records, workload, threshold=0.70):
    """Feed a recorded run through the service as a live stream."""
    service = FleetService(options=FleetServiceOptions(threshold=threshold))
    info = service.register(workload)
    for record in records:
        service.submit(info.job_id, record)
        service.pump(info.job_id)  # drain as we go, like the fleet loop
    service.complete(info.job_id)
    return service, info


class TestLiveOlsParity:
    """Streaming phase labels must equal offline ols_labels, per workload."""

    def _assert_parity(self, records, workload, threshold=0.70):
        service, info = _stream_through_service(records, workload, threshold)
        analysis = service.analysis(info.job_id)
        offline_steps = TPUPointAnalyzer(list(records)).steps
        offline = ols_labels(offline_steps, threshold)
        assert analysis.labels == offline.tolist()
        assert analysis.phase_labels == dict(
            zip([s.step for s in offline_steps], offline.tolist())
        )
        assert analysis.num_phases == int(offline.max()) + 1

    def test_parity_bert_mrpc(self, bert_mrpc_run):
        _, _, records = bert_mrpc_run
        self._assert_parity(records, "bert-mrpc")

    def test_parity_dcgan_mnist(self):
        records = []
        run_workload(WorkloadSpec("dcgan-mnist"), record_sink=records.append)
        self._assert_parity(records, "dcgan-mnist")

    def test_parity_at_nondefault_threshold(self, bert_mrpc_run):
        _, _, records = bert_mrpc_run
        self._assert_parity(records, "bert-mrpc", threshold=0.95)


class TestFleetRun:
    def test_four_concurrent_jobs(self):
        mid_flight = []

        def observe(service, round_index):
            if round_index == 2:
                mid_flight.append(service.fleet_snapshot())

        result = run_fleet(
            ["dcgan-mnist", "bert-mrpc", "dcgan-cifar10", "bert-cola"],
            chunk_steps=16,
            on_round=observe,
        )
        assert len(result.jobs) == 4
        assert result.rollup.completed_jobs == 4 and result.rollup.active_jobs == 0
        assert result.rollup.total_drops == 0
        for job in result.jobs:
            assert job.snapshot.state == "completed"
            assert job.snapshot.steps_seen == job.summary.steps_executed
            assert job.snapshot.num_phases >= 1
            assert job.snapshot.coverage_top3 > 0.95
            assert job.records
        assert 0.0 < result.rollup.idle_fraction < 1.0
        assert 0.0 < result.rollup.mxu_utilization < 1.0
        assert sum(result.rollup.phase_histogram.values()) == 4
        # Queries taken while runs were in flight saw genuinely partial state.
        assert mid_flight
        snap = mid_flight[0]
        assert snap.active_jobs == 4
        assert 0 < snap.total_steps < result.rollup.total_steps

    def test_fleet_matches_solo_runs(self):
        # Multi-tenancy must not perturb the jobs: each summary equals a
        # dedicated run of the same spec.
        result = run_fleet(["dcgan-mnist", "dcgan-cifar10"], chunk_steps=32)
        for job in result.jobs:
            solo = run_workload(job.spec)
            assert job.summary.wall_us == pytest.approx(solo.summary.wall_us)
            assert job.summary.steps_executed == solo.summary.steps_executed

    def test_live_matches_final_for_completed_fleet(self):
        result = run_fleet(["dcgan-mnist"], chunk_steps=64)
        job = result.jobs[0]
        offline_steps = TPUPointAnalyzer(list(job.records)).steps
        offline = ols_labels(offline_steps, 0.70)
        analysis = result.service.analysis(job.job_id)
        assert analysis.labels == offline.tolist()


class TestFleetCli:
    def test_fleet_command(self, capsys):
        assert (
            cli_main(
                ["fleet", "--jobs", "4", "--workloads", "dcgan-mnist", "bert-mrpc",
                 "--chunk", "32"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "fleet rollup" in out
        assert "service metrics" in out
        assert out.count("[completed]") == 4

    @pytest.mark.parametrize("shards", ["1", "2"])
    def test_fleet_output_matches_golden(self, capsys, shards):
        """Per-phase top operators, k-means runs and the rollup, pinned.

        Everything before ``-- service metrics --`` is deterministic;
        the metrics block reports wall-clock query latency.
        """
        argv = ["fleet", "--jobs", "4", "--chunk", "24", "--shards", shards]
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        head = out[: out.index("-- service metrics --\n")]
        assert head == (GOLDEN / "fleet_jobs4_chunk24.txt").read_text(encoding="utf-8")

    @pytest.mark.parametrize("shards", ["1", "2"])
    def test_goodput_output_matches_golden(self, capsys, shards):
        argv = ["goodput", "--jobs", "4", "--chunk", "24", "--shards", shards]
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN / "goodput_jobs4_chunk24.txt").read_text(encoding="utf-8")

    def test_goodput_counters_export_through_the_metrics_dump(self, capsys, tmp_path):
        dump = tmp_path / "goodput-metrics.prom"
        argv = ["goodput", "--jobs", "2", "--chunk", "24", "--shards", "2",
                "--metrics-out", str(dump)]
        assert cli_main(argv) == 0
        capsys.readouterr()
        text = dump.read_text(encoding="utf-8")
        assert 'repro_serve_goodput_us_total{bucket="goodput"}' in text
        assert "repro_serve_shards" in text

    def test_fleet_rejects_bad_jobs(self, capsys):
        assert cli_main(["fleet", "--jobs", "0"]) == 1
        assert "error" in capsys.readouterr().err

    def test_profile_threshold_flag(self, capsys):
        assert (
            cli_main(["profile", "dcgan-mnist", "--method", "ols", "--threshold", "0.3"])
            == 0
        )
        assert "params {'threshold': 0.3}" in capsys.readouterr().out

    def test_threshold_requires_ols(self, capsys):
        assert (
            cli_main(["profile", "dcgan-mnist", "--method", "kmeans", "--threshold", "0.5"])
            == 1
        )
        assert "--threshold applies only" in capsys.readouterr().err
