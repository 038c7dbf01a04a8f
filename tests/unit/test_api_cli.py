"""The TPUPoint front-end API (Figure 2) and the CLI."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.core.api import TPUPoint
from repro.core.profiler.serialize import save_records
from repro.errors import ProfilerError

DATA = Path(__file__).resolve().parents[1] / "data" / "loaders"
GOLDEN = Path(__file__).resolve().parents[1] / "data" / "golden"


class TestTPUPointApi:
    def test_figure2_flow(self, tiny_estimator):
        tpupoint = TPUPoint(tiny_estimator)
        tpupoint.Start(analyzer=True)
        tiny_estimator.train()
        records = tpupoint.Stop()
        assert records
        result = tpupoint.analyzer().ols_phases()
        assert result.num_phases >= 1

    def test_double_start_rejected(self, tiny_estimator):
        tpupoint = TPUPoint(tiny_estimator)
        tpupoint.Start()
        with pytest.raises(ProfilerError):
            tpupoint.Start()

    def test_stop_without_start_rejected(self, tiny_estimator):
        with pytest.raises(ProfilerError):
            TPUPoint(tiny_estimator).Stop()

    def test_records_require_stop(self, tiny_estimator):
        tpupoint = TPUPoint(tiny_estimator)
        tpupoint.Start()
        with pytest.raises(ProfilerError):
            tpupoint.records

    def test_analyzer_requires_analyzer_flag(self, tiny_estimator):
        tpupoint = TPUPoint(tiny_estimator)
        tpupoint.Start(analyzer=False)
        tiny_estimator.train()
        tpupoint.Stop()
        with pytest.raises(ProfilerError):
            tpupoint.analyzer()

    def test_pythonic_aliases(self, tiny_estimator):
        tpupoint = TPUPoint(tiny_estimator)
        tpupoint.start()
        tiny_estimator.train()
        assert tpupoint.stop()

    def test_optimize_runs_to_completion(self, tiny_model, tiny_dataset):
        from repro.models.naive import naive_pipeline_config

        estimator = tiny_model.build_estimator(
            tiny_dataset, pipeline_config=naive_pipeline_config()
        )
        result = TPUPoint(estimator).optimize()
        assert estimator.session.finished
        assert result.summary.steps_executed > 0


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "bert-mrpc" in out
        assert "resnet-imagenet" in out

    def test_profile_writes_exports(self, capsys, tmp_path):
        code = cli_main(
            ["profile", "bert-mrpc", "--method", "ols", "--out", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "TPU idle time" in out
        assert "top-3 phase coverage" in out
        assert (tmp_path / "ols_trace.json").exists()
        assert (tmp_path / "ols_phases.csv").exists()

    def test_optimize_reports_speedup(self, capsys):
        assert cli_main(["optimize", "naive-dcgan-mnist"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "best config" in out or "tuning trials" in out

    def test_tune_cold_then_warm(self, capsys, tmp_path):
        argv = [
            "tune", "naive-dcgan-mnist",
            "--strategy", "racing",
            "--knowledge-dir", str(tmp_path),
            "--trial-steps", "3",
        ]
        assert cli_main(argv) == 0
        cold = capsys.readouterr().out
        assert "offline autotune (racing)" in cold
        assert "phase signature" in cold
        assert "0 entries" in cold and "(miss)" in cold
        assert "warm start      : no" in cold
        assert "recorded" in cold

        assert cli_main(argv) == 0
        warm = capsys.readouterr().out
        assert "1 entries" in warm
        assert "hit, similarity 1.00" in warm
        assert "warm start      : yes" in warm

    def test_tune_skips_malformed_knowledge_entries(self, capsys, tmp_path):
        document = json.loads(
            (DATA / "knowledge" / "tuning_knowledge.json").read_text(encoding="utf-8")
        )
        valid = document["entries"][0]
        document["entries"] = [
            {**valid, "trials": 0},
            {**valid, "signature": []},
            {**valid, "improvement": float("nan")},
            "not an entry",
        ]
        (tmp_path / "tuning_knowledge.json").write_text(json.dumps(document), encoding="utf-8")
        argv = [
            "tune", "naive-dcgan-mnist",
            "--strategy", "racing",
            "--knowledge-dir", str(tmp_path),
            "--trial-steps", "3",
        ]
        assert cli_main(argv) == 0
        assert "0 entries" in capsys.readouterr().out

    def test_tune_surrogate_with_a_non_list_corpus(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.json"
        corpus.write_text('{"pairs": 5}', encoding="utf-8")
        argv = [
            "tune", "naive-dcgan-mnist",
            "--strategy", "surrogate",
            "--surrogate-corpus", str(corpus),
            "--trial-steps", "3",
        ]
        assert cli_main(argv) == 0
        assert "offline autotune (surrogate)" in capsys.readouterr().out

    def test_tune_rejects_unknown_strategy(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["tune", "naive-dcgan-mnist", "--strategy", "grid"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_tune_surrogate_with_corpus(self, capsys, tmp_path):
        corpus = Path("benchmarks/corpus/surrogate_corpus.json")
        dump = tmp_path / "model.json"
        argv = [
            "tune", "naive-dcgan-mnist",
            "--strategy", "surrogate",
            "--surrogate-corpus", str(corpus),
            "--surrogate-out", str(dump),
            "--trial-steps", "3",
        ]
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "offline autotune (surrogate)" in out
        assert "surrogate       : ridge" in out
        assert "fitted" in out
        assert dump.exists()
        import json

        document = json.loads(dump.read_text(encoding="utf-8"))
        assert document["ready"] is True
        assert document["model"]["kind"] == "ridge"

    def test_tune_surrogate_cold_without_corpus(self, capsys):
        argv = [
            "tune", "naive-dcgan-mnist",
            "--strategy", "surrogate",
            "--trial-steps", "3",
        ]
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "offline autotune (surrogate)" in out
        # Too few pairs from one tiny run: the model reports cold.
        assert "surrogate       :" in out

    def test_tune_warns_on_unwritable_knowledge_dir(self, capsys, tmp_path):
        import os

        if hasattr(os, "geteuid") and os.geteuid() == 0:
            pytest.skip("root bypasses file permissions")
        parent = tmp_path / "ro"
        parent.mkdir()
        parent.chmod(0o555)
        try:
            argv = [
                "tune", "naive-dcgan-mnist",
                "--strategy", "racing",
                "--knowledge-dir", str(parent / "kb"),
                "--trial-steps", "3",
            ]
            assert cli_main(argv) == 0
            captured = capsys.readouterr()
            assert "read-only" in captured.err
            assert "nothing will be persisted" in captured.err
        finally:
            parent.chmod(0o755)


class TestCliErrorHygiene:
    """ReproError -> one-line stderr message, exit code 1, no traceback."""

    def test_unknown_workload(self, capsys):
        code = cli_main(["profile", "no-such-workload"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err
        assert "Traceback" not in captured.out

    def test_missing_fault_plan(self, capsys, tmp_path):
        code = cli_main(
            ["profile", "bert-mrpc", "--faults", str(tmp_path / "nope.json")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "fault plan" in err

    @pytest.mark.parametrize(
        "plan",
        [
            '{"client": 5}',
            '{"seed": 1e999}',
            '{"faults": [{"kind": "error", "every_nth": Infinity}]}',
            '{"sdc": [{"model": "bit_flip", "every_nth": 1, "last_step": Infinity}]}',
            '{"faults": [{"kind": "error", "nth": [1]}], "client": {"max_attempts": "x"}}',
            '{"faults": [{"kind": "error", "nth": [1]}], "client": {"max_attempts": NaN}}',
            '{"faults": [{"kind": "delay", "nth": [1], "delay_ms": NaN}]}',
        ],
        ids=[
            "client-not-an-object", "seed-inf", "every_nth-inf", "sdc-last_step-inf",
            "max_attempts-string", "max_attempts-nan", "delay_ms-nan",
        ],
    )
    def test_malformed_fault_plan_is_one_error_line(self, capsys, tmp_path, plan):
        path = tmp_path / "plan.json"
        path.write_text(plan, encoding="utf-8")
        code = cli_main(["profile", "dcgan-mnist", "--breakpoint", "2", "--faults", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")
        assert len(captured.err.strip().splitlines()) == 1

    def test_malformed_health_dump_is_one_error_line(self, capsys, tmp_path):
        valid = json.loads((DATA / "health.json").read_text(encoding="utf-8"))
        for damage in ({"shards": [1]}, {"slos": [5]}, {"slos": [{"ratio": "high"}]}):
            path = tmp_path / "health.json"
            path.write_text(json.dumps({**valid, **damage}), encoding="utf-8")
            code = cli_main(["obs", str(path)])
            captured = capsys.readouterr()
            assert code == 1, damage
            assert captured.err.startswith("error:")
            assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "name, document",
        [
            ("metrics.json", {"repro_x": 5}),
            ("metrics.json", {"repro_x": {"samples": [5]}}),
            ("metrics.json", {"samples": [{"value": "abc"}]}),
            ("metrics.json", {"repro_x": {"samples": [{"value": "abc"}]}}),
            ("trace.json", {"traceEvents": [{"ph": "X", "ts": 0, "dur": 1}]}),
            ("trace.json", {"traceEvents": [{"ph": "X", "name": "a", "ts": 0, "dur": "x"}]}),
        ],
        ids=[
            "family-int", "sample-int", "family-list", "value-string",
            "span-without-name", "dur-string",
        ],
    )
    def test_malformed_metrics_or_trace_dump_is_one_error_line(
        self, capsys, tmp_path, name, document
    ):
        path = tmp_path / name
        path.write_text(json.dumps(document), encoding="utf-8")
        code = cli_main(["obs", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")
        assert str(path) in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_recover_missing_journal(self, capsys, tmp_path):
        code = cli_main(["recover", str(tmp_path / "gone.jsonl")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_recover_rejects_a_directory(self, capsys, tmp_path):
        code = cli_main(["recover", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err + captured.out

    def test_invalid_threshold_combination(self, capsys):
        code = cli_main(
            ["profile", "bert-mrpc", "--method", "kmeans", "--threshold", "0.5"]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    @staticmethod
    def _analyze_fails_cleanly(capsys, argv: list[str]) -> str:
        code = cli_main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err + captured.out
        return captured.err

    @staticmethod
    def _edit_legacy_record(directory: Path, edit) -> Path:
        """Apply ``edit`` to the JSON payload of a legacy store's record #7."""
        path = directory / "record-000007.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        edit(payload)
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    @pytest.mark.parametrize("store, bad", [("json", "nan"), ("binary", "inf")])
    def test_analyze_rejects_non_finite_step_features(
        self, capsys, tmp_path, tiny_run, legacy_copy, store, bad
    ):
        if store == "json":
            directory = legacy_copy("records-json")
            self._edit_legacy_record(
                directory,
                lambda payload: payload["steps"][0]["operators"][0].update(
                    total_duration_us=float(bad)
                ),
            )
        else:
            _, _, records = tiny_run
            step = next(iter(records[0].steps.values()))
            next(iter(step.operators.values())).total_duration_us = float(bad)
            directory = save_records(records, tmp_path / "recs")
        for method in ("kmeans", "dbscan"):
            err = self._analyze_fails_cleanly(
                capsys, ["analyze", str(directory), "--method", method]
            )
            assert "finite" in err

    def test_analyze_rejects_unparseable_record_file(self, capsys, legacy_copy):
        directory = legacy_copy("records-json")
        broken = sorted(directory.glob("record-*.json"))[0]
        broken.write_text('{"schema": 1, "index": ', encoding="utf-8")
        err = self._analyze_fails_cleanly(capsys, ["analyze", str(directory)])
        assert broken.name in err

    @pytest.mark.parametrize("store", ["json", "binary"])
    def test_analyze_rejects_store_missing_a_record_file(
        self, capsys, tmp_path, tiny_run, legacy_copy, store
    ):
        if store == "json":
            directory = legacy_copy("records-json")
        else:
            _, _, records = tiny_run
            directory = save_records(records, tmp_path / "recs")
        missing = sorted(directory.glob("record*"))[0]
        missing.unlink()
        err = self._analyze_fails_cleanly(capsys, ["analyze", str(directory)])
        assert missing.name in err

    def test_analyze_rejects_record_missing_a_field(self, capsys, legacy_copy):
        directory = legacy_copy("records-json")
        broken = self._edit_legacy_record(
            directory, lambda payload: payload["steps"][0]["operators"][0].pop("count")
        )
        err = self._analyze_fails_cleanly(capsys, ["analyze", str(directory)])
        assert broken.name in err and "count" in err

    @pytest.mark.parametrize("field", ["index", "step", "count"])
    def test_analyze_rejects_infinite_integer_field(self, capsys, legacy_copy, field):
        directory = legacy_copy("records-json")

        def overflow(payload):
            step = payload["steps"][0]
            target = {"index": payload, "step": step, "count": step["operators"][0]}
            target[field][field] = float("inf")

        broken = self._edit_legacy_record(directory, overflow)
        err = self._analyze_fails_cleanly(capsys, ["analyze", str(directory)])
        assert broken.name in err

    def test_recover_rejects_garbage(self, capsys, tmp_path):
        garbage = tmp_path / "garbage"
        garbage.write_bytes(b"not a journal at all")
        code = cli_main(["recover", str(garbage)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err + captured.out


def _golden_journal_digests() -> list[tuple[str, str]]:
    lines = (GOLDEN / "journal_sha256.txt").read_text(encoding="utf-8").splitlines()
    return [tuple(line.split()[::-1]) for line in lines if line.strip()]


class TestCliTuneKnowledge:
    def test_a_fractional_stored_knob_rolls_the_warm_start_back(self, capsys, tmp_path):
        # A stored prefetch depth of 2.5 used to warm-start the run and
        # then crash it: a float cannot index the infeed queue.
        store = json.loads((DATA / "knowledge" / "tuning_knowledge.json").read_text("utf-8"))
        store["entries"][0]["config"]["prefetch_depth"] = 2.5
        (tmp_path / "tuning_knowledge.json").write_text(json.dumps(store), "utf-8")
        argv = ["tune", "naive-dcgan-mnist", "--knowledge-dir", str(tmp_path), "--trial-steps", "20"]
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "warm start      : no (rolled back)" in out
        assert "best config     : PipelineConfig(" in out


class TestCliJournalGolden:
    """The simulated journal bytes, pinned to the last bit of every float.

    Perfbench digests hash phase labels and tuning results, and the
    figure files print rounded shares; neither sees a host op duration
    move in its last bit. The journal holds every operator total.
    """

    @pytest.mark.parametrize(("workload", "digest"), _golden_journal_digests())
    def test_profile_journal_matches_the_golden(self, capsys, tmp_path, workload, digest):
        import hashlib

        journal = tmp_path / f"{workload}.journal"
        assert cli_main(["profile", workload, "--generation", "v2", "--journal", str(journal)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(journal.read_bytes()).hexdigest() == digest


class TestCliFaults:
    PLAN = str(
        Path(__file__).resolve().parents[2]
        / "examples"
        / "faults"
        / "flaky_master.json"
    )

    def test_profile_with_faults_then_recover(self, capsys, tmp_path):
        journal = tmp_path / "run.jsonl"
        code = cli_main(
            [
                "profile",
                "bert-mrpc",
                "--faults",
                self.PLAN,
                "--journal",
                str(journal),
                "--metrics-out",
                str(tmp_path / "metrics.json"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fault plan" in out
        assert "injected faults     : error=" in out
        assert "client resilience   :" in out
        assert "recorder            : CRASHED mid-run" in out
        assert f"record journal      : {journal}" in out
        metrics_text = (tmp_path / "metrics.json").read_text()
        assert "repro_profiler_retries_total" in metrics_text
        assert "repro_faults_injected_total" in metrics_text

        code = cli_main(["recover", str(journal), "--out", str(tmp_path / "rec")])
        assert code == 0
        out = capsys.readouterr().out
        assert "torn tail       : yes" in out
        assert "phases (ols" in out
        assert (tmp_path / "rec" / "ols_trace.json").exists()

    def test_lossless_faults_preserve_phase_count(self, capsys, tmp_path):
        import json
        import re

        # Same plan minus the recorder crash: every remaining fault kind
        # is lossless, so the post-run phase count must match a clean run.
        plan = json.loads(Path(self.PLAN).read_text(encoding="utf-8"))
        plan["faults"] = [
            spec for spec in plan["faults"] if spec["kind"] != "crash"
        ]
        plan_path = tmp_path / "lossless.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")

        def phase_count(argv):
            assert cli_main(argv) == 0
            out = capsys.readouterr().out
            match = re.search(r"phases \(ols.*\): (\d+)", out)
            assert match, out
            return int(match.group(1))

        clean = phase_count(["profile", "bert-mrpc"])
        faulty = phase_count(["profile", "bert-mrpc", "--faults", str(plan_path)])
        assert faulty == clean

    def test_recover_empty_journal(self, capsys, tmp_path):
        journal = tmp_path / "empty.jsonl"
        journal.write_text("")
        code = cli_main(["recover", str(journal)])
        assert code == 0
        out = capsys.readouterr().out
        assert "no intact records survived" in out

class TestCliObsDumps:
    """Every long-running command can dump the toolchain's own telemetry."""

    def test_tune_writes_obs_dumps(self, capsys, tmp_path):
        trace = tmp_path / "tune_trace.json"
        metrics = tmp_path / "tune_metrics.prom"
        code = cli_main(
            [
                "tune", "naive-dcgan-mnist",
                "--strategy", "racing",
                "--trial-steps", "3",
                "--trace-out", str(trace),
                "--metrics-out", str(metrics),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "offline autotune" in out
        from repro import obs

        events = obs.load_trace(trace)
        assert any(e.get("name", "").startswith("optimizer.") for e in events)
        samples = obs.parse_prometheus(metrics.read_text(encoding="utf-8"))
        assert "repro_optimizer_strategy_trials_total" in samples
        assert "repro_optimizer_improvement_ratio" in samples

    def test_the_default_tracer_starts_disabled(self):
        probe = "from repro import obs; print(obs.default_tracer().enabled)"
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "False"

    @pytest.mark.parametrize("enabled", [False, True])
    def test_trace_out_restores_the_tracing_switch(self, capsys, tmp_path, enabled):
        from repro import obs

        previous = obs.set_tracing_enabled(enabled)
        try:
            trace = tmp_path / "trace.json"
            assert cli_main(["profile", "dcgan-mnist", "--trace-out", str(trace)]) == 0
            assert any(e.get("name") == "profiler.stop" for e in obs.load_trace(trace))
            assert obs.default_tracer().enabled is enabled
        finally:
            obs.set_tracing_enabled(previous)

    def test_goodput_writes_obs_dumps(self, capsys, tmp_path):
        trace = tmp_path / "goodput_trace.json"
        metrics = tmp_path / "goodput_metrics.json"
        code = cli_main(
            [
                "goodput", "--jobs", "2",
                "--trace-out", str(trace),
                "--metrics-out", str(metrics),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "goodput" in out
        from repro import obs

        assert obs.load_trace(trace)
        samples = obs.load_metrics(metrics)
        assert "repro_serve_goodput_us_total" in samples


class TestCliHealth:
    PLAN = str(
        Path(__file__).resolve().parents[2]
        / "examples"
        / "faults"
        / "health_burst.json"
    )
    BURST = [
        "--faults", PLAN,
        "--checkpoint-every", "48",
        "--checkpoint-bytes", "4e9",
    ]

    def test_health_dashboard_and_dump(self, capsys, tmp_path):
        out_path = tmp_path / "health.json"
        code = cli_main(["health", *self.BURST, "--out", str(out_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "== fleet health @ tick" in out
        assert "-- shards --" in out
        assert "-- slo --" in out
        assert "-- alert timeline --" in out
        assert "CIRCUIT_FLAP" in out and "PHASE_DRIFT" in out
        from repro import obs

        payload = obs.load_health(out_path)
        assert payload["alerts"]["events"]
        assert out_path.read_text(encoding="utf-8") == (
            GOLDEN / "health_burst_health.json"
        ).read_text(encoding="utf-8")

    def test_health_periodic_dashboard(self, capsys):
        assert cli_main(["health", "--jobs", "2", "--shards", "1", "--every", "4"]) == 0
        out = capsys.readouterr().out
        # At least one mid-run dashboard plus the final one.
        assert out.count("== fleet health @ tick") >= 2

    def test_alerts_timeline_is_shard_invariant(self, capsys, tmp_path):
        dumps = []
        for shards in ("1", "2"):
            out_path = tmp_path / f"alerts_{shards}.json"
            code = cli_main(
                ["alerts", *self.BURST, "--shards", shards, "--out", str(out_path)]
            )
            assert code == 0
            out = capsys.readouterr().out
            assert "== alert timeline (" in out
            assert "fired" in out and "resolved" in out
            dumps.append(out_path.read_text(encoding="utf-8"))
        assert dumps[0] == dumps[1]
        assert dumps[0] == (GOLDEN / "health_burst_alerts.json").read_text(encoding="utf-8")
        from repro import obs

        payload = obs.load_alerts(tmp_path / "alerts_1.json")
        assert {event["rule"] for event in payload["events"]} >= {
            "CIRCUIT_FLAP", "GOODPUT_BURN", "PHASE_DRIFT",
        }

    def test_health_and_alert_dumps_pass_the_obs_loaders(self, capsys, tmp_path):
        health, alerts = tmp_path / "health.json", tmp_path / "alerts.json"
        assert cli_main(["health", *self.BURST, "--out", str(health)]) == 0
        assert cli_main(["alerts", *self.BURST, "--out", str(alerts)]) == 0
        capsys.readouterr()
        assert cli_main(["obs", str(health), str(alerts)]) == 0
        out = capsys.readouterr().out
        assert "health dump @ tick" in out and "alert dump" in out

    def test_healthy_run_pages_nobody(self, capsys):
        assert cli_main(["alerts", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "== alert timeline (0 transitions" in out
        assert "-- still firing (0) --" in out

    def test_alerts_ack(self, capsys):
        # A healthy run has nothing firing, so the ack count is zero —
        # the flag path still has to work.
        assert cli_main(["alerts", "--jobs", "2", "--ack", "CIRCUIT_FLAP"]) == 0
        out = capsys.readouterr().out
        assert "acked 0 firing alert(s) of rule CIRCUIT_FLAP" in out
        assert "-- still firing (0) --" in out

    def test_health_rejects_bad_jobs(self, capsys):
        assert cli_main(["health", "--jobs", "0"]) == 1
        assert "error:" in capsys.readouterr().err


class TestCliSdc:
    PLAN = str(
        Path(__file__).resolve().parents[2] / "examples" / "faults" / "sdc_burst.json"
    )
    BURST = [
        "--faults", PLAN,
        "--checkpoint-every", "48",
        "--checkpoint-bytes", "4e9",
    ]

    def test_alert_timeline_matches_the_golden_at_1_and_2_shards(self, capsys, tmp_path):
        golden = (GOLDEN / "sdc_burst_alerts.json").read_text(encoding="utf-8")
        for shards in ("1", "2"):
            out_path = tmp_path / f"alerts_{shards}.json"
            code = cli_main(
                ["alerts", *self.BURST, "--shards", shards, "--out", str(out_path)]
            )
            assert code == 0
            assert out_path.read_text(encoding="utf-8") == golden, shards
        capsys.readouterr()
        transitions = {
            event["transition"]
            for event in json.loads(golden)["events"]
            if event["rule"] == "CHIP_SDC_SUSPECT"
        }
        assert transitions == {"fired", "resolved"}

    @pytest.mark.parametrize(
        ("shards", "golden"),
        [("1", "sdc_burst_health_shards1.json"), ("2", "sdc_burst_health.json")],
    )
    def test_health_dump_matches_the_golden(self, capsys, tmp_path, shards, golden):
        out_path = tmp_path / "health.json"
        code = cli_main(
            ["health", *self.BURST, "--shards", shards, "--out", str(out_path)]
        )
        assert code == 0
        capsys.readouterr()
        assert out_path.read_text(encoding="utf-8") == (GOLDEN / golden).read_text(
            encoding="utf-8"
        )

    def test_clean_fleet_scrubs_clean(self, capsys):
        assert cli_main(["scrub", "--chips", "4"]) == 0
        assert "suspect chips : none" in capsys.readouterr().out

    def test_scrub_names_exactly_the_corrupted_chips(self, capsys):
        assert cli_main(["scrub", "--chips", "4", "--faults", self.PLAN]) == 0
        assert "suspect chips : chip-1, chip-2" in capsys.readouterr().out
