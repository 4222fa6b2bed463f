"""End-to-end tracing tests: a traced benchmark run and the CLI flag."""

import json

import pytest

from repro.cli import main
from repro.coconut.config import BenchmarkConfig
from repro.coconut.runner import BenchmarkRunner
from repro.trace import TraceConfig, Tracer, write_jsonl
from repro.workloads import replay_spec_from_jsonl


@pytest.fixture(scope="module")
def traced_run():
    """One small traced fabric benchmark, shared by the assertions below."""
    tracer = Tracer(TraceConfig())
    runner = BenchmarkRunner(tracer=tracer)
    config = BenchmarkConfig(system="fabric", iel="KeyValue", rate_limit=20,
                             scale=0.05, seed=0, phases=("Set",), repetitions=1)
    result = runner.run(config)
    return tracer, runner, result


class TestTracedBenchmark:
    def test_tracing_does_not_change_results(self, traced_run):
        __, __, traced = traced_run
        plain = BenchmarkRunner().run(BenchmarkConfig(
            system="fabric", iel="KeyValue", rate_limit=20,
            scale=0.05, seed=0, phases=("Set",), repetitions=1,
        ))
        assert traced.phases["Set"].received.mean == plain.phases["Set"].received.mean
        assert traced.phases["Set"].mfls.mean == pytest.approx(plain.phases["Set"].mfls.mean)

    def test_consensus_spans_present(self, traced_run):
        tracer, __, __ = traced_run
        replicates = [s for s in tracer.spans if s.name == "raft.replicate"]
        assert replicates
        assert all(s.category == "consensus" and s.end >= s.start for s in replicates)

    def test_network_events_present(self, traced_run):
        tracer, __, __ = traced_run
        names = {e.name for e in tracer.events}
        assert {"net.send", "net.deliver"} <= names
        (deliver, *__) = [e for e in tracer.events if e.name == "net.deliver"]
        assert deliver.attrs["latency"] > 0

    def test_per_transaction_spans_cover_all_confirmations(self, traced_run):
        tracer, __, result = traced_run
        tx_spans = [s for s in tracer.spans if s.name == "tx"]
        received = [s for s in tx_spans if s.attrs.get("status") == "received"]
        assert len(received) == int(result.phases["Set"].received.mean)
        assert tracer.open_span_count() == 0  # everything confirmed

    def test_finality_and_bench_spans_present(self, traced_run):
        tracer, __, __ = traced_run
        names = {s.name for s in tracer.spans}
        assert "block.finality" in names
        assert "phase" in names

    def test_metrics_populated(self, traced_run):
        tracer, __, result = traced_run
        snapshot = tracer.metrics.snapshot()
        sent = sum(v["value"] for k, v in snapshot["counters"].items()
                   if k.endswith("client.sent"))
        assert sent == int(result.phases["Set"].expected.mean)
        assert any(k.endswith("sim.dispatches") for k in snapshot["counters"])
        assert any(k.endswith("net.latency") for k in snapshot["histograms"])

    def test_category_filtered_run_only_records_that_layer(self):
        tracer = Tracer(TraceConfig.from_spec("consensus"))
        BenchmarkRunner(tracer=tracer).run(BenchmarkConfig(
            system="fabric", iel="DoNothing", rate_limit=20,
            scale=0.02, seed=1, repetitions=1,
        ))
        assert tracer.spans
        assert {s.category for s in tracer.spans} == {"consensus"}
        assert {e.category for e in tracer.events} <= {"consensus"}


class TestReplayFromTrace:
    def test_spec_replays_one_clients_send_offsets(self, traced_run, tmp_path):
        tracer, __, __ = traced_run
        path = tmp_path / "trace.jsonl"
        write_jsonl(tracer, path)
        client = next(s.node for s in tracer.spans if s.name == "tx")
        sends = sorted(s.start for s in tracer.spans if s.name == "tx" and s.node == client)
        spec = replay_spec_from_jsonl(str(path), phase="Set", client=client, name="again")
        assert spec.name == "again" and spec.arrival.kind == "replay"
        assert spec.arrival.times == tuple(round(t - sends[0], 6) for t in sends)

    def test_unmatched_filter_is_an_error(self, traced_run, tmp_path):
        tracer, __, __ = traced_run
        path = tmp_path / "trace.jsonl"
        write_jsonl(tracer, path)
        with pytest.raises(ValueError, match="no client tx spans matched"):
            replay_spec_from_jsonl(str(path), phase="Get")


class TestCliTraceFlag:
    def test_chrome_trace_written(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        code = main([
            "run", "--system", "fabric", "--iel", "KeyValue",
            "--rate", "20", "--scale", "0.02", "--trace", str(path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "trace:" in out and "chrome" in out
        doc = json.loads(path.read_text())
        names = {e.get("name") for e in doc["traceEvents"]}
        assert "raft.replicate" in names  # consensus phases
        assert "net.send" in names  # network messages
        assert "tx" in names  # per-transaction spans

    def test_jsonl_format_and_filters(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        code = main([
            "run", "--system", "fabric", "--iel", "DoNothing",
            "--rate", "20", "--scale", "0.02",
            "--trace", str(path), "--trace-format", "jsonl",
            "--trace-categories", "client", "--trace-sample", "0.5",
        ])
        assert code == 0
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records[-1]["type"] == "metrics"
        cats = {r["cat"] for r in records[:-1]}
        assert cats <= {"client"}
