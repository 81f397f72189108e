"""Persistence layer: NDJSON store, buffered writer, spool failover."""

import json
import os
import threading
import time

import pytest

import gatedflow.store
from gatedflow import build_experiment
from gatedflow.errors import PrimaryUnavailable, RunClosed
from gatedflow.store import (
    DirectoryStore,
    MetricRecord,
    merge_spool,
    open_run,
    query,
)


def make_records(run_id, n, tag="loss", component="A"):
    return [MetricRecord(run_id, component, tag, i, 0.5 * i, float(i))
            for i in range(n)]


class TestDirectoryStore:
    def test_record_line_round_trip(self):
        rec = MetricRecord("r1", "A", "loss", 3, 1.25, 0.5)
        assert MetricRecord.from_line("r1", rec.to_line()) == rec

    def test_append_and_read_back(self, store):
        records = make_records("r1", 10)
        store.append_records("r1", records[:4])
        store.append_records("r1", records[4:])
        assert store.read_records("r1") == records

    def test_ndjson_layout_on_disk(self, store):
        store.append_records("r1", make_records("r1", 2))
        path = os.path.join(store.root, "runs", "r1", "metrics.ndjson")
        with open(path) as fh:
            lines = [json.loads(l) for l in fh if l.strip()]
        assert lines[0] == {"c": "A", "t": "loss", "s": 0, "w": 0.0, "v": 0.0}

    def test_meta_round_trip(self, store):
        store.write_meta("r1", {"experiment": "Toy", "seed": 3})
        assert store.read_meta("r1")["seed"] == 3

    def test_study_round_trip(self, store):
        store.write_study("s1", {"study_id": "s1"})
        store.append_trial("s1", {"trial_id": 0})
        store.append_trial("s1", {"trial_id": 1})
        assert store.read_study("s1") == {"study_id": "s1"}
        assert [t["trial_id"] for t in store.read_trials("s1")] == [0, 1]
        assert store.list_studies() == ["s1"]

    def test_list_runs_sorted(self, store):
        store.append_records("r2", make_records("r2", 1))
        store.append_records("r1", make_records("r1", 1))
        assert store.list_runs() == ["r1", "r2"]

    def test_no_partial_lines_on_rewrite(self, store):
        # every append rewrites the file whole; a reader between appends
        # must always see complete lines
        store.append_records("r1", make_records("r1", 500))
        records = store.read_records("r1")
        assert len(records) == 500
        assert all(r.step == i for i, r in enumerate(records))


class TestQuery:
    def fill(self, store):
        store.append_records("r1", make_records("r1", 5, tag="loss"))
        store.append_records("r1", make_records("r1", 5, tag="acc"))
        store.append_records("r2", make_records("r2", 5, tag="loss",
                                                component="B"))
        store.write_meta("r1", {"experiment": "Toy"})
        store.write_meta("r2", {"experiment": "Other"})

    def test_filter_by_tag_and_component(self, store):
        self.fill(store)
        assert len(query(store, tag="loss")) == 10
        assert len(query(store, component="B")) == 5
        assert len(query(store, run_ids=["r1"], tag="acc")) == 5

    def test_filter_by_experiment_and_step_range(self, store):
        self.fill(store)
        assert {r.run_id for r in query(store, experiment="Toy")} == {"r1"}
        assert [r.step for r in query(store, run_ids=["r2"],
                                      step_range=(1, 3))] == [1, 2, 3]

    def test_results_sorted_by_key(self, store):
        self.fill(store)
        keys = [r.key for r in query(store)]
        assert keys == sorted(keys)

    def test_missing_root_raises(self, tmp_path):
        with pytest.raises(PrimaryUnavailable):
            query(DirectoryStore(tmp_path / "nowhere"))


class TestRunLogger:
    def test_step_counters_per_component_and_tag(self, store):
        run = open_run(store, "Toy")
        a, b = run.proxy("A"), run.proxy("B")
        a.record("loss", 1.0)
        a.record("loss", 2.0)
        a.record("acc", 0.5)
        b.record("loss", 9.0)
        run.close()
        steps = {(r.component, r.tag, r.step) for r in store.read_records(run.run_id)}
        assert steps == {("A", "loss", 0), ("A", "loss", 1),
                         ("A", "acc", 0), ("B", "loss", 0)}

    def test_record_after_close_raises(self, store):
        run = open_run(store, "Toy")
        proxy = run.proxy("A")
        run.close()
        with pytest.raises(RunClosed):
            proxy.record("loss", 1.0)

    def test_close_is_idempotent_and_writes_meta(self, store):
        run = open_run(store, "Toy", seed=5, args={"k": 1})
        run.proxy("A").record("loss", 1.0)
        run.close(outcome="completed")
        run.close(outcome="failed")  # ignored: already finalised
        meta = store.read_meta(run.run_id)
        assert meta["outcome"] == "completed"
        assert meta["seed"] == 5
        assert meta["args"] == {"k": 1}

    def test_small_batches_held_until_interval_or_close(self, store):
        run = open_run(store, "Toy", interval=60.0)
        proxy = run.proxy("A")
        for i in range(10):
            proxy.record("loss", float(i))
        time.sleep(0.15)  # far below the flush interval
        assert store.read_records(run.run_id) == []
        run.close()
        assert len(store.read_records(run.run_id)) == 10

    def test_full_chunk_flushes_without_close(self, store):
        run = open_run(store, "Toy", chunk=50, interval=60.0)
        proxy = run.proxy("A")
        for i in range(50):
            proxy.record("loss", float(i))
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if len(store.read_records(run.run_id)) >= 50:
                break
            time.sleep(0.01)
        assert len(store.read_records(run.run_id)) == 50
        run.close()

    def test_interval_flushes_partial_chunk(self, store):
        run = open_run(store, "Toy", chunk=1000, interval=0.1)
        run.proxy("A").record("loss", 1.0)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if store.read_records(run.run_id):
                break
            time.sleep(0.01)
        assert len(store.read_records(run.run_id)) == 1
        run.close()

    def test_flushes_are_chunk_bounded(self, store, monkeypatch):
        sizes = []
        real = DirectoryStore.append_records

        def spy(self, run_id, records):
            sizes.append(len(records))
            return real(self, run_id, records)

        monkeypatch.setattr(DirectoryStore, "append_records", spy)
        run = open_run(store, "Toy", chunk=256, interval=60.0)
        proxy = run.proxy("A")
        for i in range(1000):
            proxy.record("loss", float(i))
        run.close()
        assert sum(sizes) == 1000
        # only the residual close-time flush may exceed one chunk
        assert all(s <= 256 for s in sizes[:-1])
        assert sizes.count(256) >= 2
        assert len(store.read_records(run.run_id)) == 1000


class TestSpoolFailover:
    def failing_primary(self, store, monkeypatch, fail_runs):
        """Make primary appends fail while run_id is in fail_runs."""
        real = DirectoryStore.append_records

        def flaky(self_, run_id, records):
            if self_.root == store.root and run_id in fail_runs:
                raise OSError("disk unavailable")
            return real(self_, run_id, records)

        monkeypatch.setattr(DirectoryStore, "append_records", flaky)

    def test_records_divert_to_spool(self, store, spool, monkeypatch):
        fail = set()
        run = open_run(store, "Toy", spool=spool, chunk=10, interval=0.05)
        fail.add(run.run_id)
        self.failing_primary(store, monkeypatch, fail)
        proxy = run.proxy("A")
        for i in range(35):
            proxy.record("loss", float(i))
        run.close()
        assert run.failed_flushes >= 1
        assert run.spooled_records == 35
        assert store.read_records(run.run_id) == []
        assert len(spool.read_records(run.run_id)) == 35

    def test_no_record_lost_across_mid_run_failure(self, store, spool,
                                                  monkeypatch):
        fail = set()
        run = open_run(store, "Toy", spool=spool, chunk=20, interval=0.05)
        proxy = run.proxy("A")
        self.failing_primary(store, monkeypatch, fail)
        for i in range(200):
            if i == 80:
                fail.add(run.run_id)  # primary goes away mid-run
            if i == 160:
                fail.discard(run.run_id)  # and comes back
            proxy.record("loss", float(i))
            time.sleep(0.001)
        run.close()
        primary_steps = {r.step for r in store.read_records(run.run_id)}
        spool_steps = {r.step for r in spool.read_records(run.run_id)}
        assert primary_steps | spool_steps == set(range(200))
        assert run.spooled_records == len(spool_steps)

    def test_without_spool_failure_propagates(self, store, monkeypatch):
        fail = set()
        run = open_run(store, "Toy", chunk=5, interval=60.0)
        fail.add(run.run_id)
        self.failing_primary(store, monkeypatch, fail)
        proxy = run.proxy("A")
        for i in range(5):
            proxy.record("loss", float(i))
        with pytest.raises(OSError):
            run.close()


class TestWriterDeath:
    def test_dead_writer_fails_the_run_instead_of_hanging(
            self, registry, tmp_path, monkeypatch):
        monkeypatch.setattr(gatedflow.store, "QUEUE_CAPACITY", 64)
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")  # the primary cannot create its run directory
        run = open_run(DirectoryStore(blocker / "store"), "Toy")
        collection = build_experiment(registry, "ToyExperimentPlain",
                                      logger=run, step_timeout=0.5)
        result = {}
        worker = threading.Thread(
            target=lambda: result.update(report=collection.run(max_steps=5000)),
            daemon=True,
        )
        worker.start()
        worker.join(timeout=0.5 + 5.0)
        assert not worker.is_alive(), "run hung on the dead writer's full queue"
        report = result["report"]
        assert report.outcome == "error"
        assert isinstance(report.error, OSError)
        with pytest.raises(OSError):
            run.close(outcome=report.outcome)

    def test_close_writes_meta_before_raising_writer_error(self, store,
                                                          monkeypatch):
        def broken(self_, run_id, records):
            raise RuntimeError("encoder fault")

        monkeypatch.setattr(DirectoryStore, "append_records", broken)
        run = open_run(store, "Toy")
        run.proxy("A").record("loss", 1.0)
        with pytest.raises(RuntimeError, match="encoder fault"):
            run.close()
        meta = store.read_meta(run.run_id)
        assert meta["outcome"] == "completed"
        assert meta["writer_error"] == "RuntimeError: encoder fault"


class TestMergeSpool:
    def test_merge_moves_and_dedups(self, store, spool):
        overlap = make_records("r1", 10)
        fresh = [MetricRecord("r1", "A", "loss", 10 + i, 0.0, float(i))
                 for i in range(490)]
        store.append_records("r1", overlap)
        spool.append_records("r1", overlap + fresh)
        report = merge_spool(store, spool)
        assert (report.merged, report.skipped) == (490, 10)
        assert len(store.read_records("r1")) == 500
        assert spool.list_runs() == []

    def test_remerge_is_idempotent(self, store, spool):
        spool.append_records("r1", make_records("r1", 20))
        merge_spool(store, spool)
        spool.append_records("r1", make_records("r1", 20))  # stale copy again
        report = merge_spool(store, spool)
        assert (report.merged, report.skipped) == (0, 20)
        assert len(store.read_records("r1")) == 20

    def test_meta_carried_over_when_primary_lacks_it(self, store, spool):
        spool.append_records("r1", make_records("r1", 3))
        spool.write_meta("r1", {"experiment": "Toy", "outcome": "completed"})
        merge_spool(store, spool)
        assert store.read_meta("r1")["experiment"] == "Toy"

    def test_unreachable_primary_leaves_spool_untouched(self, spool, tmp_path):
        spool.append_records("r1", make_records("r1", 3))
        with pytest.raises(PrimaryUnavailable):
            merge_spool(DirectoryStore(tmp_path / "gone"), spool)
        assert len(spool.read_records("r1")) == 3
