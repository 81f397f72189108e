"""Persistence layer: NDJSON store, buffered writer, spool failover."""

import copy
import dataclasses
import enum
import itertools
import json
import math
import os
import pickle
import random
import sys
import threading
import time
import weakref
from collections import Counter

import pytest

import gatedflow.store
from gatedflow import (
    ComponentCollection,
    NativeBody,
    Trial,
    build_experiment,
    make_component,
)
from gatedflow.errors import PrimaryUnavailable, RunClosed
from gatedflow.store import (
    DirectoryStore,
    MetricRecord,
    RunLogger,
    merge_spool,
    open_run,
    query,
)


def make_records(run_id, n, tag="loss", component="A"):
    return [MetricRecord(run_id, component, tag, i, 0.5 * i, float(i))
            for i in range(n)]


def to_lines(records):
    """The encoded lines that append_records takes."""
    return [r.to_line() for r in records]


class TestDirectoryStore:
    def test_record_line_round_trip(self):
        rec = MetricRecord("r1", "A", "loss", 3, 1.25, 0.5)
        assert MetricRecord.from_line("r1", rec.to_line()) == rec

    def test_append_and_read_back(self, store):
        records = make_records("r1", 10)
        store.append_records("r1", to_lines(records[:4]))
        store.append_records("r1", to_lines(records[4:]))
        assert store.read_records("r1") == records

    def test_ndjson_layout_on_disk(self, store):
        store.append_records("r1", to_lines(make_records("r1", 2)))
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

    def test_failed_atomic_write_leaves_no_tmp_file(self, store, monkeypatch):
        store.write_meta("r1", {"seed": 1})

        def fsync_fails(fd):
            raise OSError("fsync failed")

        monkeypatch.setattr(gatedflow.store.os, "fsync", fsync_fails)
        with pytest.raises(OSError):
            store.write_meta("r1", {"seed": 2})
        with pytest.raises(OSError):
            store.write_study("s1", {"study_id": "s1"})
        # the old meta.json stays whole, and no meta.json.tmp/study.json.tmp
        assert os.listdir(store.run_dir("r1")) == ["meta.json"]
        assert store.read_meta("r1") == {"seed": 1}
        assert os.listdir(store.study_dir("s1")) == []

    def test_documents_keep_their_bytes(self, store):
        store.write_meta("r1", {"seed": 3, "experiment": "Toy",
                                "args": {"b": 1.5, "a": None}})
        store.write_study("s1", {"study_id": "s1", "dimensions": ["x"]})
        store.append_trial("s1", Trial(0, {"x": 0.5}, state="complete",
                                       objective=0.25, seed=7,
                                       run_id="r1").to_json())
        files = [os.path.join(store.run_dir("r1"), "meta.json"),
                 os.path.join(store.study_dir("s1"), "study.json"),
                 os.path.join(store.study_dir("s1"), "trials.ndjson")]
        contents = []
        for path in files:
            with open(path, "rb") as fh:
                contents.append(fh.read())
        assert contents == [
            b'{\n  "args": {\n    "a": null,\n    "b": 1.5\n  },\n'
            b'  "experiment": "Toy",\n  "seed": 3\n}\n',
            b'{\n  "dimensions": [\n    "x"\n  ],\n  "study_id": "s1"\n}\n',
            b'{"assignment": {"x": 0.5}, "objective": 0.25, "run_id": "r1", '
            b'"seed": 7, "state": "complete", "trial_id": 0}\n',
        ]

    def test_list_runs_sorted(self, store):
        store.append_records("r2", to_lines(make_records("r2", 1)))
        store.append_records("r1", to_lines(make_records("r1", 1)))
        assert store.list_runs() == ["r1", "r2"]

    def test_no_partial_lines_on_rewrite(self, store):
        # a 500-line chunk goes down in one append; reading it back must
        # give complete lines only, each once and in order
        store.append_records("r1", to_lines(make_records("r1", 500)))
        records = store.read_records("r1")
        assert len(records) == 500
        assert all(r.step == i for i, r in enumerate(records))


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Real(float):
    pass


class Text(str):
    pass


# characters that JSON escapes, or writes as \uXXXX, next to plain ones
NAME_CHARS = ['a', 'Z', '0', ' ', '/', '"', '\\', '\x00', '\n', '\x1f', '\x7f',
              'é', 'ß', '中', '😀', '\ud800', '\udbff', '\udc00', '\udfff']


def random_name(rng):
    name = "".join(rng.choice(NAME_CHARS) for _ in range(rng.randint(0, 5)))
    return Text(name) if rng.random() < 0.1 else name


def random_number(rng):
    return rng.choice([
        rng.randint(-10**6, 10**6), rng.uniform(-1e6, 1e6), rng.random(),
        True, False, Level.HIGH, Real(rng.random()), math.nan, math.inf,
        -math.inf, -0.0, 0.0, 2**64 + rng.randint(0, 10**9),
        -(2**100) - rng.randint(0, 10**9), 1e-310, 1e308,
    ])


def random_value(rng, depth=0):
    pick = rng.randrange(5 if depth < 2 else 3)
    if pick == 0:
        return random_number(rng)
    if pick == 1:
        return random_name(rng)
    if pick == 2:
        return None
    if pick == 3:
        return [random_value(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    return {random_name(rng): random_value(rng, depth + 1)
            for _ in range(rng.randint(0, 3))}


def dumps_line(rec):
    """The line as json.dumps writes it: the encoder's reference."""
    return json.dumps({"c": rec.component, "t": rec.tag, "s": rec.step,
                       "w": rec.wall_time, "v": rec.value}, separators=(",", ":"))


class TestLineEncoder:
    """Every metrics line is byte-identical to json.dumps of its record, both
    from MetricRecord.to_line and from a RunLogger's record()."""

    def random_records(self, rng, n):
        pairs = [(random_name(rng), random_name(rng)) for _ in range(4)]
        return [MetricRecord("r1", *rng.choice(pairs), random_number(rng),
                             random_number(rng), random_value(rng))
                for _ in range(n)]

    def log(self, store, recorded):
        """Record each (component, tag, value) through a real RunLogger;
        return the bytes of its metrics.ndjson and the json.dumps lines of
        the same records, with the steps counted per (component, tag) key
        and the wall times the logger stamped."""
        run = open_run(store, "Toy", chunk=16)
        for component, tag, value in recorded:
            run.proxy(component).record(tag, value)
        run.close()
        with open(store._metrics_path(run.run_id), "rb") as fh:
            written = fh.read()
        steps = {}
        expected = []
        for (component, tag, value), line in zip(recorded,
                                                 written.split(b"\n")):
            step = steps[component, tag] = steps.get((component, tag), -1) + 1
            wall_time = json.loads(line)["w"]
            expected.append(dumps_line(MetricRecord(
                run.run_id, component, tag, step, wall_time, value)) + "\n")
        return written, "".join(expected).encode()

    def test_lines_match_json_dumps(self, store):
        rng = random.Random(20261018)
        for _ in range(200):
            chunk = self.random_records(rng, rng.randint(1, 20))
            expected = [dumps_line(r) for r in chunk]
            assert [r.to_line() for r in chunk] == expected
        # heads are encoded once per (component, tag) and shared across
        # interleaved pairs, chunks and proxies of the same component
        pairs = [(random_name(rng), random_name(rng)) for _ in range(8)]
        recorded = [(*rng.choice(pairs), rng.choice(
            [random_number(rng), random_value(rng)])) for _ in range(2000)]
        recorded += [("A", "edge", v)
                     for v in (math.nan, math.inf, -math.inf, 2**70, -0.0)]
        written, expected = self.log(store, recorded)
        assert written.count(b"\n") == len(recorded)
        assert written == expected

    def test_lines_round_trip_through_from_line(self):
        rng = random.Random(7)
        for rec in self.random_records(rng, 500):
            line = rec.to_line()
            assert MetricRecord.from_line("r1", line).to_line() == line
        plain = MetricRecord("r1", 'q"\\é', "\x01t", 2**70, -0.0, [1, 2.5, None])
        assert MetricRecord.from_line("r1", plain.to_line()) == plain

    def test_equal_names_of_other_types_keep_their_own_encoding(self, store):
        names = (1, 1.0, True, "1")
        chunk = [MetricRecord("r1", c, "t", 0, 0.0, 0) for c in names]
        assert [r.to_line() for r in chunk] == [dumps_line(r) for r in chunk]
        # 1, 1.0 and True share one step counter, and each keeps its own head
        recorded = [(c, "t", 0) for c in names] + [("A", t, 0) for t in names]
        recorded += recorded
        written, expected = self.log(store, recorded)
        assert written == expected
        steps = [json.loads(line)["s"] for line in written.splitlines()]
        assert steps == [0, 1, 2, 0] * 2 + [3, 4, 5, 1] * 2

    @pytest.mark.parametrize("field", ["component", "tag", "step", "value"])
    def test_unserialisable_value_raises_the_same_type_error(self, store,
                                                             field):
        fields = {"run_id": "r1", "component": "A", "tag": "t", "step": 0,
                  "wall_time": 0.0, "value": 1.0, field: object()}
        rec = MetricRecord(**fields)
        with pytest.raises(TypeError) as expected:
            dumps_line(rec)
        run = open_run(store, "Toy")
        encoders = [rec.to_line]
        if field != "step":  # the logger numbers the steps itself
            encoders.append(
                lambda: run.proxy(rec.component).record(rec.tag, rec.value))
        for encode in encoders:
            with pytest.raises(TypeError) as got:
                encode()
            assert str(got.value) == str(expected.value)
        run.close()


class TestTornTail:
    """A crash can leave a last line without its newline."""

    TORN = b'{"c":"A","t":"lo'

    def tear(self, path):
        with open(path, "ab") as fh:
            fh.write(self.TORN)

    def test_torn_metrics_line_skipped_then_repaired(self, store):
        records = make_records("r1", 6)
        store.append_records("r1", to_lines(records[:3]))
        path = os.path.join(store.root, "runs", "r1", "metrics.ndjson")
        self.tear(path)
        assert store.read_records("r1") == records[:3]
        store.append_records("r1", to_lines(records[3:]))
        assert store.read_records("r1") == records
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == "".join(r.to_line() + "\n" for r in records)

    def test_torn_trials_line_skipped_then_repaired(self, store):
        store.append_trial("s1", {"trial_id": 0})
        store.append_trial("s1", {"trial_id": 1})
        self.tear(os.path.join(store.root, "studies", "s1", "trials.ndjson"))
        assert [t["trial_id"] for t in store.read_trials("s1")] == [0, 1]
        store.append_trial("s1", {"trial_id": 2})
        assert [t["trial_id"] for t in store.read_trials("s1")] == [0, 1, 2]

    def test_merge_into_torn_primary(self, store, spool):
        store.append_records("r1", to_lines(make_records("r1", 10)))
        self.tear(os.path.join(store.root, "runs", "r1", "metrics.ndjson"))
        spool.append_records("r1", to_lines(make_records("r1", 20)))
        report = merge_spool(store, spool)
        assert (report.merged, report.skipped) == (10, 10)
        merged = store.read_records("r1")
        assert [r.step for r in merged] == list(range(20))

    def test_appends_keep_the_file_in_place(self, store):
        path = os.path.join(store.root, "runs", "r1", "metrics.ndjson")
        store.append_records("r1", to_lines(make_records("r1", 2)))
        inode = os.stat(path).st_ino
        store.append_records("r1", to_lines(make_records("r1", 2)))
        assert os.stat(path).st_ino == inode


class TestQuery:
    def fill(self, store):
        store.append_records("r1", to_lines(make_records("r1", 5, tag="loss")))
        store.append_records("r1", to_lines(make_records("r1", 5, tag="acc")))
        store.append_records("r2", to_lines(make_records("r2", 5, tag="loss",
                                                   component="B")))
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

    def test_experiment_filter_skips_a_run_without_readable_meta(self, store):
        self.fill(store)
        store.append_records("r3", to_lines(make_records("r3", 5)))  # no meta
        assert {r.run_id for r in query(store, experiment="Toy")} == {"r1"}

    def test_missing_root_raises(self, tmp_path):
        with pytest.raises(PrimaryUnavailable):
            query(DirectoryStore(tmp_path / "nowhere"))

    def test_head_filter_selects_what_decoding_selects(self, store):
        rng = random.Random(424)
        pairs = [(random_name(rng), random_name(rng)) for _ in range(8)]
        records = [MetricRecord("r1", *rng.choice(pairs), step, 0.0,
                                random_value(rng)) for step in range(400)]
        store.append_records("r1", to_lines(records))
        # lines that do not start with {"c": are decoded and compared
        with open(store._metrics_path("r1"), "a", encoding="utf-8") as fh:
            for step, (c, t) in enumerate(pairs[:4], start=1000):
                fh.write(json.dumps({"t": t, "s": step, "c": c, "w": 0.0,
                                     "v": step}) + "\n")
                fh.write(" " + json.dumps({"c": c, "t": t, "s": step + 100,
                                           "w": 0.0, "v": step}) + "\n")
        stored = store.read_records("r1")
        names = [name for pair in pairs for name in pair]
        names += ["", "\ud83d\ude00", "😀", "a", 1]
        for _ in range(300):
            component = rng.choice(names)
            tag = rng.choice(names + [None])
            expected = sorted(
                (r for r in stored if r.component == component
                 and (tag is None or r.tag == tag)), key=lambda r: r.key)
            got = query(store, component=component, tag=tag)
            assert [r.to_line() for r in got] == [r.to_line() for r in expected]


class TestDecodedRecords:
    """read_records, query and merge_spool decode lines with
    MetricRecord.from_line, which interns str names: the records equal the
    records of json.loads's fields, and the records of one (component, tag)
    share their name objects."""

    def fill(self, store, rng):
        """Random str names in r1 and the equal names 1, 1.0 and True in r2
        (r2's names order among themselves, so query can sort them), each
        run with lines that _line did not write; by run, the records of
        json.loads's fields of every stored line."""
        pairs = [(random_name(rng), random_name(rng)) for _ in range(8)]
        numbers = [1, 1.0, True]
        for run_id, pick in (("r1", lambda: rng.choice(pairs)),
                             ("r2", lambda: (rng.choice(numbers),
                                             rng.choice(numbers)))):
            store.append_records(run_id, [
                MetricRecord(run_id, *pick(), step, rng.random(),
                             random_value(rng)).to_line()
                for step in range(300)])
            with open(store._metrics_path(run_id), "a", encoding="utf-8") as fh:
                for step in range(300, 320):
                    c, t = pick()
                    fh.write(" " + json.dumps({"t": t, "s": step, "c": c,
                                               "w": 0.0, "v": step}) + "\n")
        expected = {}
        for run_id in ("r1", "r2"):
            with open(store._metrics_path(run_id), encoding="utf-8") as fh:
                expected[run_id] = [
                    MetricRecord(run_id, obj["c"], obj["t"], obj["s"],
                                 obj["w"], obj["v"])
                    for obj in map(json.loads, fh)]
        return expected

    @staticmethod
    def typed(records):
        # repr tells 1, 1.0 and True apart, and shows a NaN value as nan
        return [repr(r) for r in records]

    def test_records_equal_the_parsed_fields_with_the_same_types(self, store):
        expected = self.fill(store, random.Random(426))
        for run_id, records in expected.items():
            assert self.typed(store.read_records(run_id)) == self.typed(records)
        everything = sorted(expected["r1"] + expected["r2"],
                            key=gatedflow.store.RECORD_ORDER)
        assert self.typed(query(store)) == self.typed(everything)

    def test_records_of_one_pair_share_their_names(self, store):
        self.fill(store, random.Random(427))
        for records in (store.read_records("r1"), query(store)):
            first = {}
            for rec in records:
                if type(rec.component) is str:
                    same = first.setdefault((rec.component, rec.tag), rec)
                    assert same.component is rec.component
                    assert same.tag is rec.tag
            assert len(first) <= 8

    def test_a_record_is_slotted(self):
        rec = MetricRecord("r1", "A", "loss", 3, 0.5, 2.0)
        assert not hasattr(rec, "__dict__")
        with pytest.raises(TypeError):
            weakref.ref(rec)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.step = 4

    def test_a_record_copies_pickles_and_hashes_as_before(self):
        rec = MetricRecord("r1", "A", "loss", 3, 0.5, 2.0)
        fields = ("r1", "A", "loss", 3, 0.5, 2.0)
        for copied in (pickle.loads(pickle.dumps(rec)), copy.deepcopy(rec),
                       copy.copy(rec)):
            assert copied == rec and type(copied) is MetricRecord
        assert dataclasses.replace(rec, step=4) == MetricRecord(
            "r1", "A", "loss", 4, 0.5, 2.0)
        assert dataclasses.asdict(rec) == dict(zip(
            ("run_id", "component", "tag", "step", "wall_time", "value"), fields))
        assert hash(rec) == hash(fields)


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

    def test_two_proxies_of_one_component_share_one_numbering(self, store):
        """The (component, tag) counters live in the run: two proxies of one
        component, recording from two threads, number one gap-free sequence
        in file order."""
        run = open_run(store, "Toy")
        proxies = [run.proxy("A"), run.proxy("A")]
        n = 3000
        start = threading.Barrier(len(proxies))

        def work(proxy):
            start.wait()
            for i in range(n):
                proxy.record("loss", float(i))

        threads = [threading.Thread(target=work, args=(p,)) for p in proxies]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often to interleave them
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        run.close()
        records = store.read_records(run.run_id)
        assert [r.step for r in records] == list(range(len(proxies) * n))

    @pytest.mark.parametrize("round_", range(4))
    def test_records_racing_close_are_on_disk_or_raise(self, store, round_):
        """A record() that returned before or during close() is on disk;
        every later call raises RunClosed."""
        run = open_run(store, "Toy")
        returned, errors = {}, []

        def work(name):
            proxy, count = run.proxy(name), 0
            try:
                while True:
                    proxy.record("loss", 1.0)
                    count += 1
            except RunClosed:
                returned[name] = count
            except Exception as exc:  # reported below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(f"C{i}",))
                   for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often to expose races
        try:
            for t in threads:
                t.start()
            time.sleep(0.002 * (round_ + 1))
            run.close()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert errors == [] and not any(t.is_alive() for t in threads)
        records = store.read_records(run.run_id)
        assert Counter(r.component for r in records) == Counter(returned)
        steps = {}
        for r in records:
            steps.setdefault(r.component, []).append(r.step)
        assert all(s == list(range(len(s))) for s in steps.values())

    def test_a_record_that_takes_the_lock_after_close_raises(self, store):
        """close() may run between the start of a record() and its taking
        the run's lock; the record then raises instead of buffering a line
        that the finished writer never writes."""
        run = open_run(store, "Toy")
        proxy = run.proxy("A")
        proxy.record("loss", 1.0)
        entering, closed = threading.Event(), threading.Event()

        class PausedLock:
            """The run's lock, taken once close() has returned."""

            def __enter__(self):
                entering.set()
                closed.wait(10)
                return run._cond.__enter__()

            def __exit__(self, *exc):
                return run._cond.__exit__(*exc)

        run._lock = PausedLock()
        outcome = []

        def late_record():
            try:
                proxy.record("loss", 2.0)
                outcome.append("returned")
            except RunClosed:
                outcome.append("closed")

        t = threading.Thread(target=late_record)
        t.start()
        assert entering.wait(10)
        run.close()
        closed.set()
        t.join(timeout=10)
        assert outcome == ["closed"]
        assert [r.value for r in store.read_records(run.run_id)] == [1.0]

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
        assert meta["run_id"] == run.run_id

    def test_mark_failed_closes_or_rewrites_the_outcome(self, store):
        closed = open_run(store, "Toy", seed=5)
        closed.proxy("A").record("loss", 1.0)
        closed.close(outcome="completed")
        closed.mark_failed()
        unclosed = open_run(store, "Toy")
        unclosed.mark_failed()
        unclosed.close(outcome="completed")  # ignored: already finalised
        errored = open_run(store, "Toy")
        errored.close(outcome="error")
        errored.mark_failed()  # kept: "error" already says why the run failed
        for run in (closed, unclosed):
            assert store.read_meta(run.run_id)["outcome"] == "failed"
        assert store.read_meta(errored.run_id)["outcome"] == "error"
        assert store.read_meta(closed.run_id)["seed"] == 5
        assert len(store.read_records(closed.run_id)) == 1

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

    @pytest.mark.parametrize("chunk", [0, -1, 2.5])
    def test_chunk_must_be_a_positive_integer(self, store, chunk):
        # chunk 0 would make the writer take empty chunks forever
        with pytest.raises(ValueError, match="chunk"):
            open_run(store, "Toy", chunk=chunk)

    def test_zero_interval_polls_instead_of_spinning(self, store,
                                                     monkeypatch):
        takes = []
        real = RunLogger._flush

        def counting(self_, records):
            takes.append(len(records))
            return real(self_, records)

        monkeypatch.setattr(RunLogger, "_flush", counting)
        run = open_run(store, "Toy", interval=0.0)
        proxy = run.proxy("A")
        for i in range(3):
            proxy.record("loss", float(i))
        time.sleep(0.2)
        run.close()
        assert [r.step for r in store.read_records(run.run_id)] == [0, 1, 2]
        assert len(takes) < 100  # about 20 at one take per 10 ms


class TestRecordEncodes:
    """record() encodes its line on the recording thread, so a bad value
    fails its caller, and a value is stored as it was when recorded."""

    def test_unserialisable_value_fails_the_recording_component(self, store):
        recorded = []  # (component, tag, value) of every accepted record()
        steps = itertools.count()

        def produce(inputs, ctx):
            k = next(steps)
            ctx.record("n", k)
            recorded.append(("P", "n", k))
            if k == 5:
                ctx.record("bad", object())
            return {"x": k}

        def consume(inputs, ctx):
            ctx.record("seen", inputs["x"])
            recorded.append(("C", "seen", inputs["x"]))

        io = {"x": "x"}
        run = open_run(store, "Toy")
        collection = ComponentCollection([
            make_component("P", io, step_body=NativeBody(produce,
                                                         writes={"x"})),
            make_component("C", io, step_body=NativeBody(consume,
                                                         reads={"x"})),
        ], logger=run, step_timeout=5.0)
        collection.bind()
        report = collection.run(max_steps=20)
        assert report.outcome == "error"
        assert isinstance(report.error, TypeError)
        run.close(outcome=report.outcome)  # the writer is unharmed
        meta = store.read_meta(run.run_id)
        assert meta["outcome"] == "error"
        assert "writer_error" not in meta
        # every accepted record is on disk with its own step, and "bad" has
        # no line: P published x for steps 0-4 before step 5 failed
        published = [("P", "x", k) for k in range(5)]
        on_disk = store.read_records(run.run_id)
        assert sorted((r.component, r.tag, r.value) for r in on_disk) == \
            sorted(recorded + published)
        assert all(r.step == r.value for r in on_disk)

    def test_rejected_record_takes_no_step(self, store):
        run = open_run(store, "Toy")
        proxy = run.proxy("A")
        proxy.record("loss", 1.0)
        with pytest.raises(TypeError):
            proxy.record("loss", {"x": object()})
        proxy.record("loss", 2.0)
        run.close()
        assert [(r.step, r.value) for r in store.read_records(run.run_id)] == \
            [(0, 1.0), (1, 2.0)]

    def test_a_value_mutated_later_is_stored_as_recorded(self, store):
        run = open_run(store, "Toy")
        proxy = run.proxy("A")
        hist = []
        for i in range(3):
            hist.append(i)
            proxy.record("hist", hist)
        run.close()
        assert [r.value for r in store.read_records(run.run_id)] == \
            [[0], [0, 1], [0, 1, 2]]


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

    def test_failed_fsync_rolls_the_chunk_back(self, store, spool,
                                               monkeypatch):
        real_fsync = os.fsync
        calls = []

        def fsync_fails_once(fd):
            calls.append(fd)
            if len(calls) == 3:  # the primary's third and last chunk
                raise OSError("fsync failed")
            real_fsync(fd)

        monkeypatch.setattr(gatedflow.store.os, "fsync", fsync_fails_once)
        run = open_run(store, "Toy", spool=spool, chunk=10, interval=60.0)
        proxy = run.proxy("A")
        for i in range(30):
            proxy.record("loss", float(i))
        run.close()
        assert run.spooled_records == 10
        primary = store.read_records(run.run_id)
        assert [r.step for r in primary] == list(range(20))
        path = os.path.join(store.run_dir(run.run_id), "metrics.ndjson")
        # the failed chunk left no byte behind, and no stray file either
        assert os.path.getsize(path) == sum(len(r.to_line()) + 1
                                            for r in primary)
        assert sorted(os.listdir(store.run_dir(run.run_id))) == [
            "meta.json", "metrics.ndjson"]
        report = merge_spool(store, spool)
        assert (report.merged, report.skipped) == (10, 0)
        merged = store.read_records(run.run_id)
        assert sorted(r.step for r in merged) == list(range(30))

    def test_meta_diverts_to_spool_when_the_primary_refuses_it(self, store,
                                                              spool):
        run = open_run(store, "Toy", spool=spool, interval=60.0)
        # a directory where meta.json goes: replacing it fails
        os.makedirs(os.path.join(store.run_dir(run.run_id), "meta.json"))
        run.close()
        assert spool.read_meta(run.run_id)["outcome"] == "completed"
        assert os.listdir(store.run_dir(run.run_id)) == ["meta.json"]

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


class TestParkedWriter:
    """The writer is held inside append_records on an Event, so these tests
    need no timing ratios."""

    def park(self, monkeypatch, fail=None):
        entered, release = threading.Event(), threading.Event()
        real = DirectoryStore.append_records

        def parked(self_, run_id, records):
            entered.set()
            release.wait()
            if fail is not None:
                raise fail
            return real(self_, run_id, records)

        monkeypatch.setattr(DirectoryStore, "append_records", parked)
        return entered, release

    def test_record_does_not_wait_for_a_parked_writer(self, store,
                                                      monkeypatch):
        entered, release = self.park(monkeypatch)
        run = open_run(store, "Toy")
        proxy = run.proxy("A")
        start = time.monotonic()
        for i in range(1000):
            proxy.record("loss", float(i))
        elapsed = time.monotonic() - start
        assert entered.wait(5.0)
        release.set()
        run.close()
        assert elapsed < 1.0
        steps = [r.step for r in store.read_records(run.run_id)]
        assert steps == list(range(1000))

    def test_blocked_producer_gets_the_writer_error(self, store,
                                                    monkeypatch):
        monkeypatch.setattr(gatedflow.store, "QUEUE_CAPACITY", 8)
        error = RuntimeError("disk wedged")
        entered, release = self.park(monkeypatch, fail=error)
        run = open_run(store, "Toy", chunk=8, interval=60.0)
        proxy = run.proxy("A")
        done, raised = [], []

        def produce():
            try:
                for i in range(100):
                    proxy.record("loss", float(i))
                    done.append(i)
            except RuntimeError as exc:
                raised.append(exc)

        producer = threading.Thread(target=produce, daemon=True)
        producer.start()
        assert entered.wait(5.0)
        # 8 records taken by the parked writer and 16 buffered: the 25th blocks
        deadline = time.monotonic() + 5.0
        while len(done) < 24 and time.monotonic() < deadline:
            time.sleep(0.005)
        time.sleep(0.05)
        assert len(done) == 24 and producer.is_alive()
        release.set()
        producer.join(1.0)
        assert not producer.is_alive(), "blocked record() missed the error"
        assert raised == [error]
        with pytest.raises(RuntimeError, match="disk wedged"):
            run.close()
        assert store.read_meta(run.run_id)["writer_error"] == \
            "RuntimeError: disk wedged"


class TestMergeSpool:
    def test_merge_moves_and_dedups(self, store, spool):
        overlap = make_records("r1", 10)
        fresh = [MetricRecord("r1", "A", "loss", 10 + i, 0.0, float(i))
                 for i in range(490)]
        store.append_records("r1", to_lines(overlap))
        spool.append_records("r1", to_lines(overlap + fresh))
        report = merge_spool(store, spool)
        assert (report.merged, report.skipped) == (490, 10)
        assert len(store.read_records("r1")) == 500
        assert spool.list_runs() == []

    def test_remerge_is_idempotent(self, store, spool):
        spool.append_records("r1", to_lines(make_records("r1", 20)))
        merge_spool(store, spool)
        spool.append_records("r1", to_lines(make_records("r1", 20)))  # stale copy again
        report = merge_spool(store, spool)
        assert (report.merged, report.skipped) == (0, 20)
        assert len(store.read_records("r1")) == 20

    def test_meta_carried_over_when_primary_lacks_it(self, store, spool):
        spool.append_records("r1", to_lines(make_records("r1", 3)))
        spool.write_meta("r1", {"experiment": "Toy", "outcome": "completed"})
        merge_spool(store, spool)
        assert store.read_meta("r1")["experiment"] == "Toy"

    def test_unreachable_primary_leaves_spool_untouched(self, spool, tmp_path):
        spool.append_records("r1", to_lines(make_records("r1", 3)))
        with pytest.raises(PrimaryUnavailable):
            merge_spool(DirectoryStore(tmp_path / "gone"), spool)
        assert len(spool.read_records("r1")) == 3
