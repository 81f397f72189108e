"""Centralised experiment persistence.

Layout (one directory tree per store root):

    <root>/runs/<run_id>/meta.json       one JSON object of run metadata
    <root>/runs/<run_id>/metrics.ndjson  {"c":..., "t":..., "s":..., "w":..., "v":...}
    <root>/studies/<study_id>/study.json
    <root>/studies/<study_id>/trials.ndjson

Components log through a ProxyLogger whose record() call only enqueues; a
dedicated writer thread commits in bulk chunks. When the primary store
cannot be written, chunks divert to a local spool with the identical
layout, to be merged back later with merge_spool().
"""

from __future__ import annotations

import json
import os
import queue
import shutil
import threading
import time
import uuid
from dataclasses import dataclass

from .errors import PrimaryUnavailable, RunClosed

DEFAULT_CHUNK = 256
DEFAULT_INTERVAL = 1.0
QUEUE_CAPACITY = 65536

_SENTINEL = object()


@dataclass(frozen=True)
class MetricRecord:
    run_id: str
    component: str
    tag: str
    step: int
    wall_time: float
    value: object

    @property
    def key(self):
        return (self.run_id, self.component, self.tag, self.step)

    def to_line(self) -> str:
        return json.dumps(
            {"c": self.component, "t": self.tag, "s": self.step,
             "w": self.wall_time, "v": self.value},
            separators=(",", ":"),
        )

    @classmethod
    def from_line(cls, run_id: str, line: str) -> "MetricRecord":
        obj = json.loads(line)
        return cls(run_id, obj["c"], obj["t"], obj["s"], obj["w"], obj["v"])


def new_run_id() -> str:
    return time.strftime("%Y%m%dT%H%M%S") + "-" + uuid.uuid4().hex[:8]


def _atomic_write(path: str, content: str):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(content)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class DirectoryStore:
    """File-tree store; also the class used for the local spool root."""

    def __init__(self, root):
        self.root = str(root)

    def runs_dir(self):
        return os.path.join(self.root, "runs")

    def run_dir(self, run_id):
        return os.path.join(self.runs_dir(), run_id)

    def _metrics_path(self, run_id):
        return os.path.join(self.run_dir(run_id), "metrics.ndjson")

    # -- writes -------------------------------------------------------------

    def append_records(self, run_id: str, records):
        """Append a chunk, all-or-nothing via temp file + atomic rename."""
        path = self._metrics_path(run_id)
        os.makedirs(self.run_dir(run_id), exist_ok=True)
        existing = ""
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                existing = fh.read()
        lines = "".join(r.to_line() + "\n" for r in records)
        _atomic_write(path, existing + lines)

    def write_meta(self, run_id: str, meta: dict):
        os.makedirs(self.run_dir(run_id), exist_ok=True)
        _atomic_write(
            os.path.join(self.run_dir(run_id), "meta.json"),
            json.dumps(meta, indent=2, sort_keys=True) + "\n",
        )

    def read_meta(self, run_id: str) -> dict:
        with open(os.path.join(self.run_dir(run_id), "meta.json"),
                  encoding="utf-8") as fh:
            return json.load(fh)

    # -- studies ------------------------------------------------------------

    def study_dir(self, study_id):
        return os.path.join(self.root, "studies", study_id)

    def write_study(self, study_id: str, header: dict):
        os.makedirs(self.study_dir(study_id), exist_ok=True)
        _atomic_write(
            os.path.join(self.study_dir(study_id), "study.json"),
            json.dumps(header, indent=2, sort_keys=True) + "\n",
        )

    def append_trial(self, study_id: str, trial: dict):
        os.makedirs(self.study_dir(study_id), exist_ok=True)
        path = os.path.join(self.study_dir(study_id), "trials.ndjson")
        existing = ""
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                existing = fh.read()
        _atomic_write(path, existing + json.dumps(trial, sort_keys=True) + "\n")

    def read_study(self, study_id: str) -> dict:
        with open(os.path.join(self.study_dir(study_id), "study.json"),
                  encoding="utf-8") as fh:
            return json.load(fh)

    def read_trials(self, study_id: str):
        path = os.path.join(self.study_dir(study_id), "trials.ndjson")
        if not os.path.exists(path):
            return []
        with open(path, encoding="utf-8") as fh:
            return [json.loads(line) for line in fh if line.strip()]

    def list_studies(self):
        studies = os.path.join(self.root, "studies")
        if not os.path.isdir(studies):
            return []
        return sorted(
            d for d in os.listdir(studies)
            if os.path.isdir(os.path.join(studies, d))
        )

    # -- reads --------------------------------------------------------------

    def list_runs(self):
        runs = self.runs_dir()
        if not os.path.isdir(runs):
            return []
        return sorted(
            d for d in os.listdir(runs) if os.path.isdir(os.path.join(runs, d))
        )

    def read_records(self, run_id: str):
        path = self._metrics_path(run_id)
        if not os.path.exists(path):
            return []
        records = []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    records.append(MetricRecord.from_line(run_id, line))
        return records


def query(store: DirectoryStore, run_ids=None, experiment=None, component=None,
          tag=None, step_range=None):
    """Return matching records sorted by (run_id, component, tag, step)."""
    if not os.path.isdir(store.root):
        raise PrimaryUnavailable(store.root)
    runs = list(run_ids) if run_ids is not None else store.list_runs()
    out = []
    for run_id in runs:
        if experiment is not None:
            try:
                meta = store.read_meta(run_id)
            except OSError:
                continue
            if meta.get("experiment") != experiment:
                continue
        for rec in store.read_records(run_id):
            if component is not None and rec.component != component:
                continue
            if tag is not None and rec.tag != tag:
                continue
            if step_range is not None:
                low, high = step_range
                if not low <= rec.step <= high:
                    continue
            out.append(rec)
    out.sort(key=lambda r: r.key)
    return out


@dataclass
class MergeReport:
    merged: int = 0
    skipped: int = 0


def merge_spool(primary: DirectoryStore, spool: DirectoryStore) -> MergeReport:
    """Move spooled records into the primary, deduplicated by record key."""
    if not os.path.isdir(primary.root):
        raise PrimaryUnavailable(primary.root)
    report = MergeReport()
    for run_id in spool.list_runs():
        spooled = spool.read_records(run_id)
        existing = {r.key for r in primary.read_records(run_id)}
        fresh = [r for r in spooled if r.key not in existing]
        report.skipped += len(spooled) - len(fresh)
        if fresh:
            primary.append_records(run_id, fresh)
        report.merged += len(fresh)
        meta_path = os.path.join(spool.run_dir(run_id), "meta.json")
        if os.path.exists(meta_path) and not os.path.exists(
            os.path.join(primary.run_dir(run_id), "meta.json")
        ):
            primary.write_meta(run_id, spool.read_meta(run_id))
        # spool emptied only after a successful merge of this run
        shutil.rmtree(spool.run_dir(run_id))
    return report


class ProxyLogger:
    """Per-component handle; record() stamps and enqueues, never waits for
    durability (it only blocks on queue-full backpressure). Once the writer
    thread has died, record() raises the writer's error."""

    def __init__(self, run_logger: "RunLogger", component: str):
        self._run = run_logger
        self.component = component

    def record(self, tag: str, value):
        self._run._enqueue(self.component, tag, value)


class RunLogger:
    """Owns the record queue and the writer thread for one run."""

    def __init__(self, store: DirectoryStore, meta: dict, spool=None,
                 chunk: int = DEFAULT_CHUNK, interval: float = DEFAULT_INTERVAL,
                 run_id: str | None = None):
        self.store = store
        self.spool = spool
        self.run_id = run_id or new_run_id()
        self.meta = dict(meta)
        self.chunk = chunk
        self.interval = interval
        self.failed_flushes = 0
        self.spooled_records = 0
        self._writer_error = None
        self._sentinel_taken = False
        self._queue: queue.Queue = queue.Queue(maxsize=QUEUE_CAPACITY)
        self._steps: dict[tuple[str, str], int] = {}
        self._steps_lock = threading.Lock()
        self._start = time.monotonic()
        self._closed = False
        self._meta_written = False
        self._writer = threading.Thread(
            target=self._writer_loop, name=f"store-writer-{self.run_id}", daemon=True
        )
        self._writer.start()

    def proxy(self, component: str) -> ProxyLogger:
        return ProxyLogger(self, component)

    def _enqueue(self, component: str, tag: str, value):
        if self._closed:
            raise RunClosed(f"run {self.run_id} is finalised")
        if self._writer_error is not None:
            raise self._writer_error
        with self._steps_lock:
            step = self._steps.get((component, tag), 0)
            self._steps[(component, tag)] = step + 1
        record = MetricRecord(
            self.run_id, component, tag, step,
            time.monotonic() - self._start, value,
        )
        self._queue.put(record)  # blocks only when the queue is full

    # -- writer context -----------------------------------------------------

    def _flush(self, records):
        if not records:
            return
        try:
            self.store.append_records(self.run_id, records)
        except OSError:
            self.failed_flushes += 1
            if self.spool is None:
                raise
            self.spool.append_records(self.run_id, records)
            self.spooled_records += len(records)

    def _writer_loop(self):
        try:
            self._writer_body()
        except Exception as exc:  # surfaced again by record() and close()
            self._writer_error = exc
            # until close()'s sentinel, keep emptying the queue so that no
            # record() stays blocked on a queue the dead writer left full
            while not self._sentinel_taken and self._queue.get() is not _SENTINEL:
                pass

    def _writer_body(self):
        pending = []
        last_flush = time.monotonic()
        while True:
            timeout = max(0.01, self.interval - (time.monotonic() - last_flush))
            try:
                item = self._queue.get(timeout=timeout)
            except queue.Empty:
                item = None
            if item is _SENTINEL:
                self._sentinel_taken = True
                self._flush(pending)
                return
            if item is not None:
                pending.append(item)
            now = time.monotonic()
            if len(pending) >= self.chunk or (
                pending and now - last_flush >= self.interval
            ):
                chunk, pending = pending[: self.chunk], pending[self.chunk:]
                self._flush(chunk)
                last_flush = now

    def close(self, outcome: str = "completed"):
        """Flush residual records and finalise meta.json. Idempotent, except
        after a close that raised the writer's error: a later close then
        rewrites meta.json with its own outcome, so the caller can mark the
        run failed."""
        if self._closed:
            if self._writer_error is not None and self._meta_written:
                self.meta["outcome"] = outcome
                self._write_meta()
            return
        self._closed = True
        self._queue.put(_SENTINEL)
        self._writer.join()
        error = self._writer_error
        self.meta.setdefault("run_id", self.run_id)
        self.meta["outcome"] = outcome
        if self.failed_flushes:
            self.meta["failed_flushes"] = self.failed_flushes
            self.meta["spooled_records"] = self.spooled_records
        if error is not None:
            self.meta["writer_error"] = f"{type(error).__name__}: {error}"
        try:
            self._write_meta()
        finally:
            # the metadata goes first, so a run whose writer died still
            # shows up in queries; then the writer's error is surfaced
            if error is not None:
                raise error

    def _write_meta(self):
        try:
            self.store.write_meta(self.run_id, self.meta)
        except OSError:
            if self.spool is None:
                raise
            self.spool.write_meta(self.run_id, self.meta)
        self._meta_written = True


def open_run(store: DirectoryStore, experiment: str, seed=None, args=None,
             spool=None, chunk=DEFAULT_CHUNK, interval=DEFAULT_INTERVAL) -> RunLogger:
    meta = {
        "experiment": experiment,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "seed": seed,
        "args": dict(args or {}),
    }
    logger = RunLogger(store, meta, spool=spool, chunk=chunk, interval=interval)
    meta["run_id"] = logger.run_id
    return logger
