"""Centralised experiment persistence.

Layout (one directory tree per store root):

    <root>/runs/<run_id>/meta.json       one JSON object of run metadata
    <root>/runs/<run_id>/metrics.ndjson  {"c":..., "t":..., "s":..., "w":..., "v":...}
    <root>/studies/<study_id>/study.json
    <root>/studies/<study_id>/trials.ndjson

Components log through a ProxyLogger whose record() call appends to the
run's one buffer; a writer thread commits the buffer in chunks. record()
blocks only while chunk + QUEUE_CAPACITY records wait for the writer, and
a dead writer's error is raised to producers blocked there too. When the
primary store cannot be written, chunks divert to a local spool with the
identical layout, to be merged back later with merge_spool().

The .ndjson files are append-only logs with one writer each: chunks are
appended in place and fsynced, all or nothing. Readers skip a torn last line,
the next append cuts it off, and a reader during an append sees whole lines
from a prefix of that chunk. meta.json and study.json are replaced atomically.

Every metrics line is written by one encoder, _lines, whose bytes are those
of json.dumps of the line's dict with separators (",", ":"). It encodes each
(component, tag) head once per chunk, and query() tests a line's head before
it decodes the line: a line that starts with {"c": is taken to be written by
_lines.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import threading
import time
import uuid
from dataclasses import dataclass

from .errors import PrimaryUnavailable, RunClosed

DEFAULT_CHUNK = 256
DEFAULT_INTERVAL = 1.0
QUEUE_CAPACITY = 65536


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
        return _lines((self,))[:-1]

    @classmethod
    def from_line(cls, run_id: str, line: str) -> "MetricRecord":
        obj = json.loads(line)
        return cls(run_id, obj["c"], obj["t"], obj["s"], obj["w"], obj["v"])


# -- the line encoder --------------------------------------------------------
#
# json.dumps builds a new JSONEncoder per call, so the common scalar types are
# encoded directly and the rest go through one shared encoder.

_encode = json.JSONEncoder(separators=(",", ":")).encode
_encode_str = json.encoder.encode_basestring_ascii
_INF = float("inf")


def _json(value) -> str:
    """JSON text of one value, as json.dumps writes it."""
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is int or (kind is float and -_INF < value < _INF):
        return repr(value)
    return _encode(value)  # bool, NaN, ±inf, subclasses, None, containers


def _component_head(component) -> str:
    return '{"c":' + _json(component) + ',"t":'


def _head(component, tag) -> str:
    """The text every line of this (component, tag) starts with."""
    return _component_head(component) + _json(tag) + ',"s":'


def _lines(records) -> str:
    """NDJSON text of records, one line each, with each head encoded once."""
    heads = {}
    out = []
    for r in records:
        component, tag = r.component, r.tag
        if type(component) is str and type(tag) is str:
            head = heads.get((component, tag))
            if head is None:
                head = heads[component, tag] = _head(component, tag)
        else:  # equal keys of other types (1, 1.0, True) encode differently
            head = _head(component, tag)
        out.append(f'{head}{_json(r.step)},"w":{_json(r.wall_time)},'
                   f'"v":{_json(r.value)}}}\n')
    return "".join(out)


def new_run_id() -> str:
    return time.strftime("%Y%m%dT%H%M%S") + "-" + uuid.uuid4().hex[:8]


def _atomic_write(path: str, content: str):
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(content)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):  # keep the original error
            os.remove(tmp)
        raise


def _append(path: str, text: str):
    """Append whole lines to an NDJSON file and fsync them, all or nothing."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    # readable for pread; unbuffered, so close() flushes no failed bytes
    with open(path, "a+b", buffering=0) as fh:
        end = os.fstat(fh.fileno()).st_size
        if end and os.pread(fh.fileno(), 1, end - 1) != b"\n":
            fh.seek(0)  # a crash tore the last line: cut it before appending
            end = fh.readall().rfind(b"\n") + 1
            os.ftruncate(fh.fileno(), end)
        data = memoryview(text.encode())
        try:
            while data:
                data = data[fh.write(data):]
            os.fsync(fh.fileno())
        except BaseException:
            os.ftruncate(fh.fileno(), end)
            raise


def _read_lines(path: str):
    """Yield whole, non-blank lines; a torn last line (no newline) is skipped."""
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.endswith("\n") and line.strip():
                    yield line
    except FileNotFoundError:
        pass


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
        """Append a chunk in place and fsync it, all or nothing, after cutting
        off a torn last line; a concurrent reader sees only whole lines."""
        _append(self._metrics_path(run_id), _lines(records))

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
        _append(os.path.join(self.study_dir(study_id), "trials.ndjson"),
                json.dumps(trial, sort_keys=True) + "\n")

    def read_study(self, study_id: str) -> dict:
        with open(os.path.join(self.study_dir(study_id), "study.json"),
                  encoding="utf-8") as fh:
            return json.load(fh)

    def read_trials(self, study_id: str):
        path = os.path.join(self.study_dir(study_id), "trials.ndjson")
        return [json.loads(line) for line in _read_lines(path)]

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
        return [MetricRecord.from_line(run_id, line)
                for line in _read_lines(self._metrics_path(run_id))]


def query(store: DirectoryStore, run_ids=None, experiment=None, component=None,
          tag=None, step_range=None):
    """Return matching records sorted by (run_id, component, tag, step)."""
    if not os.path.isdir(store.root):
        raise PrimaryUnavailable(store.root)
    runs = list(run_ids) if run_ids is not None else store.list_runs()
    # a line that _lines wrote starts with the head of its record; records
    # with a matching head are still decoded and compared below
    head = None
    if type(component) is str:
        head = (_head(component, tag) if type(tag) is str
                else _component_head(component))
    out = []
    for run_id in runs:
        if experiment is not None:
            try:
                meta = store.read_meta(run_id)
            except OSError:
                continue
            if meta.get("experiment") != experiment:
                continue
        for line in _read_lines(store._metrics_path(run_id)):
            if (head is not None and not line.startswith(head)
                    and line.startswith('{"c":')):
                continue  # written by _lines for another component or tag
            rec = MetricRecord.from_line(run_id, line)
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
    """Per-component handle; record() stamps a record and appends it to the
    run's buffer, never waiting for durability. It blocks only while chunk +
    QUEUE_CAPACITY records wait for the writer, and raises the writer's error
    once that thread has died, also in a producer blocked there."""

    def __init__(self, run_logger: "RunLogger", component: str):
        self._run = run_logger
        self.component = component

    def record(self, tag: str, value):
        self._run._record(self.component, tag, value)


class RunLogger:
    """Owns the record buffer and the writer thread for one run.

    One condition over a plain lock guards the buffer, the per-(component,
    tag) step counters, _closed and _writer_error. The writer takes at most
    one chunk at a time and writes it outside the lock; it takes a partial
    chunk once `interval` has passed since its last take."""

    def __init__(self, store: DirectoryStore, meta: dict, spool=None,
                 chunk: int = DEFAULT_CHUNK, interval: float = DEFAULT_INTERVAL):
        if type(chunk) is not int or chunk < 1:
            raise ValueError(f"chunk must be an integer >= 1, got {chunk!r}")
        self.store = store
        self.spool = spool
        self.run_id = new_run_id()
        self.meta = dict(meta)
        self.chunk = chunk
        self.interval = interval
        self.failed_flushes = 0
        self.spooled_records = 0
        self._limit = chunk + QUEUE_CAPACITY
        self._cond = threading.Condition(threading.Lock())
        self._buffer: list[MetricRecord] = []
        self._steps: dict[tuple[str, str], int] = {}
        self._closed = False
        self._writer_error = None
        self._start = time.monotonic()
        self._meta_written = False
        self._writer = threading.Thread(
            target=self._writer_loop, name=f"store-writer-{self.run_id}", daemon=True
        )
        self._writer.start()

    def proxy(self, component: str) -> ProxyLogger:
        return ProxyLogger(self, component)

    def _record(self, component: str, tag: str, value):
        with self._cond:
            while True:
                if self._closed:
                    raise RunClosed(f"run {self.run_id} is finalised")
                if self._writer_error is not None:
                    raise self._writer_error
                if len(self._buffer) < self._limit:
                    break
                self._cond.wait()  # backpressure: the writer is behind
            step = self._steps.get((component, tag), 0)
            self._steps[(component, tag)] = step + 1
            self._buffer.append(MetricRecord(
                self.run_id, component, tag, step,
                time.monotonic() - self._start, value,
            ))
            if len(self._buffer) == self.chunk:
                self._cond.notify()  # only the writer can be waiting here

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
        taken = time.monotonic()
        while True:
            with self._cond:
                self._cond.wait_for(  # the floor keeps interval 0 from spinning
                    lambda: len(self._buffer) >= self.chunk or self._closed,
                    max(0.01, self.interval - (time.monotonic() - taken)))
                if self._closed and not self._buffer:
                    return
                records = self._buffer[:self.chunk]
                del self._buffer[:self.chunk]
                self._cond.notify_all()  # producers held by backpressure
            taken = time.monotonic()
            try:
                self._flush(records)
            except Exception as exc:  # raised again by record() and close()
                with self._cond:
                    self._writer_error = exc
                    self._cond.notify_all()
                return

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
        with self._cond:
            self._closed = True
            self._cond.notify_all()
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
