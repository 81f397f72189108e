"""Centralised experiment persistence.

Layout (one directory tree per store root):

    <root>/runs/<run_id>/meta.json       one JSON object of run metadata
    <root>/runs/<run_id>/metrics.ndjson  {"c":..., "t":..., "s":..., "w":..., "v":...}
    <root>/studies/<study_id>/study.json
    <root>/studies/<study_id>/trials.ndjson

Components log through a ProxyLogger whose record() call encodes the value
first, then, under the run's plain lock, numbers the record's line and
appends it to the run's one buffer; a writer thread commits the buffered
lines in chunks. A condition on that lock serves only the writer and
record()'s slow path, taken when the run is closed, its writer died, or
chunk + QUEUE_CAPACITY records wait for the writer: record() blocks only
then, and a dead writer's error is raised to producers blocked there too.
When the primary store cannot be
written, chunks divert to a local spool with the identical layout, to be
merged back later with merge_spool().

The .ndjson files are append-only logs with one writer each: chunks are
appended in place and fsynced, all or nothing. Readers skip a torn last line,
the next append cuts it off, and a reader during an append sees whole lines
from a prefix of that chunk. meta.json and study.json are replaced atomically.

Every metrics line is written by one encoder, _line, whose bytes are those
of json.dumps of the line's dict with separators (",", ":"). record() writes
the same bytes inline on the recording thread, with the (component, tag)
head that the run encoded at the pair's first record, and append_records
takes encoded lines.
query() tests a line's head before it decodes the line: a line that starts
with {"c": is taken to be written by _line.

MetricRecord.from_line interns str names, so the records of one (component,
tag) share one pair of name objects: a decoded record is a slotted
MetricRecord that holds no copy of its names.
"""

from __future__ import annotations

import contextlib
import json
import operator
import os
import shutil
import sys
import threading
import time
import uuid
from dataclasses import dataclass

from .errors import PrimaryUnavailable, RunClosed

DEFAULT_CHUNK = 256
DEFAULT_INTERVAL = 1.0
QUEUE_CAPACITY = 65536

#: the order of query's results: MetricRecord.key, without the property call
RECORD_ORDER = operator.attrgetter("run_id", "component", "tag", "step")


@dataclass(frozen=True, slots=True)
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
        return _line(_head(self.component, self.tag), self.step,
                     self.wall_time, self.value)

    @classmethod
    def from_line(cls, run_id: str, line: str) -> "MetricRecord":
        obj = json.loads(line)
        component, tag = obj["c"], obj["t"]
        if type(component) is str:
            component = sys.intern(component)
        if type(tag) is str:
            tag = sys.intern(tag)
        return cls(run_id, component, tag, obj["s"], obj["w"], obj["v"])


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


def _line(head, step, wall_time, value) -> str:
    """The metrics line of one record, without its newline."""
    return f'{head}{_json(step)},"w":{_json(wall_time)},"v":{_json(value)}}}'


def new_run_id() -> str:
    return time.strftime("%Y%m%dT%H%M%S") + "-" + uuid.uuid4().hex[:8]


def _write_json(directory: str, name: str, doc: dict):
    """Replace ``directory/name`` with the indented JSON of ``doc`` atomically."""
    os.makedirs(directory, exist_ok=True)
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    path = os.path.join(directory, name)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):  # keep the original error
            os.remove(tmp)
        raise


def _read_json(directory: str, name: str) -> dict:
    with open(os.path.join(directory, name), encoding="utf-8") as fh:
        return json.load(fh)


def _subdirs(path: str) -> list:
    """The sorted names of the directories in ``path``; none if it is absent."""
    if not os.path.isdir(path):
        return []
    return sorted(d for d in os.listdir(path)
                  if os.path.isdir(os.path.join(path, d)))


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

    def append_records(self, run_id: str, lines):
        """Append a non-empty chunk of lines, as MetricRecord.to_line writes
        them, in place and fsync it, all or nothing, after cutting off a torn
        last line; a concurrent reader sees only whole lines."""
        _append(self._metrics_path(run_id), "\n".join(lines) + "\n")

    def write_meta(self, run_id: str, meta: dict):
        _write_json(self.run_dir(run_id), "meta.json", meta)

    def read_meta(self, run_id: str) -> dict:
        return _read_json(self.run_dir(run_id), "meta.json")

    # -- studies ------------------------------------------------------------

    def study_dir(self, study_id):
        return os.path.join(self.root, "studies", study_id)

    def write_study(self, study_id: str, header: dict):
        _write_json(self.study_dir(study_id), "study.json", header)

    def append_trial(self, study_id: str, trial: dict):
        _append(os.path.join(self.study_dir(study_id), "trials.ndjson"),
                json.dumps(trial, sort_keys=True) + "\n")

    def read_study(self, study_id: str) -> dict:
        return _read_json(self.study_dir(study_id), "study.json")

    def read_trials(self, study_id: str):
        path = os.path.join(self.study_dir(study_id), "trials.ndjson")
        return [json.loads(line) for line in _read_lines(path)]

    def list_studies(self):
        return _subdirs(os.path.join(self.root, "studies"))

    # -- reads --------------------------------------------------------------

    def list_runs(self):
        return _subdirs(self.runs_dir())

    def read_records(self, run_id: str):
        return [MetricRecord.from_line(run_id, line)
                for line in _read_lines(self._metrics_path(run_id))]


def query(store: DirectoryStore, run_ids=None, experiment=None, component=None,
          tag=None, step_range=None):
    """Return matching records sorted by (run_id, component, tag, step)."""
    if not os.path.isdir(store.root):
        raise PrimaryUnavailable(store.root)
    runs = list(run_ids) if run_ids is not None else store.list_runs()
    # a line that _line wrote starts with the head of its record; records
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
                continue  # written by _line for another component or tag
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
    out.sort(key=RECORD_ORDER)
    return out


@dataclass
class MergeReport:
    merged: int = 0
    skipped: int = 0


def merge_spool(primary: DirectoryStore, spool: DirectoryStore) -> MergeReport:
    """Move spooled lines into the primary, deduplicated by record key; the
    primary's lines stream past the spooled keys, so memory follows the spool."""
    if not os.path.isdir(primary.root):
        raise PrimaryUnavailable(primary.root)
    report = MergeReport()
    for run_id in spool.list_runs():
        spooled = [(MetricRecord.from_line(run_id, line).key, line[:-1])
                   for line in _read_lines(spool._metrics_path(run_id))]
        missing = {key for key, _ in spooled}
        for line in _read_lines(primary._metrics_path(run_id)):
            missing.discard(MetricRecord.from_line(run_id, line).key)
        fresh = [line for key, line in spooled if key in missing]
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
    """Per-component handle; record() stamps and encodes a record and appends
    its line to the run's buffer, never waiting for durability.

    record() does its work in one call. It encodes the value first, so a
    value that json cannot encode raises TypeError here, in its caller, and
    takes no step. Then, under the run's plain lock, it numbers the line with
    the run's (component, tag) counter and buffers it. Only a closed run, a
    dead writer or a full buffer (chunk + QUEUE_CAPACITY lines) sends it down
    the slow path, which waits on the run's condition for room or raises
    RunClosed or the writer's error. The counters stay in the run, so two
    proxies of one component share one numbering."""

    def __init__(self, run_logger: "RunLogger", component: str):
        self._run = run_logger
        self.component = component

    def record(self, tag: str, value):
        # encoded before the step is taken, so a rejected value takes none
        if type(value) is float and -_INF < value < _INF:
            text = repr(value)
        else:
            text = _json(value)
        run = self._run
        component = self.component
        with run._lock:
            buffer = run._buffer
            if (run._closed or run._writer_error is not None
                    or len(buffer) >= run._limit):
                run._wait_for_room()
            counter = run._steps.get((component, tag))
            if counter is None:
                counter = run._steps[component, tag] = [_head(component, tag), 0]
            head = counter[0]
            if type(component) is not str or type(tag) is not str:
                # equal keys of other types (1, 1.0, True) encode differently
                head = _head(component, tag)
            step = counter[1]
            counter[1] = step + 1
            # _line's bytes: an int and a finite float print as json writes them
            buffer.append(f'{head}{step},"w":'
                          f'{time.monotonic() - run._start!r},"v":{text}}}')
            if len(buffer) == run.chunk:
                run._cond.notify()  # only the writer can be waiting here


class RunLogger:
    """Owns the record buffer and the writer thread for one run.

    One plain lock guards the buffer of encoded lines, the per-(component,
    tag) heads and step counters, _closed and _writer_error. A condition on
    that lock serves only the writer and record()'s slow path: producers
    blocked on a full buffer, or the writer waiting for a chunk. The writer
    takes at most one chunk at a time and writes it outside the lock; it
    takes a partial chunk once `interval` has passed since its last take."""

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
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._buffer: list[str] = []
        self._steps: dict[tuple[str, str], list] = {}  # [head, next step]
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

    def _wait_for_room(self):
        """record()'s slow path, under the lock: raise if the run is closed
        or its writer died, else wait until the buffer has room."""
        while True:
            if self._closed:
                raise RunClosed(f"run {self.run_id} is finalised")
            if self._writer_error is not None:
                raise self._writer_error
            if len(self._buffer) < self._limit:
                return
            self._cond.wait()  # backpressure: the writer is behind

    # -- writer context -----------------------------------------------------

    def _flush(self, lines):
        if not lines:
            return
        try:
            self.store.append_records(self.run_id, lines)
        except OSError:
            self.failed_flushes += 1
            if self.spool is None:
                raise
            self.spool.append_records(self.run_id, lines)
            self.spooled_records += len(lines)

    def _writer_loop(self):
        taken = time.monotonic()
        while True:
            with self._cond:
                self._cond.wait_for(  # the floor keeps interval 0 from spinning
                    lambda: len(self._buffer) >= self.chunk or self._closed,
                    max(0.01, self.interval - (time.monotonic() - taken)))
                if self._closed and not self._buffer:
                    return
                lines = self._buffer[:self.chunk]
                del self._buffer[:self.chunk]
                self._cond.notify_all()  # producers held by backpressure
            taken = time.monotonic()
            try:
                self._flush(lines)
            except Exception as exc:  # raised again by record() and close()
                with self._cond:
                    self._writer_error = exc
                    self._cond.notify_all()
                return

    def close(self, outcome: str = "completed"):
        """Flush residual records and finalise meta.json. Idempotent: a later
        close does nothing (``mark_failed`` changes a closed run's outcome)."""
        if self._closed:
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

    def mark_failed(self):
        """Close the run as ``failed``; or, if a close already wrote its
        meta.json as ``completed`` or ``stopped``, rewrite that outcome to
        ``failed`` (an ``error`` or ``timeout`` outcome already says why).
        A study calls this for a trial that fails, even after its run closed
        (its writer died, or it logged no objective)."""
        if not self._closed:
            self.close(outcome="failed")
        elif self._meta_written and self.meta["outcome"] in ("completed", "stopped"):
            self.meta["outcome"] = "failed"
            self._write_meta()

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
    return RunLogger(store, meta, spool=spool, chunk=chunk, interval=interval)
