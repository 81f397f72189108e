"""An in-memory logger that keeps every value a run records.

Pass a TraceLogger as ``logger=`` to a ComponentCollection (or to
build_experiment); ``sequences(components)`` then gives the run's values
per written namespace, in the shape of ``OracleResult.sequences``.
"""

from types import SimpleNamespace


class TraceLogger:
    def __init__(self):
        self.records = {}  # (component, tag) -> values in record order

    def proxy(self, name):
        def record(tag, value):
            self.records.setdefault((name, tag), []).append(value)
        return SimpleNamespace(record=record)

    def sequences(self, components):
        return {c.io_map[w]: self.records.get((c.name, w), [])
                for c in components for w in c.writes}
