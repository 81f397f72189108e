"""Build a three-component pipeline by hand and run it concurrently.

Component C seeds the graph (init publishes x = 1, y = 1), A multiplies,
B sums, and C feeds back doubled/halved values of alpha. Every value
crosses a generation-gated channel, so the concurrent run is fully
deterministic; we verify that against the sequential reference
interpreter at the end. The run's values are read back from its log in a
temporary store, the one record of what each component published.
"""

import tempfile

from gatedflow import ComponentCollection, make_component, oracle_run
from gatedflow.store import DirectoryStore, open_run, query


def build_components():
    a = make_component(
        "A", {"x": "x", "y": "y", "z": "z"},
        step_body="temp = x * y\nz = temp\n",
    )
    b = make_component(
        "B", {"x": "x", "z": "z", "alpha": "alpha"},
        step_body="alpha = x + z\n",
    )
    c = make_component(
        "C", {"x": "x", "y": "y", "alpha": "alpha"},
        init_body="x = 1\ny = 1\n",
        step_body="temp = alpha * 2\nx = temp\ntemp = alpha / 2\ny = temp\n",
    )
    return [a, b, c]


def logged_values(store, run_id, components):
    """Each written namespace's values, in step order, from the run's log."""
    records = query(store, run_ids=[run_id])
    return {c.io_map[w]: [r.value for r in records
                          if (r.component, r.tag) == (c.name, w)]
            for c in components for w in c.writes}


def main():
    with tempfile.TemporaryDirectory() as root:
        store = DirectoryStore(root)
        run = open_run(store, "toy_pipeline")
        collection = ComponentCollection(build_components(), logger=run)
        report = collection.bind()
        print("wiring:")
        for entry in report.entries:
            print(f"  {entry.namespace}: {entry.producer} -> {entry.consumers}")

        result = collection.run(max_steps=5)
        run.close(outcome=result.outcome)
        values = logged_values(store, run.run_id, collection.components)
    print(f"\noutcome: {result.outcome}, steps: {result.steps}")
    for namespace in sorted(values):
        print(f"  {namespace}: {values[namespace]}")

    oracle = oracle_run(build_components(), 5)
    assert values == oracle.sequences
    print("\nconcurrent run matches the sequential reference interpreter.")


if __name__ == "__main__":
    main()
