"""Rewire a pipeline by overriding one io_map entry, no code changes.

The four-component experiment inserts interceptor D between B and C:
D reads alpha and publishes beta = alpha * 2, and C is rebuilt with the
override {alpha -> beta} so it consumes the doubled stream instead.
Component C's script text is byte-identical in both experiments; only
the wiring differs. Both runs log to a temporary store, and the printed
streams are read back from it.
"""

import tempfile

from gatedflow import build_experiment, register_builtin
from gatedflow.store import DirectoryStore, open_run, query


def run_logged(registry, store, experiment):
    """Run an experiment for 4 steps, logged to the store; return a reader
    of one component's values for one of its tags, in step order."""
    run = open_run(store, experiment)
    report = build_experiment(registry, experiment, logger=run).run(max_steps=4)
    run.close(outcome=report.outcome)
    return lambda component, tag: [
        r.value for r in query(store, run_ids=[run.run_id],
                               component=component, tag=tag)]


def main():
    registry = register_builtin()

    plain = build_experiment(registry, "ToyExperimentPlain")
    remapped = build_experiment(registry, "ToyExperiment")

    c_plain = next(c for c in plain.components if c.name == "C")
    c_remap = next(c for c in remapped.components if c.name == "C")
    assert c_plain.step_source == c_remap.step_source
    print("Component C step script (identical in both experiments):")
    for line in c_remap.step_source.splitlines():
        print(f"  {line}")
    print(f"\nplain io_map:    {c_plain.io_map}")
    print(f"remapped io_map: {c_remap.io_map}")

    with tempfile.TemporaryDirectory() as root:
        store = DirectoryStore(root)
        plain_log = run_logged(registry, store, "ToyExperimentPlain")
        remapped_log = run_logged(registry, store, "ToyExperiment")
        # B publishes alpha, and interceptor D publishes beta
        print(f"\nalpha without interceptor: {plain_log('B', 'alpha')}")
        print(f"alpha with interceptor:    {remapped_log('B', 'alpha')}")
        print(f"beta (interceptor output): {remapped_log('D', 'beta')}")


if __name__ == "__main__":
    main()
