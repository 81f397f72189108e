"""Random component-graph generator shared by equivalence tests.

Every component initialises its own output namespaces, so every generated
graph (cyclic or acyclic) is live from the first step. Bodies stick to
addition and multiplication by small constants, keeping arithmetic exact
and overflow-free over 50 steps.
"""

import random

from gatedflow import ComponentCollection, make_component

from tracelog import TraceLogger


def random_graph(rng: random.Random, n_components=None):
    n = n_components or rng.randint(2, 5)
    namespaces = []
    owners = {}
    for i in range(n):
        for j in range(rng.randint(1, 2)):
            ns = f"n{i}_{j}"
            namespaces.append(ns)
            owners[ns] = i
    components = []
    for i in range(n):
        own = [ns for ns in namespaces if owners[ns] == i]
        foreign = [ns for ns in namespaces if owners[ns] != i]
        reads = rng.sample(foreign, k=min(len(foreign), rng.randint(1, 2)))
        # optional read-before-write self loop: the self-read may only be
        # used up to its own assignment, which comes first in the body
        self_read = rng.choice(own) if rng.random() < 0.3 else None
        io_map = {ns: ns for ns in set(own) | set(reads) | (
            {self_read} if self_read else set())}
        init_lines = [f"{ns} = {rng.randint(1, 3)}" for ns in own]
        ordered = ([self_read] + [ns for ns in own if ns != self_read]
                   if self_read else own)
        step_lines = []
        for ns in ordered:
            pool = reads + ([self_read] if self_read and ns == self_read else [])
            terms = [rng.choice(pool)]
            if rng.random() < 0.5:
                terms.append(rng.choice(pool))
            expr = " + ".join(terms)
            if rng.random() < 0.4:
                expr = f"({expr}) * 2"
            if rng.random() < 0.3:
                expr = f"{expr} + {rng.randint(0, 5)}"
            step_lines.append(f"{ns} = {expr}")
        components.append(make_component(
            name=f"C{i}",
            io_map=io_map,
            init_body="\n".join(init_lines),
            step_body="\n".join(step_lines),
        ))
    return components


def build_twin(rng_seed, n_components=None):
    """Two structurally identical graphs: one bound to run, logging to the
    returned TraceLogger, and one for the oracle."""
    make = lambda: random_graph(random.Random(rng_seed), n_components)
    runtime_components = make()
    oracle_components = make()
    logger = TraceLogger()
    collection = ComponentCollection(runtime_components, step_timeout=10.0,
                                     logger=logger)
    collection.bind()
    return collection, oracle_components, logger
