"""gatedflow: self-organizing algorithm orchestration over generation-gated
publish/subscribe channels.

Independent components declare an io_map from internal names to external
channel namespaces; the runtime infers each component's reads and writes
from its step script, wires the dataflow graph automatically, runs the
components concurrently, each channel holding ``channels.CAPACITY``
generations so a producer may run ahead of its readers, and logs
everything to a centralised store. A study engine samples hyperparameters
and runs trials on top of the same machinery.
"""

from .builtin import register_builtin
from .channels import BindReport, ChannelRegistry, Observer, Subject
from .dsl import IOSets, StepAST, evaluate, extract_io, parse, to_source, validate
from .errors import FlowError
from .oracle import OracleResult, oracle_run
from .registry import (
    ComponentSpec,
    ExperimentSpec,
    FactoryRecipe,
    HyperparameterDescriptor,
    SubcomponentSpec,
    TypeRegistry,
    build_experiment,
    collect_hyperparameters,
    get_class_args,
)
from .runtime import (
    Component,
    ComponentCollection,
    NativeBody,
    RunReport,
    make_component,
)
from .store import (
    DirectoryStore,
    MetricRecord,
    ProxyLogger,
    RunLogger,
    merge_spool,
    open_run,
    query,
)
from .study import (
    SearchSpace,
    Study,
    Trial,
    best_trial,
    build_search_space,
    run_study,
    sample,
    study_from_descriptors,
)
from .viz import AggregatedSeries, aggregate, export_csv, read_csv, render_svg

__version__ = "0.1.0"

__all__ = [
    "AggregatedSeries",
    "BindReport",
    "ChannelRegistry",
    "Component",
    "ComponentCollection",
    "ComponentSpec",
    "DirectoryStore",
    "ExperimentSpec",
    "FactoryRecipe",
    "FlowError",
    "HyperparameterDescriptor",
    "IOSets",
    "MetricRecord",
    "NativeBody",
    "Observer",
    "OracleResult",
    "ProxyLogger",
    "RunLogger",
    "RunReport",
    "SearchSpace",
    "StepAST",
    "Study",
    "Subject",
    "SubcomponentSpec",
    "Trial",
    "TypeRegistry",
    "aggregate",
    "best_trial",
    "build_experiment",
    "build_search_space",
    "collect_hyperparameters",
    "evaluate",
    "export_csv",
    "extract_io",
    "get_class_args",
    "make_component",
    "merge_spool",
    "open_run",
    "oracle_run",
    "parse",
    "query",
    "read_csv",
    "register_builtin",
    "render_svg",
    "run_study",
    "sample",
    "study_from_descriptors",
    "to_source",
    "validate",
]
