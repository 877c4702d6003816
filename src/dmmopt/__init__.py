"""dmmopt: evolve custom dynamic memory managers for a recorded workload.

The pipeline: profile (or synthesize) an allocation trace, generate a
grammar customized to the observed sizes and target memory, then search
the manager design space with grammatical evolution, scoring every
candidate in a fast heap simulator. Fitness evaluation can be fanned
out to worker processes through a DEVS master-worker model without
changing the search trajectory.
"""

from .dmm_space import (
    AdmConfig,
    AllocationPolicy,
    BlockTags,
    DataStructureKind,
    DmmConfig,
    HwParams,
    One,
    OsBackstop,
    SizeRange,
    kingsley_config,
    lea_config,
    parse_dmm,
    serialize_dmm,
    validate,
)
from .ge import (
    WORST_FITNESS,
    GeParams,
    Individual,
    crossover,
    decode,
    derive,
    evaluate,
    make_context,
    mutate,
    run_sequential,
)
from .grammar import Grammar, generate_grammar, load_default_grammar, parse_grammar
from .pgea import balance, build_topology, run_parallel_ge
from .simulator import (
    FitnessWeights,
    HeapSim,
    SimMetrics,
    default_weights,
    fitness,
    simulate,
)
from .trace import (
    Trace,
    TraceEvent,
    TraceStats,
    WorkloadSpec,
    parse_trace,
    parse_workload_spec,
    serialize_trace,
    synth_workload,
    trace_stats,
)

__version__ = "0.1.0"
