"""Parallel grammatical evolution as a DEVS master-worker model.

The master owns the population and all stochastic operators; workers
only evaluate. Per generation the master estimates each candidate's
simulation cost (its ADM count), sorts descending and deals the
candidates round-robin into one batch per worker, then waits until all
batches return before stepping the population. Selection noise is
consumed exclusively on the master and evaluation is deterministic, so
the search trajectory is identical to the sequential loop for any
worker count.

The master decodes and validates every candidate once, when it
prepares a generation. Individuals that fail to map (or map to a
constraint-violating configuration) are scored there and never
dispatched; workers only simulate.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Sequence

from . import devs
from .dmm_space import HwParams
from .ge import (
    EvalContext,
    GeaEngine,
    GenerationRow,
    GeParams,
    Individual,
    evaluate,
    make_context,
)
from .grammar import Grammar
from .simulator import FitnessWeights
from .trace import Trace

BatchEvaluator = Callable[[list[Individual]], list[Individual]]


def balance(
    individuals: Sequence[Any], workers: int, estimate: Callable[[Any], int] | None = None
) -> list[list[Any]]:
    """Sorted round-robin partition by descending simulation-time estimate.

    Batch sizes differ by at most one and the batches partition the
    input; ties keep their original order so the result is deterministic.
    """
    if workers < 1:
        raise ValueError("need at least one worker")
    if estimate is None:
        estimate = lambda ind: ind.sim_estimate
    order = sorted(range(len(individuals)), key=lambda i: -estimate(individuals[i]))
    batches: list[list[Any]] = [[] for _ in range(workers)]
    for pos, idx in enumerate(order):
        batches[pos % workers].append(individuals[idx])
    return batches


class MasterModel(devs.AtomicModel):
    """Runs the evolutionary loop; dispatches evaluation batches."""

    def __init__(self, engine: GeaEngine, workers: int, name: str = "master"):
        super().__init__(name)
        self.engine = engine
        self.workers = workers
        self.output_ports = tuple(f"oW_{j}" for j in range(1, workers + 1))
        self.input_ports = tuple(f"iW_{j}" for j in range(1, workers + 1))
        self._outbox: dict[str, list[Individual]] = {}
        self._sent_indices: dict[str, list[int]] = {}
        self._awaiting: set[str] = set()
        self._prepare_dispatch()
        self.activate()

    @property
    def received(self) -> bool:
        return not self._awaiting

    def _prepare_dispatch(self) -> None:
        pending = self.engine.prepare_generation()
        pairs = [(i, self.engine.population[i]) for i in pending]
        self._outbox.clear()
        self._sent_indices.clear()
        batches = balance(pairs, self.workers, estimate=lambda pair: pair[1].sim_estimate)
        for j, batch in enumerate(batches, start=1):
            if batch:
                port = f"oW_{j}"
                self._sent_indices[port.replace("oW", "iW")] = [i for i, _ in batch]
                self._outbox[port] = [ind for _, ind in batch]

    def output(self) -> dict[str, Any]:
        if self.phase != devs.ACTIVE:
            return {}
        return dict(self._outbox)

    def delta_int(self) -> None:
        self._awaiting = set(self._sent_indices)
        self._outbox.clear()
        if self._awaiting:
            self.passivate()
        else:
            # nothing was dispatched (all cached or invalid): advance locally
            self._generation_done()

    def delta_ext(self, inputs: dict[str, list[Any]]) -> None:
        for port, messages in inputs.items():
            if port not in self._awaiting:
                continue
            indices = self._sent_indices.pop(port)
            self._awaiting.discard(port)
            merged: list[Individual] = []
            for batch in messages:
                merged.extend(batch)
            self.engine.apply_results(list(zip(indices, merged)))
        if self.received:
            self._generation_done()

    def _generation_done(self) -> None:
        while True:
            self.engine.finish_generation()
            if not self.engine.advance():
                self.passivate()
                return
            self._prepare_dispatch()
            if self._outbox:
                self.activate()
                return
            # the whole new generation was resolved from the cache


class WorkerModel(devs.AtomicModel):
    """Evaluates incoming batches and returns them immediately."""

    input_ports = ("in",)
    output_ports = ("out",)

    def __init__(self, name: str, evaluate_batch: BatchEvaluator):
        super().__init__(name)
        self.evaluate_batch = evaluate_batch
        self.dmms: list[Individual] = []

    def output(self) -> dict[str, Any]:
        if self.phase != devs.ACTIVE:
            return {}
        return {"out": self.dmms}

    def delta_int(self) -> None:
        self.dmms = []
        self.passivate()

    def delta_ext(self, inputs: dict[str, list[Any]]) -> None:
        messages = inputs.get("in")
        if not messages:
            return
        evaluated: list[Individual] = []
        for batch in messages:
            evaluated.extend(self.evaluate_batch(batch))
        self.dmms = evaluated
        self.activate()


def build_topology(
    workers: int, engine: GeaEngine, evaluate_batch: BatchEvaluator
) -> tuple[list[devs.AtomicModel], devs.Coupling]:
    """One master plus `workers` workers in a star: oW_j -> in, out -> iW_j."""
    if workers < 1:
        raise ValueError("need at least one worker")
    master = MasterModel(engine, workers)
    worker_models = [WorkerModel(f"worker_{j}", evaluate_batch) for j in range(1, workers + 1)]
    routes: list[devs.Route] = []
    for j, worker in enumerate(worker_models, start=1):
        routes.append((("master", f"oW_{j}"), (worker.name, "in")))
        routes.append(((worker.name, "out"), ("master", f"iW_{j}")))
    coupling = devs.Coupling(tuple(routes))
    models: list[devs.AtomicModel] = [master] + worker_models
    coupling.validate(models)
    return models, coupling


_POOL_CTX: EvalContext | None = None


def _pool_init(ctx: EvalContext) -> None:
    global _POOL_CTX
    _POOL_CTX = ctx


def _pool_eval_batch(batch: list[Individual]) -> list[Individual]:
    return [evaluate(ind, _POOL_CTX) for ind in batch]


def run_parallel_ge(
    grammar: Grammar,
    trace: Trace,
    hw: HwParams,
    params: GeParams,
    workers: int = 1,
    execution_units: int = 1,
    weights: FitnessWeights | None = None,
) -> tuple[Individual, list[GenerationRow], list[devs.EventRecord]]:
    """Master-worker run; same best individual and log as run_sequential.

    `workers` sets the topology width (how many batches per generation);
    `execution_units` sets how many OS processes evaluate concurrently.
    """
    ctx = make_context(trace, hw, weights)
    engine = GeaEngine(grammar, params)
    pool: ProcessPoolExecutor | None = None
    try:
        if execution_units > 1:
            pool = ProcessPoolExecutor(
                max_workers=execution_units, initializer=_pool_init, initargs=(ctx,)
            )
            evaluate_batch: BatchEvaluator = lambda batch: pool.submit(
                _pool_eval_batch, batch
            ).result()
        else:
            evaluate_batch = lambda batch: [evaluate(ind, ctx) for ind in batch]
        models, coupling = build_topology(workers, engine, evaluate_batch)
        events = devs.run_parallel(models, coupling, execution_units=execution_units)
    finally:
        if pool is not None:
            pool.shutdown()
    return engine.best, engine.log, events
