"""Parallel grammatical evolution as a DEVS master-worker model.

The master owns the population and all stochastic operators; workers
only evaluate. Per generation the master deals the population indices
of the candidates round-robin, keeps the indices each worker owes, and
sends each worker at most one batch; it steps the population once every
batch has returned. Selection noise is consumed exclusively on the
master and evaluation is deterministic, so the search trajectory is
identical to the sequential loop for any worker count.

The process pool of :func:`run_parallel_ge` is the only source of
concurrency; the DEVS kernel runs every transition inline. A worker
starts its batch when the batch arrives (`delta_ext`) and waits for
the batch's fitnesses in its output function, so every batch of a
generation is in the pool before any worker waits. With one execution
unit a batch is evaluated in-process when it is started.

The master decodes and validates every candidate once, when it
prepares a generation. Individuals that fail to map (or map to a
constraint-violating configuration) are scored there and never
dispatched; workers only simulate. A worker replies with one fitness
per individual it received, in order, and the master's engine is the
only writer of fitness. It writes each fitness once and never changes
a scored individual again; whether an individual is invalid is derived
from it (scored without a phenotype).
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

# a started batch: calling it waits for the batch's fitnesses, in order
BatchHandle = Callable[[], list[float]]
BatchEvaluator = Callable[[list[Individual]], BatchHandle]


def balance(individuals: Sequence[Any], workers: int) -> list[list[Any]]:
    """Round-robin partition: item k goes to batch k mod `workers`.

    Batch sizes differ by at most one, and each batch keeps input order.
    """
    if workers < 1:
        raise ValueError("need at least one worker")
    return [list(individuals[j::workers]) for j in range(workers)]


class MasterModel(devs.AtomicModel):
    """Runs the evolutionary loop; dispatches evaluation batches."""

    def __init__(self, engine: GeaEngine, workers: int, name: str = "master"):
        super().__init__(name)
        self.engine = engine
        self.workers = workers
        self.output_ports = tuple(f"oW_{j}" for j in range(1, workers + 1))
        self.input_ports = tuple(f"iW_{j}" for j in range(1, workers + 1))
        # worker number -> population indices of the batch it still owes
        self._owed: dict[int, list[int]] = {}
        self._prepare_dispatch()
        self.activate()

    def _prepare_dispatch(self) -> None:
        batches = balance(self.engine.prepare_generation(), self.workers)
        self._owed = {j: batch for j, batch in enumerate(batches, start=1) if batch}

    def output(self) -> dict[str, Any]:
        pop = self.engine.population
        return {f"oW_{j}": [pop[i] for i in batch] for j, batch in self._owed.items()}

    def delta_int(self) -> None:
        if self._owed:
            self.passivate()
        else:
            # nothing was dispatched (all cached or invalid): advance locally
            self._generation_done()

    def delta_ext(self, inputs: dict[str, list[Any]]) -> None:
        for port, (fitnesses,) in inputs.items():
            indices = self._owed.pop(int(port.removeprefix("iW_")))
            self.engine.apply_results(list(zip(indices, fitnesses)))
        if not self._owed:
            self._generation_done()

    def _generation_done(self) -> None:
        while True:
            self.engine.finish_generation()
            if not self.engine.advance():
                self.passivate()
                return
            self._prepare_dispatch()
            if self._owed:
                self.activate()
                return
            # the whole new generation was resolved from the cache


class WorkerModel(devs.AtomicModel):
    """Starts each incoming batch on arrival; its output waits for the fitnesses."""

    input_ports = ("in",)
    output_ports = ("out",)

    def __init__(self, name: str, evaluate_batch: BatchEvaluator):
        super().__init__(name)
        self.evaluate_batch = evaluate_batch
        self._started: BatchHandle | None = None
        # fitnesses of the batch just collected, in the order received
        self.dmms: list[float] = []

    def output(self) -> dict[str, Any]:
        self.dmms = self._started()
        return {"out": self.dmms}

    def delta_int(self) -> None:
        self._started = None
        self.dmms = []
        self.passivate()

    def delta_ext(self, inputs: dict[str, list[Any]]) -> None:
        messages = inputs.get("in")
        if not messages:
            return
        (batch,) = messages
        self._started = self.evaluate_batch(batch)
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
    models: list[devs.AtomicModel] = [master] + worker_models
    return models, devs.Coupling(tuple(routes))


_POOL_CTX: EvalContext | None = None


def _pool_init(ctx: EvalContext) -> None:
    global _POOL_CTX
    _POOL_CTX = ctx


def _pool_eval_batch(batch: list[Individual]) -> list[float]:
    return [evaluate(ind, _POOL_CTX) for ind in batch]


def _eval_now(batch: list[Individual], ctx: EvalContext) -> BatchHandle:
    """Evaluate in-process when started; the handle returns at once."""
    fitnesses = [evaluate(ind, ctx) for ind in batch]
    return lambda: fitnesses


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
            ).result
        else:
            evaluate_batch = lambda batch: _eval_now(batch, ctx)
        models, coupling = build_topology(workers, engine, evaluate_batch)
        events = devs.run_parallel(models, coupling)
    finally:
        if pool is not None:
            pool.shutdown()
    return engine.best, engine.log, events
