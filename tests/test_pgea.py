import pytest

from dmmopt.devs import run_parallel
from dmmopt.dmm_space import DmmConfig, HwParams, kingsley_config, lea_config
from dmmopt.ge import (
    WORST_FITNESS,
    GeaEngine,
    GeParams,
    Individual,
    decode,
    evaluate,
    make_context,
    run_sequential,
)
from dmmopt.grammar import load_default_grammar
from dmmopt.pgea import MasterModel, WorkerModel, balance, build_topology, run_parallel_ge
from dmmopt.trace import WorkloadSpec, synth_workload

HW = HwParams()
ADM = kingsley_config().adms[0]


def inds(estimates):
    """Individuals whose simulation-time estimates (ADM counts) are `estimates`."""
    return [Individual([i], phenotype=DmmConfig(adms=(ADM,) * e)) for i, e in enumerate(estimates)]


@pytest.fixture(scope="module")
def grammar():
    return load_default_grammar()


@pytest.fixture(scope="module")
def trace():
    return synth_workload(WorkloadSpec(events=300, live_cap=12, sizes=(40, 100, 2000), seed=8))


@pytest.fixture(scope="module")
def ctx(trace):
    return make_context(trace, HW)


class TestBalance:
    def test_single_worker_gets_everything(self):
        population = inds([3, 1, 2])
        batches = balance(population, 1)
        assert batches == [population[:1] + population[2:] + population[1:2]] or len(batches[0]) == 3

    def test_sorted_round_robin_example(self):
        batches = balance(inds([5, 4, 3, 2, 2, 1]), 2)
        loads = [[ind.sim_estimate for ind in batch] for batch in batches]
        assert loads == [[5, 3, 2], [4, 2, 1]]
        assert sum(loads[0]) == 10 and sum(loads[1]) == 7

    def test_partition_property(self):
        population = inds([7, 1, 1, 3, 9, 2, 5, 5])
        batches = balance(population, 3)
        sizes = sorted(len(b) for b in batches)
        assert max(sizes) - min(sizes) <= 1
        flat = [ind for batch in batches for ind in batch]
        assert sorted(id(i) for i in flat) == sorted(id(i) for i in population)

    def test_ties_keep_original_order(self):
        population = inds([2, 2, 2, 2])
        batches = balance(population, 2)
        assert [ind.genotype for ind in batches[0]] == [[0], [2]]
        assert [ind.genotype for ind in batches[1]] == [[1], [3]]

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            balance(inds([1]), 0)


class TestWorker:
    def test_empty_input_port_means_no_transition(self, ctx):
        worker = WorkerModel("w", lambda batch: batch)
        worker.delta_ext({})
        assert worker.phase == "passive" and worker.sigma == float("inf")

    def test_batch_fitness_matches_direct_evaluate(self, grammar, ctx):
        worker = WorkerModel("w", lambda batch: [evaluate(ind, ctx) for ind in batch])
        golden = [204, 142, 55, 201, 16, 44]
        batch = [Individual(golden, phenotype=decode(golden, grammar)),
                 Individual([7, 3], phenotype=lea_config())]
        expected = [evaluate(ind.copy(), ctx).fitness for ind in batch]
        worker.delta_ext({"in": [batch]})
        assert worker.phase == "active" and worker.sigma == 0
        assert [ind.fitness for ind in worker.dmms] == expected
        out = worker.output()
        assert out["out"] is worker.dmms
        worker.delta_int()
        assert worker.phase == "passive" and worker.dmms == []

    def test_invalid_individual_comes_back_with_worst_fitness(self, ctx):
        worker = WorkerModel("w", lambda batch: [evaluate(ind, ctx) for ind in batch])
        # as GeaEngine.prepare_generation leaves it: scored, never simulated
        invalid = Individual([0], invalid=True, fitness=WORST_FITNESS)
        worker.delta_ext({"in": [[invalid]]})
        assert worker.dmms[0].fitness == WORST_FITNESS


class TestTopology:
    def test_four_workers_is_five_models_eight_couplings(self, grammar):
        engine = GeaEngine(grammar, GeParams(population_size=8, generations=1))
        models, coupling = build_topology(4, engine, lambda b: b)
        assert len(models) == 5
        assert len(coupling.routes) == 8

    def test_single_worker_is_two_models_two_couplings(self, grammar):
        engine = GeaEngine(grammar, GeParams(population_size=8, generations=1))
        models, coupling = build_topology(1, engine, lambda b: b)
        assert len(models) == 2
        assert len(coupling.routes) == 2

    def test_generated_coupling_validates(self, grammar):
        engine = GeaEngine(grammar, GeParams(population_size=8, generations=1))
        models, coupling = build_topology(3, engine, lambda b: b)
        coupling.validate(models)  # raises on failure

    def test_zero_workers_rejected(self, grammar):
        engine = GeaEngine(grammar, GeParams(population_size=8, generations=1))
        with pytest.raises(ValueError):
            build_topology(0, engine, lambda b: b)


class TestMasterDispatch:
    def test_sixty_individuals_make_four_batches_of_fifteen(self, grammar):
        engine = GeaEngine(grammar, GeParams(population_size=60, generations=0, rng_seed=1))
        master = MasterModel(engine, workers=4)
        outputs = master.output()
        sizes = {port: len(batch) for port, batch in outputs.items()}
        dispatched = sum(sizes.values())
        skipped = 60 - dispatched  # invalid or cached individuals stay home
        assert skipped == sum(
            1 for ind in engine.population if ind.fitness is not None
        )
        assert max(sizes.values()) - min(sizes.values()) <= 1
        if skipped == 0:
            assert sizes == {f"oW_{j}": 15 for j in range(1, 5)}

    def test_whole_population_on_one_worker(self, grammar):
        engine = GeaEngine(grammar, GeParams(population_size=8, generations=0, rng_seed=1))
        master = MasterModel(engine, workers=1)
        outputs = master.output()
        assert set(outputs) == {"oW_1"}


class TestEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_parallel_search_equals_sequential(self, grammar, trace, workers):
        params = GeParams(population_size=10, generations=4, rng_seed=23)
        best_seq, log_seq = run_sequential(grammar, trace, HW, params)
        best_par, log_par, _ = run_parallel_ge(grammar, trace, HW, params, workers=workers)
        assert best_par.genotype == best_seq.genotype
        assert best_par.fitness == best_seq.fitness
        assert [r.csv() for r in log_par] == [r.csv() for r in log_seq]

    def test_process_pool_matches_in_process(self, grammar, trace):
        params = GeParams(population_size=10, generations=3, rng_seed=5)
        best_one, log_one, _ = run_parallel_ge(grammar, trace, HW, params, workers=2, execution_units=1)
        best_two, log_two, _ = run_parallel_ge(grammar, trace, HW, params, workers=2, execution_units=2)
        assert best_two.genotype == best_one.genotype
        assert [r.csv() for r in log_two] == [r.csv() for r in log_one]

    def test_event_sequence_with_single_worker(self, grammar, ctx):
        engine = GeaEngine(grammar, GeParams(population_size=8, generations=0, rng_seed=1))
        evaluator = lambda batch: [evaluate(ind, ctx) for ind in batch]
        models, coupling = build_topology(1, engine, evaluator)
        log = run_parallel(models, coupling)
        kinds = [(r.model, r.kind) for r in log]
        assert kinds == [
            ("master", "lambda"),
            ("master", "delta_int"),
            ("worker_1", "delta_ext"),
            ("worker_1", "lambda"),
            ("worker_1", "delta_int"),
            ("master", "delta_ext"),
        ]

    def test_event_log_shape_for_one_generation(self, grammar, ctx):
        engine = GeaEngine(grammar, GeParams(population_size=8, generations=0, rng_seed=1))
        evaluator = lambda batch: [evaluate(ind, ctx) for ind in batch]
        models, coupling = build_topology(2, engine, evaluator)
        log = run_parallel(models, coupling)
        kinds = [(r.model, r.kind) for r in log]
        assert kinds == [
            ("master", "lambda"),
            ("master", "delta_int"),
            ("worker_1", "delta_ext"),
            ("worker_2", "delta_ext"),
            ("worker_1", "lambda"),
            ("worker_2", "lambda"),
            ("worker_1", "delta_int"),
            ("worker_2", "delta_int"),
            ("master", "delta_ext"),
        ]
