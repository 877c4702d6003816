import pytest

from dmmopt.devs import run_parallel
from dmmopt.dmm_space import DmmConfig, HwParams, kingsley_config, lea_config
from dmmopt.ge import (
    GeaEngine,
    GeParams,
    Individual,
    decode,
    evaluate,
    make_context,
    run_sequential,
)
from dmmopt.grammar import load_default_grammar, parse_grammar
from dmmopt.pgea import MasterModel, WorkerModel, balance, build_topology, run_parallel_ge
from dmmopt.trace import WorkloadSpec, synth_workload

HW = HwParams()
ADM = kingsley_config().adms[0]


def inds(adm_counts):
    """Individuals [i] whose phenotypes hold `adm_counts[i]` ADMs."""
    return [Individual([i], phenotype=DmmConfig(adms=(ADM,) * n)) for i, n in enumerate(adm_counts)]


def in_process(ctx):
    """Batch evaluator whose handle evaluates the batch when it is called."""
    return lambda batch: lambda: [evaluate(ind, ctx) for ind in batch]


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
        assert balance(population, 1) == [population]

    def test_round_robin_ignores_adm_count(self):
        batches = balance(inds([1, 5, 2, 4, 3, 2]), 2)
        assert [[ind.genotype[0] for ind in batch] for batch in batches] == [[0, 2, 4], [1, 3, 5]]

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
        worker = WorkerModel("w", in_process(ctx))
        golden = [204, 142, 55, 201, 16, 44]
        batch = [Individual(golden, phenotype=decode(golden, grammar)),
                 Individual([7, 3], phenotype=lea_config())]
        expected = [evaluate(ind, ctx) for ind in batch]
        worker.delta_ext({"in": [batch]})
        assert worker.phase == "active" and worker.sigma == 0
        assert worker.dmms == []  # started, not yet collected
        out = worker.output()
        assert out["out"] is worker.dmms
        assert worker.dmms == expected  # one float per individual, in order
        assert all(ind.fitness is None for ind in batch)
        worker.delta_int()
        assert worker.phase == "passive" and worker.dmms == []


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

    def test_generation_that_dispatches_nothing_advances_on_the_master(self, trace):
        # no genotype maps, so every individual is scored on the master
        never_maps = parse_grammar("<S> ::= <S>\n")
        params = GeParams(population_size=10, generations=3, rng_seed=2)
        _, log_seq = run_sequential(never_maps, trace, HW, params)
        _, log_par, events = run_parallel_ge(never_maps, trace, HW, params, workers=2)
        assert [r.csv() for r in log_par] == [r.csv() for r in log_seq]
        assert all(r.invalid_count == 10 for r in log_par)
        assert [(r.model, r.kind) for r in events] == [("master", "lambda"), ("master", "delta_int")]

    def test_event_sequence_with_single_worker(self, grammar, ctx):
        engine = GeaEngine(grammar, GeParams(population_size=8, generations=0, rng_seed=1))
        models, coupling = build_topology(1, engine, in_process(ctx))
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
        models, coupling = build_topology(2, engine, in_process(ctx))
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

    def test_batches_of_a_generation_overlap(self, grammar):
        engine = GeaEngine(grammar, GeParams(population_size=8, generations=0, rng_seed=1))
        calls = []

        def start(batch):
            k = sum(1 for call in calls if call.startswith("start")) + 1
            calls.append(f"start b{k}")

            def wait():
                calls.append(f"wait b{k}")
                return [1.0] * len(batch)

            return wait

        models, coupling = build_topology(2, engine, start)
        run_parallel(models, coupling)
        # both batches are in flight before either worker waits for its result
        assert calls == ["start b1", "start b2", "wait b1", "wait b2"]
