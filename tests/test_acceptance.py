"""Acceptance suite: one test per release criterion.

Each criterion prints one `ACCEPTANCE <n> PASS/FAIL` line (run with
`pytest -s` to see them as they happen). The speedup criterion needs at
least four CPU cores and skips, loudly, on smaller machines.

The full module takes several minutes; the heavyweight criteria are 4
(sequential/parallel search equivalence), 6 (randomized simulator
invariants) and 7 (optimization quality).
"""

from __future__ import annotations

import os
import random
import statistics
import time
from contextlib import contextmanager

import pytest

from dmmopt.dmm_space import (
    AdmConfig,
    AllocationPolicy,
    BlockTags,
    DataStructureKind,
    DmmConfig,
    HwParams,
    One,
    OsBackstop,
    kingsley_config,
    lea_config,
    validate,
)
from dmmopt.ge import GeaEngine, GeParams, derive, evaluate, make_context, run_sequential
from dmmopt.grammar import generate_grammar, load_default_grammar, parse_grammar
from dmmopt.pgea import run_parallel_ge
from dmmopt.simulator import FREE, Block, HeapSim, default_weights, fitness, simulate
from dmmopt.trace import EventKind, Trace, WorkloadSpec, synth_workload

from conftest import (
    adjacent_free_pairs,
    assert_no_overlap,
    live_bytes_after_each_event,
    random_small_dmm,
    random_small_trace,
    sim_live_request_bytes,
)

HW = HwParams(energy_per_access=1e-9, memory_size=2**30)


@contextmanager
def criterion(number: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number:>2} FAIL  {description}")
        raise
    print(f"\nACCEPTANCE {number:>2} PASS  {description}  ({time.perf_counter() - start:.1f}s)")


def test_criterion_1_decoding_golden():
    with criterion(1, "modulus decoding reproduces the worked example"):
        grammar = load_default_grammar()
        partial = derive([204, 142, 55], grammar, max_wraps=0)
        assert partial.rule_indices == (0, 0, 1)
        assert partial.text.startswith("AtomicDMM(FirstFitSLL(SizeHeader), ")
        full = derive([204, 142, 55, 201, 16, 44], grammar, max_wraps=0)
        assert full.completed and full.codons_read == 6
        assert full.text == (
            "AtomicDMM(FirstFitSLL(SizeHeader), SizeSelector, SizeSelector, OperatingSystem)"
        )


def test_criterion_2_kingsley_structure():
    with criterion(2, "power-of-two baseline matches its published structure"):
        dmm = kingsley_config(32)
        assert len(dmm.adms) == 30
        for k, adm in zip(range(3, 33), dmm.adms):
            assert adm.block_sizes == One(2**k)
            assert adm.data_structure is DataStructureKind.SINGLY_LINKED
            assert adm.allocation_policy is AllocationPolicy.FIRST_FIT
            assert adm.min_result_size is None
            assert adm.max_result_size is None
        assert validate(dmm) == []


def test_criterion_3_cost_model_anchor():
    with criterion(3, "SLL first-fit costs match the instrumented fast path"):
        adm = AdmConfig(
            data_structure=DataStructureKind.SINGLY_LINKED,
            block_sizes=One(64),
            block_tags=BlockTags.HEADER_SIZE,
            allocation_policy=AllocationPolicy.FIRST_FIT,
        )
        sim = HeapSim(DmmConfig(adms=(adm,), backstop=OsBackstop()), HW)
        runtime = sim.adms[0]
        blocks = [Block(i * 72, 72, 8, 64, FREE, 0) for i in range(2)]
        for b in blocks:
            sim.by_start[b.start] = b
            sim.by_end[b.end] = b
            runtime.blocks.append(b)
        t0, a0 = sim.ex_time, sim.mem_acc
        assert runtime.take(64) is blocks[0]
        assert (sim.ex_time - t0, sim.mem_acc - a0) == (5, 7)
        t0, a0 = sim.ex_time, sim.mem_acc
        assert runtime.take(64) is blocks[1]  # empties the list
        assert (sim.ex_time - t0, sim.mem_acc - a0) == (6, 9)


def _equivalence_trace() -> Trace:
    return synth_workload(
        WorkloadSpec(
            events=10_000,
            live_cap=100,
            sizes=(32, 64, 256, 1024, 8192),
            weights=(5, 4, 3, 2, 1),
            seed=42,
        )
    )


def test_criterion_4_sequential_parallel_equivalence():
    with criterion(4, "parallel search is bit-identical to sequential"):
        trace = _equivalence_trace()
        grammar = parse_grammar(generate_grammar(trace.stats, HW))
        weights = default_weights(trace, HW)
        for seed in (1, 2, 3):
            params = GeParams(population_size=60, generations=20, rng_seed=seed)
            _, log_seq = run_sequential(grammar, trace, HW, params, weights=weights)
            reference = [(row.best_fitness, row.best_genotype) for row in log_seq]
            assert len(reference) == 21
            for workers in (1, 2, 4):
                _, log_par, _ = run_parallel_ge(
                    grammar, trace, HW, params, workers=workers, weights=weights
                )
                got = [(row.best_fitness, row.best_genotype) for row in log_par]
                assert got == reference, f"seed {seed}, workers {workers} diverged"


def test_criterion_5_speedup_shape():
    cores = os.cpu_count() or 1
    if cores < 4:
        print(f"\nACCEPTANCE  5 SKIP  speedup needs >= 4 cores, found {cores}")
        pytest.skip(f"speedup criterion needs >= 4 CPU cores, found {cores}")
    with criterion(5, "4-worker wall-clock speedup >= 2x; 1-worker within 10% of sequential"):
        trace = synth_workload(
            WorkloadSpec(
                events=100_000,
                live_cap=150,
                sizes=(32, 64, 256, 1024, 8192, 65536),
                weights=(6, 5, 4, 3, 2, 1),
                seed=7,
            )
        )
        grammar = parse_grammar(generate_grammar(trace.stats, HW))
        weights = default_weights(trace, HW)
        params = GeParams(population_size=60, generations=2, rng_seed=3)

        def timed(fn, trials=5):
            samples = []
            for _ in range(trials):
                t0 = time.perf_counter()
                fn()
                samples.append(time.perf_counter() - t0)
            return statistics.mean(samples)

        t_seq = timed(lambda: run_sequential(grammar, trace, HW, params, weights=weights))
        t_w1 = timed(
            lambda: run_parallel_ge(
                grammar, trace, HW, params, workers=1, execution_units=1, weights=weights
            )
        )
        t_w4u1 = timed(
            lambda: run_parallel_ge(
                grammar, trace, HW, params, workers=4, execution_units=1, weights=weights
            )
        )
        t_w4u4 = timed(
            lambda: run_parallel_ge(
                grammar, trace, HW, params, workers=4, execution_units=4, weights=weights
            )
        )
        speedup = t_w4u1 / t_w4u4
        print(
            f"\n  sequential {t_seq:.2f}s | W=1 {t_w1:.2f}s | "
            f"W=4 units=1 {t_w4u1:.2f}s | W=4 units=4 {t_w4u4:.2f}s | speedup {speedup:.2f}x"
        )
        assert speedup >= 2.0
        assert abs(t_w1 - t_seq) / t_seq <= 0.10


def test_criterion_6_simulator_invariant_suite():
    with criterion(6, "randomized heap invariants over 1000 cases"):
        rng = random.Random(2024)
        align = lambda size, g: (size + g - 1) // g * g
        for case in range(1000):
            dmm = random_small_dmm(rng)
            trace = random_small_trace(rng, events=40)
            expected_live = live_bytes_after_each_event(trace)
            sim = HeapSim(dmm, HW)
            frontier = 0
            for i, ev in enumerate(trace.events):
                sim.apply(ev)
                assert sim.frontier >= frontier, f"case {case}: frontier retreated"
                frontier = sim.frontier
                assert sim_live_request_bytes(sim) == expected_live[i], f"case {case}"
                if ev.kind is EventKind.ALLOC:
                    block, req = sim.live[ev.object_id]
                    owner = block.owner
                    if owner is not None and sim.adms[owner].splits:
                        adm = sim.adms[owner]
                        slack = block.payload - align(req, sim.granularity) - adm.header
                        assert slack < adm.min_result, f"case {case}: unsplit slack {slack}"
                else:
                    for left, right in adjacent_free_pairs(sim):
                        adm = sim.adms[left.owner]
                        if adm.coalesces:
                            merged = left.gross + right.gross - left.header
                            assert merged > adm.max_result, f"case {case}: unmerged pair"
            assert_no_overlap(sim)
            metrics = sim.metrics()
            assert metrics.energy == metrics.mem_acc * HW.energy_per_access

        # fixed-size reuse never advances the OS frontier
        for size in (8, 40, 64, 1000):
            adm = AdmConfig(
                data_structure=DataStructureKind.SINGLY_LINKED,
                block_sizes=One(size),
                block_tags=BlockTags.HEADER_SIZE,
                allocation_policy=AllocationPolicy.FIRST_FIT,
            )
            sim = HeapSim(DmmConfig(adms=(adm,), backstop=OsBackstop()), HW)
            sim.alloc(1, size)
            frontier = sim.frontier
            for i in range(2, 30):
                sim.free(i - 1)
                sim.alloc(i, size)
                assert sim.frontier == frontier


def test_criterion_7_optimization_quality():
    with criterion(7, "evolved manager beats both baselines on the 40-byte workload"):
        trace = synth_workload(WorkloadSpec(events=10_000, live_cap=100, sizes=(40,), seed=1))
        grammar = parse_grammar(generate_grammar(trace.stats, HW))
        weights = default_weights(trace, HW)
        params = GeParams(
            population_size=60, generations=100, p_crossover=0.80, p_mutation=0.02, rng_seed=1
        )
        best, _ = run_sequential(grammar, trace, HW, params, weights=weights)
        kingsley_metrics = simulate(kingsley_config(), trace, HW)
        best_metrics = simulate(best.phenotype, trace, HW)
        lea_fit = fitness(simulate(lea_config(), trace, HW), weights)
        kingsley_fit = fitness(kingsley_metrics, weights)
        ratio = best_metrics.peak_mem_used / kingsley_metrics.peak_mem_used
        print(
            f"\n  peak ratio {ratio:.3f} | fitness best {best.fitness:.4f} "
            f"vs kingsley {kingsley_fit:.4f} vs lea {lea_fit:.4f}"
        )
        assert ratio <= 0.70
        assert best.fitness < kingsley_fit
        assert best.fitness < lea_fit


def test_criterion_8_ge_engine_properties():
    with criterion(8, "decode totality, invalid handling, elitism, determinism"):
        grammar = load_default_grammar()
        rng = random.Random(77)
        for _ in range(500):
            genotype = [rng.randrange(256) for _ in range(rng.randint(1, 40))]
            result = derive(genotype, grammar, max_wraps=3)
            assert result.codons_read <= 4 * len(genotype)
            assert result.wraps_used <= 3
            if not result.completed:
                assert "<" in result.text

        trace = synth_workload(WorkloadSpec(events=400, live_cap=10, sizes=(40, 100), seed=4))
        ctx = make_context(trace, HW)
        from dmmopt.ge import WORST_FITNESS, Individual

        recursive = parse_grammar("<S> ::= <S>\n")
        bad_engine = GeaEngine(recursive, GeParams(population_size=2))
        bad_engine.population[0] = Individual([9, 9, 9])
        assert bad_engine.prepare_generation() == []
        assert bad_engine.population[0].fitness == WORST_FITNESS

        params = GeParams(population_size=12, generations=8, rng_seed=31)
        best_a, log_a = run_sequential(grammar, trace, HW, params, weights=ctx.weights)
        best_b, log_b = run_sequential(grammar, trace, HW, params, weights=ctx.weights)
        assert best_a.genotype == best_b.genotype
        assert [r.csv() for r in log_a] == [r.csv() for r in log_b]
        bests = [r.best_fitness for r in log_a]
        assert all(later <= earlier for earlier, later in zip(bests, bests[1:]))

        engine = GeaEngine(grammar, params)
        for _ in range(3):
            for i in engine.prepare_generation():
                engine.apply_results([(i, evaluate(engine.population[i], ctx))])
            engine.finish_generation()
            assert len(engine.population) == params.population_size
            engine.advance()


def test_criterion_9_devs_event_log_determinism():
    with criterion(9, "event logs invariant across execution units; order as traced"):
        trace = synth_workload(WorkloadSpec(events=600, live_cap=15, sizes=(40, 100), seed=6))
        grammar = load_default_grammar()
        params = GeParams(population_size=8, generations=2, rng_seed=13)

        runs = [
            run_parallel_ge(grammar, trace, HW, params, workers=2, execution_units=units)
            for units in (1, 2, 4)
        ]
        logs = [events for _, _, events in runs]
        assert logs[0] == logs[1] == logs[2]
        search_logs = [[row.csv() for row in log] for _, log, _ in runs]
        assert search_logs[0] == search_logs[1] == search_logs[2]

        one_generation = [(r.model, r.kind) for r in logs[0][:9]]
        assert one_generation == [
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
