import itertools
import math
import random

import pytest

from dmmopt.dmm_space import HwParams, kingsley_config
from dmmopt.ge import (
    WORST_FITNESS,
    GeaEngine,
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
from dmmopt.grammar import load_default_grammar, parse_grammar
from dmmopt.simulator import default_weights, fitness, simulate
from dmmopt.trace import WorkloadSpec, synth_workload

HW = HwParams()
GOLDEN = [204, 142, 55, 201, 16, 44]  # completes the worked example


@pytest.fixture(scope="module")
def grammar():
    return load_default_grammar()


@pytest.fixture(scope="module")
def small_ctx():
    trace = synth_workload(WorkloadSpec(events=300, live_cap=15, sizes=(40, 100), seed=5))
    return make_context(trace, HW)


class TestDecode:
    def test_worked_example_indices(self, grammar):
        d = derive(GOLDEN[:3], grammar, max_wraps=0)
        assert d.rule_indices == (0, 0, 1)
        assert not d.completed
        assert d.text == "AtomicDMM(FirstFitSLL(SizeHeader), <Selector>, <Migration>, <NextADM>)"

    def test_worked_example_completion(self, grammar):
        d = derive(GOLDEN, grammar, max_wraps=0)
        assert d.completed
        assert d.text == "AtomicDMM(FirstFitSLL(SizeHeader), SizeSelector, SizeSelector, OperatingSystem)"
        assert d.codons_read == 6

    def test_trailing_codons_are_ignored(self, grammar):
        base = decode(GOLDEN, grammar)
        for tail in ([0], [255, 13, 7]):
            assert decode(GOLDEN + tail, grammar) == base

    def test_recursive_rule_exhausts_wrap_budget(self):
        g = parse_grammar("<S> ::= <S> | done\n")
        assert decode([0], g, max_wraps=2) is None
        assert derive([1], g, max_wraps=2).text == "done"
        d = derive([0], g, max_wraps=2)
        assert not d.completed
        assert d.codons_read == 3  # 1 codon re-read once per wrap

    def test_recursion_first_next_adm_with_zero_codons_is_invalid(self):
        # variant grammar whose <NextADM> rule 0 recurses: all-zero codons loop
        text = (
            "<CustomDMM> ::= AtomicDMM(<DataStructure>, <Selector>, <Selector>, <NextADM>)\n"
            "<DataStructure> ::= FirstFitSLL(<Header>)\n"
            "<Header> ::= EmptyHeader | SizeHeader\n"
            "<Selector> ::= SizeSelector\n"
            "<NextADM> ::= <CustomDMM> | OperatingSystem\n"
        )
        g = parse_grammar(text)
        assert decode([0], g, max_wraps=2) is None
        d = derive([0], g, max_wraps=2)
        assert not d.completed and "<" in d.text

    def test_decode_is_total_and_bounded(self, grammar):
        rng = random.Random(0)
        for _ in range(300):
            genotype = [rng.randrange(256) for _ in range(rng.randint(1, 30))]
            d = derive(genotype, grammar, max_wraps=3)
            assert d.codons_read <= len(genotype) * 4
            if d.completed:
                assert "<" not in d.text

    def test_wrapping_reuses_codons_from_the_start(self, grammar):
        # 5 codons force one wrap for the 6th expansion
        d = derive([204, 142, 55, 201, 16], grammar, max_wraps=1)
        assert d.completed
        assert d.wraps_used == 1
        # 6th choice re-reads codon 204: 204 % 2 == 0 picks OperatingSystem
        assert d.text.endswith("OperatingSystem)")

    def test_empty_genotype_rejected(self, grammar):
        with pytest.raises(ValueError):
            derive([], grammar)


class _CutRng:
    """Duck-typed rng driving crossover to fixed cut points."""

    def __init__(self, cuts):
        self.cuts = iter(cuts)

    def random(self):
        return 0.0  # always cross

    def randint(self, a, b):
        cut = next(self.cuts)
        assert a <= cut <= b
        return cut


class TestCrossover:
    def test_cut_points_at_the_ends_copy_parents(self):
        c1, c2 = crossover([1, 2, 3], [4, 5], _CutRng([3, 2]))
        assert (c1, c2) == ([1, 2, 3], [4, 5])

    def test_specified_cut_points(self):
        c1, c2 = crossover([1, 2, 3, 4], [5, 6], _CutRng([2, 1]))
        assert (c1, c2) == ([1, 2, 6], [5, 3, 4])

    def test_codon_count_is_conserved_for_all_cuts(self):
        a, b = [1, 2, 3, 4, 5], [6, 7, 8]
        for cut_a, cut_b in itertools.product(range(1, 6), range(1, 4)):
            c1 = a[:cut_a] + b[cut_b:]
            c2 = b[:cut_b] + a[cut_a:]
            assert len(c1) + len(c2) == len(a) + len(b)
            assert len(c1) >= 1 and len(c2) >= 1

    def test_no_crossover_below_probability(self):
        rng = random.Random(3)
        a, b = [1, 2, 3], [4, 5, 6]
        c1, c2 = crossover(a, b, rng, p_crossover=0.0)
        assert (c1, c2) == (a, b)
        assert c1 is not a  # copies, not aliases


class TestMutate:
    def test_p_zero_is_identity(self):
        g = list(range(50))
        assert mutate(g, 0.0, random.Random(1)) == g

    def test_p_one_resamples_every_codon(self):
        rng = random.Random(1)
        g = [300 % 256] * 50  # sentinel values outside rng draw is impossible; use count
        out = mutate(list(range(50)), 1.0, rng)
        assert len(out) == 50
        assert all(0 <= c <= 255 for c in out)

    def test_mutation_rate_within_binomial_bounds(self):
        rng = random.Random(7)
        n, p = 100_000, 0.02
        genotype = [999] * n  # impossible value: every change is a mutation
        mutated = sum(1 for c in mutate(genotype, p, rng) if c != 999)
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(mutated - n * p) < 3 * sigma


class TestEvaluate:
    def test_invalid_mapping_gets_worst_fitness(self):
        recursive = parse_grammar("<S> ::= <S>\n")
        engine = GeaEngine(recursive, GeParams(population_size=2, max_wraps=2))
        engine.population[0] = Individual([0, 0])
        assert engine.prepare_generation() == []
        ind = engine.population[0]
        assert ind.invalid and ind.fitness == WORST_FITNESS and ind.sim_estimate == 0

    def test_constraint_violating_phenotype_gets_worst_fitness(self):
        # EmptyHeader with a range selector cannot be simulated
        g = parse_grammar(
            "<S> ::= AtomicDMM(BestFitSLL(EmptyHeader), RangeSelector(8, 64), "
            "RangeSelector(8, 64), OperatingSystem)\n"
        )
        engine = GeaEngine(g, GeParams(population_size=2))
        engine.population[0] = Individual([0])
        assert engine.prepare_generation() == []
        ind = engine.population[0]
        assert not ind.invalid
        assert ind.fitness == WORST_FITNESS and ind.sim_estimate == 1

    def test_composition_matches_direct_pipeline(self, grammar, small_ctx):
        cfg = decode(GOLDEN, grammar)
        ind = evaluate(Individual(list(GOLDEN), phenotype=cfg), small_ctx)
        expected = fitness(simulate(cfg, small_ctx.trace, small_ctx.hw), small_ctx.weights)
        assert ind.fitness == expected
        assert ind.sim_estimate == len(cfg.adms)

    def test_kingsley_equivalent_scores_one_under_default_weights(self, grammar):
        trace = synth_workload(WorkloadSpec(events=300, live_cap=15, sizes=(40, 100), seed=5))
        weights = default_weights(trace, HW)
        m = simulate(kingsley_config(), trace, HW)
        assert fitness(m, weights) == pytest.approx(1.0)

    def test_cached_fitness_is_not_recomputed(self, grammar, small_ctx):
        ind = evaluate(Individual(list(GOLDEN), phenotype=decode(GOLDEN, grammar)), small_ctx)
        marker = ind.fitness
        ind.fitness = marker + 123.0
        assert evaluate(ind, small_ctx).fitness == marker + 123.0


class TestEngine:
    def params(self, **kw):
        base = dict(population_size=8, generations=3, rng_seed=11)
        base.update(kw)
        return GeParams(**base)

    def test_population_size_is_invariant(self, grammar, small_ctx):
        engine = GeaEngine(grammar, self.params())
        for _ in range(4):
            for i in engine.prepare_generation():
                engine.apply_results([(i, evaluate(engine.population[i], small_ctx))])
            engine.finish_generation()
            assert len(engine.population) == 8
            if not engine.advance():
                break

    def test_full_elitism_copies_the_population(self, grammar, small_ctx):
        engine = GeaEngine(grammar, self.params(elitism_count=8))
        for i in engine.prepare_generation():
            engine.apply_results([(i, evaluate(engine.population[i], small_ctx))])
        engine.finish_generation()
        before = [list(ind.genotype) for ind in engine.population]
        engine.step()
        assert [list(ind.genotype) for ind in engine.population] == before

    def test_best_fitness_is_monotone_with_elitism(self, grammar, small_ctx):
        _, log = run_sequential(grammar, small_ctx.trace, HW, self.params(generations=6))
        bests = [row.best_fitness for row in log]
        assert all(b2 <= b1 for b1, b2 in zip(bests, bests[1:]))

    def test_seeded_runs_are_bit_identical(self, grammar, small_ctx):
        p = self.params(generations=4)
        best_a, log_a = run_sequential(grammar, small_ctx.trace, HW, p)
        best_b, log_b = run_sequential(grammar, small_ctx.trace, HW, p)
        assert best_a.genotype == best_b.genotype
        assert [r.csv() for r in log_a] == [r.csv() for r in log_b]

    def test_zero_generations_returns_best_of_initial_population(self, grammar, small_ctx):
        best, log = run_sequential(grammar, small_ctx.trace, HW, self.params(generations=0))
        assert len(log) == 1
        assert log[0].generation == 0
        assert best.fitness == log[0].best_fitness

    def test_elite_keeps_its_fitness_without_reevaluation(self, grammar, small_ctx, monkeypatch):
        import dmmopt.ge as ge_mod

        calls = {"n": 0}
        real = ge_mod.simulate

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(ge_mod, "simulate", counting)
        run_sequential(grammar, small_ctx.trace, HW, self.params(generations=2), weights=small_ctx.weights)
        # every simulation corresponds to a distinct genotype: caching works
        assert calls["n"] <= 3 * 8

    def test_worst_fitness_sorts_after_every_finite_value(self):
        assert WORST_FITNESS > 1e300
        assert sorted([WORST_FITNESS, 2.0, 1.0]) == [1.0, 2.0, WORST_FITNESS]

    def test_best_dmm_on_forty_byte_trace_beats_kingsley_peak(self, grammar):
        trace = synth_workload(WorkloadSpec(events=600, live_cap=20, sizes=(40,), seed=2))
        params = GeParams(population_size=20, generations=10, rng_seed=4)
        best, _ = run_sequential(grammar, trace, HW, params)
        kingsley_peak = simulate(kingsley_config(), trace, HW).peak_mem_used
        best_peak = simulate(best.phenotype, trace, HW).peak_mem_used
        assert best_peak <= kingsley_peak

    def test_params_validation(self):
        with pytest.raises(ValueError):
            GeParams(population_size=7)
        with pytest.raises(ValueError):
            GeParams(p_crossover=1.5)
        with pytest.raises(ValueError):
            GeParams(init_len_min=0)
