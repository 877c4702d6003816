import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmmopt.dmm_space import (
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
)
from dmmopt.simulator import (
    FREE,
    Block,
    FitnessWeights,
    HeapSim,
    SimMetrics,
    default_weights,
    fitness,
    simulate,
)
from dmmopt.trace import Trace, WorkloadSpec, parse_trace, synth_workload

from conftest import (
    adjacent_free_pairs,
    assert_no_overlap,
    live_bytes_after_each_event,
    random_small_dmm,
    random_small_trace,
    sim_live_request_bytes,
)

HW = HwParams(energy_per_access=1e-9, memory_size=2**30)


def sll_first_fit(sizes=One(64), **overrides) -> DmmConfig:
    base = dict(
        data_structure=DataStructureKind.SINGLY_LINKED,
        block_sizes=sizes,
        block_tags=BlockTags.HEADER_SIZE,
        allocation_policy=AllocationPolicy.FIRST_FIT,
    )
    base.update(overrides)
    return DmmConfig(adms=(AdmConfig(**base),), backstop=OsBackstop())


def seeded_sim(dmm: DmmConfig, free_payloads: list[int]) -> HeapSim:
    """HeapSim with hand-built free blocks in ADM 0's structure."""
    sim = HeapSim(dmm, HW)
    adm = sim.adms[0]
    addr = 0
    for payload in free_payloads:
        block = Block(addr, payload + adm.header, adm.header, payload, FREE, 0)
        addr = block.end
        sim.by_start[block.start] = block
        sim.by_end[block.end] = block
        if adm.exact:
            adm.buckets.setdefault(payload, []).append(block)
        else:
            adm.blocks.append(block)
    return sim


class TestCostAnchors:
    def test_sll_first_fit_head_hit_costs_5_time_7_accesses(self):
        sim = seeded_sim(sll_first_fit(), [64, 64])
        t0, a0 = sim.ex_time, sim.mem_acc
        assert sim.adms[0].take(64) is not None
        assert (sim.ex_time - t0, sim.mem_acc - a0) == (5, 7)

    def test_sll_list_emptying_hit_costs_6_time_9_accesses(self):
        sim = seeded_sim(sll_first_fit(), [64])
        t0, a0 = sim.ex_time, sim.mem_acc
        assert sim.adms[0].take(64) is not None
        assert (sim.ex_time - t0, sim.mem_acc - a0) == (6, 9)

    def test_probe_of_empty_list_costs_3_time_2_accesses(self):
        sim = seeded_sim(sll_first_fit(), [])
        t0, a0 = sim.ex_time, sim.mem_acc
        assert sim.adms[0].take(64) is None
        assert (sim.ex_time - t0, sim.mem_acc - a0) == (3, 2)

    def test_exact_fit_bucket_hit_matches_snippet_hit_path(self):
        sim = seeded_sim(sll_first_fit(allocation_policy=AllocationPolicy.EXACT_FIT), [64, 64])
        t0, a0 = sim.ex_time, sim.mem_acc
        assert sim.adms[0].take(64) is not None
        assert (sim.ex_time - t0, sim.mem_acc - a0) == (5, 7)

    def test_dll_adds_two_time_three_accesses_on_unlink(self):
        sim = seeded_sim(
            sll_first_fit(data_structure=DataStructureKind.DOUBLY_LINKED), [64, 64]
        )
        t0, a0 = sim.ex_time, sim.mem_acc
        assert sim.adms[0].take(64) is not None
        assert (sim.ex_time - t0, sim.mem_acc - a0) == (7, 10)

    def test_first_fit_traversal_charges_per_extra_node(self):
        # head block too small: one extra node visited
        dmm = sll_first_fit(sizes=SizeRange(8, 4096))
        sim = seeded_sim(dmm, [1024, 8])  # insert order: list head is 1024 then 8
        sim.adms[0].blocks.reverse()  # head = 8, second = 1024
        t0, a0 = sim.ex_time, sim.mem_acc
        block = sim.adms[0].take(1024)
        assert block is not None and block.payload == 1024
        assert (sim.ex_time - t0, sim.mem_acc - a0) == (5 + 2, 7 + 2)

    def test_best_fit_scans_the_whole_list(self):
        dmm = sll_first_fit(sizes=SizeRange(8, 4096), allocation_policy=AllocationPolicy.BEST_FIT)
        sim = seeded_sim(dmm, [1024, 64, 512])
        t0, a0 = sim.ex_time, sim.mem_acc
        block = sim.adms[0].take(60)
        assert block is not None and block.payload == 64
        assert (sim.ex_time - t0, sim.mem_acc - a0) == (5 + 2 * 2, 7 + 2 * 2)

    @pytest.mark.parametrize("policy", [AllocationPolicy.FIRST_FIT, AllocationPolicy.BEST_FIT])
    def test_miss_on_a_non_empty_list_visits_every_node(self, policy):
        # entry (2, 2), two extra nodes (4, 4), failed exit (1, 0)
        sim = seeded_sim(sll_first_fit(sizes=SizeRange(8, 4096), allocation_policy=policy), [8, 16, 24])
        t0, a0 = sim.ex_time, sim.mem_acc
        assert sim.adms[0].take(64) is None
        assert (sim.ex_time - t0, sim.mem_acc - a0) == (7, 6)
        assert [b.payload for b in sim.adms[0].blocks] == [8, 16, 24]

    def test_exact_fit_miss_on_a_missing_bucket_costs_3_time_2_accesses(self):
        dmm = sll_first_fit(sizes=SizeRange(8, 4096), allocation_policy=AllocationPolicy.EXACT_FIT)
        sim = seeded_sim(dmm, [64, 128])
        t0, a0 = sim.ex_time, sim.mem_acc
        assert sim.adms[0].take(32) is None
        assert (sim.ex_time - t0, sim.mem_acc - a0) == (3, 2)
        assert sorted(sim.adms[0].buckets) == [64, 128]

    def test_exact_fit_hit_that_empties_its_bucket_costs_6_time_9_accesses(self):
        dmm = sll_first_fit(sizes=SizeRange(8, 4096), allocation_policy=AllocationPolicy.EXACT_FIT)
        sim = seeded_sim(dmm, [64, 128])
        t0, a0 = sim.ex_time, sim.mem_acc
        block = sim.adms[0].take(64)
        assert block is not None and block.payload == 64
        assert (sim.ex_time - t0, sim.mem_acc - a0) == (6, 9)
        assert sorted(sim.adms[0].buckets) == [128]

    @staticmethod
    def cost_of_freeing(dmm: DmmConfig, freed_before: tuple[int, ...], measured: int):
        """Allocate objects 1, 2, 3 (adjacent 112-byte OS grants), free
        `freed_before`, then return the cost of freeing `measured` and the
        ADM's free payloads after it."""
        sim = HeapSim(dmm, HW)
        for object_id in (1, 2, 3):
            sim.alloc(object_id, 100)
        for object_id in freed_before:
            sim.free(object_id)
        t0, a0 = sim.ex_time, sim.mem_acc
        sim.free(measured)
        payloads = sorted(b.payload for b in sim.adms[0].free_blocks())
        return (sim.ex_time - t0, sim.mem_acc - a0), payloads

    # every free below costs live lookup (2, 2), one selector (1, 1), two
    # neighbor checks (6, 8) and a DLL insert (4, 6), plus (2, 3) per merge
    def test_left_only_merge(self):
        cost, payloads = self.cost_of_freeing(split_and_coalesce_dmm(), (1,), 2)
        assert cost == (15, 20)
        assert payloads == [2 * 112 - 8]

    def test_right_only_merge(self):
        cost, payloads = self.cost_of_freeing(split_and_coalesce_dmm(), (2,), 1)
        assert cost == (15, 20)
        assert payloads == [2 * 112 - 8]

    def test_two_sided_merge(self):
        cost, payloads = self.cost_of_freeing(split_and_coalesce_dmm(), (1, 3), 2)
        assert cost == (17, 23)
        assert payloads == [3 * 112 - 8]

    def test_merge_over_the_cap_is_checked_but_not_made(self):
        cost, payloads = self.cost_of_freeing(split_and_coalesce_dmm(max_result=150), (1, 3), 2)
        assert cost == (13, 17)
        assert payloads == [104, 104, 104]

    def test_docstring_table_rows_are_the_cost_constants_in_order(self):
        from dmmopt import simulator

        lines = simulator.__doc__.splitlines()
        rules = [i for i, line in enumerate(lines) if line.startswith("====")]
        rows = [line.rsplit(None, 2) for line in lines[rules[1] + 1 : rules[2]]]
        constants = [v for k, v in vars(simulator).items() if k.startswith("COST_")]
        assert len(rows) == len(constants) == 17
        assert [(int(t), int(a)) for _, t, a in rows] == constants


class TestSimulate:
    def test_empty_trace_gives_zero_metrics(self):
        m = simulate(sll_first_fit(), Trace(()), HW)
        assert m == SimMetrics(0, 0, 0, 0.0, False)

    def test_kingsley_rounds_forty_to_sixty_four(self):
        from dmmopt.dmm_space import kingsley_config

        trace = parse_trace("1 A 40 0\n1 F 0 0\n")
        rounded = simulate(kingsley_config(), trace, HW)
        assert rounded.peak_mem_used == 64 + 8
        exact = simulate(
            sll_first_fit(sizes=One(40), allocation_policy=AllocationPolicy.EXACT_FIT),
            trace,
            HW,
        )
        assert exact.peak_mem_used == 40 + 8

    def test_reuse_does_not_advance_the_frontier(self):
        trace = parse_trace("1 A 64 0\n1 F 0 0\n2 A 64 0\n2 F 0 0\n3 A 64 0\n3 F 0 0\n")
        sim = HeapSim(sll_first_fit(), HW)
        for ev in trace.events:
            sim.apply(ev)
        assert sim.frontier == 72  # one grant total
        assert sim.peak_mem_used == 72

    def test_free_without_matching_adm_returns_memory_to_os(self):
        trace = parse_trace("1 A 1000 0\n1 F 0 0\n")
        sim = HeapSim(sll_first_fit(sizes=One(8)), HW)
        for ev in trace.events:
            sim.apply(ev)
        assert sim.mem_used == 0
        assert sim.peak_mem_used == 1000 + 8
        assert sim.frontier == 1008  # the address space is not recycled

    def test_held_free_blocks_count_as_memory_used(self):
        trace = parse_trace("1 A 64 0\n1 F 0 0\n")
        sim = HeapSim(sll_first_fit(), HW)
        for ev in trace.events:
            sim.apply(ev)
        assert sim.mem_used == 72  # block sits in the ADM's free list

    def test_exhaustion_flags_metrics(self):
        dmm = DmmConfig(adms=(), backstop=OsBackstop(heap_limit=64))
        trace = parse_trace("1 A 100 0\n")
        m = simulate(dmm, trace, HW)
        assert m.exhausted
        assert fitness(m, FitnessWeights()) == math.inf

    def test_apply_refuses_events_after_exhaustion(self):
        # the failed allocation left no live entry, so its free cannot be replayed
        sim = HeapSim(kingsley_config(heap_limit=64), HW)
        alloc, free = parse_trace("1 A 100 0\n1 F 0 0\n").events
        sim.apply(alloc)
        assert sim.exhausted
        with pytest.raises(RuntimeError, match="heap exhausted at its limit of 64 bytes"):
            sim.apply(free)

    def test_simulate_rejects_invalid_configs(self):
        bad = sll_first_fit(sizes=One(8), min_result_size=8, max_result_size=64)
        with pytest.raises(ValueError):
            simulate(bad, Trace(()), HW)

    def test_determinism(self):
        trace = synth_workload(WorkloadSpec(events=2000, live_cap=40, sizes=(8, 64, 100), seed=4))
        dmm = sll_first_fit(sizes=SizeRange(1, 2**20))
        assert simulate(dmm, trace, HW) == simulate(dmm, trace, HW)


def split_and_coalesce_dmm(lo=8, hi=64 * 1024, min_result=8, max_result=64 * 1024) -> DmmConfig:
    adm = AdmConfig(
        data_structure=DataStructureKind.DOUBLY_LINKED,
        block_sizes=SizeRange(lo, hi),
        block_tags=BlockTags.HEADER_SIZE_STATUS,
        allocation_policy=AllocationPolicy.BEST_FIT,
        min_result_size=min_result,
        max_result_size=max_result,
    )
    return DmmConfig(adms=(adm,), backstop=OsBackstop())


class TestSplitAndCoalesce:
    def test_split_leaves_no_large_slack(self):
        # free a 4096 block, then allocate 100 from it: remainder split off
        trace = parse_trace("1 A 4096 0\n1 F 0 0\n2 A 100 0\n")
        sim = HeapSim(split_and_coalesce_dmm(), HW)
        for ev in trace.events:
            sim.apply(ev)
        block, _ = sim.live[2]
        assert block.payload == 104  # aligned request, slack split away
        free_payloads = [b.payload for b in sim.adms[0].free_blocks()]
        assert free_payloads == [4096 - 104 - 12]

    def test_coalescing_merges_adjacent_frees(self):
        trace = parse_trace("1 A 100 0\n2 A 100 0\n1 F 0 0\n2 F 0 0\n")
        sim = HeapSim(split_and_coalesce_dmm(), HW)
        for ev in trace.events:
            sim.apply(ev)
        assert adjacent_free_pairs(sim) == []
        frees = sim.adms[0].free_blocks()
        assert len(frees) == 1
        # two OS grants of gross 104+8 each merge into one block, one header recovered
        assert frees[0].payload == 2 * (104 + 8) - 8

    def test_max_result_size_caps_merging(self):
        trace = parse_trace("1 A 100 0\n2 A 100 0\n1 F 0 0\n2 F 0 0\n")
        sim = HeapSim(split_and_coalesce_dmm(max_result=150), HW)
        for ev in trace.events:
            sim.apply(ev)
        assert len(sim.adms[0].free_blocks()) == 2  # merge would exceed the cap

    def test_energy_is_exactly_accesses_times_constant(self):
        trace = synth_workload(WorkloadSpec(events=400, live_cap=10, sizes=(100, 2000), seed=2))
        hw = HwParams(energy_per_access=3.5e-8, memory_size=2**30)
        m = simulate(split_and_coalesce_dmm(), trace, hw)
        assert m.energy == m.mem_acc * 3.5e-8


class TestRandomizedInvariants:
    def test_conservation_overlap_and_coalescing(self):
        rng = random.Random(99)
        for _ in range(60):
            dmm = random_small_dmm(rng)
            trace = random_small_trace(rng)
            expected = live_bytes_after_each_event(trace)
            sim = HeapSim(dmm, HW)
            for i, ev in enumerate(trace.events):
                sim.apply(ev)
                assert sim_live_request_bytes(sim) == expected[i]
            assert_no_overlap(sim)
            for left, right in adjacent_free_pairs(sim):
                adm = sim.adms[left.owner]
                merged = left.gross + right.gross - left.header
                assert not adm.coalesces or merged > adm.max_result


class TestFirstFitEqualsExactFitOnOne:
    """Every block a One(k) ADM holds has payload k, so a first-fit scan
    stops at the head and an exact-fit probe pops the same block from
    its one bucket: both policies charge the same for every event."""

    @settings(max_examples=200, deadline=None)
    @given(
        k=st.sampled_from((8, 16, 24, 40, 64, 100, 128)) | st.integers(1, 256),
        tags=st.sampled_from(BlockTags),
        structure=st.sampled_from(DataStructureKind),
        others_seed=st.none() | st.integers(0, 2**32 - 1),
        position=st.integers(0, 3),
        heap_limit=st.sampled_from((2**30, 2048)),
        trace_seed=st.integers(0, 2**32 - 1),
    )
    def test_first_fit_and_exact_fit_replay_alike(
        self, k, tags, structure, others_seed, position, heap_limit, trace_seed
    ):
        others = () if others_seed is None else random_small_dmm(random.Random(others_seed)).adms
        position = min(position, len(others))
        trace = random_small_trace(random.Random(trace_seed), events=120)

        def replay(policy: AllocationPolicy) -> SimMetrics:
            adm = AdmConfig(structure, One(k), tags, policy)
            adms = others[:position] + (adm,) + others[position:]
            return simulate(DmmConfig(adms=adms, backstop=OsBackstop(heap_limit)), trace, HW)

        assert replay(AllocationPolicy.FIRST_FIT) == replay(AllocationPolicy.EXACT_FIT)


class TestFitness:
    def test_metrics_equal_to_normalizers_score_one(self):
        w = FitnessWeights(norm_time=100, norm_mem=200, norm_energy=3.0)
        assert fitness(SimMetrics(100, 0, 200, 3.0), w) == pytest.approx(1.0)

    def test_zero_metrics_score_zero(self):
        assert fitness(SimMetrics(0, 0, 0, 0.0), FitnessWeights()) == 0.0

    def test_dominance_implies_lower_fitness(self):
        rng = random.Random(1)
        for _ in range(50):
            w = rng.random()
            v = rng.random() * (1 - w)
            weights = FitnessWeights(w_time=w, w_mem=v, w_energy=1 - w - v,
                                     norm_time=50, norm_mem=60, norm_energy=2.0)
            a = SimMetrics(10, 5, 20, 1.0)
            b = SimMetrics(12, 7, 25, 1.4)
            assert fitness(a, weights) < fitness(b, weights)

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            FitnessWeights(w_time=0.5, w_mem=0.5, w_energy=0.5)
        with pytest.raises(ValueError):
            FitnessWeights(norm_time=0.0)
        with pytest.raises(ValueError):
            FitnessWeights(w_time=-0.1, w_mem=0.6, w_energy=0.5)

    @pytest.mark.parametrize(
        "field", ["w_time", "w_mem", "w_energy", "norm_time", "norm_mem", "norm_energy"]
    )
    def test_non_finite_values_are_rejected_by_name(self, field):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=field):
                FitnessWeights(**{"w_time": 0.5, "w_mem": 0.25, "w_energy": 0.25, field: value})

    def test_default_weights_normalize_by_kingsley(self):
        trace = synth_workload(WorkloadSpec(events=200, live_cap=10, sizes=(40,), seed=1))
        w = default_weights(trace, HW)
        m = simulate(kingsley_config(), trace, HW)
        assert fitness(m, w) == pytest.approx(1.0)
