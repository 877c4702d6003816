import random

import pytest

from dmmopt.dmm_space import (
    AdmConfig,
    AllocationPolicy,
    BlockTags,
    DataStructureKind,
    DmmConfig,
    DmmTextError,
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
from dmmopt.ge import WORST_FITNESS, Individual
from dmmopt.simulator import HeapSim

from conftest import random_small_dmm


def one_adm(**overrides) -> AdmConfig:
    base = dict(
        data_structure=DataStructureKind.SINGLY_LINKED,
        block_sizes=One(8),
        block_tags=BlockTags.HEADER_SIZE,
        allocation_policy=AllocationPolicy.FIRST_FIT,
    )
    base.update(overrides)
    return AdmConfig(**base)


def range_adm(**overrides) -> AdmConfig:
    return one_adm(**{"block_sizes": SizeRange(8, 4096), **overrides})


def served_by(dmm: DmmConfig, size: int) -> AdmConfig | None:
    """The ADM owning the block HeapSim.alloc serves for `size` (None: the OS).

    One block of that size is allocated and freed first, so a range
    manager has a free block to serve from.
    """
    sim = HeapSim(dmm, HwParams())
    sim.alloc(0, size)
    sim.free(0)
    sim.alloc(1, size)
    owner = sim.live[1][0].owner
    return None if owner is None else dmm.adms[owner]


STATUS = BlockTags.HEADER_SIZE_STATUS

# one case per validate rule: (id, configuration, expected message)
RULE_CASES = [
    ("one-size-below-1", one_adm(block_sizes=One(0)), "below 1 byte"),
    ("one-splits", one_adm(min_result_size=8), "One block size cannot be split"),
    ("one-coalesces", one_adm(block_tags=STATUS, max_result_size=64), "One block size cannot be split"),
    ("range-reversed", range_adm(block_sizes=SizeRange(64, 8)), "bad size range"),
    ("range-below-1", range_adm(block_sizes=SizeRange(0, 8)), "bad size range"),
    ("range-tagless", range_adm(block_tags=BlockTags.NONE), "in-block size field"),
    ("tagless-splits", range_adm(block_tags=BlockTags.NONE, min_result_size=8), "in-block size field"),
    ("coalesce-without-status", range_adm(max_result_size=64), "coalescing needs size+status"),
    ("min-below-1", range_adm(min_result_size=0), "min_result_size >= 1"),
    ("max-below-1", range_adm(block_tags=STATUS, max_result_size=0), "max_result_size >= 1"),
    (
        "min-above-max",
        range_adm(block_tags=STATUS, min_result_size=65, max_result_size=64),
        "min_result_size 65 exceeds max_result_size 64",
    ),
    ("heap-limit-below-1", OsBackstop(heap_limit=0), "backstop heap limit must be >= 1 byte"),
]


class TestValidate:
    def test_kingsley_is_legal(self):
        assert validate(kingsley_config()) == []
        assert validate(lea_config()) == []

    def test_one_size_cannot_be_split_or_coalesced(self):
        adm = one_adm(min_result_size=8, max_result_size=64, block_tags=STATUS)
        problems = validate(DmmConfig(adms=(adm,)))
        assert any("One block size cannot be split or coalesced" in p for p in problems)

    def test_tagless_blocks_cannot_coalesce(self):
        adm = one_adm(block_tags=BlockTags.NONE, max_result_size=64)
        problems = validate(DmmConfig(adms=(adm,)))
        assert problems == [
            "adm[0]: One block size cannot be split or coalesced",
            "adm[0]: coalescing needs size+status block tags",
        ]

    def test_range_needs_size_field(self):
        adm = one_adm(block_sizes=SizeRange(8, 64), block_tags=BlockTags.NONE)
        problems = validate(DmmConfig(adms=(adm,)))
        assert any("in-block size field" in p for p in problems)

    def test_coalescing_needs_status(self):
        adm = one_adm(block_sizes=SizeRange(8, 64), max_result_size=64)
        problems = validate(DmmConfig(adms=(adm,)))
        assert any("size+status" in p for p in problems)

    def test_split_and_coalesce_bounds_must_be_coherent(self):
        adm = range_adm(block_tags=STATUS, min_result_size=64, max_result_size=16)
        problems = validate(DmmConfig(adms=(adm,)))
        assert any("exceeds" in p for p in problems)

    @pytest.mark.parametrize(
        "part, message", [case[1:] for case in RULE_CASES], ids=[case[0] for case in RULE_CASES]
    )
    def test_each_rule_fires(self, part, message):
        if isinstance(part, OsBackstop):
            dmm = DmmConfig(adms=(), backstop=part)
        else:
            dmm = DmmConfig(adms=(part,))
        problems = validate(dmm)
        assert any(message in p for p in problems), problems


class TestKingsley:
    def test_thirty_adms_with_power_of_two_sizes(self):
        dmm = kingsley_config()
        assert len(dmm.adms) == 30
        for k, adm in zip(range(3, 33), dmm.adms):
            assert adm.block_sizes == One(2**k)
            assert adm.data_structure is DataStructureKind.SINGLY_LINKED
            assert adm.block_tags is BlockTags.HEADER_SIZE
            assert adm.allocation_policy is AllocationPolicy.FIRST_FIT
            assert adm.min_result_size is None and adm.max_result_size is None

    def test_first_adm_serves_eight_bytes(self):
        assert kingsley_config().adms[0].block_sizes == One(8)

    def test_requests_round_up_to_next_power_of_two(self):
        dmm = kingsley_config()
        assert served_by(dmm, 33).block_sizes == One(64)
        assert served_by(dmm, 8).block_sizes == One(8)
        assert served_by(dmm, 9).block_sizes == One(16)


class TestLea:
    def test_small_requests_hit_exact_fit_lists(self):
        adm = served_by(lea_config(), 24)
        assert adm.block_sizes == One(24)
        assert adm.allocation_policy is AllocationPolicy.EXACT_FIT

    def test_medium_requests_hit_the_range_adm(self):
        adm = served_by(lea_config(), 1000)
        assert adm.block_sizes == SizeRange(64, 128 * 1024)
        assert adm.allocation_policy is AllocationPolicy.BEST_FIT
        assert adm.min_result_size == 8 and adm.max_result_size == 128 * 1024
        assert served_by(lea_config(), 128 * 1024) == adm

    def test_large_requests_fall_to_the_backstop(self):
        assert served_by(lea_config(), 256 * 1024) is None


class TestEstimateCost:
    """`Individual.adm_count` counts the phenotype's ADMs (0 without a phenotype)."""

    def test_kingsley_is_thirty(self):
        assert Individual([0], phenotype=kingsley_config()).adm_count == 30

    def test_single_adm(self):
        assert Individual([0], phenotype=DmmConfig(adms=(one_adm(),))).adm_count == 1
        assert Individual([0], fitness=WORST_FITNESS).adm_count == 0

    def test_lea_is_eight_exact_plus_one_range(self):
        assert Individual([0], phenotype=lea_config()).adm_count == 9


class TestDispatch:
    def test_first_match_wins(self):
        first = one_adm(block_sizes=One(64))
        second = one_adm(block_sizes=One(64), allocation_policy=AllocationPolicy.EXACT_FIT)
        assert served_by(DmmConfig(adms=(first, second)), 10) is first

    def test_backstop_when_nothing_matches(self):
        assert served_by(DmmConfig(adms=(one_adm(),)), 1000) is None


class TestHwParams:
    def test_parameters_must_be_positive(self):
        with pytest.raises(ValueError):
            HwParams(energy_per_access=0.0)
        with pytest.raises(ValueError):
            HwParams(memory_size=0)
        assert HwParams(energy_per_access=1e-9, memory_size=1024).memory_size == 1024


class TestTextForm:
    def test_round_trip_baselines(self):
        for dmm in (kingsley_config(), lea_config()):
            assert parse_dmm(serialize_dmm(dmm)) == dmm

    def test_round_trip_split_only_and_coalesce_only(self):
        split = range_adm(min_result_size=16)
        coalesce = range_adm(block_tags=STATUS, max_result_size=512)
        backstop = OsBackstop(heap_limit=4096)
        dmm = DmmConfig(adms=(split, coalesce), backstop=backstop)
        text = serialize_dmm(dmm)
        assert "SplitOnly(16)" in text and "CoalesceOnly(512)" in text
        assert parse_dmm(text) == dmm

    def test_round_trip_random_configurations(self):
        rng = random.Random(2024)
        for _ in range(200):
            dmm = random_small_dmm(rng)
            assert parse_dmm(serialize_dmm(dmm)) == dmm

    def test_plain_selector_migration_means_no_split_and_no_coalesce(self):
        dmm = parse_dmm(
            "AtomicDMM(BestFitSLL(SizeHeader), RangeSelector(8, 64), RangeSelector(1, 2), "
            "OperatingSystem)"
        )
        assert dmm.adms[0].min_result_size is None and dmm.adms[0].max_result_size is None
        assert serialize_dmm(dmm).count("RangeSelector(8, 64)") == 2

    def test_bare_tokens_get_documented_defaults(self):
        dmm = parse_dmm("AtomicDMM(FirstFitSLL(SizeHeader), SizeSelector, SizeSelector, OperatingSystem)")
        assert dmm.adms[0].block_sizes == One(8)
        assert dmm.backstop.heap_limit == 2**30

    def test_true_selector_resolves_to_full_range(self):
        dmm = parse_dmm(
            "AtomicDMM(BestFitDLL(SizeHeader), TrueSelector, TrueSelector, OperatingSystem(65536))"
        )
        assert dmm.adms[0].block_sizes == SizeRange(1, 65536)

    def test_parse_errors(self):
        with pytest.raises(DmmTextError):
            parse_dmm("AtomicDMM(FirstFitSLL(SizeHeader), SizeSelector, SizeSelector)")
        with pytest.raises(DmmTextError):
            parse_dmm("NotADMM()")
        with pytest.raises(DmmTextError):
            parse_dmm("AtomicDMM(WorstFitSLL(SizeHeader), SizeSelector, SizeSelector, OperatingSystem)")
        with pytest.raises(DmmTextError):
            parse_dmm("OperatingSystem(4096, 16)")
