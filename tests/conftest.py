"""Shared fixtures and independent oracles for the test suite.

The oracle helpers deliberately re-derive quantities from first
principles (plain replay counters, pairwise scans) rather than reusing
simulator state transitions, so they can catch accounting bugs.
"""

from __future__ import annotations

import random

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
    SizeRange,
    validate,
)
from dmmopt.simulator import FREE, LIVE, HeapSim
from dmmopt.trace import EventKind, Trace, WorkloadSpec, synth_workload


@pytest.fixture
def hw() -> HwParams:
    return HwParams(energy_per_access=1e-9, memory_size=2**30)


@pytest.fixture
def forty_byte_trace() -> Trace:
    return synth_workload(WorkloadSpec(events=400, live_cap=20, sizes=(40,), seed=9))


def live_bytes_after_each_event(trace: Trace) -> list[int]:
    """Brute-force replay counter of requested live bytes."""
    live: dict[int, int] = {}
    out = []
    for ev in trace.events:
        if ev.kind is EventKind.ALLOC:
            live[ev.object_id] = ev.size
        else:
            del live[ev.object_id]
        out.append(sum(live.values()))
    return out


def sim_live_request_bytes(sim: HeapSim) -> int:
    return sum(req for _, req in sim.live.values())


def assert_no_overlap(sim: HeapSim) -> None:
    blocks = sorted(
        (b for b in sim.by_start.values() if b.state in (LIVE, FREE)), key=lambda b: b.start
    )
    for a, b in zip(blocks, blocks[1:]):
        assert a.end <= b.start, f"{a} overlaps {b}"


def adjacent_free_pairs(sim: HeapSim) -> list[tuple]:
    """Address-adjacent free blocks held by the same ADM."""
    pairs = []
    for block in sim.by_start.values():
        if block.state != FREE:
            continue
        right = sim.by_start.get(block.end)
        if right is not None and right.state == FREE and right.owner == block.owner:
            pairs.append((block, right))
    return pairs


def random_small_dmm(rng: random.Random) -> DmmConfig:
    """A random legal configuration of one to three ADMs."""
    adms = []
    for _ in range(rng.randint(1, 3)):
        structure = rng.choice(list(DataStructureKind))
        policy = rng.choice(list(AllocationPolicy))
        if rng.random() < 0.5:
            sizes = One(rng.choice((8, 16, 40, 64, 128)))
            splits = coalesces = False
        else:
            lo = rng.choice((1, 8, 32, 64))
            sizes = SizeRange(lo, lo + rng.choice((64, 256, 4096)))
            # fixed, split and coalesce, split only, coalesce only
            splits, coalesces = rng.choice(
                ((False, False), (True, True), (True, False), (False, True))
            )
        tags = BlockTags.HEADER_SIZE_STATUS if coalesces else (
            BlockTags.NONE
            if isinstance(sizes, One) and rng.random() < 0.3
            else rng.choice((BlockTags.HEADER_SIZE, BlockTags.HEADER_SIZE_STATUS))
        )
        max_result = rng.choice((512, 4096, 2**20)) if coalesces else None
        min_result = rng.choice((8, 32)) if splits else None
        adm = AdmConfig(
            data_structure=structure,
            block_sizes=sizes,
            block_tags=tags,
            allocation_policy=policy,
            min_result_size=min_result,
            max_result_size=max_result,
        )
        adms.append(adm)
    dmm = DmmConfig(adms=tuple(adms), backstop=OsBackstop(heap_limit=2**30))
    assert validate(dmm) == [], validate(dmm)
    return dmm


def random_small_trace(rng: random.Random, events: int = 60) -> Trace:
    spec = WorkloadSpec(
        events=events,
        live_cap=rng.randint(1, 12),
        sizes=tuple(rng.sample((8, 16, 24, 40, 64, 100, 128, 1000, 5000), rng.randint(1, 4))),
        seed=rng.randrange(2**30),
    )
    return synth_workload(spec)
