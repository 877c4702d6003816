"""Trace-driven heap simulation with instrumented cost accounting.

Replays a trace through a DMM configuration without touching real
memory: the simulator lays out blocks in its own address space,
maintains each ADM's free structure, and accumulates three counters:

* ``ex_time``   abstract execution-time units,
* ``mem_acc``   memory accesses (header/link field reads and writes),
* ``mem_used``  bytes held by the manager (live blocks, their headers,
  and free blocks not yet returned to the OS), whose running maximum is
  ``peak_mem_used``.

Energy is ``mem_acc * energy_per_access``.

Unit-cost table (time, accesses), applied uniformly to every DMM so
that rankings between candidates are meaningful:

================================  =====  ========
operation                          time  accesses
================================  =====  ========
selector check (per ADM looked at)    1         1
free-list entry / bucket probe        2         2
each extra node visited               2         2
unlink from SLL                       2         5
unlink from DLL                       4         8
list became empty                     1         2
successful return                     1         0
failed search exit                    1         0
insert into SLL                       2         3
insert into DLL                       4         6
live-table lookup on free             2         2
coalesce neighbor check               3         4
successful merge (extra)              2         3
split                                 4         5
OS sbrk grant                         5         2
serve a freshly granted block         1         1
return a block to the OS              1         1
================================  =====  ========

The SLL first-fit fast path therefore costs exactly (5, 7) for a
head hit and (6, 9) when the hit empties the list, and a probe of an
empty list costs (3, 2).

Dispatch: each ADM has a request range ``[lo, hi]`` and a freed-payload
range ``[free_lo, hi]``, ``[0, k]`` and ``[k, k]`` for ``One(k)``. An
allocation goes to the first ADM whose request range holds its size; a
``One`` ADM with no free block grants a fresh block of its own, a range
ADM with no fitting block passes the request on, and the OS backstop
serves what no ADM does. A freed block goes to the first ADM whose
freed-payload range holds its payload, else back to the OS.
:func:`simulate` stops at the first allocation the backstop cannot
serve within its heap limit and flags the metrics so far `exhausted`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dmm_space import (
    BACKSTOP_HEADER_BYTES,
    CHUNK_GRANULARITY,
    AdmConfig,
    AllocationPolicy,
    DataStructureKind,
    DmmConfig,
    HwParams,
    One,
    kingsley_config,
    validate,
)
from .trace import EventKind, Trace, TraceEvent

COST_SELECT = (1, 1)
COST_ENTRY = (2, 2)
COST_VISIT = (2, 2)
COST_UNLINK_SLL = (2, 5)
COST_UNLINK_DLL = (4, 8)
COST_EMPTIED = (1, 2)
COST_RETURN = (1, 0)
COST_MISS = (1, 0)
COST_INSERT_SLL = (2, 3)
COST_INSERT_DLL = (4, 6)
COST_LIVE_LOOKUP = (2, 2)
COST_COALESCE_CHECK = (3, 4)
COST_COALESCE_MERGE = (2, 3)
COST_SPLIT = (4, 5)
COST_SBRK = (5, 2)
COST_FRESH_SERVE = (1, 1)
COST_OS_RETURN = (1, 1)

LIVE, FREE, RETIRED = 0, 1, 2


class Block:
    """One simulated block: `gross` bytes at `start`, of which `header`
    are bookkeeping and `payload` are usable."""

    __slots__ = ("start", "gross", "header", "payload", "state", "owner")

    def __init__(self, start: int, gross: int, header: int, payload: int, state: int, owner: int | None):
        self.start = start
        self.gross = gross
        self.header = header
        self.payload = payload
        self.state = state
        self.owner = owner

    @property
    def end(self) -> int:
        return self.start + self.gross

    def __repr__(self) -> str:
        state = {LIVE: "live", FREE: "free", RETIRED: "retired"}[self.state]
        return f"<Block @{self.start} gross={self.gross} payload={self.payload} {state}>"


class AdmRuntime:
    """Mutable free-structure of one ADM plus its compiled parameters.

    Exact-fit managers keep segregated per-payload buckets (O(1) probe);
    first/best fit keep one list with the head at index 0.
    """

    def __init__(self, adm: AdmConfig, index: int, sim: "HeapSim"):
        self.index = index
        self.sim = sim
        sizes = adm.block_sizes
        self.is_one = isinstance(sizes, One)
        # the dispatch ranges of the module docstring
        self.hi = sizes.size if self.is_one else sizes.hi
        self.lo = 0 if self.is_one else sizes.lo
        self.free_lo = self.hi if self.is_one else self.lo
        self.header = adm.block_tags.header_bytes
        self.exact = adm.allocation_policy is AllocationPolicy.EXACT_FIT
        self.best = adm.allocation_policy is AllocationPolicy.BEST_FIT
        self.dll = adm.data_structure is DataStructureKind.DOUBLY_LINKED
        self.unlink_cost = COST_UNLINK_DLL if self.dll else COST_UNLINK_SLL
        self.insert_cost = COST_INSERT_DLL if self.dll else COST_INSERT_SLL
        self.splits = adm.min_result_size is not None
        self.min_result = adm.min_result_size
        self.coalesces = adm.max_result_size is not None
        self.max_result = adm.max_result_size
        self.buckets: dict[int, list[Block]] = {}
        self.blocks: list[Block] = []

    def free_blocks(self) -> list[Block]:
        if self.exact:
            return [b for bucket in self.buckets.values() for b in bucket]
        return list(self.blocks)

    def take(self, payload: int) -> Block | None:
        """Search for a block with room for `payload` bytes and unlink it."""
        sim = self.sim
        sim.ex_time += COST_ENTRY[0]
        sim.mem_acc += COST_ENTRY[1]
        if self.exact:
            bucket = self.buckets.get(payload)
            if not bucket:
                sim.ex_time += COST_MISS[0]
                return None
            block = bucket.pop()
            if not bucket:
                del self.buckets[payload]
                sim.ex_time += COST_EMPTIED[0]
                sim.mem_acc += COST_EMPTIED[1]
        else:
            lst = self.blocks
            if not lst:
                sim.ex_time += COST_MISS[0]
                return None
            found = -1
            if self.best:
                extra = len(lst) - 1
                best_payload = -1
                for j, b in enumerate(lst):
                    if b.payload >= payload and (best_payload < 0 or b.payload < best_payload):
                        found = j
                        best_payload = b.payload
            else:  # first fit
                for j, b in enumerate(lst):
                    if b.payload >= payload:
                        found = j
                        break
                extra = j if found >= 0 else len(lst) - 1
            sim.ex_time += extra * COST_VISIT[0]
            sim.mem_acc += extra * COST_VISIT[1]
            if found < 0:
                sim.ex_time += COST_MISS[0]
                return None
            block = lst.pop(found)
            if not lst:
                sim.ex_time += COST_EMPTIED[0]
                sim.mem_acc += COST_EMPTIED[1]
        sim.ex_time += self.unlink_cost[0] + COST_RETURN[0]
        sim.mem_acc += self.unlink_cost[1]
        block.state = LIVE  # off the free structure, headed for the caller
        return block

    def put(self, block: Block) -> None:
        """Link a freed block into the structure (head insert / bucket push)."""
        sim = self.sim
        sim.ex_time += self.insert_cost[0]
        sim.mem_acc += self.insert_cost[1]
        block.state = FREE
        block.owner = self.index
        if self.exact:
            self.buckets.setdefault(block.payload, []).append(block)
        else:
            self.blocks.insert(0, block)

    def unlink_for_merge(self, block: Block) -> None:
        if self.exact:
            bucket = self.buckets[block.payload]
            bucket.remove(block)
            if not bucket:
                del self.buckets[block.payload]
        else:
            self.blocks.remove(block)


class HeapSim:
    """Replayable heap state for one DMM; see module docstring for costs."""

    def __init__(self, dmm: DmmConfig, hw: HwParams):
        problems = validate(dmm)
        if problems:
            raise ValueError(f"invalid DMM configuration: {problems[0]}")
        self.hw = hw
        self.adms = [AdmRuntime(adm, i, self) for i, adm in enumerate(dmm.adms)]
        self.heap_limit = dmm.backstop.heap_limit
        self.granularity = CHUNK_GRANULARITY
        self.frontier = 0
        self.ex_time = 0
        self.mem_acc = 0
        self.mem_used = 0
        self.peak_mem_used = 0
        self.exhausted = False
        self.live: dict[int, tuple[Block, int]] = {}
        self.by_start: dict[int, Block] = {}
        self.by_end: dict[int, Block] = {}

    def _align(self, size: int) -> int:
        g = self.granularity
        return (size + g - 1) // g * g

    def _grant(self, payload: int, header: int, owner: int | None) -> Block | None:
        gross = header + payload
        if self.frontier + gross > self.heap_limit:
            self.exhausted = True
            return None
        self.ex_time += COST_SBRK[0] + COST_FRESH_SERVE[0]
        self.mem_acc += COST_SBRK[1] + COST_FRESH_SERVE[1]
        block = Block(self.frontier, gross, header, payload, LIVE, owner)
        self.by_start[block.start] = block
        self.by_end[block.end] = block
        self.frontier += gross
        self.mem_used += gross
        if self.mem_used > self.peak_mem_used:
            self.peak_mem_used = self.mem_used
        return block

    def _split(self, adm: AdmRuntime, block: Block, payload: int) -> None:
        self.ex_time += COST_SPLIT[0]
        self.mem_acc += COST_SPLIT[1]
        old_end = block.end
        block.gross = block.header + payload
        block.payload = payload
        self.by_end[block.end] = block
        rest_gross = old_end - block.end
        rest = Block(block.end, rest_gross, adm.header, rest_gross - adm.header, FREE, adm.index)
        self.by_start[rest.start] = rest
        self.by_end[old_end] = rest
        # the remainder is a freshly available block: under immediate
        # coalescing it must not sit next to another free block
        if adm.coalesces:
            rest = self._coalesce(adm, rest)
        adm.put(rest)

    def alloc(self, object_id: int, size: int) -> None:
        """Serve an allocation; sets `exhausted` when the backstop cannot."""
        for adm in self.adms:
            self.ex_time += COST_SELECT[0]
            self.mem_acc += COST_SELECT[1]
            if not adm.lo <= size <= adm.hi:
                continue
            payload = adm.hi if adm.is_one else self._align(size)
            block = adm.take(payload)
            if block is not None:
                if (
                    adm.splits
                    and block.payload - payload - adm.header >= adm.min_result
                ):
                    self._split(adm, block, payload)
                self.live[object_id] = (block, size)
                return
            if adm.is_one:
                block = self._grant(payload, adm.header, adm.index)
                if block is not None:
                    self.live[object_id] = (block, size)
                return
            # a range manager with no fitting free block falls through
        block = self._grant(self._align(size), BACKSTOP_HEADER_BYTES, None)
        if block is not None:
            self.live[object_id] = (block, size)

    def free(self, object_id: int) -> None:
        self.ex_time += COST_LIVE_LOOKUP[0]
        self.mem_acc += COST_LIVE_LOOKUP[1]
        block, _ = self.live.pop(object_id)
        for adm in self.adms:
            self.ex_time += COST_SELECT[0]
            self.mem_acc += COST_SELECT[1]
            if adm.free_lo <= block.payload <= adm.hi:
                if adm.coalesces:
                    block = self._coalesce(adm, block)
                adm.put(block)
                return
        # no manager reclaims it: hand the region back to the OS
        self.ex_time += COST_OS_RETURN[0]
        self.mem_acc += COST_OS_RETURN[1]
        block.state = RETIRED
        block.owner = None
        self.mem_used -= block.gross

    def _coalesce(self, adm: AdmRuntime, block: Block) -> Block:
        # merge with the lower-address neighbor, then the higher one
        self.ex_time += COST_COALESCE_CHECK[0]
        self.mem_acc += COST_COALESCE_CHECK[1]
        left = self.by_end.get(block.start)
        if (
            left is not None
            and left.state == FREE
            and left.owner == adm.index
            and left.gross + block.gross - left.header <= adm.max_result
        ):
            self.ex_time += COST_COALESCE_MERGE[0]
            self.mem_acc += COST_COALESCE_MERGE[1]
            adm.unlink_for_merge(left)
            del self.by_start[block.start]
            del self.by_end[block.start]
            left.gross += block.gross
            left.payload = left.gross - left.header
            self.by_end[left.end] = left
            block = left
        self.ex_time += COST_COALESCE_CHECK[0]
        self.mem_acc += COST_COALESCE_CHECK[1]
        right = self.by_start.get(block.end)
        if (
            right is not None
            and right.state == FREE
            and right.owner == adm.index
            and block.gross + right.gross - block.header <= adm.max_result
        ):
            self.ex_time += COST_COALESCE_MERGE[0]
            self.mem_acc += COST_COALESCE_MERGE[1]
            adm.unlink_for_merge(right)
            del self.by_start[right.start]
            del self.by_end[block.end]
            block.gross += right.gross
            block.payload = block.gross - block.header
            self.by_end[block.end] = block
        return block

    def apply(self, event: TraceEvent) -> None:
        # the allocation that exhausted the heap left the replay behind the trace
        if self.exhausted:
            raise RuntimeError(f"heap exhausted at its limit of {self.heap_limit} bytes; "
                               "no event can be replayed after that")
        if event.kind is EventKind.ALLOC:
            self.alloc(event.object_id, event.size)
        else:
            self.free(event.object_id)

    def metrics(self) -> "SimMetrics":
        return SimMetrics(
            ex_time=self.ex_time,
            mem_acc=self.mem_acc,
            peak_mem_used=self.peak_mem_used,
            energy=self.mem_acc * self.hw.energy_per_access,
            exhausted=self.exhausted,
        )


@dataclass(frozen=True)
class SimMetrics:
    ex_time: int
    mem_acc: int
    peak_mem_used: int
    energy: float
    exhausted: bool = False


def simulate(dmm: DmmConfig, trace: Trace, hw: HwParams) -> SimMetrics:
    """Replay the trace up to the first allocation the backstop cannot
    serve; the metrics of a replay stopped there are flagged `exhausted`."""
    sim = HeapSim(dmm, hw)
    for event in trace.events:
        sim.apply(event)
        if sim.exhausted:
            break
    return sim.metrics()


EQUAL_WEIGHTS = (1 / 3, 1 / 3, 1 / 3)  # (time, memory, energy)


@dataclass(frozen=True)
class FitnessWeights:
    """Objective weights plus the per-metric normalizers (a baseline's metrics)."""

    w_time: float = EQUAL_WEIGHTS[0]
    w_mem: float = EQUAL_WEIGHTS[1]
    w_energy: float = EQUAL_WEIGHTS[2]
    norm_time: float = 1.0
    norm_mem: float = 1.0
    norm_energy: float = 1.0

    def __post_init__(self):
        for name in ("w_time", "w_mem", "w_energy"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        if abs(self.w_time + self.w_mem + self.w_energy - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")
        for name in ("norm_time", "norm_mem", "norm_energy"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value}")

    @classmethod
    def from_baseline(
        cls,
        baseline: SimMetrics,
        heap_limit: int,
        weights: tuple[float, float, float] = EQUAL_WEIGHTS,
    ) -> "FitnessWeights":
        """Weights normalized by the Kingsley `baseline`, replayed at `heap_limit`.

        A baseline that exhausted its heap has partial metrics, so this
        raises ValueError instead of normalizing by them.
        """
        if baseline.exhausted:
            raise ValueError(
                f"fitness baseline kingsley exhausted its heap limit of {heap_limit} bytes; "
                "no fitness can be normalized by a partial replay"
            )
        return cls(
            w_time=weights[0],
            w_mem=weights[1],
            w_energy=weights[2],
            norm_time=float(baseline.ex_time) or 1.0,
            norm_mem=float(baseline.peak_mem_used) or 1.0,
            norm_energy=float(baseline.energy) or 1.0,
        )


def default_weights(
    trace: Trace, hw: HwParams, weights: tuple[float, float, float] = EQUAL_WEIGHTS
) -> FitnessWeights:
    """Weights normalized by the power-of-two segregated-fit baseline.

    The baseline runs with a heap limit of `hw.memory_size`, the same
    Kingsley that `compare` prints; see `FitnessWeights.from_baseline`.
    """
    baseline = simulate(kingsley_config(heap_limit=hw.memory_size), trace, hw)
    return FitnessWeights.from_baseline(baseline, hw.memory_size, weights)


def fitness(metrics: SimMetrics, weights: FitnessWeights) -> float:
    """Weighted normalized sum of the three metrics; lower is better.

    Energy and its normalizer (the baseline's energy) are both priced by
    `energy_per_access`, which cancels: it changes a fitness by rounding
    at most."""
    if metrics.exhausted:
        return math.inf
    return (
        weights.w_time * metrics.ex_time / weights.norm_time
        + weights.w_mem * metrics.peak_mem_used / weights.norm_mem
        + weights.w_energy * metrics.energy / weights.norm_energy
    )
