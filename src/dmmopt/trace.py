"""Allocation traces: data model, text format, synthetic workloads.

A trace is an ordered sequence of allocation/deallocation events, one
event per line in the on-disk form::

    <object_id> <A|F> <size> <address>

`A` lines allocate `size` bytes for `object_id`; `F` lines free it.
Object ids are non-negative. A free's size field is 0 or the size of
its allocation, and the parsed event always carries the allocation's
size; :func:`serialize_trace` writes 0. Addresses are carried verbatim
but are purely informational: the heap simulator lays out its own
address space. Lines starting with `#` are comments. Every error in
the text names its 1-based line.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Any, Callable, Iterator


class TraceError(ValueError):
    """Malformed trace text or an event stream violating liveness rules."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class WorkloadSpecError(ValueError):
    """A :class:`WorkloadSpec` field out of range; `key` names its spec-file key."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(message)


class EventKind(Enum):
    ALLOC = "A"
    FREE = "F"


@dataclass(frozen=True)
class TraceEvent:
    object_id: int
    kind: EventKind
    size: int
    address: int = 0


@dataclass(frozen=True)
class TraceStats:
    distinct_sizes: tuple[int, ...]  # sorted ascending
    max_live_bytes: int
    event_count: int
    alloc_count: int

    @property
    def min_size(self) -> int:
        return self.distinct_sizes[0]

    @property
    def max_size(self) -> int:
        return self.distinct_sizes[-1]


@dataclass(frozen=True)
class Trace:
    """Immutable event sequence.

    Construct through :func:`parse_trace` or :func:`synth_workload`:
    both produce only traces that keep the liveness invariants, and their
    free events carry the size of the matching alloc. ``Trace(events)``
    itself checks nothing.
    """

    events: tuple[TraceEvent, ...]

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    @cached_property
    def stats(self) -> TraceStats:
        sizes = set()
        live = 0
        max_live = 0
        allocs = 0
        for ev in self.events:
            if ev.kind is EventKind.ALLOC:
                sizes.add(ev.size)
                allocs += 1
                live += ev.size
                if live > max_live:
                    max_live = live
            else:
                live -= ev.size
        return TraceStats(
            distinct_sizes=tuple(sorted(sizes)),
            max_live_bytes=max_live,
            event_count=len(self.events),
            alloc_count=allocs,
        )


def trace_stats(trace: Trace) -> TraceStats:
    return trace.stats


def parse_trace(text: str) -> Trace:
    """Parse trace text, reporting the 1-based line number on any error."""
    events: list[TraceEvent] = []
    live: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 4:
            raise TraceError(f"expected 4 fields, got {len(parts)}: {raw!r}", lineno)
        try:
            object_id = int(parts[0])
            size = int(parts[2])
            address = int(parts[3], 0)
        except ValueError as exc:
            raise TraceError(f"non-numeric field in {raw!r}", lineno) from exc
        if object_id < 0:
            raise TraceError(f"negative object id {object_id}", lineno)
        if parts[1] == "A":
            if object_id in live:
                raise TraceError(f"object {object_id} allocated while still live", lineno)
            if size < 1:
                raise TraceError(f"allocation of {size} bytes (minimum is 1)", lineno)
            live[object_id] = size
            events.append(TraceEvent(object_id, EventKind.ALLOC, size, address))
        elif parts[1] == "F":
            if object_id not in live:
                raise TraceError(f"free of object {object_id} without matching alloc", lineno)
            alloc_size = live.pop(object_id)
            if size not in (0, alloc_size):
                raise TraceError(
                    f"free of object {object_id} carries size {size}, alloc was {alloc_size}",
                    lineno,
                )
            events.append(TraceEvent(object_id, EventKind.FREE, alloc_size, address))
        else:
            raise TraceError(f"unknown operation {parts[1]!r} (expected A or F)", lineno)
    return Trace(tuple(events))


def serialize_trace(trace: Trace) -> str:
    """Inverse of :func:`parse_trace`; free lines carry size 0."""
    lines = []
    for ev in trace.events:
        size = ev.size if ev.kind is EventKind.ALLOC else 0
        lines.append(f"{ev.object_id} {ev.kind.value} {size} {ev.address}")
    return "".join(line + "\n" for line in lines)


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of a synthetic workload.

    Exactly one of `sizes` (discrete, optionally weighted) or `size_range`
    (uniform integer range) selects the size distribution. `events` counts
    allocs plus frees and must be even: every object is freed by trace end.
    """

    events: int
    live_cap: int
    sizes: tuple[int, ...] | None = None
    weights: tuple[float, ...] | None = None
    size_range: tuple[int, int] | None = None
    seed: int = 0
    alloc_ratio: float = 0.5

    def __post_init__(self):
        if (self.sizes is None) == (self.size_range is None):
            raise WorkloadSpecError("sizes", "exactly one of sizes/size_range must be given")
        if self.sizes is not None:
            if not self.sizes or min(self.sizes) < 1:
                raise WorkloadSpecError("sizes", "sizes must be non-empty and >= 1 byte")
            if self.weights is not None and len(self.weights) != len(self.sizes):
                raise WorkloadSpecError("weights", "weights must match sizes in length")
        if self.size_range is not None:
            lo, hi = self.size_range
            if lo < 1 or hi < lo:
                raise WorkloadSpecError("sizes", f"bad size range {self.size_range}")
        if self.events < 0 or self.events % 2:
            raise WorkloadSpecError("events", "events must be a non-negative even number")
        if self.events and self.live_cap < 1:
            raise WorkloadSpecError(
                "live_cap", "live_cap 0 with allocations requested is infeasible"
            )
        if not 0.0 < self.alloc_ratio < 1.0:
            raise WorkloadSpecError("alloc_ratio", "alloc_ratio must be strictly between 0 and 1")


def _sizes_field(text: str) -> dict[str, tuple[int, ...]]:
    if ".." in text:
        return {"size_range": tuple(int(s) for s in text.split("..", 1))}
    return {"sizes": tuple(int(s) for s in text.split(","))}


def parse_workload_spec(text: str) -> WorkloadSpec:
    """Read the key-value workload file (sizes, weights, events, live_cap, seed).

    A bad or out-of-range value names its line; a missing field names the field.
    """
    fields: dict[str, tuple[str, int]] = {}  # key -> (value, line)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise TraceError(f"expected key = value, got {raw!r}", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        fields[key] = (value, lineno)

    for key in ("sizes", "events", "live_cap"):
        if key not in fields:
            raise TraceError(f"workload spec is missing required field {key!r}")

    def field(key: str, convert: Callable[[str], Any], default: Any = None) -> Any:
        if key not in fields:
            return default
        value, lineno = fields[key]
        try:
            return convert(value)
        except ValueError as exc:
            raise TraceError(f"bad {key} value {value!r}: {exc}", lineno) from exc

    try:
        return WorkloadSpec(
            **field("sizes", _sizes_field),
            events=field("events", int),
            live_cap=field("live_cap", int),
            weights=field("weights", lambda t: tuple(float(w) for w in t.split(","))),
            seed=field("seed", int, 0),
            alloc_ratio=field("alloc_ratio", float, 0.5),
        )
    except WorkloadSpecError as exc:
        raise TraceError(str(exc), fields[exc.key][1]) from exc


def synth_workload(spec: WorkloadSpec, seed: int | None = None) -> Trace:
    """Generate a valid trace: deterministic in (spec, seed), all objects freed.

    At every step an alloc is legal while allocations remain and the live
    set is below `live_cap`; a free is legal while anything is live. When
    both are legal the generator allocates with probability `alloc_ratio`.
    """
    rng = random.Random(spec.seed if seed is None else seed)
    n_allocs = spec.events // 2
    remaining_allocs = n_allocs
    live: list[tuple[int, int]] = []  # (object id, size)
    next_id = 1
    next_addr = 0x10000
    events: list[TraceEvent] = []
    sizes, weights, size_range = spec.sizes, spec.weights, spec.size_range

    while len(events) < spec.events:
        can_alloc = remaining_allocs > 0 and len(live) < spec.live_cap
        can_free = bool(live)
        if can_alloc and (not can_free or rng.random() < spec.alloc_ratio):
            if size_range is not None:
                size = rng.randint(*size_range)
            elif weights is not None:
                size = rng.choices(sizes, weights)[0]
            else:
                size = rng.choice(sizes)
            events.append(TraceEvent(next_id, EventKind.ALLOC, size, next_addr))
            live.append((next_id, size))
            next_id += 1
            next_addr += size + 16
            remaining_allocs -= 1
        else:
            pos = rng.randrange(len(live))
            # swap-pop keeps free-target choice O(1) without biasing the rng stream
            live[pos], live[-1] = live[-1], live[pos]
            object_id, size = live.pop()
            events.append(TraceEvent(object_id, EventKind.FREE, size, 0))
    return Trace(tuple(events))
