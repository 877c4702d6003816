#!/usr/bin/env python3
"""The dmmopt benchmark: end-to-end timings per workload, checked outputs,
and a separate traced run for per-layer metrics.

Run from the root of a dmmopt checkout (stdlib only, no install needed):

    python3 bench/run.py --workload replay --seed 0 --seconds 40 --trace 0

Workloads (see BENCHMARK.json for why each is there):

* ``replay``      what ``dmmopt compare`` does: Kingsley, Lea and the fixed
                  manager in ``bench/evolved.dmm`` replay a 100k-event trace.
* ``search``      ``run_sequential`` at the acceptance-criterion-4 shape:
                  10k events, population 60, 20 generations, GE seed 1.
* ``search-par``  the same search through ``run_parallel_ge`` with 2 workers
                  on 2 evaluation processes; its log must equal ``search``'s.

``--seed n`` picks the trace seed ``42 + n mod 16``; ``bench/goldens.json``
holds the exact expected outputs for each of those 16 traces, so every
repetition is checked. A run alternates set-ups and repetitions of the
workload body for at most ``--seconds`` (at least one of each); ``setup_s``
and ``wall_s`` are medians. Runs are closed-loop batch jobs: one body at
a time.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` spends half the
time untraced and half with every public dmmopt function of interest
wrapped by a span recorder (``bench/layers.py``); it prints the per-layer
metrics, including the tracing overhead, and writes the spans to
``.bench_results/``. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it give each timing's median, its highest percentile with at
least ten samples beyond it, the sample count, every ratio's base and the
environment. Exit status: 0 when every output matched, 1 when any
repetition failed, 2 on a usage error or when ``src/dmmopt`` is missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any

from layers import PER_LAYER, REPLAY_SPAN, Instrumentation, medians, rep_layers, setup_layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_results"
GOLDENS = BENCH / "goldens.json"

TRACE_SEED_BASE = 42  # --seed 0 is the criterion-4 trace
GOLDEN_SEEDS = 16
GE_SEED = 1

END_TO_END: list[tuple[str, str]] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("events_per_s", "1/s"),
    ("individuals_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]


def trace_seed_for(seed: int) -> int:
    return TRACE_SEED_BASE + seed % GOLDEN_SEEDS


def import_dmmopt():
    """Import the checkout's own dmmopt from src/, never an installed copy."""
    if not (SRC / "dmmopt" / "__init__.py").is_file():
        print(f"error: no dmmopt sources at {SRC}; run from a dmmopt checkout", file=sys.stderr)
        sys.exit(2)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import dmmopt

    if Path(dmmopt.__file__).resolve().parent != SRC / "dmmopt":
        print(f"error: imported dmmopt from {dmmopt.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return dmmopt


def make_trace(seed: int, events: int, live_cap: int, sizes: tuple[int, ...] = (),
               weights: tuple[int, ...] = (), size_range: tuple[int, int] | None = None,
               alloc_ratio: float = 0.5) -> str:
    """Trace text for one seed: the text `dmmopt synth` writes for the same spec.

    The benchmark owns its input generator, so a change to dmmopt's
    synthesizer cannot change what the benchmark measures. An alloc is
    legal while allocations remain and fewer than `live_cap` objects are
    live, a free while anything is live; when both are, it allocates with
    probability `alloc_ratio`. Every object is freed by the end.
    """
    rng = random.Random(seed)
    remaining = events // 2
    live: list[int] = []
    next_id = 1
    address = 0x10000
    lines: list[str] = []
    while len(lines) < events:
        can_alloc = remaining > 0 and len(live) < live_cap
        if can_alloc and (not live or rng.random() < alloc_ratio):
            if size_range is not None:
                size = rng.randint(*size_range)
            elif weights:
                size = rng.choices(sizes, weights)[0]
            else:
                size = rng.choice(sizes)
            lines.append(f"{next_id} A {size} {address}\n")
            live.append(next_id)
            next_id += 1
            address += size + 16
            remaining -= 1
        else:
            pos = rng.randrange(len(live))
            live[pos], live[-1] = live[-1], live[pos]
            lines.append(f"{live.pop()} F 0 0\n")
    return "".join(lines)


class Workload:
    """One workload: its generated input, set-up, body and output check."""

    name: str
    golden_key: str
    ge_seed: int | None = None

    def __init__(self, dm, spec: dict[str, Any], scored: int):
        self.dm = dm
        self.hw = dm.HwParams()
        self.spec = spec
        self.events = spec["events"]
        self.scored = scored  # DMMs given a fitness per body

    def make_input(self, trace_seed: int) -> str:
        """The trace text dmmopt receives; the same seed gives the same text."""
        return make_trace(trace_seed, **self.spec)


class Replay(Workload):
    """Parse a trace, normalize by Kingsley, replay Kingsley, Lea and a fixed manager."""

    name = "replay"
    golden_key = "replay"
    managers = ("kingsley", "lea", "evolved")

    def __init__(self, dm, tiny: bool):
        # alloc_ratio above 1/2 keeps the live set near live_cap, so free-list
        # lengths, and with them replay cost, depend on the shape, not on
        # where a random walk of the live count happens to wander
        super().__init__(dm, dict(events=2_000 if tiny else 100_000, live_cap=50 if tiny else 400,
                                  size_range=(8, 16384), alloc_ratio=0.55), len(self.managers))
        self.evolved_text = (BENCH / "evolved.dmm").read_text("utf-8")

    def setup(self, text: str):
        dm = self.dm
        trace = dm.parse_trace(text)
        evolved = dm.parse_dmm(self.evolved_text)
        weights = dm.default_weights(trace, self.hw)
        dmms = (dm.kingsley_config(heap_limit=self.hw.memory_size),
                dm.lea_config(heap_limit=self.hw.memory_size), evolved)
        return SimpleNamespace(trace=trace, weights=weights, dmms=dict(zip(self.managers, dmms)))

    def body(self, state, span) -> dict[str, list]:
        dm = self.dm
        out = {}
        for name, dmm in state.dmms.items():
            with span(REPLAY_SPAN + name):
                metrics = dm.simulate(dmm, state.trace, self.hw)
            dm.fitness(metrics, state.weights)
            out[name] = [metrics.ex_time, metrics.mem_acc, metrics.peak_mem_used, metrics.exhausted]
        return out

    def check(self, state, output, golden) -> list[str]:
        problems = [
            f"{name}: got {output[name]}, expected {golden[name]}"
            for name in self.managers if output[name] != golden[name]
        ]
        if state.weights.norm_time != float(golden["kingsley"][0]):
            problems.append(f"normalizer ex_time {state.weights.norm_time} is not Kingsley's")
        return problems


class Search(Workload):
    """Sequential grammatical evolution on a generated grammar."""

    name = "search"
    golden_key = "search"
    ge_seed = GE_SEED

    def __init__(self, dm, tiny: bool):
        self.params = dm.GeParams(population_size=10 if tiny else 60,
                                  generations=2 if tiny else 20, rng_seed=GE_SEED)
        super().__init__(dm, dict(events=1_000 if tiny else 10_000, live_cap=100,
                                  sizes=(32, 64, 256, 1024, 8192), weights=(5, 4, 3, 2, 1)),
                         self.params.population_size * (self.params.generations + 1))

    def setup(self, text: str):
        dm = self.dm
        trace = dm.parse_trace(text)
        grammar = dm.parse_grammar(dm.generate_grammar(dm.trace_stats(trace), self.hw))
        weights = dm.default_weights(trace, self.hw)
        return SimpleNamespace(trace=trace, grammar=grammar, weights=weights)

    def search(self, state):
        return self.dm.run_sequential(state.grammar, state.trace, self.hw, self.params,
                                      weights=state.weights)

    def body(self, state, span) -> str:
        """SHA-256 of the per-generation log CSV plus the best DMM expression."""
        best, log = self.search(state)
        text = self.dm.ge.LOG_HEADER + "\n" + "".join(row.csv() + "\n" for row in log)
        text += self.dm.serialize_dmm(best.phenotype) if best and best.phenotype else "none\n"
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def check(self, state, output, golden) -> list[str]:
        return [] if output == golden else [f"search digest {output} != golden {golden}"]


class SearchPar(Search):
    """The same search through the DEVS master-worker evaluator."""

    name = "search-par"
    workers = 2
    execution_units = 2

    def search(self, state):
        best, log, _ = self.dm.run_parallel_ge(
            state.grammar, state.trace, self.hw, self.params,
            workers=self.workers, execution_units=self.execution_units, weights=state.weights,
        )
        return best, log


WORKLOADS = {w.name: w for w in (Replay, Search, SearchPar)}


def load_golden(path: Path, tiny: bool, workload, trace_seed: int):
    table = json.loads(path.read_text("utf-8"))["tiny" if tiny else "full"]
    return table[workload.golden_key].get(str(trace_seed))


def cpu_seconds() -> float:
    """User plus system CPU of this process and of its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


MIN_SETUPS = 5  # set-ups before the first body repetition, taking at least
MIN_SETUP_SECONDS = 1.0  # this long
SETUP_SHARE = 0.05  # after that, share of the run spent setting up


@dataclass
class Rep:
    wall: float
    cpu: float
    problems: list[str]
    layers: dict[str, Any] = field(default_factory=dict)


@dataclass
class Run:
    setups: list[float] = field(default_factory=list)
    setup_layers: list[dict[str, Any]] = field(default_factory=list)
    reps: list[Rep] = field(default_factory=list)


def measure(workload, text: str, golden, budget: float, inst=None) -> Run:
    """Alternate set-ups and body repetitions while the next cycle should end within `budget`.

    At least MIN_SETUPS set-ups, for at least MIN_SETUP_SECONDS, come
    first. After that, each cycle sets up at least once and for about
    SETUP_SHARE of the previous body's time, so set-up samples are spread
    over the run like the body samples and see the same machine
    conditions. Each body uses the state of the set-up just before it.
    With `inst`, both are traced.
    """
    span = inst.recorder.span if inst is not None else (lambda name: nullcontext())
    run = Run()
    start = time.perf_counter()
    quota = MIN_SETUP_SECONDS
    while True:
        cycle = time.perf_counter()
        while True:
            gc.collect()
            mark = inst.begin_rep() if inst is not None else 0
            t0 = time.perf_counter()
            with span("bench.setup"):
                state = workload.setup(text)
            run.setups.append(time.perf_counter() - t0)
            if inst is not None:
                run.setup_layers.append(setup_layers(inst.recorder.spans[mark:]))
            if len(run.setups) >= MIN_SETUPS and time.perf_counter() - cycle >= quota:
                break

        gc.collect()
        mark = inst.begin_rep() if inst is not None else 0
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            with span("bench.rep"):
                output = workload.body(state, span)
            wall = time.perf_counter() - t0
            cpu = cpu_seconds() - c0
            problems = (workload.check(state, output, golden) if golden is not None
                        else ["no golden output for this input"])
        except Exception as exc:  # a crashed repetition is a failed one
            wall = time.perf_counter() - t0
            cpu = cpu_seconds() - c0
            traceback.print_exc()
            problems = [f"crashed: {exc!r}"]
        rep = Rep(wall, cpu, problems)
        if inst is not None and not problems:
            rep.layers = rep_layers(inst.recorder.spans[mark:], wall, inst)
        run.reps.append(rep)
        if problems and sum(1 for r in run.reps if r.problems) <= 3:
            print(f"FAILED rep {len(run.reps)}: {'; '.join(problems)}", file=sys.stderr)

        quota = SETUP_SHARE * wall
        next_cycle = max(run.setups[-1], quota) + wall
        if time.perf_counter() - start + next_cycle > budget:
            return run


def summarize(samples: list[float]) -> str:
    """Median, the highest percentile with at least ten samples beyond it, and n."""
    s = sorted(samples)
    n = len(s)
    high = f"p{100 * (n - 10) // n}={s[n - 11]:.6g}" if n > 10 else "no percentile with 10 beyond"
    return f"median={statistics.median(s):.6g} {high} n={n}"


def peak_rss_mb() -> tuple[float, float]:
    """High-water resident memory of this process and of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return own, child


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment(args, workload, trace_seed: int) -> dict[str, Any]:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model(),
        "platform": "{0.sysname}-{0.release}-{0.machine}".format(os.uname()),
        "workload": workload.name,
        "bench_seed": args.seed,
        "trace_seed": trace_seed,
        "ge_seed": workload.ge_seed,
        "trace_events": workload.events,
        "tiny": args.tiny,
    }


def end_to_end(workload, run: Run) -> dict[str, float]:
    walls = [r.wall for r in run.reps]
    wall = statistics.median(walls)
    own, child = peak_rss_mb()
    print(f"# setup_s {summarize(run.setups)}")
    print(f"# wall_s {summarize(walls)}")
    print(f"# cpu_s {summarize([r.cpu for r in run.reps])}")
    print(f"# throughput: {workload.scored} DMMs given a fitness per body, "
          f"{workload.events} trace events each")
    print(f"# peak_rss_mb: run process {own:.1f}, largest worker {child:.1f}")
    return {
        "setup_s": statistics.median(run.setups),
        "wall_s": wall,
        "cpu_s": statistics.median(r.cpu for r in run.reps),
        "events_per_s": workload.scored * workload.events / wall,
        "individuals_per_s": workload.scored / wall,
        "peak_rss_mb": max(own, child),
    }


def per_layer(workload, text: str, golden, seconds: float, env: dict) -> tuple[dict, list[Rep]]:
    """Half the time untraced, half traced; returns the layer metrics and all repetitions."""
    untraced = measure(workload, text, golden, seconds / 2)
    inst = Instrumentation()
    inst.install()
    try:
        traced = measure(workload, text, golden, seconds / 2, inst)
    finally:
        inst.uninstall()
    overhead = (statistics.median(r.wall for r in traced.reps)
                - statistics.median(r.wall for r in untraced.reps))
    layers = {
        **medians(traced.setup_layers),
        **medians([r.layers for r in traced.reps if r.layers]),
        "tracing.overhead_s": overhead,
    }
    print(f"# wall_s untraced {summarize([r.wall for r in untraced.reps])}")
    print(f"# wall_s traced {summarize([r.wall for r in traced.reps])}")
    if layers.get("simulator.sims"):
        print(f"# simulator.useful_ratio = {layers['simulator.distinct_dmms']}"
              f"/{layers['simulator.sims']}")
    if layers.get("ge.fitness_needed"):
        print(f"# ge.cache_hit_ratio = {layers['ge.resolved_without_sim']}"
              f"/{layers['ge.fitness_needed']}")
    if inst.missing:
        print(f"# hooks not found: {', '.join(inst.missing)}")
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{env['bench_seed']}.json"
    inst.recorder.dump(str(spans_path), extra={"environment": env})
    print(f"# spans written to {spans_path.relative_to(ROOT)}")
    return layers, untraced.reps + traced.reps


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measure the body for at most this long (at least one repetition)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the smoke check")
    parser.add_argument("--goldens", default=str(GOLDENS), help="expected outputs (JSON)")
    args = parser.parse_args(argv)

    dm = import_dmmopt()
    workload = WORKLOADS[args.workload](dm, args.tiny)
    trace_seed = trace_seed_for(args.seed)
    golden = load_golden(Path(args.goldens), args.tiny, workload, trace_seed)
    env = environment(args, workload, trace_seed)
    print("# environment " + json.dumps(env, sort_keys=True))

    text = workload.make_input(trace_seed)
    if args.trace:
        values, reps = per_layer(workload, text, golden, args.seconds, env)
        metrics = {name: {"value": values.get(name) or 0, "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        run = measure(workload, text, golden, args.seconds)
        reps = run.reps
        values = end_to_end(workload, run)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    failed = sum(1 for r in reps if r.problems)
    print(f"# failed_frac = {failed}/{len(reps)}")
    for name, entry in metrics.items():
        print(f"# {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(reps), "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
