"""Per-layer metrics of dmmopt, measured by a traced run.

A layer is one dmmopt module. :class:`Instrumentation` wraps the public
functions and methods of each module with a :class:`SpanRecorder`, from
the benchmark's side: nothing in the program changes. The functions
below turn the spans of one traced set-up and of each traced
repetition of a workload body into the metrics listed in
:data:`PER_LAYER`. A metric whose layer does no work on a workload,
or cannot be observed from the benchmark process, is ``None`` and is
printed as 0.
"""

from __future__ import annotations

import pickle
import statistics
import sys

from spans import Span, SpanRecorder, self_times

# name, unit, better; the first line of each group names the end-to-end
# metric it should move (and on which workload)
PER_LAYER: list[tuple[str, str, str]] = [
    # setup_s on replay
    ("trace.parse_us_per_line", "us", "lower"),
    # setup_s on search and search-par
    ("grammar.setup_ms", "ms", "lower"),
    # wall_s on search: a manager is validated once when decoded, once by HeapSim
    ("dmm_space.validate_calls", "count", "lower"),
    ("dmm_space.validate_us", "us", "lower"),
    # wall_s on search
    ("ge.decode_calls", "count", "lower"),
    ("ge.decode_us", "us", "lower"),
    ("ge.step_ms", "ms", "lower"),
    ("ge.overhead_frac", "ratio", "lower"),
    # wall_s on search and search-par; ratio = resolved_without_sim / fitness_needed
    ("ge.fitness_needed", "count", "lower"),
    ("ge.resolved_without_sim", "count", "higher"),
    ("ge.cache_hit_ratio", "ratio", "higher"),
    # wall_s and cpu_s on search and search-par; ratio = distinct_dmms / sims
    ("simulator.sims", "count", "lower"),
    ("simulator.distinct_dmms", "count", "lower"),
    ("simulator.useful_ratio", "ratio", "higher"),
    # events_per_s on replay
    ("simulator.replay_us_per_event.kingsley", "us", "lower"),
    ("simulator.replay_us_per_event.lea", "us", "lower"),
    ("simulator.replay_us_per_event.evolved", "us", "lower"),
    # wall_s on search
    ("simulator.replay_us_per_event.search", "us", "lower"),
    ("simulator.busy_frac", "ratio", "higher"),
    # setup_s on every workload
    ("simulator.baseline_s", "s", "lower"),
    # cpu_s on search-par
    ("pgea.batches", "count", "lower"),
    ("pgea.batch_bytes.out", "bytes", "lower"),
    ("pgea.batch_bytes.back", "bytes", "lower"),
    # wall_s on search-par; imbalance = sum of slowest / sum of mean batch per generation
    ("pgea.batch_ms", "ms", "lower"),
    ("pgea.imbalance", "ratio", "lower"),
    # wall_s on search-par; both stay 0 on search
    ("devs.events", "count", "lower"),
    ("devs.self_ms", "ms", "lower"),
    # cost of the traced run itself: traced minus untraced median wall_s
    ("tracing.overhead_s", "s", "lower"),
    ("tracing.spans", "count", "lower"),
]

REPLAY_SPAN = "replay."  # benchmark-side span around one manager's replay


class Instrumentation:
    """Wraps dmmopt's layers and keeps the per-repetition observations."""

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        self.missing: list[str] = []
        self.simulated: set = set()
        self.dispatched: set = set()

    def begin_rep(self) -> int:
        self.simulated = set()
        self.dispatched = set()
        return len(self.recorder.spans)

    def install(self) -> None:
        from dmmopt import ge, pgea

        rec = self.recorder

        def simulate_post(_state, args, _kwargs, _result):
            self.simulated.add(args[0])
            return {"events": len(args[1])}

        def parse_trace_post(_state, args, _kwargs, _result):
            text = args[0]
            return {"lines": text.count("\n" if isinstance(text, str) else b"\n")}

        def needing_pre(args, _kwargs):
            return sum(1 for ind in args[0].population if ind.fitness is None)

        def needing_post(needing, _args, _kwargs, pending):
            return {"needing": needing, "pending": len(pending)}

        def balance_post(_state, _args, _kwargs, batches):
            return {"batches": sum(1 for b in batches if b)}

        def batch_pre(args, _kwargs):
            batches = args[1].get("in") or []
            out = 0
            count = 0
            for batch in batches:
                out += len(pickle.dumps(batch))
                count += len(batch)
                self.dispatched.update(ind.phenotype for ind in batch)
            return {"individuals": count, "bytes_out": out}

        def batch_post(state, args, _kwargs, _result):
            if state["individuals"]:
                state["bytes_back"] = len(pickle.dumps(args[0].dmms))
            return state

        def events_post(_state, _args, _kwargs, log):
            return {"events": len(log)}

        functions = [
            ("dmmopt.trace", "parse_trace", None, parse_trace_post),
            ("dmmopt.grammar", "generate_grammar", None, None),
            ("dmmopt.grammar", "parse_grammar", None, None),
            ("dmmopt.dmm_space", "validate", None, None),
            ("dmmopt.simulator", "default_weights", None, None),
            ("dmmopt.simulator", "simulate", None, simulate_post),
            ("dmmopt.ge", "run_sequential", None, None),
            ("dmmopt.ge", "decode", None, None),
            ("dmmopt.pgea", "run_parallel_ge", None, None),
            ("dmmopt.pgea", "balance", None, balance_post),
            ("dmmopt.devs", "run_parallel", None, events_post),
        ]
        for module, attr, pre, post in functions:
            layer = module.split(".", 1)[1]
            if not rec.patch_function(module, attr, f"{layer}.{attr}", pre, post):
                self.missing.append(f"{module}.{attr}")
        methods = [
            (ge, "GeaEngine", "prepare_generation", needing_pre, needing_post),
            (ge, "GeaEngine", "step", None, None),
            (pgea, "MasterModel", "output", None, None),
            (pgea, "MasterModel", "delta_int", None, None),
            (pgea, "MasterModel", "delta_ext", None, None),
            (pgea, "WorkerModel", "output", None, None),
            (pgea, "WorkerModel", "delta_int", None, None),
            (pgea, "WorkerModel", "delta_ext", batch_pre, batch_post),
        ]
        for module, cls_name, attr, pre, post in methods:
            layer = module.__name__.split(".", 1)[1]
            cls = getattr(module, cls_name, None)
            if cls is None or not rec.patch_method(cls, attr, f"{layer}.{cls_name}.{attr}", pre, post):
                self.missing.append(f"{module.__name__}.{cls_name}.{attr}")
        for name in self.missing:
            print(f"warning: {name} not found; metrics from it read 0", file=sys.stderr)

    def uninstall(self) -> None:
        self.recorder.restore()


def _named(spans: list[Span], name: str) -> list[Span]:
    return [s for s in spans if s.name == name]


def _mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


def setup_layers(spans: list[Span]) -> dict[str, float | None]:
    """Layer metrics of one traced set-up."""
    parses = _named(spans, "trace.parse_trace")
    lines = sum(s.attrs["lines"] for s in parses)
    grammar = _named(spans, "grammar.generate_grammar") + _named(spans, "grammar.parse_grammar")
    baseline = _named(spans, "simulator.default_weights")
    return {
        "trace.parse_us_per_line": sum(s.duration for s in parses) / lines * 1e6 if lines else None,
        "grammar.setup_ms": sum(s.duration for s in grammar) * 1e3 if grammar else None,
        "simulator.baseline_s": sum(s.duration for s in baseline) if baseline else None,
    }


def _imbalance(spans: list[Span]) -> float | None:
    """Sum over generations of the slowest batch over the sum of the mean batch."""
    starts = sorted(s.start for s in _named(spans, "pgea.balance"))
    groups: dict[int, list[float]] = {}
    for s in _named(spans, "pgea.WorkerModel.delta_ext"):
        if s.attrs.get("individuals"):
            gen = sum(1 for t in starts if t <= s.start)
            groups.setdefault(gen, []).append(s.duration)
    slowest = sum(max(d) for d in groups.values() if len(d) > 1)
    mean = sum(statistics.fmean(d) for d in groups.values() if len(d) > 1)
    return slowest / mean if mean else None


def rep_layers(spans: list[Span], wall: float, inst: Instrumentation) -> dict[str, float | None]:
    """Layer metrics of one traced repetition of a workload body."""
    by_id = {s.id: s for s in spans}
    simulate = _named(spans, "simulator.simulate")
    replay: dict[str, list[Span]] = {}
    searched: list[Span] = []
    for s in simulate:
        parent = by_id.get(s.parent)
        if parent is not None and parent.name.startswith(REPLAY_SPAN):
            replay.setdefault(parent.name[len(REPLAY_SPAN):], []).append(s)
        else:
            searched.append(s)
    busy = sum(s.duration for s in simulate)
    in_search = bool(_named(spans, "ge.run_sequential"))

    batches = [s for s in _named(spans, "pgea.WorkerModel.delta_ext") if s.attrs.get("individuals")]
    # on search-par every simulation runs in a pool process, out of sight of
    # the spans; each dispatched individual is simulated exactly once there
    sims = len(simulate) or sum(s.attrs["individuals"] for s in batches)
    distinct = len(inst.simulated) if simulate else len(inst.dispatched)

    prepares = _named(spans, "ge.GeaEngine.prepare_generation")
    needing = sum(s.attrs["needing"] for s in prepares)
    resolved = needing - sum(s.attrs["pending"] for s in prepares)
    decodes = _named(spans, "ge.decode")
    validates = _named(spans, "dmm_space.validate")
    steps = _named(spans, "ge.GeaEngine.step")
    balances = _named(spans, "pgea.balance")
    devs_runs = _named(spans, "devs.run_parallel")
    selfs = self_times(spans) if devs_runs else {}

    metrics: dict[str, float | None] = {
        "dmm_space.validate_calls": len(validates),
        "dmm_space.validate_us": _mean([s.duration * 1e6 for s in validates]),
        "ge.decode_calls": len(decodes) if prepares else None,
        "ge.decode_us": _mean([s.duration * 1e6 for s in decodes]),
        "ge.step_ms": _mean([s.duration * 1e3 for s in steps]),
        "ge.overhead_frac": (wall - busy) / wall if in_search else None,
        "ge.fitness_needed": needing if prepares else None,
        "ge.resolved_without_sim": resolved if prepares else None,
        "ge.cache_hit_ratio": resolved / needing if needing else None,
        "simulator.sims": sims,
        "simulator.distinct_dmms": distinct,
        "simulator.useful_ratio": distinct / sims if sims else None,
        "simulator.replay_us_per_event.search": (
            sum(s.duration for s in searched) / sum(s.attrs["events"] for s in searched) * 1e6
            if searched and in_search else None
        ),
        "simulator.busy_frac": busy / wall if simulate else None,
        "pgea.batches": sum(s.attrs["batches"] for s in balances) if balances else None,
        "pgea.batch_bytes.out": sum(s.attrs["bytes_out"] for s in batches) if balances else None,
        "pgea.batch_bytes.back": sum(s.attrs["bytes_back"] for s in batches) if balances else None,
        "pgea.batch_ms": statistics.median(s.duration * 1e3 for s in batches) if batches else None,
        "pgea.imbalance": _imbalance(spans),
        "devs.events": sum(s.attrs["events"] for s in devs_runs) if devs_runs else None,
        "devs.self_ms": sum(selfs[s.id] for s in devs_runs) * 1e3 if devs_runs else None,
        "tracing.spans": len(spans),
    }
    for manager in ("kingsley", "lea", "evolved"):
        runs = replay.get(manager, [])
        metrics[f"simulator.replay_us_per_event.{manager}"] = (
            sum(s.duration for s in runs) / sum(s.attrs["events"] for s in runs) * 1e6
            if runs else None
        )
    return metrics


def medians(samples: list[dict[str, float | None]]) -> dict[str, float | None]:
    """Per metric, the lower median of the samples that measured it (None if none did).

    The lower median is one of the samples, so counts stay whole.
    """
    out: dict[str, float | None] = {}
    for name in samples[0] if samples else ():
        values = [m[name] for m in samples if m[name] is not None]
        out[name] = statistics.median_low(values) if values else None
    return out
