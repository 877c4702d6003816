"""Command-line surface for the whole pipeline.

    synth        generate a synthetic workload trace
    stats        summarize a trace
    gen-grammar  customize the DMM grammar to a trace and target memory
    simulate     replay a trace through one DMM, print its metrics
    optimize     evolve a DMM for a trace (sequential or master-worker)
    compare      evolved DMM vs the Kingsley/Lea-style baselines

Exit codes: 0 success, 1 input or usage error, 2 heap exhaustion (for
`optimize`: no candidate has a finite fitness), 3 internal failure.
Every report starts with a `#` line echoing the exact invocation.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .dmm_space import HwParams, kingsley_config, lea_config, parse_dmm, serialize_dmm
from .ge import LOG_HEADER, WORST_FITNESS, GeParams, run_sequential
from .grammar import generate_grammar, load_default_grammar_text, parse_grammar
from .pgea import run_parallel_ge
from .simulator import FitnessWeights, SimMetrics, default_weights, fitness, simulate
from .trace import parse_trace, parse_workload_spec, serialize_trace, synth_workload, trace_stats


class CliError(ValueError):
    """Bad input reported with exit code 1."""


def _read(path: str) -> str:
    try:
        return Path(path).read_text("utf-8")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _emit(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, "utf-8")


def _invocation(argv: list[str]) -> str:
    return "# dmmopt " + " ".join(argv) + "\n"


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):
        # a usage error is an input error: exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _hw_from(args) -> HwParams:
    """HwParams from the hardware flags given; its defaults for the rest."""
    given = {k: v for k, v in vars(args).items() if k in ("memory_size", "energy_per_access")}
    try:
        return HwParams(**given)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _add_memory_size_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--memory-size", type=int, default=argparse.SUPPRESS,
                        help="target memory size in bytes (backstop heap limit)")


def _add_energy_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--energy-per-access", type=float, default=argparse.SUPPRESS,
                        help="joules per memory access; prices the energy column, never the fitness")


def _parse_weights(text: str | None) -> tuple[float, float, float] | None:
    if text is None:
        return None
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) != 3 or not all(0 <= p < math.inf for p in parts) or sum(parts) == 0:
        raise CliError(f"--weights needs three finite non-negative values, not all 0, got {text!r}")
    total = sum(parts)
    return (parts[0] / total, parts[1] / total, parts[2] / total)


def _weights_for(args, trace, hw) -> FitnessWeights:
    raw = _parse_weights(getattr(args, "weights", None))
    return default_weights(trace, hw, raw) if raw else default_weights(trace, hw)


def _metrics_csv(metrics: SimMetrics, fit: float) -> str:
    return (
        f"{metrics.ex_time},{metrics.mem_acc},{metrics.peak_mem_used},"
        f"{metrics.energy!r},{fit!r}"
    )


def cmd_synth(args, argv) -> int:
    spec = parse_workload_spec(_read(args.spec))
    trace = synth_workload(spec, args.seed)
    _emit(args.out, _invocation(argv) + serialize_trace(trace))
    return 0


def cmd_stats(args, argv) -> int:
    stats = trace_stats(parse_trace(_read(args.trace)))
    lines = [
        _invocation(argv),
        "events,allocs,distinct_sizes,min_size,max_size,max_live_bytes\n",
        f"{stats.event_count},{stats.alloc_count},{len(stats.distinct_sizes)},"
        f"{stats.min_size},{stats.max_size},{stats.max_live_bytes}\n",
    ]
    _emit(args.out, "".join(lines))
    return 0


def cmd_gen_grammar(args, argv) -> int:
    stats = trace_stats(parse_trace(_read(args.trace)))
    text = _invocation(argv) + generate_grammar(stats, _hw_from(args))
    parse_grammar(text)  # self-check before handing it to the user
    _emit(args.out, text)
    return 0


def cmd_simulate(args, argv) -> int:
    trace = parse_trace(_read(args.trace))
    dmm = parse_dmm(_read(args.dmm))
    hw = _hw_from(args)
    weights = _weights_for(args, trace, hw)
    metrics = simulate(dmm, trace, hw)
    fit = fitness(metrics, weights)
    lines = [
        _invocation(argv),
        "ex_time,mem_acc,peak_mem_used,energy,fitness\n",
        _metrics_csv(metrics, fit) + "\n",
    ]
    _emit(args.out, "".join(lines))
    if metrics.exhausted:
        print("heap exhausted before end of trace", file=sys.stderr)
        return 2
    return 0


def _ge_params(args) -> GeParams:
    return GeParams(
        population_size=args.pop,
        generations=args.generations,
        p_crossover=args.pc,
        p_mutation=args.pm,
        rng_seed=args.seed,
    )


def cmd_optimize(args, argv) -> int:
    if args.workers < 0:
        raise CliError(f"--workers must be >= 0, got {args.workers}")
    if args.units < 1:
        raise CliError(f"--units must be >= 1, got {args.units}")
    if args.units != 1 and args.workers == 0:
        raise CliError("--units needs --workers >= 1; the sequential loop runs in one process")
    trace = parse_trace(_read(args.trace))
    grammar = parse_grammar(_read(args.grammar) if args.grammar else load_default_grammar_text())
    hw = _hw_from(args)
    weights = _weights_for(args, trace, hw)
    params = _ge_params(args)
    if args.workers > 0:
        best, log, _ = run_parallel_ge(
            grammar, trace, hw, params,
            workers=args.workers, execution_units=args.units, weights=weights,
        )
    else:
        best, log = run_sequential(grammar, trace, hw, params, weights=weights)
    report = [_invocation(argv), LOG_HEADER + "\n"] + [row.csv() + "\n" for row in log]
    _emit(args.out, "".join(report))
    if best.fitness == WORST_FITNESS:
        # every candidate failed to map, broke a design rule or exhausted its heap
        print("no valid DMM found", file=sys.stderr)
        return 2
    expression = serialize_dmm(best.phenotype)
    if args.best_out:
        _emit(args.best_out, expression)
    if args.out is not None or args.best_out is None:
        sys.stdout.write(expression)
    return 0


def cmd_compare(args, argv) -> int:
    trace = parse_trace(_read(args.trace))
    hw = _hw_from(args)
    weights = _weights_for(args, trace, hw)
    rows = [
        ("kingsley", kingsley_config(heap_limit=hw.memory_size)),
        ("lea", lea_config(heap_limit=hw.memory_size)),
        ("evolved", parse_dmm(_read(args.evolved))),
    ]
    results = {name: simulate(dmm, trace, hw) for name, dmm in rows}

    def deltas(row: SimMetrics, base: SimMetrics) -> str:
        # a partial replay is no result: leave its comparisons empty
        if row.exhausted or base.exhausted:
            return ",,"
        cols = []
        for metric in ("ex_time", "peak_mem_used", "energy"):
            b = getattr(base, metric)
            r = getattr(row, metric)
            cols.append(f"{(b - r) / b * 100.0:.2f}" if b else "0.00")
        return ",".join(cols)

    header = (
        "dmm,ex_time,mem_acc,peak_mem_used,energy,fitness,"
        "time_vs_kingsley_pct,mem_vs_kingsley_pct,energy_vs_kingsley_pct,"
        "time_vs_lea_pct,mem_vs_lea_pct,energy_vs_lea_pct\n"
    )
    lines = [_invocation(argv), header]
    for name, _ in rows:
        m = results[name]
        lines.append(
            f"{name},{_metrics_csv(m, fitness(m, weights))},"
            f"{deltas(m, results['kingsley'])},{deltas(m, results['lea'])}\n"
        )
    _emit(args.out, "".join(lines))
    exhausted = [name for name, _ in rows if results[name].exhausted]
    if exhausted:
        print(f"heap exhausted before end of trace: {', '.join(exhausted)}; "
              "their metrics are partial and every delta involving them is left empty",
              file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="dmmopt", description=__doc__,
                             formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic trace from a workload spec")
    p.add_argument("--spec", required=True, help="workload spec file (key = value)")
    p.add_argument("--seed", type=int, default=None, help="override the spec's seed")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("stats", help="summarize a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("gen-grammar", help="generate a trace-customized grammar")
    p.add_argument("--trace", required=True)
    _add_memory_size_flag(p)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_gen_grammar)

    p = sub.add_parser("simulate", help="replay a trace through one DMM")
    p.add_argument("--dmm", required=True, help="DMM expression file")
    p.add_argument("--trace", required=True)
    _add_energy_flag(p)
    p.add_argument("--weights", default=None, help="w_time,w_mem,w_energy")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("optimize", help="evolve a DMM for a trace")
    p.add_argument("--grammar", default=None, help="BNF file (default: built-in template)")
    p.add_argument("--trace", required=True)
    p.add_argument("--workers", type=int, default=0,
                   help="master-worker width; 0 runs the plain sequential loop")
    p.add_argument("--units", type=int, default=1,
                   help="evaluation processes; more than 1 needs --workers >= 1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--generations", type=int, default=100)
    p.add_argument("--pop", type=int, default=60)
    p.add_argument("--pc", type=float, default=0.80)
    p.add_argument("--pm", type=float, default=0.02)
    p.add_argument("--weights", default=None)
    p.add_argument("--out", default=None, help="per-generation CSV log")
    p.add_argument("--best-out", default=None, help="write the best DMM expression here")
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("compare", help="evolved DMM vs Kingsley/Lea baselines")
    p.add_argument("--trace", required=True)
    p.add_argument("--evolved", required=True, help="DMM expression file")
    p.add_argument("--weights", default=None)
    _add_memory_size_flag(p)
    _add_energy_flag(p)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, argv)
    except ValueError as exc:  # CliError and every input error
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal invariant failure
        import traceback

        traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
