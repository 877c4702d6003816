"""Minimal discrete-event simulation kernel (classic DEVS semantics).

An atomic model carries a state with a `phase` label and a time advance
`sigma` (infinity allowed) plus four behaviors: the output function
`output` (lambda) fires when the elapsed time reaches sigma and is
immediately followed by `delta_int`; `delta_ext` fires when input
arrives on a port; `delta_con` resolves simultaneous internal and
external events by running `delta_int` then `delta_ext`.

The coordinator advances virtual time to the minimum time-of-next-event,
collects the imminent models' outputs, routes them through the coupling,
and then executes each affected model's transition. Transitions of
distinct models at one virtual time are independent, so
:func:`run_parallel` may execute them concurrently; the event log it
returns is byte-identical to the sequential one because log entries are
recorded in fixed model order after the step completes.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Sequence

INFINITY = math.inf

PASSIVE = "passive"
ACTIVE = "active"


class CausalityError(RuntimeError):
    """A model produced a negative time advance."""


class CouplingError(ValueError):
    pass


class AtomicModel:
    """Behavioral contract for atomic models; subclass and override."""

    input_ports: tuple[str, ...] = ()
    output_ports: tuple[str, ...] = ()

    def __init__(self, name: str):
        self.name = name
        self.phase = PASSIVE
        self.sigma = INFINITY

    def output(self) -> dict[str, Any]:
        """Lambda: emitted when elapsed time equals sigma, before delta_int."""
        return {}

    def delta_int(self) -> None:
        pass

    def delta_ext(self, inputs: dict[str, list[Any]]) -> None:
        pass

    def delta_con(self, inputs: dict[str, list[Any]]) -> None:
        self.delta_int()
        self.delta_ext(inputs)

    def passivate(self) -> None:
        self.phase = PASSIVE
        self.sigma = INFINITY

    def activate(self, phase: str = ACTIVE) -> None:
        self.phase = phase
        self.sigma = 0.0


Route = tuple[tuple[str, str], tuple[str, str]]  # (src model, out port) -> (dst model, in port)


@dataclass(frozen=True)
class Coupling:
    routes: tuple[Route, ...]

    def validate(self, models: Sequence[AtomicModel]) -> None:
        by_name = {m.name: m for m in models}
        if len(by_name) != len(models):
            raise CouplingError("duplicate model names")
        for (src, out_port), (dst, in_port) in self.routes:
            if src not in by_name:
                raise CouplingError(f"unknown source model {src!r}")
            if dst not in by_name:
                raise CouplingError(f"unknown destination model {dst!r}")
            if out_port not in by_name[src].output_ports:
                raise CouplingError(f"{src!r} has no output port {out_port!r}")
            if in_port not in by_name[dst].input_ports:
                raise CouplingError(f"{dst!r} has no input port {in_port!r}")
            if (src, out_port) == (dst, in_port):
                raise CouplingError(f"port {src}.{out_port} connected to itself")

    def destinations(self, src: str, out_port: str) -> list[tuple[str, str]]:
        return [dst for (s, p), dst in self.routes if (s, p) == (src, out_port)]


@dataclass(frozen=True)
class EventRecord:
    time: float
    model: str
    kind: str  # lambda | delta_int | delta_ext | delta_con
    note: str = ""


UntilCondition = Callable[[float, Sequence[AtomicModel]], bool]


def _payload_note(outputs: dict[str, Any]) -> str:
    parts = []
    for port, payload in outputs.items():
        size = len(payload) if hasattr(payload, "__len__") else 1
        parts.append(f"{port}:{size}")
    return ",".join(parts)


def run_parallel(
    models: Sequence[AtomicModel],
    coupling: Coupling,
    until: UntilCondition | None = None,
    execution_units: int = 1,
    max_cycles: int = 1_000_000,
) -> list[EventRecord]:
    """DEVS cycle with transitions of one step run on `execution_units` threads.

    The returned event log is independent of `execution_units`.
    """
    coupling.validate(models)
    log: list[EventRecord] = []
    time = 0.0
    pool = ThreadPoolExecutor(max_workers=execution_units) if execution_units > 1 else None
    try:
        for _ in range(max_cycles):
            for m in models:
                if m.sigma < 0:
                    raise CausalityError(f"model {m.name!r} has negative sigma {m.sigma}")
            advance = min((m.sigma for m in models), default=INFINITY)
            if advance == INFINITY:
                return log
            time += advance
            for m in models:
                if m.sigma != INFINITY:
                    m.sigma -= advance
            if until is not None and until(time, models):
                return log

            imminent = [m for m in models if m.sigma == 0]
            inbox: dict[str, dict[str, list[Any]]] = {}
            for m in imminent:
                outputs = m.output()
                log.append(EventRecord(time, m.name, "lambda", _payload_note(outputs)))
                for port, payload in outputs.items():
                    for dst, in_port in coupling.destinations(m.name, port):
                        inbox.setdefault(dst, {}).setdefault(in_port, []).append(payload)

            # imminent models transition before input-only receivers, matching
            # the output-then-internal-transition reading of the formalism
            transitions: list[tuple[AtomicModel, str, dict[str, list[Any]]]] = []
            receivers: list[tuple[AtomicModel, str, dict[str, list[Any]]]] = []
            for m in models:
                inputs = inbox.get(m.name)
                if m.sigma == 0 and inputs:
                    transitions.append((m, "delta_con", inputs))
                elif m.sigma == 0:
                    transitions.append((m, "delta_int", {}))
                elif inputs:
                    receivers.append((m, "delta_ext", inputs))
            transitions += receivers

            def run_one(entry):
                model, kind, inputs = entry
                if kind == "delta_con":
                    model.delta_con(inputs)
                elif kind == "delta_int":
                    model.delta_int()
                else:
                    model.delta_ext(inputs)

            if pool is not None and len(transitions) > 1:
                list(pool.map(run_one, transitions))
            else:
                for entry in transitions:
                    run_one(entry)
            # log in fixed model order, after the whole step, so the record
            # sequence does not depend on scheduling
            for model, kind, inputs in transitions:
                log.append(EventRecord(time, model.name, kind, _payload_note(inputs)))
        raise RuntimeError(f"simulation did not quiesce within {max_cycles} cycles")
    finally:
        if pool is not None:
            pool.shutdown(wait=False)

