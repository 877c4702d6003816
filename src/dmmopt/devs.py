"""Minimal discrete-event simulation kernel (classic DEVS semantics).

An atomic model carries a state with a `phase` label and a time advance
`sigma` (infinity allowed) plus four behaviors: the output function
`output` (lambda) fires when the elapsed time reaches sigma and is
immediately followed by `delta_int`; `delta_ext` fires when input
arrives on a port; `delta_con` resolves simultaneous internal and
external events by running `delta_int` then `delta_ext`.

The coordinator advances virtual time to the minimum time-of-next-event,
collects the imminent models' outputs, routes them through the coupling,
and then executes each affected model's transition, one model after
another in fixed model order: imminent models first, then models that
only received input, each logged as it runs. The kernel starts no
threads. A model whose work takes long, such as a worker evaluating a
batch, starts that work in its transition and waits for it in its
output function; the work started by several models at one virtual
time then runs concurrently outside the kernel, and the event log does
not depend on how long it takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

INFINITY = math.inf

PASSIVE = "passive"
ACTIVE = "active"

MAX_CYCLES = 1_000_000  # steps after which a run that has not quiesced is aborted


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


def _payload_note(outputs: dict[str, Any]) -> str:
    parts = []
    for port, payload in outputs.items():
        size = len(payload) if hasattr(payload, "__len__") else 1
        parts.append(f"{port}:{size}")
    return ",".join(parts)


def run_parallel(models: Sequence[AtomicModel], coupling: Coupling) -> list[EventRecord]:
    """Run the DEVS cycle until every model is passive; return the event log.

    Every output and transition runs inline, one model after another.
    """
    coupling.validate(models)
    log: list[EventRecord] = []
    time = 0.0
    for _ in range(MAX_CYCLES):
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
        receivers: list[tuple[AtomicModel, dict[str, list[Any]]]] = []
        for m in models:
            inputs = inbox.get(m.name)
            if m.sigma == 0 and inputs:
                m.delta_con(inputs)
                log.append(EventRecord(time, m.name, "delta_con", _payload_note(inputs)))
            elif m.sigma == 0:
                m.delta_int()
                log.append(EventRecord(time, m.name, "delta_int", ""))
            elif inputs:
                receivers.append((m, inputs))
        for m, inputs in receivers:
            m.delta_ext(inputs)
            log.append(EventRecord(time, m.name, "delta_ext", _payload_note(inputs)))
    raise RuntimeError(f"simulation did not quiesce within {MAX_CYCLES} cycles")
