import pytest

from dmmopt.devs import (
    ACTIVE,
    INFINITY,
    AtomicModel,
    CausalityError,
    Coupling,
    CouplingError,
    run_parallel,
)


class Quiet(AtomicModel):
    """Starts passive and stays passive."""


class Pulse(AtomicModel):
    """Emits `count` messages on port `out`, one per cycle."""

    output_ports = ("out",)

    def __init__(self, name, count=1):
        super().__init__(name)
        self.count = count
        self.activate()

    def output(self):
        return {"out": f"pulse-{self.count}"}

    def delta_int(self):
        self.count -= 1
        if self.count <= 0:
            self.passivate()
        else:
            self.activate()


class Echo(AtomicModel):
    """Bounces every received message back after a zero delay."""

    input_ports = ("in",)
    output_ports = ("out",)

    def __init__(self, name):
        super().__init__(name)
        self.pending = []
        self.calls = []

    def output(self):
        return {"out": list(self.pending)}

    def delta_int(self):
        self.calls.append("delta_int")
        self.pending = []
        self.passivate()

    def delta_ext(self, inputs):
        self.calls.append("delta_ext")
        self.pending.extend(inputs.get("in", []))
        self.activate()


def test_all_passive_terminates_with_empty_log():
    log = run_parallel([Quiet("m")], Coupling(()))
    assert log == []


def test_zero_delay_external_to_lambda():
    pulse, echo = Pulse("p"), Echo("e")
    coupling = Coupling(((("p", "out"), ("e", "in")),))
    log = run_parallel([pulse, echo], coupling)
    kinds = [(r.model, r.kind) for r in log]
    assert kinds == [
        ("p", "lambda"),
        ("p", "delta_int"),
        ("e", "delta_ext"),
        ("e", "lambda"),
        ("e", "delta_int"),
    ]
    assert all(r.time == 0.0 for r in log)


def test_delta_con_runs_int_then_ext():
    class Conflicted(Echo):
        def __init__(self, name):
            super().__init__(name)
            self.activate()  # imminent at t=0, and input arrives at t=0

    pulse, model = Pulse("p"), Conflicted("c")
    coupling = Coupling(((("p", "out"), ("c", "in")),))
    log = run_parallel([pulse, model], coupling)
    con_events = [r for r in log if r.kind == "delta_con"]
    assert len(con_events) == 1
    assert model.calls[:2] == ["delta_int", "delta_ext"]


def test_causality_violation_aborts():
    bad = Quiet("bad")
    bad.sigma = -1.0
    with pytest.raises(CausalityError):
        run_parallel([bad], Coupling(()))


def test_virtual_time_advances_with_finite_sigma():
    class Timer(AtomicModel):
        output_ports = ("out",)

        def __init__(self):
            super().__init__("timer")
            self.phase = ACTIVE
            self.sigma = 2.5
            self.fired_at = None

        def output(self):
            return {"out": "tick"}

        def delta_int(self):
            self.passivate()

    timer = Timer()
    log = run_parallel([timer], Coupling(()))
    assert [r.time for r in log] == [2.5, 2.5]
    assert timer.sigma == INFINITY


class TestCouplingValidation:
    def test_unknown_model(self):
        with pytest.raises(CouplingError, match="unknown source"):
            Coupling(((("x", "out"), ("e", "in")),)).validate([Echo("e")])

    def test_unknown_port(self):
        with pytest.raises(CouplingError, match="no output port"):
            Coupling(((("e", "nope"), ("e2", "in")),)).validate([Echo("e"), Echo("e2")])

    def test_self_coupling_rejected(self):
        class Loop(AtomicModel):
            input_ports = ("p",)
            output_ports = ("p",)

        with pytest.raises(CouplingError, match="connected to itself"):
            Coupling(((("l", "p"), ("l", "p")),)).validate([Loop("l")])

    def test_duplicate_names_rejected(self):
        with pytest.raises(CouplingError, match="duplicate"):
            Coupling(()).validate([Quiet("a"), Quiet("a")])

