"""Golden corpus of exact replay counters.

Each case in `replay_corpus.json` holds a manager in `serialize_dmm`
form (whitespace collapsed), the `WorkloadSpec` fields of its trace, and
the `(ex_time, mem_acc, peak_mem_used, exhausted)` its replay gave when
the corpus was drawn. The managers cover every allocation policy x
SLL/DLL x header, `One` and range selectors, no migration, split only,
coalesce only and both, in chains of one to three ADMs; four cases
replay under half their peak footprint and end exhausted.

A change to the cost model changes these numbers on purpose: recompute
them and say so. Any other change must leave them as they are.
"""

import json
from pathlib import Path

import pytest

from dmmopt.dmm_space import HwParams, parse_dmm
from dmmopt.simulator import simulate
from dmmopt.trace import WorkloadSpec, synth_workload

CASES = json.loads((Path(__file__).parent / "replay_corpus.json").read_text())


def spec_of(fields: dict) -> WorkloadSpec:
    return WorkloadSpec(**{k: tuple(v) if isinstance(v, list) else v for k, v in fields.items()})


def test_corpus_covers_exhaustion():
    assert len(CASES) >= 100
    assert sum(case["expected"][3] for case in CASES) >= 2


@pytest.mark.parametrize("case", CASES, ids=[f"case{i:03d}" for i in range(len(CASES))])
def test_replay_counters_match_the_corpus(case):
    m = simulate(parse_dmm(case["dmm"]), synth_workload(spec_of(case["spec"])), HwParams())
    assert [m.ex_time, m.mem_acc, m.peak_mem_used, m.exhausted] == case["expected"]
