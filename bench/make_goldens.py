#!/usr/bin/env python3
"""Write bench/goldens.json: the exact outputs the benchmark checks against.

    python3 bench/make_goldens.py

For each of the benchmark's trace seeds, at full and tiny size, it
records the replay counters (ex_time, mem_acc, peak_mem_used, exhausted)
of Kingsley, Lea and bench/evolved.dmm, and the digest of the sequential
search. ``search-par`` is checked against the ``search`` digest. The
goldens pin the program's results: regenerate them only for a change
that is meant to alter what dmmopt computes.
"""

from __future__ import annotations

import json
import re
import sys
from contextlib import nullcontext

from run import GOLDEN_SEEDS, GOLDENS, TRACE_SEED_BASE, Replay, Search, import_dmmopt


def main() -> int:
    dm = import_dmmopt()
    table = {}
    for scale, tiny in (("tiny", True), ("full", False)):
        table[scale] = {}
        for workload in (Replay(dm, tiny), Search(dm, tiny)):
            outputs = {}
            for trace_seed in range(TRACE_SEED_BASE, TRACE_SEED_BASE + GOLDEN_SEEDS):
                state = workload.setup(workload.make_input(trace_seed))
                outputs[str(trace_seed)] = workload.body(state, lambda name: nullcontext())
                print(f"{scale} {workload.name} {trace_seed}: {outputs[str(trace_seed)]}",
                      flush=True)
            table[scale][workload.golden_key] = outputs
    text = json.dumps(table, indent=1, sort_keys=True)
    # one line per list of counters
    text = re.sub(r"\[\s+([^\]]*?)\s+\]",
                  lambda m: "[" + ", ".join(v.strip() for v in m.group(1).split(",")) + "]", text)
    GOLDENS.write_text(text + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
