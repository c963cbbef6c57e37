"""Write ``reference.json``: record digests and work counters at the committed seed.

Usage: ``python3 perfbench/record_reference.py [seed]``

The seed defaults to the ``committed_seed`` already in ``reference.json``.
Run it only when a change is meant to alter the simulated records or the
work the program does; a run at the committed seed then checks its digests
against these, and compares its work counters with them.
"""

import json
import sys

import bench
from tracer import Tracer

seed = int(sys.argv[1]) if len(sys.argv) > 1 else bench.load_reference()["committed_seed"]
out = {"committed_seed": seed, "workloads": {}}
for name, workload in bench.load_workloads().items():
    specs = bench.episode_specs(workload, seed)
    cache: dict = {}
    digests = [bench.digest(bench.api.run_scenario(s, stack_cache=cache)) for s in specs]
    _, _, found, _ = bench.traced_run(specs[0], cache, Tracer())
    counters = {k: v for k, v in found.items() if isinstance(v, int)}
    out["workloads"][name] = {"digests": digests, "counters": counters}
    print(name, digests[0][:12], counters["accel.evals"], "evaluations")
(bench.BENCH_DIR / "reference.json").write_text(json.dumps(out, indent=2) + "\n")
