"""Build the stack cache of one workload from cold, in this fresh process.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed>``

Imports the stack and builds the engine of every episode of the workload
into an empty stack cache: the SuperNet family, candidate set and SushiAbs
table of every replica group, plus the replicas' stack clones.  ``bench``
starts this in a fresh process and takes the process's whole CPU time, so
work moved into import time counts as set-up as well.
"""

import sys

import bench

name, seed = sys.argv[1], int(sys.argv[2])
cache: dict = {}
for spec in bench.episode_specs(bench.load_workloads()[name], seed):
    bench.api.build_engine(spec, stack_cache=cache)
