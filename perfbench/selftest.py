"""Self-test: the benchmark's checks catch what they are meant to catch.

Run with ``python3 perfbench/selftest.py`` (or ``python3 -m pytest
perfbench/selftest.py``).  Each test patches a public function of the
program from here, never the program's files:

* unmodified code passes the output check and matches the reference
  digests and work counters at the committed seed;
* defeating the stack's per-window breakdown memo leaves the records
  alone but raises ``accel.evals`` on ``elastic``, which the counter
  comparison flags;
* a seeded change to one outcome fails the output check;
* time spent in ``run_scenario``'s own code, outside every layer, fails
  the traced run's attribution check.
"""

from __future__ import annotations

import contextlib
import dataclasses
import random
import sys
import time

import bench
from repro.accelerator.persistent_buffer import PersistentBuffer
from repro.serving.engine.core import ServingEngine
from tracer import Tracer

SEED = bench.load_reference()["committed_seed"]


@contextlib.contextmanager
def patched(owner, attr, make):
    """Replace ``owner.attr`` by ``make(original)`` inside the block."""
    original = owner.__dict__[attr]
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def defeat_memo(record_serve):
    """Bump the PB generation after every serve, so no memo entry survives."""

    def record_serve_and_invalidate(self, *args, **kwargs):
        record_serve(self, *args, **kwargs)
        self.generation += 1

    return record_serve_and_invalidate


def corrupt_one_outcome(run):
    """Stretch the service time of one seeded outcome by a nanosecond."""

    def run_and_corrupt(self, *args, **kwargs):
        result = run(self, *args, **kwargs)
        outcomes = list(result.outcomes)
        i = random.Random(SEED).randrange(len(outcomes))
        outcomes[i] = dataclasses.replace(outcomes[i], service_ms=outcomes[i].service_ms + 1e-6)
        return dataclasses.replace(result, outcomes=tuple(outcomes))

    return run_and_corrupt


def drop_one_outcome(run):
    """Lose one seeded outcome from the result."""

    def run_and_lose(self, *args, **kwargs):
        result = run(self, *args, **kwargs)
        outcomes = list(result.outcomes)
        del outcomes[random.Random(SEED).randrange(len(outcomes))]
        return dataclasses.replace(result, outcomes=tuple(outcomes))

    return run_and_lose


def slow_glue(run_scenario):
    """Spend a fifth of each run's time in ``run_scenario`` itself."""

    def run_scenario_with_glue(*args, **kwargs):
        start = time.perf_counter()
        result = run_scenario(*args, **kwargs)
        end = time.perf_counter() + 0.2 * (time.perf_counter() - start)
        while time.perf_counter() < end:
            pass
        return result

    return run_scenario_with_glue


def traced_elastic():
    """Digest and counters of one traced ``elastic`` run at the committed seed."""
    spec = bench.episode_specs(bench.load_workloads()["elastic"], SEED)[0]
    cache: dict = {}
    bench.api.build_engine(spec, stack_cache=cache)  # as in the benchmark: no cold build traced
    result, _, found, _ = bench.traced_run(spec, cache, Tracer())
    return bench.digest(result), found


def test_unmodified_code_passes():
    report = bench.measure("steady", SEED, 0.0)
    assert report.correct, report.problems
    reference = bench.load_reference()["workloads"]["elastic"]
    got, found = traced_elastic()
    assert got == reference["digests"][0]
    rose = bench.counter_regressions(reference["counters"], found)
    assert rose == [], rose


def test_defeated_memo_raises_accel_evals():
    reference = bench.load_reference()["workloads"]["elastic"]
    with patched(PersistentBuffer, "record_serve", defeat_memo):
        got, found = traced_elastic()
    assert got == reference["digests"][0], "defeating the memo must not change records"
    rose = bench.counter_regressions(reference["counters"], found)
    assert any(line.startswith("accel.evals ") for line in rose), rose


def test_corrupted_outcome_fails_output_check():
    with patched(ServingEngine, "run", corrupt_one_outcome):
        report = bench.measure("steady", SEED, 0.0)
    assert not report.correct
    assert report.failed == report.attempted
    assert any("digest" in problem for problem in report.problems), report.problems


def test_lost_outcome_fails_output_check():
    with patched(ServingEngine, "run", drop_one_outcome):
        report = bench.measure("steady", SEED, 0.0)
    assert not report.correct
    assert any("!= offered" in problem for problem in report.problems), report.problems


def test_unattributed_time_fails_traced_run():
    with patched(bench.api, "run_scenario", slow_glue):
        report = bench.measure_traced("steady", SEED, 0.0)
    assert not report.correct
    assert any("lies in no layer" in problem for problem in report.problems), report.problems


if __name__ == "__main__":
    failed = 0
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            try:
                test()
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
            else:
                print(f"ok   {name}")
    sys.exit(1 if failed else 0)
