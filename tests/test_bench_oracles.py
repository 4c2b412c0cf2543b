"""The benchmark's own oracles, run at full size on every workload.

``bench/run.py`` refuses a run in which any op misses its oracle: a wrong
tick, a wrong distribution, or a law verdict that differs from the capped
reference of ``tracing.step_equal``. This runs the same checks in-process,
so a change that such a run would refuse fails here first. Each workload
is set up, runs one repetition and its final check, and is then stepped
tick by tick. How many ops hit the state cap is not pinned.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    """``bench/``'s modules by name, loaded without writing under it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    mods = {}
    for name in ("laws", "tracing", "workloads", "run"):
        spec = importlib.util.spec_from_file_location(
            name, BENCH / f"{name}.py")
        mods[name] = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, mods[name])
        spec.loader.exec_module(mods[name])
    return mods


@pytest.mark.parametrize("name", ["run-fib", "sample-ehrenfest",
                                  "exact-ehrenfest", "laws"])
def test_workload_passes_its_oracles(bench, tmp_path, name):
    workloads = bench["workloads"]
    wl = workloads.WORKLOADS[name](bench["run"].DEFAULT_SEED, False, tmp_path)
    tally = workloads.Tally()
    wl.setup()
    outputs = wl.rep(tally)
    wl.final_check(tally, outputs)
    wl.step(tally, outputs)
    assert tally.attempted > 0
    assert tally.failed == 0
