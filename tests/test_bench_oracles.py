"""The benchmark's own oracles, run at full size on every workload.

``bench/run.py`` refuses a run in which any op misses its oracle: a wrong
tick, a wrong distribution, or a law verdict that differs from the capped
reference of ``tracing.step_equal``. This runs the same checks in-process,
so a change that such a run would refuse fails here first. Each workload
is set up, runs one repetition and its final check, and is then stepped
tick by tick. How many ops hit the state cap is not pinned there; the
engine's verdict on each ``laws`` draw, and the size and tick of each cap
hit, are pinned below.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from mstream import sfg_ir
from mstream.errors import StateCapExceeded
from mstream.stream_core import obs_equal

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


#: Each law's 8 draws, in ``laws.draw_instances`` order: True where the two
#: sides agree up to the horizon, else the (size, tick) of the state cap hit.
LAW_DRAWS = {
    "tightening": [True] * 6 + [(30618, 5), (30132, 4)],
    "strength": [True, (30016, 5), (30618, 5), (30016, 5), True, (39366, 4),
                 True, True],
    "joining": [True] * 8,
    "interchange": [True, True, True, (30051, 4), (31104, 5), True,
                    (31104, 4), (30720, 5)],
}


def test_law_draws_keep_their_verdicts_and_cap_hits(bench):
    laws = bench["laws"]
    sig = sfg_ir.finite_signature()
    got = {law: [] for law in laws.LAWS}
    for law, _, lhs, rhs in laws.draw_instances(8):
        try:
            verdict = obs_equal(sfg_ir.compile(lhs, sig),
                                sfg_ir.compile(rhs, sig), laws.HORIZON,
                                laws.CAP)
        except StateCapExceeded as e:
            verdict = e.size, e.tick
        got[law].append(verdict)
    assert got == LAW_DRAWS
