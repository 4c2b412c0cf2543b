"""Per-layer measurement: spans around public calls, a tick-stepping loop, and
static counts.

Nothing here edits the engine's source.  ``Tracer`` records spans by
temporarily replacing public functions and methods of ``lang``, ``sfg_ir``,
``stream_core``, ``kernel`` and ``cli`` with timing wrappers, and puts the
originals back on exit.  The stepping functions drive a compiled stream tick
by tick through ``Stream.unroll()`` and ``Kernel.dist()`` to see the per-tick
sizes that the engine's own loops keep to themselves.
"""

from __future__ import annotations

import itertools
import math
import tracemalloc
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from mstream import cli, kernel, lang, sfg_ir, stream_core
from mstream.errors import StateCapExceeded

ONE = Fraction(1)

#: (owner, attribute, span name).  A function imported by name into ``cli``
#: is wrapped there too, since ``cli`` calls its own binding.
TARGETS = (
    (lang, "parse", "lang.parse"),
    (cli, "parse", "lang.parse"),
    (lang, "check_causality", "lang.check_causality"),
    (lang, "elaborate", "lang.elaborate"),
    (cli, "elaborate", "lang.elaborate"),
    (sfg_ir, "infer_type", "sfg_ir.infer_type"),
    (sfg_ir, "compile", "sfg_ir.compile"),
    (cli, "compile_term", "sfg_ir.compile"),
    (sfg_ir, "random_term_of_type", "sfg_ir.random_term"),
    (stream_core.Stream, "unroll", "stream_core.unroll"),
    (stream_core, "run_det", "stream_core.run_det"),
    (cli, "run_det", "stream_core.run_det"),
    (stream_core, "sample_trace", "stream_core.sample_trace"),
    (cli, "sample_trace", "stream_core.sample_trace"),
    (stream_core, "observe_marginals", "stream_core.observe_marginals"),
    (cli, "observe_marginals", "stream_core.observe_marginals"),
    (stream_core, "observe", "stream_core.observe"),
    (cli, "observe", "stream_core.observe"),
    (stream_core, "obs_equal", "stream_core.obs_equal"),
    (cli, "obs_equal", "stream_core.obs_equal"),
    (kernel.Kernel, "dist", "kernel.dist"),
    (cli, "main", "cli.main"),
    (cli, "cmd_check", "cli.cmd_check"),
)

#: Spans called so often that only their totals are kept.
HOT = frozenset({"kernel.dist", "stream_core.unroll"})


class SpanStats:
    __slots__ = ("calls", "total_s", "self_s", "durations", "children")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0    # outermost calls only, so recursion counts once
        self.self_s = 0.0     # minus the time of wrapped calls made inside
        self.durations = []   # per outermost call, for spans not in HOT
        self.children = {}    # direct child span name -> inclusive seconds


class Tracer:
    """Context manager that wraps every target and aggregates its spans."""

    def __init__(self):
        self.stats = {name: SpanStats() for _, _, name in TARGETS}
        self._stack = []
        self._depth = {name: 0 for _, _, name in TARGETS}
        self._saved = []

    def __enter__(self):
        for owner, attr, name in TARGETS:
            orig = owner.__dict__[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name))
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()
        return False

    def _wrap(self, fn, name):
        stats, stack, depth = self.stats[name], self._stack, self._depth
        hot = name in HOT

        def span(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            depth[name] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                depth[name] -= 1
                stats.calls += 1
                stats.self_s += dt - frame[1]
                if depth[name] == 0:
                    stats.total_s += dt
                    if not hot:
                        stats.durations.append(dt)
                if stack:
                    parent = stack[-1]
                    parent[1] += dt
                    if parent[0] not in HOT:
                        kids = self.stats[parent[0]].children
                        kids[name] = kids.get(name, 0.0) + dt

        return span


def span_metrics(tr: Tracer) -> dict:
    """Per-layer figures from one traced repetition (values in seconds)."""
    st = tr.stats
    total = {name: s.total_s for name, s in st.items()}
    trials = st["stream_core.sample_trace"].durations
    warm = (sum(trials[1:]) / (len(trials) - 1) / trials[0]
            if len(trials) > 1 else 0.0)
    check = st["cli.cmd_check"]
    return {
        "lang.parse_s": total["lang.parse"],
        "lang.check_causality_s": total["lang.check_causality"],
        "lang.elaborate_s": total["lang.elaborate"],
        "sfg_ir.infer_type_s": total["sfg_ir.infer_type"],
        "sfg_ir.compile_s": total["sfg_ir.compile"],
        "sfg_ir.random_term_s": total["sfg_ir.random_term"],
        "stream_core.unroll_s": total["stream_core.unroll"],
        "stream_core.run_det_s": total["stream_core.run_det"],
        "stream_core.sample_trace_s": total["stream_core.sample_trace"],
        "stream_core.observe_marginals_s":
            total["stream_core.observe_marginals"],
        "stream_core.observe_s": total["stream_core.observe"],
        "stream_core.obs_equal_s": total["stream_core.obs_equal"],
        "kernel.dist_s": total["kernel.dist"],
        "kernel.dist_calls": st["kernel.dist"].calls,
        "kernel.warm_to_cold_trial": warm,
        "cli.main_s": total["cli.main"],
        "cli.cmd_check_s": check.total_s,
        "cli.witness_s": check.total_s
        - check.children.get("stream_core.obs_equal", 0.0),
        "cli.overhead_s": st["cli.main"].self_s,
    }


# ---------------------------------------------------------------------------
# Stepping a compiled stream tick by tick
# ---------------------------------------------------------------------------

@dataclass
class Tick:
    unroll_s: float = 0.0
    mem_wires: int = 0
    support: int = 0      # largest distribution one tick kernel returned
    states: int = 1       # joint entries kept after the tick
    probe: object = None


def _unroll(cur, tick):
    t0 = perf_counter()
    mem, now, later = cur.unroll()
    tick.unroll_s = perf_counter() - t0
    tick.mem_wires = len(mem)
    return mem, now, later


def step_trace(stream, n, choose, probe=None):
    """Ticks 0..n of a closed stream, taking ``choose(dist)`` as each tick's
    row: (output rows, ticks)."""
    cur, m_row, out, ticks = stream, (), [], []
    for _ in range(n + 1):
        tick = Tick()
        mem, now, cur = _unroll(cur, tick)
        d = now.dist(m_row)
        tick.support = len(d)
        row = choose(d)
        m_row = row[:len(mem)]
        out.append(row[len(mem):])
        tick.probe = probe() if probe else None
        ticks.append(tick)
    return out, ticks


def draw(d, rng):
    """Exact inverse-CDF draw over the canonical support order."""
    items = d.items()
    den = math.lcm(*(q.denominator for _, q in items))
    r = rng.randrange(den)
    for v, q in items:
        r -= q.numerator * (den // q.denominator)
        if r < 0:
            return v
    raise ValueError("masses do not sum to 1")


def step_marginals(stream, n, probe=None):
    """Per-tick exact output marginals of a closed stream: (dists, ticks).

    Each dist maps an output row to its ``Fraction`` mass.
    """
    cur, w, out, ticks = stream, {(): ONE}, [], []
    for _ in range(n + 1):
        tick = Tick()
        mem, now, cur = _unroll(cur, tick)
        lm, joint = len(mem), {}
        for m, p in w.items():
            d = now.dist(m)
            tick.support = max(tick.support, len(d))
            for row, q in d.pairs():
                joint[row] = joint.get(row, 0) + p * q
        tick.states = len(joint)
        marg, w = {}, {}
        for row, p in joint.items():
            marg[row[lm:]] = marg.get(row[lm:], 0) + p
            w[row[:lm]] = w.get(row[:lm], 0) + p
        out.append(marg)
        tick.probe = probe() if probe else None
        ticks.append(tick)
    return out, ticks


class Observation:
    """Joint input-prefix -> (memory ++ outputs so far) masses of a stream."""

    def __init__(self, stream, cap):
        self.cur, self.cap, self.mem_len = stream, cap, 0
        self.j = {(): {(): ONE}}
        self.ticks = []

    def advance(self):
        tick = Tick()
        x_shape = self.cur.in_seq.at(0)[self.mem_len:]
        mem, now, self.cur = _unroll(self.cur, tick)
        x_rows = list(itertools.product(*(b.enumerate() for b in x_shape)))
        lm_old, lm_new = self.mem_len, len(mem)
        new_j, total = {}, 0
        for xs, w in self.j.items():
            for x in x_rows:
                acc = {}
                for prev, p in w.items():
                    d = now.dist(prev[:lm_old] + x)
                    tick.support = max(tick.support, len(d))
                    for row, q in d.pairs():
                        key = row[:lm_new] + prev[lm_old:] + row[lm_new:]
                        acc[key] = acc.get(key, 0) + p * q
                new_j[xs + x] = acc
                total += len(acc)
                if total > self.cap:
                    raise StateCapExceeded(total, self.cap)
        self.j, self.mem_len = new_j, lm_new
        tick.states = total
        self.ticks.append(tick)

    def truncation(self):
        out = {}
        for xs, w in self.j.items():
            acc = {}
            for row, p in w.items():
                acc[row[self.mem_len:]] = acc.get(row[self.mem_len:], 0) + p
            out[xs] = acc
        return out


def step_equal(f, g, horizon, cap):
    """Decide f == g up to ``horizon`` tick by tick: (verdict, [ticks, ticks]).

    The verdict is True, False, or None when the joint passed ``cap``.
    """
    a, b = Observation(f, cap), Observation(g, cap)
    verdict = True
    try:
        for _ in range(horizon + 1):
            a.advance()
            b.advance()
            if a.truncation() != b.truncation():
                verdict = False
                break
    except StateCapExceeded:
        verdict = None
    return verdict, [a.ticks, b.ticks]


def chain_metrics(chains) -> dict:
    """Per-tick figures over stepped streams (each a list of Tick)."""
    chains = [c for c in chains if c]
    ticks = [t for c in chains for t in c]
    first = sorted(c[0].unroll_s for c in chains)
    last = sorted(c[-1].unroll_s for c in chains)
    return {
        "stream_core.unroll_first_tick_ms": 1000 * first[len(first) // 2],
        "stream_core.unroll_last_tick_ms": 1000 * last[len(last) // 2],
        "stream_core.mem_wires_max": max(t.mem_wires for t in ticks),
        "stream_core.joint_support_max": max(t.states for t in ticks),
        "kernel.support_max": max(t.support for t in ticks),
    }


def retained_kb_per_tick(step) -> float:
    """Least-squares slope of traced heap size per tick while ``step`` runs.

    ``step(probe)`` must step one stream, holding its head, and return its
    ticks with the probe's readings attached.
    """
    tracemalloc.start()
    try:
        ticks = step(lambda: tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    ys = [t.probe / 1024 for t in ticks[1:]]
    if len(ys) < 2:
        return 0.0
    xs = range(len(ys))
    mx, my = (len(ys) - 1) / 2, sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


# ---------------------------------------------------------------------------
# Static counts
# ---------------------------------------------------------------------------

#: Modules of the engine at the time the benchmark was defined; ``init`` and
#: ``main`` stand for ``__init__`` and ``__main__``.
MODULES = ("init", "main", "cli", "errors", "kernel", "lang", "rng",
           "sfg_ir", "stream_core", "values")


def sloc(path: Path) -> int:
    """Non-blank lines that are not ``#`` comments."""
    return sum(1 for line in path.read_text(encoding="utf-8").splitlines()
               if line.strip() and not line.strip().startswith("#"))


def sloc_metrics(package_dir: Path) -> dict:
    out, total = {}, 0
    for path in sorted(package_dir.glob("*.py")):
        n = sloc(path)
        total += n
        out[path.stem.strip("_") + ".sloc"] = n
    metrics = {f"{m}.sloc": out.get(f"{m}.sloc", 0) for m in MODULES}
    metrics["total.sloc"] = total
    return metrics


def term_counts(terms) -> dict:
    """IR constructors, and the ``Sym`` swaps among them, over ``terms``."""
    nodes = syms = 0
    todo = list(terms)
    while todo:
        t = todo.pop()
        nodes += 1
        syms += isinstance(t, sfg_ir.Sym)
        todo.extend(getattr(t, f.name) for f in fields(t)
                    if isinstance(getattr(t, f.name), sfg_ir.Term))
    return {"sfg_ir.ir_nodes": nodes, "sfg_ir.sym_nodes": syms}
