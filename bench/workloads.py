"""The benchmark's workloads and the oracles that check their outputs.

Every workload goes through the public surface: ``mstream.cli.main(argv)``
in-process for the user commands, and the package API for the law suites.
The oracles are the benchmark's own and take nothing from the code under
test.  Each op (a tick, or a law instance) is checked where it is produced
and counted in a ``Tally``.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
from fractions import Fraction
from pathlib import Path

from mstream import StateCapExceeded, cli, lang, sfg_ir, stream_core

import laws
import tracing

PROGRAMS = Path(__file__).resolve().parent / "programs"


class Tally:
    """Ops attempted, ops that failed their check, ops that hit the cap."""

    def __init__(self):
        self.attempted = self.failed = self.capped = 0

    def add(self, ops, failed=0, capped=0):
        self.attempted += ops
        self.failed += failed
        self.capped += capped


def run_cli(argv):
    """``mstream argv`` in-process: (exit code, stdout lines).

    The code is None when the command raised or argparse exited.
    """
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except (Exception, SystemExit):
        code = None
    return code, out.getvalue().splitlines()


def json_lines(lines):
    """One JSON object per line, or None if any line is not one."""
    try:
        rows = [json.loads(line) for line in lines]
    except json.JSONDecodeError:
        return None
    return rows if all(isinstance(r, dict) for r in rows) else None


def exact_dists(lines):
    """Per-tick {occupancy: mass} from ``mstream exact`` output, or None."""
    try:
        return [{int(k): Fraction(v) for k, v in r["dist"].items()}
                for r in json_lines(lines)]
    except (TypeError, KeyError, ValueError, AttributeError):
        return None


def count_bad(got, want):
    """Positions where ``got`` differs from ``want``; all of them if the
    lengths differ."""
    if got is None or len(got) != len(want):
        return len(want)
    return sum(g != w for g, w in zip(got, want))


def compile_source(text):
    """parse -> check_causality -> elaborate -> compile: (term, stream)."""
    prog = lang.parse(text)
    lang.check_causality(prog)
    term = lang.elaborate(prog)
    return term, sfg_ir.compile(term, sfg_ir.default_signature())


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def fib_oracle(n):
    """Fibonacci numbers 0..n by an iterative loop."""
    out, a, b = [], 0, 1
    for _ in range(n + 1):
        out.append(a)
        a, b = b, a + b
    return out


def ehrenfest_oracle(n):
    """Urn-1 occupancy at ticks 0..n: 5-state chain by matrix power."""
    p = [[Fraction(0)] * 5 for _ in range(5)]
    for s in range(5):
        if s > 0:
            p[s][s - 1] = Fraction(s, 4)
        if s < 4:
            p[s][s + 1] = Fraction(4 - s, 4)
    row = [Fraction(0)] * 4 + [Fraction(1)]
    out = []
    for _ in range(n + 1):
        out.append({j: q for j, q in enumerate(row) if q})
        row = [sum(row[s] * p[s][j] for s in range(5)) for j in range(5)]
    return out


def urn_walk_bad(values):
    """Ticks of one sampled occupancy trace that break the urn's support:
    tick 0 is 4, every value is in 0..4, each step moves by exactly 1."""
    bad = 0
    for t, v in enumerate(values):
        ok = isinstance(v, int) and 0 <= v <= 4
        if t == 0:
            ok = ok and v == 4
        else:
            ok = ok and isinstance(values[t - 1], int) \
                and abs(v - values[t - 1]) == 1
        bad += not ok
    return bad


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """One set of inputs, made from the seed.

    ``setup`` turns the source into compiled streams (or law terms).  One
    repetition is the list ``commands()``: each is ``(ops, command)``, and
    ``command(tally)`` runs one user command (or one law's instances)
    through the public surface, checks it and returns its output.  ``step``
    drives freshly compiled streams tick by tick and returns the tick
    records of each stepped stream.
    """

    name = ""

    def setup(self):
        raise NotImplementedError

    def commands(self):
        raise NotImplementedError

    @property
    def ops(self):
        """Ops in one repetition."""
        return sum(ops for ops, _ in self.commands())

    def rep(self, tally):
        return [command(tally) for _, command in self.commands()]

    def law_stats(self, outputs, seconds):
        """law -> (instances, capped, seconds) for one repetition."""
        return {}

    def final_check(self, tally, outputs):
        """Checks made once per run, outside the timed repetitions."""

    def step(self, tally, outputs):
        """Checks the stepped outputs against the oracle and against
        ``outputs``, the untraced ``rep`` result of the same run."""
        raise NotImplementedError

    def held_chain(self, probe):
        """Step one stream, holding its head, with ``probe`` after each tick."""
        raise NotImplementedError

    def terms(self):
        """The IR terms this workload compiles, for the static counts."""
        raise NotImplementedError


class RunFib(Workload):
    name = "run-fib"

    def __init__(self, seed, tiny, workdir):
        self.steps = 20 if tiny else 600 + seed % 17
        self.path = PROGRAMS / "fib.ms"
        self.text = self.path.read_text(encoding="utf-8")

    def setup(self):
        return compile_source(self.text)

    def commands(self):
        return [(self.steps + 1, self._run)]

    def _run(self, tally):
        code, lines = run_cli(["run", str(self.path),
                               "--steps", str(self.steps)])
        rows = json_lines(lines) if code == 0 else None
        got = None if rows is None else [r.get("out") for r in rows]
        tally.add(self.steps + 1, count_bad(got, [[v] for v in
                                                  fib_oracle(self.steps)]))
        return lines

    def step(self, tally, outputs):
        out, ticks = self.held_chain(None)
        got = [list(r) for r in out]
        api = [r.get("out") for r in json_lines(outputs[0]) or []]
        bad = count_bad(got, [[v] for v in fib_oracle(self.steps)])
        tally.add(self.steps + 1, max(bad, count_bad(got, api)))
        return [ticks]

    def held_chain(self, probe):
        _, stream = self.setup()
        return tracing.step_trace(stream, self.steps,
                                  lambda d: d.the_value(), probe)

    def terms(self):
        return [self.setup()[0]]


class SampleEhrenfest(Workload):
    name = "sample-ehrenfest"

    def __init__(self, seed, tiny, workdir):
        self.steps, self.trials = (3, 2) if tiny else (3, 128)
        self.seed = seed
        self.path = PROGRAMS / "ehrenfest.ms"
        self.text = self.path.read_text(encoding="utf-8")

    def setup(self):
        return compile_source(self.text)

    def _argv(self, trials):
        return ["sample", str(self.path), "--steps", str(self.steps),
                "--trials", str(trials), "--seed", str(self.seed)]

    def commands(self):
        return [(self.trials * (self.steps + 1), self._sample)]

    def _sample(self, tally):
        ops = self.trials * (self.steps + 1)
        code, lines = run_cli(self._argv(self.trials))
        rows = json_lines(lines) if code == 0 else None
        expect = [(i, t) for i in range(self.trials)
                  for t in range(self.steps + 1)]
        if rows is None or [(r.get("trial"), r.get("t"))
                            for r in rows] != expect:
            tally.add(ops, ops)
            return lines
        bad = 0
        for i in range(self.trials):
            trial = rows[i * (self.steps + 1):(i + 1) * (self.steps + 1)]
            bad += urn_walk_bad([(r.get("out") or [None])[0]
                                 for r in trial])
        tally.add(ops, bad)
        return lines

    def final_check(self, tally, outputs):
        """Trial 0 rerun alone with the same seed gives identical bytes."""
        code, lines = run_cli(self._argv(1))
        same = code == 0 and lines == outputs[0][:self.steps + 1]
        tally.add(self.steps + 1, 0 if same else self.steps + 1)

    def step(self, tally, outputs):
        """The stepped trace uses the benchmark's own generator, so it is
        held to the urn's support, not to the sampled bytes."""
        out, ticks = self.held_chain(None)
        tally.add(self.steps + 1, urn_walk_bad([r[0] for r in out]))
        return [ticks]

    def held_chain(self, probe):
        _, stream = self.setup()
        rng = random.Random(self.seed)
        return tracing.step_trace(stream, self.steps,
                                  lambda d: tracing.draw(d, rng), probe)

    def terms(self):
        return [self.setup()[0]]


class ExactEhrenfest(Workload):
    """``exact`` on Ehrenfest, then ``check`` against two twins.

    The twins are written into ``workdir``: one with the definitions in an
    order drawn from the seed (must be equal), one whose output adds a
    ``late`` term that is 0 until the horizon and 1 at it (must differ at
    exactly the last tick).
    """

    name = "exact-ehrenfest"

    def __init__(self, seed, tiny, workdir):
        self.steps, self.horizon = (1, 1) if tiny else (5, 2)
        self.path = PROGRAMS / "ehrenfest.ms"
        self.text = self.path.read_text(encoding="utf-8")
        defs = [line for line in self.text.splitlines()
                if line.strip() and not line.startswith("--")]
        shuffled = defs[:]
        random.Random(seed).shuffle(shuffled)
        if shuffled == defs:
            shuffled.reverse()
        main = next(d for d in defs if d.startswith("main ="))
        late = ("late = " + "0 fby (" * self.horizon + "1"
                + ")" * self.horizon)
        self.reordered = Path(workdir) / "ehrenfest_reordered.ms"
        self.late = Path(workdir) / "ehrenfest_late.ms"
        self.reordered.write_text("\n".join(shuffled) + "\n",
                                  encoding="utf-8")
        self.late.write_text(
            "\n".join([d for d in defs if d != main]
                      + [late, main + " + late"]) + "\n", encoding="utf-8")

    def setup(self):
        return compile_source(self.text)

    def _check(self, twin):
        return run_cli(["check", str(self.path), str(twin),
                        "--horizon", str(self.horizon)])

    def commands(self):
        h = self.horizon + 1
        return [(self.steps + 1, self._exact), (h, self._check_equal),
                (h, self._check_late)]

    def _exact(self, tally):
        code, lines = run_cli(["exact", str(self.path),
                               "--steps", str(self.steps)])
        got = exact_dists(lines) if code == 0 else None
        tally.add(self.steps + 1,
                  count_bad(got, ehrenfest_oracle(self.steps)))
        return lines

    def _check_equal(self, tally):
        code, lines = self._check(self.reordered)
        eq = json_lines(lines) if code == 0 else None
        h = self.horizon + 1
        tally.add(h, 0 if eq == [{"equal": True, "horizon": self.horizon}]
                  else h)
        return lines

    def _check_late(self, tally):
        code, lines = self._check(self.late)
        late = json_lines(lines) if code == 1 else None
        h = self.horizon + 1
        tally.add(h, 0 if late and len(late) == 1
                  and late[0].get("equal") is False
                  and late[0].get("t") == self.horizon else h)
        return lines

    def step(self, tally, outputs):
        dists, ticks = self.held_chain(None)
        got = [{r[0]: q for r, q in d.items()} for d in dists]
        api = exact_dists(outputs[0])
        bad = count_bad(got, ehrenfest_oracle(self.steps))
        tally.add(self.steps + 1, max(bad, count_bad(got, api)))
        return [ticks]

    def held_chain(self, probe):
        _, stream = self.setup()
        return tracing.step_marginals(stream, self.steps, probe)

    def terms(self):
        return [self.setup()[0]]


class Laws(Workload):
    """Draws 0..n-1 of four feedback and monoidal laws, decided in an order
    drawn from the seed.

    The draws are the acceptance suite's (master seed ``laws.TIER1_SEED``)
    for every run seed: the cost of one draw ranges over three orders of
    magnitude, so a draw set that changed with the seed would swamp any
    change to the engine.
    """

    name = "laws"

    def __init__(self, seed, tiny, workdir, master=laws.TIER1_SEED):
        self.draws = 1 if tiny else 8
        self.seed, self.master = seed, master
        self.instances = []

    def setup(self):
        instances = laws.draw_instances(self.draws, self.master)
        random.Random(self.seed).shuffle(instances)
        self.instances = instances
        return instances

    def commands(self):
        """One command per law, in ``laws.LAWS`` order."""
        return [(self.draws, functools.partial(
                    self._decide_all, [x for x in self.instances
                                       if x[0] == law]))
                for law in laws.LAWS]

    @staticmethod
    def decide(lhs, rhs):
        """True or False from obs_equal; None when the state cap is hit."""
        sig = sfg_ir.finite_signature()
        try:
            return stream_core.obs_equal(sfg_ir.compile(lhs, sig),
                                         sfg_ir.compile(rhs, sig),
                                         laws.HORIZON, laws.CAP)
        except StateCapExceeded:
            return None

    def _decide_all(self, instances, tally):
        verdicts = {}
        for name, i, lhs, rhs in instances:
            try:
                verdict = self.decide(lhs, rhs)
            except Exception as e:  # an engine error fails this op only
                verdict = f"error: {type(e).__name__}: {e}"
            verdicts[name, i] = verdict
            tally.add(1, failed=verdict is not True and verdict is not None,
                      capped=verdict is None)
        return verdicts

    def law_stats(self, outputs, seconds):
        return {law: (len(out), sum(v is None for v in out.values()), secs)
                for law, out, secs in zip(laws.LAWS, outputs, seconds)}

    def step(self, tally, outputs):
        verdicts = {k: v for out in outputs for k, v in out.items()}
        sig = sfg_ir.finite_signature()
        chains = []
        for name, i, lhs, rhs in self.instances:
            verdict, pair = tracing.step_equal(
                sfg_ir.compile(lhs, sig), sfg_ir.compile(rhs, sig),
                laws.HORIZON, laws.CAP)
            chains.extend(pair)
            wrong = verdict is False or verdicts[name, i] != verdict
            tally.add(1, failed=wrong, capped=verdict is None)
        return chains

    def held_chain(self, probe):
        """The first instance's left side, observed with its inputs."""
        _, _, lhs, _ = self.instances[0]
        obs = tracing.Observation(
            sfg_ir.compile(lhs, sfg_ir.finite_signature()), laws.CAP)
        try:
            for _ in range(laws.HORIZON + 1):
                obs.advance()
                obs.ticks[-1].probe = probe() if probe else None
        except StateCapExceeded:
            pass
        return None, obs.ticks

    def terms(self):
        return [t for _, _, lhs, rhs in self.instances for t in (lhs, rhs)]


WORKLOADS = {w.name: w for w in (RunFib, SampleEhrenfest, ExactEhrenfest,
                                 Laws)}
