"""The scaling tests' programs of any size, and their two helpers: does
each stage of a pass at most about double when its input doubles, in
time and in bytecode instructions executed?"""

import gc
import sys
import time


def stateful_chain(n):
    """``x_i = 0 fby (x_i + x_(i-1))``: n recursive SCCs of one member."""
    return "x0 = 0 fby (x0 + 1)\n" + "".join(
        f"x{i} = 0 fby (x{i} + x{i - 1})\n" for i in range(1, n))


def nest(n):
    """``main = 0 fby (0 fby (… 1))``, n levels deep."""
    return "main = " + "0 fby (" * n + "1" + ")" * n + "\n"


def assert_doubling_at_most(inputs, stages, bound=2.5, runs=5):
    """Each stage's minimum time at size 2n is at most ``bound`` times its
    minimum at n.

    ``inputs`` maps n and 2n to the input of the first stage, and
    ``stages`` lists ``(name, fn)``, each ``fn`` taking what the stage
    before returned. A run takes the whole pipeline once and times each
    stage at both sizes next to each other, n first in even runs and 2n
    first in odd ones, so that neither size is always timed second. The
    minima are compared after ``runs`` runs and, if a stage is over the
    bound, once more after ``3 * runs`` runs: the extra runs give each
    size of a stage whose time at most doubles more chances at a quiet
    spell of a shared host, while the minima of a superlinear stage only
    come closer to its true ratio. The times are CPU times of this
    process, with the collector off, as under ``timeit``: a host that
    preempts the process, or a collector pass that costs in proportion to
    the whole heap, would otherwise count against whichever size it lands on.
    """
    n, n2 = sorted(inputs)
    best = {}
    enabled = gc.isenabled()
    gc.disable()
    try:
        for run in range(3 * runs):
            gc.collect()
            values = dict(inputs)
            for name, fn in stages:
                for size in (n, n2) if run % 2 == 0 else (n2, n):
                    start = time.process_time()
                    values[size] = fn(values[size])
                    secs = time.process_time() - start
                    best[name, size] = min(best.get((name, size), secs),
                                           secs)
            del values
            if run + 1 in (runs, 3 * runs):
                slow = {name: (best[name, n], best[name, n2])
                        for name, _ in stages
                        if best[name, n2] > bound * best[name, n]}
                if not slow:
                    break
    finally:
        if enabled:
            gc.enable()
    assert not slow, slow


def instructions(fn, arg):
    """``(fn(arg), n)``: n is the number of bytecode instructions that
    Python functions execute during the call. Work done inside C calls is
    not counted."""
    n = 0

    def trace(frame, event, _):
        nonlocal n
        if event == "opcode":
            n += 1
        elif event == "call":
            frame.f_trace_lines = False
            frame.f_trace_opcodes = True
        return trace

    outer = sys.gettrace()
    sys.settrace(trace)
    try:
        return fn(arg), n
    finally:
        sys.settrace(outer)


def assert_count_doubling_at_most(inputs, stages, bound=2.05):
    """Each stage's instruction count at size 2n is at most ``bound`` times
    its count at n, each counted once (:func:`instructions`), with
    ``inputs`` and ``stages`` as in :func:`assert_doubling_at_most`.

    A count does not move with the load of the host. It moves with
    ``PYTHONHASHSEED`` only through the order of sets and dicts keyed by
    strings. Across hash seeds 0, 1 and 2, these counts are equal: the
    causality analysis of ``stateful_chain`` and ``delayed_ring`` at 250
    and 500 definitions, and elaboration and the first 4 ticks of
    ``stateful_chain`` at 250 and 500 and of ``nest`` at 312 and 624
    levels. Compilation of the same differs by at most 0.1%. All of these
    read ratios of 1.98 to 2.01, so a bound of 2.05 holds on every seed,
    while an ``elaborate`` that runs one empty loop over the SCCs before
    each one reads 2.12.
    """
    n, n2 = sorted(inputs)
    values, counts = dict(inputs), {}
    for name, fn in stages:
        for size in (n, n2):
            values[size], counts[name, size] = instructions(fn, values[size])
    over = {name: (counts[name, n], counts[name, n2]) for name, _ in stages
            if counts[name, n2] > bound * counts[name, n]}
    assert not over, over
