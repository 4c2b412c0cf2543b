"""The scaling tests' programs of any size, and their timing helper: does
each stage of a pass at most about double when its input doubles?"""

import gc
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
