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
    before returned. Each stage runs at n and then at 2n, and the whole
    pipeline ``runs`` times, so that the two sizes of a stage are timed
    next to each other. The times are CPU times of this process, with the
    collector off, as under ``timeit``: a shared host that preempts the
    process, or a collector pass that costs in proportion to the whole
    heap, would otherwise count against whichever size it lands on.
    """
    best = {}
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(runs):
            gc.collect()
            values = dict(inputs)
            for name, fn in stages:
                for size in sorted(values):
                    start = time.process_time()
                    values[size] = fn(values[size])
                    secs = time.process_time() - start
                    best[name, size] = min(best.get((name, size), secs),
                                           secs)
            del values
    finally:
        if enabled:
            gc.enable()
    n, n2 = sorted(inputs)
    slow = {name: (best[name, n], best[name, n2]) for name, _ in stages
            if best[name, n2] > bound * best[name, n]}
    assert not slow, slow
