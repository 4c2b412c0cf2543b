#!/usr/bin/env python3
"""Copying a coin is not the same as tossing two coins.

For deterministic processes, duplicating an output equals duplicating
the process.  With randomness the two sides differ — copying shares the
sample, re-running draws a fresh one.  This shows the failure at the
one-tick kernel level and at the stream level, where it is exactly what
`mstream check` decides.
"""

from mstream import (
    IntRange,
    compile_term,
    default_signature,
    kernel_compose,
    kernel_tensor,
    copy,
    obs_equal,
    read_term,
    uniform,
)
from mstream.kernel import dist_source

SIG = default_signature()


def main():
    bit = IntRange(0, 1)
    coin = dist_source(uniform([0, 1]), bit)

    copied = kernel_compose(coin, copy((bit,)))
    fresh = kernel_tensor(coin, coin)
    print("coin then copy:   ", dict(copied.dist(()).items()))
    print("two fresh coins:  ", dict(fresh.dist(()).items()))
    print("equal?", copied.dist(()) == fresh.dist(()))

    # the same comparison on whole stream processes
    a = compile_term(read_term("seq(unif{0,1}@0, copy[int@0])"), SIG)
    b = compile_term(read_term("par(unif{0,1}@0, unif{0,1}@0)"), SIG)
    print("\nstreams observationally equal at horizon 3?",
          obs_equal(a, b, 3))

    # whereas a wait really is a swap fed back one tick later, for all inputs
    w = "int[0..1]@0"
    wait = compile_term(read_term(f"wait[{w}]"), SIG)
    loop = compile_term(read_term(f"fbk[{w}](sym[int[0..1]@1|{w}])"), SIG)
    print("wait == feedback over a swap, horizon 6?",
          obs_equal(wait, loop, 6))


if __name__ == "__main__":
    main()
