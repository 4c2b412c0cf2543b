"""Seeded law instances for the ``laws`` workload.

The four law constructors and the per-draw seeding are copied from the
acceptance suite so that an edit there cannot shift the benchmark.  Each
constructor returns the two sides of one law instance; deciding it (compile
both sides, compare them with ``obs_equal`` at horizon 5 under a state cap of
30 000) is left to the caller so that term generation and decision can be
timed apart.

Generators are looked up on the ``sfg_ir`` module at call time, so a traced
run that wraps ``random_term_of_type`` sees every call.
"""

from __future__ import annotations

import random

from mstream import BOOL, Fbk, Id, IntRange, WireType, sfg_ir
from mstream.sfg_ir import shift_wires

#: Master seed of the acceptance suite's law draws.
TIER1_SEED = 0xACCE97
HORIZON = 5
CAP = 30_000

I3 = IntRange(0, 2)
_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix(seed: int, i: int) -> int:
    """The i-th draw seed derived from a master seed (splitmix64 finalizer)."""
    z = (seed + (i + 1) * _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def rand_wire(rng, max_delay=1):
    return WireType(rng.choice((BOOL, I3)), rng.randrange(max_delay + 1))


def rand_wires(rng, lo, hi, max_delay=1):
    return tuple(rand_wire(rng, max_delay)
                 for _ in range(rng.randint(lo, hi)))


def bool_wires(rng, lo, hi, max_delay=1):
    return tuple(WireType(BOOL, rng.randrange(max_delay + 1))
                 for _ in range(rng.randint(lo, hi)))


def _term(rng, sig, iw, ow, budget):
    return sfg_ir.random_term_of_type(rng, sig, iw, ow, budget)


def tightening(rng, sig):
    s = (rand_wire(rng),)
    x, y = rand_wires(rng, 0, 1), rand_wires(rng, 1, 2)
    x2, y2 = rand_wires(rng, 0, 1), rand_wires(rng, 1, 1)
    f = _term(rng, sig, shift_wires(s) + x, s + y, 7)
    g = _term(rng, sig, x2, x, 4)
    h = _term(rng, sig, y, y2, 4)
    lhs = Fbk(s, sfg_ir.seq(sfg_ir.par(Id(shift_wires(s)), g), f,
                            sfg_ir.par(Id(s), h)))
    rhs = sfg_ir.seq(g, Fbk(s, f), h)
    return lhs, rhs


def joining(rng, sig):
    t, s = (rand_wire(rng),), (rand_wire(rng),)
    x, y = rand_wires(rng, 0, 1), rand_wires(rng, 1, 1)
    g = _term(rng, sig, shift_wires(t) + shift_wires(s) + x, t + s + y, 9)
    return Fbk(s, Fbk(t, g)), Fbk(t + s, g)


def strength(rng, sig):
    s = (rand_wire(rng),)
    x, y = bool_wires(rng, 0, 1), rand_wires(rng, 1, 1)
    z, w = bool_wires(rng, 0, 1), rand_wires(rng, 1, 1)
    f = _term(rng, sig, shift_wires(s) + x, s + y, 6)
    g = _term(rng, sig, z, w, 4)
    return sfg_ir.par(Fbk(s, f), g), Fbk(s, sfg_ir.par(f, g))


def interchange(rng, sig):
    a, b = bool_wires(rng, 0, 1), bool_wires(rng, 0, 1)
    e = rand_wires(rng, 0, 1)
    c, d, w = (rand_wires(rng, 1, 1) for _ in range(3))
    f = _term(rng, sig, a, c, 4)
    g = _term(rng, sig, b, d, 4)
    h = _term(rng, sig, c, e, 4)
    k = _term(rng, sig, d, w, 4)
    return (sfg_ir.seq(sfg_ir.par(f, g), sfg_ir.par(h, k)),
            sfg_ir.par(sfg_ir.seq(f, h), sfg_ir.seq(g, k)))


LAWS = {"tightening": tightening, "strength": strength,
        "joining": joining, "interchange": interchange}


def draw_instances(draws: int, master: int = TIER1_SEED):
    """Draws 0..draws-1 of every law: a list of (law, index, lhs, rhs).

    The list is fixed by ``draws`` and ``master``; no draw is retried, so the
    share that hits the state cap has a fixed denominator.
    """
    sig = sfg_ir.finite_signature()
    out = []
    for name, law in LAWS.items():
        for i in range(draws):
            lhs, rhs = law(random.Random(mix(master, i)), sig)
            out.append((name, i, lhs, rhs))
    return out
