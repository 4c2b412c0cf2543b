"""Exact finite-support distributions and one-tick stochastic kernels.

A kernel is a total map from input rows (tuples of values, one per wire) to
exact distributions over output rows. Deterministic maps are the kernels all
of whose outputs are Dirac. Composite kernels are evaluated as one flat
program of their leaves (see :class:`Kernel`). Probabilities are
``fractions.Fraction`` throughout; composition, marginals, conditionals and
ranges are exact, so tests compare tables with ``==`` and no tolerances.
"""

from __future__ import annotations

import itertools
import json
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import floor, lcm
from operator import itemgetter
from typing import Callable, Iterator, Optional

from .errors import BadIndex, EmptySupport, NotEnumerable, ShapeMismatch
from .values import Row, Value, is_value, value_key, value_str

#: Every Dirac table holds this one object. The product rules below pass the
#: other factor through when a mass ``is ONE``, so Dirac rows multiply
#: nothing; a mass equal to 1 but another object is multiplied exactly.
ONE = Fraction(1)
ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# Wire shapes
# ---------------------------------------------------------------------------

class Base:
    """A single wire's type descriptor."""

    def contains(self, v: Value) -> bool:
        raise NotImplementedError

    def enumerate(self) -> tuple:
        raise NotEnumerable(f"{self} is not enumerable")

    @property
    def enumerable(self) -> bool:
        return True

    def smallest(self) -> Value:
        return self.enumerate()[0]


@dataclass(frozen=True)
class UnitBase(Base):
    def contains(self, v):
        return v is None

    def enumerate(self):
        return (None,)

    def __repr__(self):
        return "unit"


@dataclass(frozen=True)
class BoolBase(Base):
    def contains(self, v):
        return isinstance(v, bool)

    def enumerate(self):
        return (False, True)

    def __repr__(self):
        return "bool"


@dataclass(frozen=True)
class IntBase(Base):
    """Unbounded integers. Total for arithmetic, but not enumerable."""

    def contains(self, v):
        return isinstance(v, int) and not isinstance(v, bool)

    def enumerate(self):
        raise NotEnumerable("int is not enumerable")

    @property
    def enumerable(self):
        return False

    def smallest(self):
        raise NotEnumerable("int has no smallest element")

    def __repr__(self):
        return "int"


@dataclass(frozen=True)
class IntRange(Base):
    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty range {self.lo}..{self.hi}")

    def contains(self, v):
        return isinstance(v, int) and not isinstance(v, bool) and self.lo <= v <= self.hi

    def enumerate(self):
        return tuple(range(self.lo, self.hi + 1))

    def __repr__(self):
        return f"int[{self.lo}..{self.hi}]"


@dataclass(frozen=True)
class FinSet(Base):
    """A finite set of values. Membership and equality compare each value's
    type as well, through ``value_key``: ``{0,1}`` holds neither ``true``
    nor ``false``, and it is not the set ``{false,true}``."""
    values: tuple
    keys: frozenset = field(init=False, repr=False)

    def __post_init__(self):
        vals = tuple(self.values)
        if not vals:
            raise ValueError("FinSet must be nonempty")
        if len(set(vals)) != len(vals):
            raise ValueError("FinSet values must be distinct")
        if not all(is_value(v) for v in vals):
            raise ValueError("FinSet entries must be values")
        object.__setattr__(self, "values", tuple(sorted(vals, key=value_key)))
        object.__setattr__(self, "keys", frozenset(map(value_key, vals)))

    def contains(self, v):
        return is_value(v) and value_key(v) in self.keys

    def enumerate(self):
        return self.values

    def __repr__(self):
        return "{" + ",".join(value_str(v) for v in self.values) + "}"


UNIT = UnitBase()
BOOL = BoolBase()
INT = IntBase()

#: A wire bundle: a flat tuple of base descriptors. The empty tuple is the
#: monoidal unit; tensoring is concatenation, so associators are identities.
Shape = tuple

unit_shape: Shape = ()


def shape_enumerable(shape: Shape) -> bool:
    return all(b.enumerable for b in shape)


def enumerate_rows(shape: Shape) -> Iterator[Row]:
    return itertools.product(*(b.enumerate() for b in shape))


def smallest_row(shape: Shape) -> Row:
    return tuple(b.smallest() for b in shape)


def row_in_shape(row: Row, shape: Shape) -> bool:
    return len(row) == len(shape) and all(b.contains(v) for b, v in zip(shape, row))


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------

class Dist:
    """Exact finite-support distribution over values.

    Entries with zero mass are pruned at construction and the total mass must
    be exactly 1. Masses already of type ``Fraction`` are kept, not copied;
    any other mass is converted with ``Fraction(q)``. Instances are immutable
    and compare by table equality. A composite kernel builds one ``Dist`` per
    input row, from the table its flat program accumulates; the kernels
    nested in it build none. The first draw builds and keeps :meth:`cdf`.
    """

    __slots__ = ("_p", "_cdf")

    def __init__(self, mapping):
        p = {}
        total = None
        for v, q in mapping.items() if isinstance(mapping, dict) else mapping:
            if type(q) is not Fraction:
                q = Fraction(q)
            if q.numerator <= 0:
                if q.numerator < 0:
                    raise ValueError(f"negative mass {q} at {v!r}")
                continue
            r = p.get(v)
            p[v] = q if r is None else r + q
            total = q if total is None else total + q
        if total != 1:
            raise ValueError(f"masses sum to {total or 0}, not 1")
        self._p = p
        self._cdf = None

    def __getitem__(self, v) -> Fraction:
        return self._p.get(v, ZERO)

    def __iter__(self):
        return iter(self.support())

    def __len__(self):
        return len(self._p)

    def __eq__(self, other):
        return isinstance(other, Dist) and self._p == other._p

    def __hash__(self):
        return hash(frozenset(self._p.items()))

    def __repr__(self):
        inner = ", ".join(f"{v!r}: {q}" for v, q in self.items())
        return "Dist({" + inner + "})"

    def items(self):
        return sorted(self._p.items(), key=lambda kv: value_key(kv[0]))

    def pairs(self):
        """Like items() but in arbitrary order (no sort; hot paths)."""
        return self._p.items()

    def support(self):
        return sorted(self._p, key=value_key)

    def cdf(self) -> tuple:
        """``(values, cum, den)``: the support in canonical order and its
        cumulative masses as integers over their common denominator ``den``;
        built on the first call and kept."""
        if self._cdf is None:
            p, vs = self._p, tuple(self.support())
            den = lcm(*(q.denominator for q in p.values()))
            self._cdf = vs, tuple(itertools.accumulate(
                p[v].numerator * (den // p[v].denominator) for v in vs)), den
        return self._cdf

    @property
    def is_dirac(self) -> bool:
        return len(self._p) == 1

    def the_value(self) -> Value:
        """The unique supported value of a Dirac distribution."""
        if not self.is_dirac:
            raise ValueError("distribution is not Dirac")
        return next(iter(self._p))

    def map(self, f) -> "Dist":
        """Exact pushforward along ``f``."""
        out = {}
        for v, q in self._p.items():
            w = f(v)
            r = out.get(w)
            out[w] = q if r is None else r + q
        return Dist(out)

    def to_json(self):
        return {value_str(v): f"{q.numerator}/{q.denominator}" for v, q in self.items()}

    def to_json_str(self) -> str:
        # items() is canonically sorted; keep that order in the object
        return json.dumps(self.to_json())


def dirac(v: Value) -> Dist:
    """The point distribution at ``v``."""
    return Dist({v: ONE})


def uniform(vs) -> Dist:
    """The uniform distribution on a nonempty list of distinct values."""
    vs = list(vs)
    if not vs:
        raise EmptySupport("uniform over an empty list")
    if len(set(vs)) != len(vs):
        raise ValueError("uniform values must be distinct")
    q = Fraction(1, len(vs))
    return Dist({v: q for v in vs})


def marginalize(d: Dist, keep) -> Dist:
    """Project a distribution over rows onto the wires listed in ``keep``."""
    keep = tuple(keep)
    for v in d.support():
        if not isinstance(v, tuple):
            raise BadIndex("marginalize needs a distribution over rows")
        if any(i < 0 or i >= len(v) for i in keep):
            raise BadIndex(f"index out of range in {keep}")
        break
    return d.map(lambda row: tuple(row[i] for i in keep))


def sample(d: Dist, u) -> Value:
    """Inverse-CDF draw: the first value of ``d.cdf()`` whose cumulative
    mass exceeds ``u``, a Fraction, int or float read exactly; ``u >= 1``
    gives the last value and ``u < 0`` the first."""
    vs, cum, den = d.cdf()
    x = floor(Fraction(min(max(u, -1), 1)) * den)  # clamped: u may be ±inf
    return vs[min(bisect_right(cum, x), len(vs) - 1)]


def sample_bits(d: Dist, k: int) -> Value:
    """``sample(d, k / 2**64)`` for a 64-bit ``k``, with no ``Fraction``:
    ``u < cum[i] / den`` iff ``floor(u * den) < cum[i]``, an integer."""
    vs, cum, den = d.cdf()
    return vs[bisect_right(cum, (k * den) >> 64)]


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

#: A kernel clears its row cache when it holds this many rows, so long runs
#: over rows that never recur (a counter, fib) keep bounded memory, while
#: programs whose states recur (bounded memory, enumerated inputs) still
#: find every row they revisit.
CACHE_ROWS = 4096


class Kernel:
    """A one-tick stochastic map between wire bundles.

    A kernel is given by a ``rule`` sending each input row to a :class:`Dist`
    over output rows, or by a lowering hook ``lower(prog, ins)`` that appends
    the kernel to a :class:`_Program` reading the input slots ``ins`` and
    returns its output slots. Wiring kernels (identity, copy, discard, swap,
    rewire) lower to a slot map with no op, :func:`det_kernel` to one pure op
    and composites to the concatenation of their parts' lowerings; a kernel
    with only a rule lowers to one stochastic op that calls its ``dist``.
    One of ``rule`` and ``lower`` must be given.

    On its first ``dist`` a kernel without a rule lowers itself once into one
    flat program (:func:`_flatten`), so only the kernel that is evaluated,
    not the kernels nested in it, holds a rule and a cache. The cache is per
    input row and is cleared when it reaches ``CACHE_ROWS`` rows.
    """

    __slots__ = ("in_shape", "out_shape", "_rule", "_lower", "_cache")

    def __init__(self, in_shape: Shape, out_shape: Shape,
                 rule: Optional[Callable[[Row], Dist]] = None,
                 lower: Optional[Callable] = None):
        self.in_shape = tuple(in_shape)
        self.out_shape = tuple(out_shape)
        self._rule = rule
        self._lower = lower
        self._cache = {}

    def dist(self, row: Row) -> Dist:
        """The output distribution on input ``row`` (cached)."""
        d = self._cache.get(row)
        if d is None:
            if self._rule is None:
                self._rule = _flatten(self)
            d = self._rule(row)
            if len(self._cache) >= CACHE_ROWS:
                self._cache.clear()
            self._cache[row] = d
        return d

    def lower(self, prog: "_Program", ins: tuple) -> tuple:
        """Append this kernel to ``prog``, reading slots ``ins``; returns the
        slots of its output row."""
        if self._lower is None:
            return prog.emit(self.dist, ins, len(self.out_shape), False)
        return self._lower(prog, ins)

    def table(self) -> dict:
        """Materialize the full table; requires an enumerable input shape."""
        return {row: self.dist(row) for row in enumerate_rows(self.in_shape)}

    def __repr__(self):
        return f"Kernel({self.in_shape!r} -> {self.out_shape!r})"


class _Program:
    """A straight-line program over a slot file.

    Slots ``0 .. n_in - 1`` hold the input row, and every op writes a fresh
    block of slots ``lo .. hi - 1``, so each slot is written by one op only.
    An op is ``(fn, ins, lo, hi, det)``: a pure op (``det``) stores the row
    ``fn(row of ins)``; a stochastic op gets the :class:`Dist`
    ``fn(row of ins)`` and branches over its rows.
    """

    __slots__ = ("ops", "n")

    def __init__(self, n_in: int):
        self.ops = []
        self.n = n_in

    def emit(self, fn, ins, width: int, det: bool) -> tuple:
        lo = self.n
        self.n = hi = lo + width
        self.ops.append((fn, ins, lo, hi, det))
        return tuple(range(lo, hi))


def _getter(idx):
    """The function ``slots -> tuple(slots[i] for i in idx)``."""
    if len(idx) == 1:
        i, = idx
        return lambda s: (s[i],)
    return itemgetter(*idx) if idx else lambda s: ()


def _flatten(k: Kernel) -> Callable[[Row], Dist]:
    """Lower ``k`` to one program and return its rule.

    Every pure op that reads no stochastic op's output, directly or through
    other ops, first moves ahead of the first stochastic op, the order being
    otherwise kept. Each slot is written once, so the program computes the
    same rows, and those ops run once per input row, not once per table
    entry. A backward liveness pass then drops every op whose outputs
    nothing reads (exact, because every row of a leaf sums to 1) and finds
    the slots each later op still reads. The kept ops are cut after each
    stochastic op into segments. The rule carries a table from rows of live
    slots to masses through the segments: each entry runs the segment's
    pure ops on its own short slot list, branches over the rows of the
    stochastic op, and each branch is projected onto the slots still read
    after it, so branches that agree there merge into one entry (a mass
    that ``is ONE`` multiplies nothing). Pure ops never add entries, so the
    table before each stochastic op is as small as merging after every op
    would make it, and the last projection, onto the output slots, is the
    row's one :class:`Dist`.
    """
    n_in = len(k.in_shape)
    prog = _Program(n_in)
    outs = k.lower(prog, tuple(range(n_in)))
    early, late, drawn = [], [], set()
    for op in prog.ops:
        fn, ins, lo, hi, det = op
        if det and drawn.isdisjoint(ins):
            early.append(op)
        else:
            late.append(op)
            drawn.update(range(lo, hi))
    live = set(outs)
    kept = []
    for fn, ins, lo, hi, det in reversed(early + late):
        if not live.isdisjoint(range(lo, hi)):
            after = tuple(sorted(live)) if not det else None
            live.difference_update(range(lo, hi))
            live.update(ins)
            kept.append((fn, ins, lo, hi, after))
    kept.reverse()
    # each segment numbers its slots afresh: the entry's live slots, then
    # the outputs of its ops in order
    layout = tuple(sorted(live))
    first = _getter(layout)
    slot = {g: j for j, g in enumerate(layout)}

    def local(slots):
        return _getter(tuple([slot[g] for g in slots]))

    segments = []
    pure = []
    for i, (fn, ins, lo, hi, after) in enumerate(kept):
        get = local(ins)
        base = len(slot) - lo
        slot.update((g, base + g) for g in range(lo, hi))
        if after is None:
            pure.append((fn, get))
            continue
        after = outs if i == len(kept) - 1 else after
        segments.append((pure, (fn, get), local(after)))
        pure, slot = [], {g: j for j, g in enumerate(after)}
    if pure or not segments:
        segments.append((pure, None, local(outs)))

    def rule(row):
        table = {first(row): ONE}
        for pure, op, proj in segments:
            new = {}
            for key, m in table.items():
                s = list(key)
                for fn, get in pure:
                    s += fn(get(s))
                if op is None:
                    y = proj(s)
                    r = new.get(y)
                    new[y] = m if r is None else r + m
                    continue
                fn, get = op
                n = len(s)
                for v, q in fn(get(s))._p.items():
                    s[n:] = v
                    y = proj(s)
                    if m is not ONE:
                        q = m if q is ONE else m * q
                    r = new.get(y)
                    new[y] = q if r is None else r + q
            table = new
        return Dist(table)

    return rule


def det_kernel(in_shape, out_shape, fn: Callable[[Row], Row]) -> Kernel:
    """Kernel of a function on rows (all outputs Dirac); one pure op."""
    n = len(out_shape)
    return Kernel(in_shape, out_shape, None,
                  lambda prog, ins: prog.emit(fn, ins, n, True))


def const_dist_kernel(out_shape, d: Dist) -> Kernel:
    """A source: ignores its (unit) input and emits ``d`` over rows."""
    return Kernel(unit_shape, out_shape, lambda row: d)


def dist_source(d: Dist, base: Base) -> Kernel:
    """A source emitting ``d`` (a distribution over plain values) on one wire."""
    for v in d.support():
        if not base.contains(v):
            raise ShapeMismatch(f"{v!r} is not a {base!r} value")
    return const_dist_kernel((base,), d.map(lambda v: (v,)))


def const_source(v: Value, base: Base) -> Kernel:
    """A one-wire constant source; one pure op."""
    if not base.contains(v):
        raise ShapeMismatch(f"{v!r} is not a {base!r} value")
    return det_kernel(unit_shape, (base,), lambda row: (v,))


def identity_kernel(shape) -> Kernel:
    return rewire(shape, range(len(shape)))


def rewire(in_shape, indices) -> Kernel:
    """Deterministic wire shuffle: output wire ``j`` is input wire ``indices[j]``.

    Covers projections, duplications and permutations in one primitive.
    """
    indices = tuple(indices)
    for i in indices:
        if i < 0 or i >= len(in_shape):
            raise BadIndex(f"rewire index {i} out of range")
    out_shape = tuple(in_shape[i] for i in indices)
    return Kernel(in_shape, out_shape, None,
                  lambda prog, ins: tuple([ins[i] for i in indices]))


def copy(shape) -> Kernel:
    return rewire(shape, tuple(range(len(shape))) * 2)


def discard(shape) -> Kernel:
    return rewire(shape, ())


def swap(a, b) -> Kernel:
    la, n = len(a), len(a) + len(b)
    return rewire(tuple(a) + tuple(b), tuple(range(la, n)) + tuple(range(la)))


def kernel_compose(f: Kernel, g: Kernel) -> Kernel:
    """Sequential composition: route each output of ``f`` through ``g``."""
    if f.out_shape != g.in_shape:
        raise ShapeMismatch(f"compose: {f.out_shape!r} vs {g.in_shape!r}")
    return Kernel(f.in_shape, g.out_shape, None,
                  lambda prog, ins: g.lower(prog, f.lower(prog, ins)))


def kernel_tensor(f: Kernel, g: Kernel) -> Kernel:
    """Parallel composition on disjoint wires; product of distributions."""
    nf = len(f.in_shape)
    return Kernel(f.in_shape + g.in_shape, f.out_shape + g.out_shape, None,
                  lambda prog, ins: (f.lower(prog, ins[:nf])
                                     + g.lower(prog, ins[nf:])))


def kernel_eq(f: Kernel, g: Kernel) -> bool:
    """Exact table equality; needs an enumerable input shape."""
    if f.in_shape != g.in_shape or f.out_shape != g.out_shape:
        return False
    return all(f.dist(row) == g.dist(row) for row in enumerate_rows(f.in_shape))


def conditional(f: Kernel, split: int):
    """Factor ``f : A -> X ⊗ Y`` as its X-marginal and a conditional.

    ``split`` is the number of wires in the X block. Returns ``(f_X, c_f)``
    with ``f_X : A -> X`` and ``c_f : X ⊗ A -> Y`` such that
    ``triangle(f_X, c_f)`` reconstructs ``f`` exactly. Where the X-marginal
    gives an x no mass, ``c_f`` is Dirac at the canonically smallest row of
    the Y block.
    """
    x_shape = f.out_shape[:split]
    y_shape = f.out_shape[split:]
    a_shape = f.in_shape

    def marg_rule(a):
        return f.dist(a).map(lambda row: row[:split])

    f_x = Kernel(a_shape, x_shape, marg_rule)

    nx = len(x_shape)

    def cond_rule(row):
        x, a = row[:nx], row[nx:]
        joint = f.dist(a)
        total = ZERO
        masses = {}
        for full, p in joint._p.items():
            if full[:split] == x:
                y = full[split:]
                r = masses.get(y)
                masses[y] = p if r is None else r + p
                total += p
        if total == 0:
            return dirac(smallest_row(y_shape))
        return Dist({y: p / total for y, p in masses.items()})

    c_f = Kernel(x_shape + a_shape, y_shape, cond_rule)
    return f_x, c_f


def range_kernel(f: Kernel) -> Kernel:
    """The deterministic support-normalizer of ``f : A -> B`` on ``A ⊗ B``.

    Keeps (a, b) fixed when ``f(b|a) > 0``; otherwise rewrites b to the
    canonically smallest output with positive mass under a.
    """
    na = len(f.in_shape)

    def fn(row):
        a, b = row[:na], row[na:]
        d = f.dist(a)
        if d[b] > 0:
            return row
        return a + d.support()[0]

    return det_kernel(f.in_shape + f.out_shape, f.in_shape + f.out_shape, fn)


def triangle(f: Kernel, g: Kernel) -> Kernel:
    """The composite that copies A, runs ``f``, copies its output X, and runs
    ``g : X ⊗ A -> Y``, returning ``A -> X ⊗ Y``."""
    if g.in_shape != f.out_shape + f.in_shape:
        raise ShapeMismatch(
            f"triangle: {g.in_shape!r} vs {f.out_shape!r} + {f.in_shape!r}")

    def lower(prog, ins):
        x = f.lower(prog, ins)
        return x + g.lower(prog, x + ins)

    return Kernel(f.in_shape, f.out_shape + g.out_shape, None, lower)


# ---------------------------------------------------------------------------
# Random kernels (property-test fuel)
# ---------------------------------------------------------------------------

def random_dist(rows, rng, max_support=4) -> Dist:
    """Random distribution over a sample of ``rows`` with small denominators."""
    rows = list(rows)
    k = rng.randrange(1, min(max_support, len(rows)) + 1)
    chosen = rng.sample(rows, k)
    weights = [rng.randrange(1, 5) for _ in chosen]
    total = sum(weights)
    return Dist({r: Fraction(w, total) for r, w in zip(chosen, weights)})


def random_kernel(in_shape, out_shape, rng, deterministic=False,
                  max_support=4) -> Kernel:
    """Random total kernel over enumerable shapes, as a concrete table."""
    rows_out = list(enumerate_rows(out_shape))
    table = {}
    for row in enumerate_rows(in_shape):
        if deterministic:
            table[row] = dirac(rng.choice(rows_out))
        else:
            table[row] = random_dist(rows_out, rng, max_support)
    return Kernel(in_shape, out_shape, lambda row: table[row])
