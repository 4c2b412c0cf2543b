import json
import random
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import partial, reduce
from itertools import combinations, product
from math import comb, prod
from pathlib import Path

import pytest

from mstream.errors import (
    NondeterministicStream,
    ShapeMismatch,
    StateCapExceeded,
)
from mstream import cli, sfg_ir
from mstream.kernel import (
    BOOL,
    INT,
    Dist,
    IntRange,
    Kernel,
    det_kernel,
    dirac,
    discard,
    dist_source,
    enumerate_rows,
    identity_kernel,
    kernel_compose,
    marginalize,
    random_kernel,
    rewire,
    swap,
    uniform,
    unit_shape,
)
from mstream.stream_core import (
    ShapeSeq,
    Stream,
    _Observation,
    _compare,
    _linked_pairs,
    copy_stream,
    delay,
    discard_stream,
    fbk,
    fby_box,
    first_difference,
    identity,
    iter_det,
    iter_sample,
    lift_const,
    lift_seq,
    obs_equal,
    observe,
    observe_marginals,
    par_comp,
    run_det,
    sample_trace,
    seq_comp,
    wait_stream,
)
from mstream import (
    Id,
    Par,
    WireType,
    compile_term,
    default_signature,
    elaborate,
    finite_signature,
    parse,
    read_term,
    seq_term,
)
from mstream.sfg_ir import random_term_of_type
from mstream.values import value_key, value_str
from scaling import instructions, nest, stateful_chain

F = Fraction
ONE = F(1)
I01 = IntRange(0, 1)


def coin_stream():
    return lift_const(dist_source(uniform([0, 1]), I01))


def walk_stream():
    """Position starts at 0 and moves ±1 per tick, built by hand."""
    s = (INT,)
    k0 = det_kernel((), s + s, lambda r: (0, 0))
    kt = type(k0)(s, s + s,
                  lambda r: Dist({(r[0] - 1, r[0] - 1): F(1, 2),
                                  (r[0] + 1, r[0] + 1): F(1, 2)}))
    return fbk(lift_seq((k0,), kt), ShapeSeq.constant(s))


def counter_stream():
    s = (INT,)
    k0 = det_kernel((), s + s, lambda r: (0, 0))
    kt = det_kernel(s, s + s, lambda r: (r[0] + 1, r[0] + 1))
    return fbk(lift_seq((k0,), kt), ShapeSeq.constant(s))


# ---------------------------------------------------------------------------
# shape sequences
# ---------------------------------------------------------------------------

def test_shape_seq_normalizes():
    a = ShapeSeq([(INT,), (INT,)], (INT,))
    assert a == ShapeSeq.constant((INT,))
    assert a.at(0) == (INT,) and a.at(7) == (INT,)


def test_shape_seq_ops():
    s = ShapeSeq([()], (BOOL,))
    assert s.at(0) == () and s.at(1) == (BOOL,)
    assert s.cons((INT,)).at(0) == (INT,)
    assert s.cons((INT,)).at(1) == ()
    assert s.drop(1) == ShapeSeq.constant((BOOL,))
    assert s.glue0((INT,)).at(0) == (INT,)
    t = s.tensor(ShapeSeq.constant((INT,)))
    assert t.at(0) == (INT,) and t.at(1) == (BOOL, INT)


# ---------------------------------------------------------------------------
# identity / lifts / delay
# ---------------------------------------------------------------------------

def test_identity_echoes_inputs():
    s = identity(ShapeSeq.constant((INT,)))
    assert run_det(s, [(1,), (2,), (3,)]) == [(1,), (2,), (3,)]


def test_observe_identity_is_identity_on_tuples():
    s = identity(ShapeSeq.constant((I01,)))
    p = observe(s, 3)
    for row in [(0, 1, 0, 1), (1, 1, 1, 0)]:
        assert p.dist(row) == dirac(row)


def test_lift_const_increment():
    inc = det_kernel((INT,), (INT,), lambda r: (r[0] + 1,))
    assert run_det(lift_const(inc), [(1,), (2,)]) == [(2,), (3,)]


def test_delay_shifts_one_tick():
    inc = det_kernel((INT,), (INT,), lambda r: (r[0] + 1,))
    d = delay(lift_const(inc))
    assert run_det(d, [(), (5,), (6,)]) == [(), (6,), (7,)]


def test_lift_respects_composition():
    f0 = det_kernel((IntRange(0, 3),), (IntRange(1, 4),), lambda r: (r[0] + 1,))
    g0 = det_kernel((IntRange(1, 4),), (IntRange(2, 8),), lambda r: (2 * r[0],))
    lhs = seq_comp(lift_const(f0), lift_const(g0))
    rhs = lift_const(kernel_compose(f0, g0))
    assert obs_equal(lhs, rhs, 5)


def test_seq_comp_identity_unit():
    f = lift_const(det_kernel((I01,), (I01,), lambda r: (1 - r[0],)))
    assert obs_equal(seq_comp(f, identity(f.out_seq)), f, 5)
    assert obs_equal(seq_comp(identity(f.in_seq), f), f, 5)


def test_seq_comp_shape_mismatch():
    f = lift_const(identity_kernel((I01,)))
    g = lift_const(identity_kernel((BOOL,)))
    with pytest.raises(ShapeMismatch):
        seq_comp(f, g)


def test_par_of_coins_uniform_on_four():
    p = observe(par_comp(coin_stream(), coin_stream()), 0)
    assert p.dist(()) == Dist({(a, b): F(1, 4) for a in (0, 1) for b in (0, 1)})


def test_interchange_on_lifts():
    rng = random.Random(5)
    sh = (I01,)
    for _ in range(20):
        f, fp, g, gp = (lift_const(random_kernel(sh, sh, rng))
                        for _ in range(4))
        lhs = seq_comp(par_comp(f, fp), par_comp(g, gp))
        rhs = par_comp(seq_comp(f, g), seq_comp(fp, gp))
        assert obs_equal(lhs, rhs, 3)


def test_delay_functorial():
    rng = random.Random(9)
    sh = (I01,)
    f = lift_const(random_kernel(sh, sh, rng))
    g = lift_const(random_kernel(sh, sh, rng))
    assert obs_equal(delay(seq_comp(f, g)), seq_comp(delay(f), delay(g)), 5)
    ident = identity(ShapeSeq.constant(sh))
    assert obs_equal(delay(ident), identity(ident.in_seq.cons(())), 5)


# ---------------------------------------------------------------------------
# feedback
# ---------------------------------------------------------------------------

def test_wait_as_feedback_over_symmetry():
    sh = (INT,)
    body = lift_seq((identity_kernel(sh),),
                    det_kernel(sh + sh, sh + sh, lambda r: (r[1], r[0])))
    w = fbk(body, ShapeSeq.constant(sh))
    assert run_det(w, [(1,), (2,), (3,)]) == [(), (1,), (2,)]
    sh2 = (I01,)
    body2 = lift_seq((identity_kernel(sh2),),
                     det_kernel(sh2 + sh2, sh2 + sh2, lambda r: (r[1], r[0])))
    assert obs_equal(fbk(body2, ShapeSeq.constant(sh2)), wait_stream(sh2), 5)


def test_feedback_vanishing_over_unit():
    f = lift_const(det_kernel((I01,), (I01,), lambda r: (1 - r[0],)))
    assert obs_equal(fbk(f, ShapeSeq.constant(())), f, 5)


def test_counter_via_feedback():
    trace = run_det(counter_stream(), n=5)
    assert trace == [(0,), (1,), (2,), (3,), (4,), (5,)]


def test_fbk_shape_mismatch():
    f = lift_const(identity_kernel((I01,)))
    with pytest.raises(ShapeMismatch):
        fbk(f, ShapeSeq.constant((BOOL,)))


# ---------------------------------------------------------------------------
# fby / register / wait
# ---------------------------------------------------------------------------

def reference_register(shape) -> Stream:
    """A one-place buffer as one leaf that holds memory: emits the first
    port at tick 0, afterwards the previous tick's second port."""
    shape = tuple(shape)
    n = len(shape)
    two = shape + shape
    k0 = swap(shape, shape)  # (a, b) -> (store b, emit a)
    kt = rewire(shape + two, tuple(range(2 * n, 3 * n)) + tuple(range(n)))
    return Stream(ShapeSeq.constant(two), ShapeSeq.constant(shape),
                  ShapeSeq((unit_shape,), shape), (k0,), kt)


def reference_wait(shape) -> Stream:
    """A one-tick buffer as one leaf that holds memory."""
    shape = tuple(shape)
    k0 = identity_kernel(shape)  # x -> (store x | no output)
    kt = swap(shape, shape)      # (m, x) -> (store x, emit m)
    return Stream(ShapeSeq.constant(shape), ShapeSeq((unit_shape,), shape),
                  ShapeSeq((unit_shape,), shape), (k0,), kt)


def fby_of_wait(sh) -> Stream:
    """A register as a wait feeding the second port of an fby box."""
    return seq_comp(par_comp(identity(ShapeSeq.constant(sh)),
                             wait_stream(sh)),
                    fby_box(sh))


@pytest.mark.parametrize("sh", [(), (I01,), (I01, BOOL)])
def test_wait_stream_matches_reference_tick_tables(sh):
    w, ref = wait_stream(sh), reference_wait(sh)
    assert (w.x, w.out_seq, w.mem) == (ref.x, ref.out_seq, ref.mem)
    for t in range(3):
        k, kr = w.kernel(t), ref.kernel(t)
        assert (k.in_shape, k.out_shape) == (kr.in_shape, kr.out_shape)
        for row in enumerate_rows(kr.in_shape):
            assert k.dist(row) == kr.dist(row), (t, row)


def test_register_buffers_second_port():
    got = run_det(fby_of_wait((INT,)), [(9, 1), (9, 2), (9, 3)])
    assert got == [(9,), (1,), (2,)]


def test_register_equals_fby_box_of_delayed_port():
    sh = (I01,)
    assert obs_equal(reference_register(sh), fby_of_wait(sh), 6)


def test_fby_box_replays_delayed_wire():
    sh = (INT,)
    # port 1 gets x through wait: output is x0, x0, x1, x2, ...
    composite = seq_comp(copy_stream(ShapeSeq.constant(sh)), fby_of_wait(sh))
    got = run_det(composite, [(3,), (4,), (5,)])
    assert got == [(3,), (3,), (4,)]


# ---------------------------------------------------------------------------
# observation
# ---------------------------------------------------------------------------

def test_walk_marginals_match_binomial_oracle():
    p = observe(walk_stream(), 3)
    d = p.dist(())
    # oracle: position after k steps is a sum of k independent ±1 moves
    def binom(k):
        acc = {}
        for bits in range(2 ** k):
            pos = sum(1 if bits >> i & 1 else -1 for i in range(k))
            acc[(pos,)] = acc.get((pos,), 0) + F(1, 2 ** k)
        return Dist(acc)
    for k in range(4):
        assert marginalize(d, [k]) == binom(k)


def test_observe_matches_per_tick_marginals():
    w = walk_stream()
    margs = observe_marginals(w, 4)
    d = observe(w, 4).dist(())
    for k in range(5):
        assert marginalize(d, [k]) == margs[k]


def test_observe_is_marginal_of_longer_observe():
    w = walk_stream()
    p3 = observe(w, 3).dist(())
    p4 = observe(w, 4).dist(())
    assert marginalize(p4, range(4)) == p3


def test_copy_not_natural_for_coin_stream():
    c = coin_stream()
    sh = ShapeSeq.constant((I01,))
    lhs = seq_comp(c, copy_stream(sh))
    rhs = seq_comp(copy_stream(ShapeSeq.constant(())),
                   par_comp(coin_stream(), coin_stream()))
    assert not obs_equal(lhs, rhs, 0)


def test_discard_stream_natural():
    rng = random.Random(3)
    sh = ShapeSeq.constant((I01,))
    f = lift_const(random_kernel((I01,), (I01,), rng))
    assert obs_equal(seq_comp(f, discard_stream(sh)), discard_stream(sh), 4)


def test_observe_state_cap():
    w = par_comp(coin_stream(), coin_stream())
    with pytest.raises(StateCapExceeded) as e:
        observe(w, 5, cap=10)
    assert e.value.size > e.value.cap == 10
    assert e.value.tick == 1
    assert str(e.value) == ("joint support reached 16 entries (cap 10) "
                            "at tick 1")
    with pytest.raises(StateCapExceeded) as e:
        observe_marginals(walk_stream(), 5, cap=3)
    assert (e.value.size, e.value.tick) == (4, 3)
    untimed = StateCapExceeded(4, 3)
    assert str(untimed) == "joint support reached 4 entries (cap 3)"
    assert untimed.tick is None


def test_engine_ignores_state_cap_variable(monkeypatch):
    """Only the ``mstream`` command reads ``MSTREAM_STATE_CAP``: a library
    call without ``cap`` observes under the default cap whatever it says."""
    walk = compile_term(elaborate(parse(
        (Path(__file__).resolve().parent.parent / "programs"
         / "walk.ms").read_text())), SIG)

    def results():
        return (observe_marginals(walk, 3), observe(walk, 3).kernel.table(),
                obs_equal(walk, walk, 3))

    want = results()
    monkeypatch.setenv("MSTREAM_STATE_CAP", "1")
    assert results() == want
    assert want[2] and len(want[0][3]) == 4


def test_nested_leaves_keep_no_cache():
    """A leaf with a rule inside a tick is an op of the tick's program and
    keeps no ``Dist`` cache; the evaluated tick kernel holds the only one."""
    sig = finite_signature()
    coin = sig.gens["coin"]
    s = compile_term(read_term("seq(par(coin@0, coin@0), xor@0)"), sig)
    assert observe_marginals(s, 3)[3] == Dist({(False,): F(1, 2),
                                               (True,): F(1, 2)})
    assert first_difference(s, s, 3) is None
    assert len(sample_trace(s, None, 3, 0)) == 4
    assert coin.kernel._cache == {}
    assert s.kernel(3)._cache


def test_stream_checks_tick_kernels_at_construction():
    # fits tick 0, but from tick 1 on the kernel must read the stored (I3,)
    k = Kernel((), (I3, I01), lambda r: None)
    kt = Kernel((I3,), (I3, I01), lambda r: None)
    mem = ShapeSeq([()], (I3,))
    with pytest.raises(ShapeMismatch, match=r"^tick 1: kernel maps \(\) -> "):
        Stream(ShapeSeq.constant(()), ShapeSeq.constant((I01,)), mem, (), k)
    s = Stream(ShapeSeq.constant(()), ShapeSeq.constant((I01,)), mem, (k,), kt)
    assert s.ks == (k,) and s.kernel(1) is kt
    f = lift_const(identity_kernel((I01,)))
    g = lift_const(identity_kernel((BOOL,)))
    with pytest.raises(ShapeMismatch):
        seq_comp(f, g)


def test_stream_reads_no_memory_at_tick_zero():
    k = Kernel((INT,), (INT, INT), lambda r: None)
    with pytest.raises(ShapeMismatch, match=r"^tick 0 reads memory \(int,\)"):
        Stream(ShapeSeq.constant(()), ShapeSeq.constant((INT,)),
               ShapeSeq.constant((INT,)), (), k)


def test_memoized_unroll_is_stable():
    w = walk_stream()
    assert w.unroll() is w.unroll()
    mem, now, later = w.unroll()
    assert later.unroll() is later.unroll()


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def test_run_det_rejects_stochastic_tick():
    with pytest.raises(NondeterministicStream):
        run_det(coin_stream(), n=2)


def test_run_det_validates_inputs():
    """A row that is missing or does not fit raises, naming its tick,
    before a run or a draw yields the row of any tick."""
    s = identity(ShapeSeq.constant((I01,)))
    with pytest.raises(ShapeMismatch):
        run_det(s, [(7,)])
    rows = [(0,), (1,), (7,)]
    for trace in (iter_det(s, rows), iter_sample(s, rows, 2, 0)):
        with pytest.raises(ShapeMismatch, match=r"^tick 2: input \(7,\) "):
            next(trace)
    for trace in (iter_det(s, rows[:2], 3), iter_sample(s, rows[:2], 3, 0)):
        with pytest.raises(ShapeMismatch, match=r"^tick 2: no input row"):
            next(trace)
    late = identity(ShapeSeq(((),), (I01,)))  # takes input from tick 1
    for trace in (iter_det(late, n=2), iter_sample(late, None, 2, 0)):
        with pytest.raises(ShapeMismatch, match=r"^tick 1: input \(\) "):
            next(trace)


@pytest.mark.parametrize("run", [iter_det, run_det])
def test_a_run_needs_inputs_or_a_tick_count(run):
    """The error names neither function, so it holds for both."""
    with pytest.raises(ValueError, match="^a deterministic run needs inputs "
                       "or an explicit tick count$"):
        run(counter_stream())


def test_sample_trace_deterministic_stream_equals_run_det():
    c = counter_stream()
    for seed in (0, 1, 12345):
        assert sample_trace(c, None, 5, seed) == run_det(c, n=5)


def test_a_point_tick_draws_nothing():
    """Ticks whose ``Dist`` is a point, though their kernel is no row
    function, run deterministically and take no random bits: a coin after
    them draws as it does after ticks that run as row functions."""
    point = Kernel((), (I01,), lambda r: dirac((1,)))
    fn = det_kernel((), (I01,), lambda r: (1,))
    coin = dist_source(uniform([0, 1]), I01)
    assert point.row_fn() is None and fn.row_fn() is not None
    assert run_det(lift_seq((point, point), coin), n=1) == [(1,), (1,)]
    draws = set()
    for seed in range(8):
        got = sample_trace(lift_seq((point, point), coin), None, 5, seed)
        assert got == sample_trace(lift_seq((fn, fn), coin), None, 5, seed)
        draws.add(got[2])
    assert draws == {(0,), (1,)}


def test_sample_trace_reproducible_and_walk_shaped():
    w = walk_stream()
    t1 = sample_trace(w, None, 20, seed=42)
    t2 = sample_trace(w, None, 20, seed=42)
    assert t1 == t2
    assert t1[0] == (0,)
    for a, b in zip(t1, t1[1:]):
        assert abs(b[0] - a[0]) == 1


def test_sample_trace_tick2_frequency_matches_exact():
    w = walk_stream()
    exact = observe_marginals(w, 2)[2]
    n = 10_000
    counts = {}
    for i in range(n):
        v = sample_trace(w, None, 2, seed=1000 + i)[2]
        counts[v] = counts.get(v, 0) + 1
    for v in exact.support():
        p = float(exact[v])
        sigma = (n * p * (1 - p)) ** 0.5
        assert abs(counts.get(v, 0) - n * p) <= 5 * sigma


# ---------------------------------------------------------------------------
# observation against a Fraction reference
# ---------------------------------------------------------------------------

class FractionObservation:
    """Reference observation loop: one ``Fraction`` mass per table entry.
    ``total`` is the last tick's entry count, summed over prefixes."""

    def __init__(self, stream, cap):
        self.stream, self.cap, self.mem_len, self.t = stream, cap, 0, 0
        self.j = {(): {(): F(1)}}

    def advance(self):
        mem, now, later = self.stream.unroll()
        x_shape = self.stream.in_seq.at(0)[self.mem_len:]
        lm_old, lm_new = self.mem_len, len(mem)
        new_j, total = {}, 0
        for xs, w in self.j.items():
            for x in enumerate_rows(x_shape):
                acc = {}
                for prev, p in w.items():
                    for row, q in now.dist(prev[:lm_old] + x).pairs():
                        key = row[:lm_new] + prev[lm_old:] + row[lm_new:]
                        acc[key] = acc.get(key, F(0)) + p * q
                new_j[xs + x] = acc
                total += len(acc)
                if total > self.cap:
                    raise StateCapExceeded(total, self.cap, self.t)
        self.j, self.mem_len, self.stream = new_j, lm_new, later
        self.total = total
        self.t += 1

    def truncation(self):
        out = {}
        for xs, w in self.j.items():
            acc = {}
            for row, p in w.items():
                ys = row[self.mem_len:]
                acc[ys] = acc.get(ys, F(0)) + p
            out[xs] = acc
        return out


def ref_observe(f, n, cap):
    obs = FractionObservation(f, cap)
    for _ in range(n + 1):
        obs.advance()
    return {xs: Dist(acc) for xs, acc in obs.truncation().items()}


def ref_first_difference(f, g, n, cap):
    a, b = FractionObservation(f, cap), FractionObservation(g, cap)
    for k in range(n + 1):
        a.advance()
        b.advance()
        if a.truncation() != b.truncation():
            return k
    return None


def ref_equal(f, g, n, cap):
    return ref_first_difference(f, g, n, cap) is None


def or_cap(fn, *args):
    """``fn(*args)``, or the (size, tick) of the state cap it hits."""
    try:
        return fn(*args)
    except StateCapExceeded as e:
        return e.size, e.tick


def first_cap_hit(observe_at, n):
    """(tick, size) of the first horizon whose observation is capped."""
    for k in range(n + 1):
        try:
            observe_at(k)
        except StateCapExceeded as e:
            return k, e.size
    return None


FIN = finite_signature()
SIG = default_signature()
I3 = IntRange(0, 2)


def random_wires(rng, lo, hi):
    return tuple(WireType(rng.choice((BOOL, I3)), rng.randrange(2))
                 for _ in range(rng.randint(lo, hi)))


def random_pair_of_terms(seed):
    rng = random.Random(seed)
    iw, ow = random_wires(rng, 0, 2), random_wires(rng, 1, 2)
    return (ow, random_term_of_type(rng, FIN, iw, ow, 6),
            random_term_of_type(rng, FIN, iw, ow, 6))


def hidden_draw_stream(*ds):
    """Stores a fresh unif over {0,1,2} in memory each tick and emits a
    draw from ``ds[t]`` at tick t, and from the last of ``ds`` once they
    run out; the memory never reaches an output."""
    joints = [Dist({(m,) + y: F(1, 3) * q for m in range(3)
                    for y, q in d.items()}) for d in ds]
    ks = [Kernel(() if t == 0 else (I3,), (I3, I01), lambda r, j=j: j)
          for t, j in enumerate(joints)]
    kt = Kernel((I3,), (I3, I01), lambda r: joints[-1])
    return Stream(ShapeSeq.constant(()), ShapeSeq.constant((I01,)),
                  ShapeSeq([()], (I3,)), ks, kt)


def hidden_walk_stream():
    """Emits a fair coin and adds it mod 3 to a memory drawn uniformly at
    tick 0 that never reaches an output: the memory rows beside one output
    history move to distinct rows."""
    k0 = Kernel((), (I3, I01), lambda r: Dist(
        {(m, c): F(1, 6) for m in range(3) for c in range(2)}))
    kt = Kernel((I3,), (I3, I01), lambda r: Dist(
        {((r[0] + c) % 3, c): F(1, 2) for c in range(2)}))
    return Stream(ShapeSeq.constant(()), ShapeSeq.constant((I01,)),
                  ShapeSeq([()], (I3,)), (k0,), kt)


def stored_coin_stream():
    """Emits a fair coin and stores it in a memory no output reads: each
    memory row sits beside the histories that end in it, and both rows
    reach every entry of the next tick."""
    joint = Dist({(c, c): F(1, 2) for c in range(2)})
    k0 = Kernel((), (I01, I01), lambda r: joint)
    kt = Kernel((I01,), (I01, I01), lambda r: joint)
    return Stream(ShapeSeq.constant(()), ShapeSeq.constant((I01,)),
                  ShapeSeq([()], (I01,)), (k0,), kt)


def test_observe_matches_fraction_reference_on_random_terms():
    horizon, cap = 3, 20_000
    compared = 0
    for seed in range(40):
        _, t, _ = random_pair_of_terms(seed)
        try:
            want = ref_observe(compile_term(t, FIN), horizon, cap)
        except StateCapExceeded:
            continue
        p = observe(compile_term(t, FIN), horizon, cap)
        got = p.kernel.table()
        assert got == want, f"seed {seed}"
        assert all(isinstance(q, Fraction)
                   for d in got.values() for _, q in d.pairs())
        compared += 1
    assert compared >= 30


def test_obs_equal_matches_fraction_reference():
    horizon, cap = 3, 20_000
    verdicts = []
    for seed in range(40):
        ow, t, u = random_pair_of_terms(seed)
        for lhs, rhs in ((t, seq_term(t, Id(ow))), (t, u)):
            try:
                want = ref_equal(compile_term(lhs, FIN), compile_term(rhs, FIN),
                                 horizon, cap)
            except StateCapExceeded:
                continue
            got = obs_equal(compile_term(lhs, FIN), compile_term(rhs, FIN), horizon, cap)
            assert got == want, f"seed {seed}"
            verdicts.append(got)
    # coin copied versus two coins; memory drawn over 1/3 versus none
    lhs = seq_comp(coin_stream(), copy_stream(ShapeSeq.constant((I01,))))
    rhs = seq_comp(copy_stream(ShapeSeq.constant(())),
                   par_comp(coin_stream(), coin_stream()))
    biased = Dist({(0,): F(1, 3), (1,): F(2, 3)})
    for f, g in ((lhs, rhs),
                 (hidden_draw_stream(uniform([(0,), (1,)])), coin_stream()),
                 (hidden_draw_stream(biased), coin_stream())):
        want = ref_equal(f, g, horizon, cap)
        assert obs_equal(f, g, horizon, cap) == want
        verdicts.append(want)
    assert verdicts.count(True) >= 10 and verdicts.count(False) >= 10


def test_first_difference_is_first_differing_truncation():
    horizon, cap = 3, 20_000
    found = []
    for seed in range(40):
        _, t, u = random_pair_of_terms(seed)
        f, g = compile_term(t, FIN), compile_term(u, FIN)
        try:
            got = first_difference(f, g, horizon, cap)
        except StateCapExceeded:
            continue
        want = next((k for k in range(horizon + 1)
                     if observe(f, k, cap).kernel.table()
                     != observe(g, k, cap).kernel.table()), None)
        assert got == want, f"seed {seed}"
        found.append(got)
    assert sum(k is None for k in found) >= 3
    assert sum(k is not None for k in found) >= 3
    k0 = det_kernel((), (I01,), lambda r: (0,))
    zero = lift_const(k0)
    late = lift_seq([k0, k0], det_kernel((), (I01,), lambda r: (1,)))
    assert first_difference(zero, late, 1) is None
    assert first_difference(zero, late, 5) == 2


def test_state_cap_hit_matches_fraction_reference():
    horizon, cap = 4, 60
    hits = 0
    for seed in range(40):
        _, t, _ = random_pair_of_terms(seed)
        f = compile_term(t, FIN)
        want = first_cap_hit(lambda k: ref_observe(f, k, cap), horizon)
        got = first_cap_hit(lambda k: observe(f, k, cap), horizon)
        assert got == want, f"seed {seed}"
        hits += want is not None
    assert hits >= 10


def test_first_difference_cap_hit_matches_fraction_reference():
    horizon, cap = 4, 60
    hits = decided = 0
    for seed in range(40):
        ow, t, u = random_pair_of_terms(seed)
        for lhs, rhs in ((t, u), (t, seq_term(t, Id(ow))),
                         (u, seq_term(u, Id(ow)))):
            f, g = compile_term(lhs, FIN), compile_term(rhs, FIN)
            a, b = FractionObservation(f, cap), FractionObservation(g, cap)
            want = None
            try:
                for k in range(horizon + 1):
                    a.advance()
                    b.advance()
                    if a.truncation() != b.truncation():
                        want = k
                        break
            except StateCapExceeded as e:
                with pytest.raises(StateCapExceeded) as got:
                    first_difference(f, g, horizon, cap)
                assert got.value.size == e.size, f"seed {seed}"
                hits += 1
                continue
            assert first_difference(f, g, horizon, cap) == want, f"seed {seed}"
            decided += 1
    assert hits >= 10 and decided >= 10


def test_cap_sweep_matches_fraction_reference(monkeypatch):
    """``observe`` and ``first_difference`` give the reference's verdict or
    cap hit, on ticks whose entries are counted before they are built and
    on ticks whose bound skips the count, both under and over the cap, and
    every tick they complete holds the reference's number of entries: its
    (memory, history) entries before the horizon, and at the horizon, whose
    memory nothing reads, the entries of its truncation. Beside the random
    terms, two streams keep several memory rows beside one output history,
    whose next entries coincide or are distinct, and in a third the memory
    rows that reach one entry hold disjoint histories."""
    horizon = 4
    pairs = [(compile_term(t, FIN), compile_term(u, FIN))
             for _, t, u in map(random_pair_of_terms, range(40))]
    pairs.append((hidden_draw_stream(uniform([(0,), (1,)])),
                  hidden_walk_stream()))
    pairs.append((stored_coin_stream(), coin_stream()))
    ticks = []  # (entries counted, cap passed) per advance
    entries, totals = [], []  # per completed advance, engine and reference
    horizons = []  # per completed advance of the engine: was it the last?
    advance, count = _Observation.advance, _Observation._count_entries
    ref_advance = FractionObservation.advance

    def counting(self, *args):
        ticks[-1][0] = True
        count(self, *args)

    def recording(self):
        ticks.append([False, True])
        advance(self)
        ticks[-1][1] = False
        last = self.t - 1 == self.horizon
        horizons.append(last)
        if last:  # one group per table, under the empty memory row
            assert all(list(w) == [()] for w in self.tables)
        entries.append(sum(len(hs) for _, i in self.prefixes()
                           for hs in self.tables[i].values()))

    def referencing(self):
        ref_advance(self)
        totals.append((self.total, sum(map(len, self.truncation().values()))))

    monkeypatch.setattr(_Observation, "_count_entries", counting)
    monkeypatch.setattr(_Observation, "advance", recording)
    monkeypatch.setattr(FractionObservation, "advance", referencing)
    for cap, (i, (f, g)) in product((20, 60, 500, 5000), enumerate(pairs)):
        for h in (f, g):
            want = or_cap(ref_observe, h, horizon, cap)
            got = or_cap(lambda: observe(h, horizon, cap).kernel.table())
            assert got == want, f"cap {cap}, pair {i}"
        want = or_cap(ref_first_difference, f, g, horizon, cap)
        assert or_cap(first_difference, f, g, horizon, cap) == want, \
            f"cap {cap}, pair {i}"
        assert len(entries) == len(totals), f"cap {cap}, pair {i}"
        assert entries == [histories if last else total for last, (
            total, histories) in zip(horizons, totals)], f"cap {cap}, pair {i}"
        entries.clear()
        totals.clear()
        horizons.clear()
    seen = {tuple(k) for k in ticks}
    assert seen == {(False, False), (True, False), (True, True)}


def test_capped_tick_is_refused_before_its_tables_are_built():
    """Three coins pass a cap of 30 000 at tick 4 (8^5 entries): the raising
    advance allocates less than the tables held from tick 3."""
    f = par_comp(coin_stream(), par_comp(coin_stream(), coin_stream()))
    tracemalloc.start()
    try:
        obs = _Observation(f, 30_000)
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(4):
            obs.advance()
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        with pytest.raises(StateCapExceeded) as e:
            obs.advance()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(e.value) == ("joint support reached 32768 entries "
                            "(cap 30000) at tick 4")
    assert peak - held < held - base, \
        f"peak {peak - held} bytes over {held - base} bytes held"


def test_prefixes_that_reach_one_table_share_it():
    # two bool inputs, both discarded, beside one coin output
    bools = ShapeSeq.constant((BOOL, BOOL))
    f = par_comp(discard_stream(bools), coin_stream())
    obs = _Observation(f)
    for t in range(5):
        obs.advance()
        assert len(list(obs.prefixes())) == 4 ** (t + 1)
        assert {i for _, i in obs.prefixes()} == {0}, f"tick {t}"
        assert len(obs.tables) == 1, f"tick {t}"
        assert obs.counts == [4 ** (t + 1)], f"tick {t}"
    assert observe(f, 4).kernel.table() == ref_observe(f, 4, 10 ** 6)


def table_graph_mismatch(f, g, horizon, cap):
    """Steps ``f`` and ``g`` as ``_compare`` does, to ``horizon``, and
    after every tick checks the table graph of each side against its input
    prefixes: ``prefixes()`` lists the product of the ticks' input rows in
    order, each with the table its own walk along the links reaches,
    ``counts`` counts the prefixes that reach each table, no two tables are
    equal, and the pairs ``_linked_pairs`` carries are the pairs of tables
    that the prefixes reach on the two sides. Returns the first mismatch,
    or None, and the largest pair set carried."""
    a, b = _Observation(f, cap), _Observation(g, cap)
    b.codes = a.codes
    a.horizon = b.horizon = horizon
    pairs, x_rows, widest = {(0, 0)}, [], 1
    for t in range(horizon + 1):
        a.advance()
        b.advance()
        pairs = _linked_pairs(pairs, a, b)
        x_rows.append(list(enumerate_rows(f.x.at(t))))
        want = [sum(xs, ()) for xs in product(*x_rows)]
        got = []
        for side, obs in (("a", a), ("b", b)):
            prefixes = list(obs.prefixes())
            if [xs for xs, _ in prefixes] != want:
                return f"tick {t}, side {side}: prefixes", widest
            walked = []
            for ks in product(*(range(len(r)) for r, _ in obs.steps)):
                i = 0
                for k, (_, links) in zip(ks, obs.steps):
                    i = links[i][k]
                walked.append(i)
            if [i for _, i in prefixes] != walked:
                return f"tick {t}, side {side}: links", widest
            if Counter(i for _, i in prefixes) != dict(enumerate(obs.counts)):
                return f"tick {t}, side {side}: counts", widest
            if any(u == v for u, v in combinations(obs.tables, 2)):
                return f"tick {t}, side {side}: equal tables", widest
            got.append([i for _, i in prefixes])
        if pairs != set(zip(*got)):
            return f"tick {t}: pairs", widest
        widest = max(widest, len(pairs))
    return None, widest


def test_table_graph_matches_its_prefixes():
    """The table graph of ``_Observation`` against its input prefixes, on
    the random pairs of terms, each term against itself followed by the
    identity, the hand-built streams of the comparison tests, and terms
    whose outputs read their inputs, so that prefixes reach many tables,
    shared or not, and the two sides pair them in many ways."""
    horizon, cap = 3, 20_000
    pairs = []
    for seed in range(40):
        ow, t, u = random_pair_of_terms(seed)
        pairs += [(compile_term(lhs, FIN), compile_term(rhs, FIN))
                  for lhs, rhs in ((t, u), (t, seq_term(t, Id(ow))),
                                   (u, seq_term(u, Id(ow))))]
    fair, biased = uniform([(0,), (1,)]), Dist({(0,): F(1, 3), (1,): F(2, 3)})
    one_first = biased_coin_stream({(1,): F(1, 4), (0,): F(3, 4)})
    pairs += [(hidden_walk_stream(), hidden_draw_stream(fair)),
              (stored_coin_stream(), coin_stream()),
              (coin_stream(), hidden_draw_stream(fair)),
              (coin_stream(), hidden_draw_stream(fair, fair, biased)),
              (one_first, biased_coin_stream({(0,): F(3, 4), (1,): F(1, 4)})),
              (one_first, coin_stream())]
    pairs += [(compile_term(read_term(lhs), SIG),
               compile_term(read_term(rhs), SIG)) for lhs, rhs in (
        ("par(id[{0,1}@0], discard[{0,1}@0])",
         "par(discard[{0,1}@0], id[{0,1}@0])"),
        ("par(wait[{0,1}@0], wait[{0,1}@0])",
         "seq(sym[{0,1}@0|{0,1}@0], par(wait[{0,1}@0], wait[{0,1}@0]))"),
        ("par(wait[{0,1,2}@0], unif{0,1}@0)",
         "seq(par(id[{0,1,2}@0], unif{0,1}@0), par(wait[{0,1,2}@0], "
         "id[int@0]))"))]
    checked, widest = 0, []
    for i, (f, g) in enumerate(pairs):
        try:
            mismatch, most = table_graph_mismatch(f, g, horizon, cap)
        except StateCapExceeded:
            continue
        assert mismatch is None, f"pair {i}: {mismatch}"
        checked += 1
        widest.append(most)
    assert checked >= 100
    assert sum(n > 1 for n in widest) >= 8


def test_tables_that_share_a_key_stay_apart():
    """Unequal tables can share the key ``advance`` files them under: on
    input 1 a uniform output over three rows, on inputs 0 and 2 masses 1/6,
    4/6 and 1/6 (three histories each, weights 2, 2, 2 against 1, 4, 1 over
    6, and key times weight 0 + 2 + 4 against 0 + 4 + 2). The two tables
    stay apart, and input 2 finds input 0's table past input 1's."""
    skewed = Dist({(0,): F(1, 6), (1,): F(2, 3), (2,): F(1, 6)})
    flat = uniform([(0,), (1,), (2,)])
    k = Kernel((I3,), (I3,), lambda r: flat if r == (1,) else skewed)
    f = Stream(ShapeSeq.constant((I3,)), ShapeSeq.constant((I3,)),
               ShapeSeq.constant(()), (), k)
    obs = _Observation(f)
    obs.advance()
    assert obs.tables == [{(): {0: 1, 1: 4, 2: 1}}, {(): {0: 2, 1: 2, 2: 2}}]
    assert obs.counts == [2, 1]
    assert obs.steps[0][1] == [[0, 1, 0]]


def test_check_work_does_not_grow_with_ignored_inputs():
    """A constant beside a discarded input reaches one table per tick
    however many input prefixes there are: comparing it with itself to
    tick 6 over 4 input letters (16 384 prefixes) executes at most 2.5
    times the bytecode instructions it does over 2 letters (128)."""
    def counted(letters):
        s = compile_term(read_term(
            f"par(discard[{letters}@0], const(0:int)@0)"), SIG)
        return instructions(lambda s: first_difference(s, s, 6), s)

    (k2, n2), (k4, n4) = counted("{0,1}"), counted("{0,1,2,3}")
    assert k2 is None and k4 is None
    assert n4 <= 2.5 * n2, (n2, n4)


def test_check_work_grows_with_the_tables_it_keeps():
    """The identity reaches a table of its own from every input prefix,
    each with one history of the same weight: comparing it with itself to
    tick 9 (1024 prefixes a side) executes at most 2.5 times the bytecode
    instructions it does to tick 8 (512), so telling its tables apart does
    not compare each new table with every one built before it."""
    s = compile_term(read_term("id[{0,1}@0]"), SIG)
    (k8, n8), (k9, n9) = [instructions(
        lambda s: first_difference(s, s, h), s) for h in (8, 9)]
    assert k8 is None and k9 is None
    assert n9 <= 2.5 * n8, (n8, n9)


def fraction_marginals(f, n, cap):
    """Reference per-tick marginals: one ``Fraction`` mass per (memory ++
    output) row, multiplied tick by tick."""
    cur = f
    w = {(): ONE}  # memory row -> mass
    result = []
    for t in range(n + 1):
        mem, now, later = cur.unroll()
        lm = len(mem)
        joint = {}
        for m, p in w.items():
            for row, q in now.dist(m).pairs():
                pq = q if p is ONE else p if q is ONE else p * q
                r = joint.get(row)
                joint[row] = pq if r is None else r + pq
        if len(joint) > cap:
            raise StateCapExceeded(len(joint), cap, t)
        marg = {}
        w = {}
        for row, p in joint.items():
            y, m = row[lm:], row[:lm]
            r = marg.get(y)
            marg[y] = p if r is None else r + p
            r = w.get(m)
            w[m] = p if r is None else r + p
        result.append(Dist(marg))
        cur = later
    return result


def closed_random_term(seed):
    rng = random.Random(seed)
    return random_term_of_type(rng, FIN, (), random_wires(rng, 1, 2), 8)


def marginals_or_cap(marginals, f, n, cap):
    """The marginals, or the (size, tick) of the state cap they hit."""
    try:
        return marginals(f, n, cap)
    except StateCapExceeded as e:
        return e.size, e.tick


def sticky_coin_stream():
    """Emits a fair coin until it first shows 1, then 1 forever: from tick
    1 on, one memory row draws masses 1/2 and the other a point."""
    s = (I01,)
    coin = Dist({(0, 0): F(1, 2), (1, 1): F(1, 2)})
    k0 = Kernel((), s + s, lambda r: coin)
    kt = Kernel(s, s + s, lambda r: dirac((1, 1)) if r[0] else coin)
    return fbk(lift_seq((k0,), kt), ShapeSeq.constant(s))


def test_observe_marginals_matches_fraction_reference():
    """Seeded closed terms, and two streams whose ticks mix denominators:
    within one kernel row (1/3 and 1/6) and across memory rows."""
    horizon = 6
    stochastic = hits = 0
    streams = [compile_term(closed_random_term(seed), FIN)
               for seed in range(60)]  # stream i is drawn with seed i
    streams += [sticky_coin_stream(), compile_term(read_term(
        "seq(par(unif3@0, coin@0), par(iszero@0, id[bool@0]))"), FIN)]
    for i, f in enumerate(streams):
        want = fraction_marginals(f, horizon, 10 ** 6)
        got = observe_marginals(f, horizon)
        assert got == want, f"stream {i}"
        assert all(isinstance(q, Fraction)
                   for d in got for _, q in d.pairs())
        stochastic += any(len(d) > 1 for d in want)
        # under a small cap, the same tick and size
        want = marginals_or_cap(fraction_marginals, f, horizon, 3)
        got = marginals_or_cap(observe_marginals, f, horizon, 3)
        assert got == want, f"stream {i}, cap 3"
        hits += isinstance(want, tuple)
    assert stochastic >= 20 and hits >= 10


def test_check_steps_each_side_once(monkeypatch, tmp_path):
    """``check`` prints the observations that found the difference at tick k:
    each side is stepped k + 1 times, not once more from tick 0."""
    steps = []
    advance = _Observation.advance

    def counted(self):
        steps.append(self.t)
        advance(self)

    monkeypatch.setattr(_Observation, "advance", counted)
    a, b = tmp_path / "a.ms", tmp_path / "b.ms"
    a.write_text("main = 0\n")
    b.write_text("main = 0 fby (0 fby (0 fby 1))\n")
    assert cli.main(["check", str(a), str(b), "--horizon", "6"]) == 1
    assert steps == [0, 0, 1, 1, 2, 2, 3, 3]


def test_compare_returns_the_truncations_check_prints(monkeypatch):
    """At the tick ``_compare`` reports (k, or the horizon when the sides
    agree), the truncations of the observations it returns are each side's
    ``observe`` at that tick, and ``check`` prints exactly those tables,
    prefixes in canonical order."""
    horizon, cap = 3, 20_000
    monkeypatch.setattr(cli, "default_signature", finite_signature)
    verdicts = []
    for seed in range(40):
        ow, t, u = random_pair_of_terms(seed)
        for lhs, rhs in ((t, u), (t, seq_term(t, Id(ow)))):
            f, g = compile_term(lhs, FIN), compile_term(rhs, FIN)
            try:
                k, a, b = _compare(f, g, horizon, cap)
            except StateCapExceeded:
                continue
            ta, tb = a.truncation(), b.truncation()
            at = horizon if k is None else k
            want = [observe(h, at, cap).kernel.table() for h in (f, g)]
            assert [ta, tb] == want, f"seed {seed}"
            code, lines = cli.cmd_check(sfg_ir.pretty(lhs), sfg_ir.pretty(rhs),
                                        horizon, None, "json", cap)
            got = json.loads(lines[0])
            if k is None:
                assert (code, got) == (0, {"equal": True, "horizon": horizon})
            else:
                assert (code, got["t"]) == (1, k), f"seed {seed}"
                for side, table in zip(("left", "right"), want):
                    rows = sorted(table, key=value_key)
                    assert list(got[side]) == [value_str(r) for r in rows]
                    assert got[side] == {value_str(r): cli._dist_json(table[r])
                                         for r in rows}, f"seed {seed}"
            verdicts.append(k)
    assert sum(k is None for k in verdicts) >= 40
    assert sum(k is not None for k in verdicts) >= 20


def test_compare_weighs_tables_over_different_scales():
    """A fair coin carries weights over 2^(t+1), a fair draw beside a
    hidden unif over {0,1,2} over 6^(t+1): the integer comparison finds
    them equal at every tick, and finds the tick where the draw turns
    biased, as the Fraction reference does."""
    horizon, cap = 4, 20_000
    fair, biased = uniform([(0,), (1,)]), Dist({(0,): F(1, 3), (1,): F(2, 3)})
    for g, want in ((hidden_draw_stream(fair), None),
                    (hidden_draw_stream(fair, fair, biased), 2)):
        assert ref_first_difference(coin_stream(), g, horizon, cap) == want
        k, a, b = _compare(coin_stream(), g, horizon, cap)
        assert k == want
        assert a.scale != b.scale
        at = horizon if k is None else k
        assert [a.truncation(), b.truncation()] == [
            observe(h, at, cap).kernel.table() for h in (coin_stream(), g)]


def biased_coin_stream(masses):
    """A coin over {0,1} whose ``Dist`` lists its rows as ``masses`` does."""
    return lift_const(Kernel((), (I01,), lambda r: Dist(masses)))


def test_sides_share_one_code_table():
    """Two coins with one bias, whose ``Dist``s list their rows in opposite
    orders, meet their output rows in opposite orders: the two sides code
    each row alike, so they agree, and truncations decode to each side's
    own tables."""
    one_first = biased_coin_stream({(1,): F(1, 4), (0,): F(3, 4)})
    zero_first = biased_coin_stream({(0,): F(3, 4), (1,): F(1, 4)})
    k, a, b = _compare(one_first, zero_first, 3, None)
    assert k is None
    assert list(a.codes[0]) == [(1,), (0,)]
    assert first_difference(zero_first, one_first, 3) is None
    k, a, b = _compare(one_first, coin_stream(), 3, None)
    assert k == 0
    assert [a.truncation(), b.truncation()] == [
        observe(h, 0).kernel.table() for h in (one_first, coin_stream())]


HELD_DRAW = "c = unif(0, 1)\nmain = c fby main\n"


def test_history_keys_wider_than_64_bits(tmp_path):
    """A stream that draws once and repeats the draw has two histories, and
    two output rows at every tick, so its history keys pass 2^64 by tick
    64. Observation, ``check`` and the first difference stay exact past it.
    """
    sig = default_signature()
    held = compile_term(elaborate(parse(HELD_DRAW)), sig)
    obs = _Observation(held)
    obs.horizon = 80
    for _ in range(81):
        obs.advance()
    assert max(k for acc in obs.histories() for k in acc) >= 2 ** 64
    assert observe(held, 80).dist() == Dist({(0,) * 81: F(1, 2),
                                             (1,) * 81: F(1, 2)})

    flipped = tmp_path / "flipped.ms"
    flipped.write_text("c = unif(0, 1)\nd = 1 - c\nmain = d fby main\n")
    (tmp_path / "held.ms").write_text(HELD_DRAW)
    code, lines = cli.cmd_check(str(tmp_path / "held.ms"), str(flipped), 80,
                                None, "json", None)
    assert (code, json.loads(lines[0])) == (0, {"equal": True, "horizon": 80})

    # the held draw, plus 1 from tick 70 on
    late = compile_term(elaborate(parse(
        "c = unif(0, 1)\nm = c fby m\n"
        f"e = {'0 fby (' * 70}1{')' * 70}\nmain = m + e\n")), sig)
    k, a, b = _compare(held, late, 80, None)
    assert k == 70
    assert [a.truncation(), b.truncation()] == [
        observe(h, 70).kernel.table() for h in (held, late)]
    assert b.truncation()[()] == Dist({(0,) * 70 + (1,): F(1, 2),
                                       (1,) * 70 + (2,): F(1, 2)})


def test_joint_observation_runs_past_the_recursion_limit():
    """Listing the input prefixes recurses on no tick: a constant observed
    to a horizon past Python's recursion limit gives its one row."""
    n = sys.getrecursionlimit() + 10
    zero = lift_const(det_kernel((), (I01,), lambda r: (0,)))
    assert observe(zero, n).dist() == dirac((0,) * (n + 1))


def test_joint_rejects_a_row_that_is_no_input_prefix():
    p = observe(compile_term(read_term("xor@0"), FIN), 1)
    assert p.dist((False, True, True, True)) == dirac((True, False))
    with pytest.raises(ShapeMismatch) as e:
        p.dist((1, 2))
    assert str(e.value) == ("joint input (1, 2) does not fit "
                            f"{(BOOL, BOOL, BOOL, BOOL)!r}")


def fresh_unit_stream(s):
    """``s`` with every unit mass in its tick kernels replaced by a fresh
    ``Fraction(3, 3)``, equal to ``ONE`` but another object."""
    def refresh(k):
        def rule(row):
            return Dist({v: F(3, 3) if q == 1 else q
                         for v, q in k.dist(row).pairs()})
        return Kernel(k.in_shape, k.out_shape, rule)
    return Stream(s.x, s.out_seq, s.mem, tuple(map(refresh, s.ks)), refresh(s.tail))


def ref_seq_rule(kf, kg, la, lb, la2, lb2, row):
    ra, rb, rx = row[:la], row[la:la + lb], row[la + lb:]
    out = {}
    for ry, p in kf.dist(ra + rx).pairs():
        for rz, q in kg.dist(rb + ry[la2:]).pairs():
            key = ry[:la2] + rz
            out[key] = out.get(key, F(0)) + p * q
    return out


def ref_par_rule(kf, kg, la, lb, la2, lb2, row):
    lx = len(kf.in_shape) - la
    ra, rb = row[:la], row[la:la + lb]
    rx, rx2 = row[la + lb:la + lb + lx], row[la + lb + lx:]
    out = {}
    for r1, p in kf.dist(ra + rx).pairs():
        for r2, q in kg.dist(rb + rx2).pairs():
            key = r1[:la2] + r2[:lb2] + r1[la2:] + r2[lb2:]
            out[key] = out.get(key, F(0)) + p * q
    return out


def test_tick_kernel_products_match_fraction_reference():
    rows_cap = 400
    compared = 0
    for seed in range(60):
        rng = random.Random(seed)
        iw, mw, ow = (random_wires(rng, 0, 2), random_wires(rng, 1, 2),
                      random_wires(rng, 1, 2))
        f = compile_term(random_term_of_type(rng, FIN, iw, mw, 5), FIN)
        g = compile_term(random_term_of_type(rng, FIN, mw, ow, 5), FIN)
        h = compile_term(random_term_of_type(rng, FIN, iw, ow, 5), FIN)
        if seed % 3:
            f = fresh_unit_stream(f)
        if seed % 2:
            g = fresh_unit_stream(g)
        for comp, rule, left, right in ((seq_comp, ref_seq_rule, f, g),
                                        (par_comp, ref_par_rule, f, h)):
            s = comp(left, right)
            for t in range(len(s.ks) + 2):
                k = s.kernel(t)
                rows = list(enumerate_rows(k.in_shape))
                if len(rows) > rows_cap:
                    continue
                widths = (len(left.mem.at(t)), len(right.mem.at(t)),
                          len(left.mem.at(t + 1)), len(right.mem.at(t + 1)))
                for row in rows:
                    got = dict(k.dist(row).pairs())
                    want = rule(left.kernel(t), right.kernel(t), *widths, row)
                    assert got == want, f"seed {seed}, {comp.__name__}, tick {t}"
                    assert all(type(q) is Fraction for q in got.values())
                compared += 1
    assert compared >= 150


def nested_comp(comp, rule):
    """``comp`` with every tick kernel evaluated by the nested product
    ``rule`` over its two components' tick kernels."""
    def composite(f, g):
        s = comp(f, g)

        def tick(t):
            kf, kg = f.kernel(t), g.kernel(t)
            widths = (len(f.mem.at(t)), len(g.mem.at(t)),
                      len(f.mem.at(t + 1)), len(g.mem.at(t + 1)))
            k = s.kernel(t)
            return Kernel(k.in_shape, k.out_shape,
                          lambda row: Dist(rule(kf, kg, *widths, row)))

        n = len(s.ks)
        return Stream(s.x, s.out_seq, s.mem, [tick(t) for t in range(n)],
                      tick(n))
    return composite


def test_flat_tick_kernels_match_nested_reference(monkeypatch):
    rows_cap = 400
    terms = []
    for seed in range(400):
        rng = random.Random(seed)
        iw, ow = random_wires(rng, 0, 2), random_wires(rng, 1, 2)
        terms.append(random_term_of_type(rng, FIN, iw, ow, 12))
    flat = [compile_term(t, FIN) for t in terms]
    monkeypatch.setattr(sfg_ir, "seq_comp", nested_comp(seq_comp, ref_seq_rule))
    monkeypatch.setattr(sfg_ir, "par_comp", nested_comp(par_comp, ref_par_rule))
    nested = [compile_term(t, FIN) for t in terms]
    compared = 0
    for seed, (f, ref) in enumerate(zip(flat, nested)):
        for t in range(len(f.ks) + 2):
            k, kr = f.kernel(t), ref.kernel(t)
            rows = list(enumerate_rows(k.in_shape))
            if len(rows) > rows_cap:
                continue
            for row in rows:
                got = k.dist(row)
                assert got == kr.dist(row), f"seed {seed}, tick {t}, row {row}"
                assert all(type(q) is Fraction for _, q in got.pairs())
            compared += 1
    assert compared >= 1000


def reference_lower(s, t, prog, ins):
    """The tick-``t`` lowering that slices the input slots and joins the
    output slots again at every ``seq`` and ``par`` level, which
    ``stream_core._lower`` replaced; kept as its reference."""
    todo = []  # (op, g, tick, g's inputs besides y, la2, f's outputs)
    while True:
        op = s._op
        if op is fbk or op is delay and t:
            s, t = s._parts[0], t - (op is delay)
        elif op is seq_comp or op is par_comp:
            f, g = s._parts
            la, lb = len(f.mem.at(t)), len(g.mem.at(t))
            end = None if op is seq_comp else la + lb + len(f.x.at(t))
            gin = ins[la:la + lb] + (ins[end:] if op is par_comp else ())
            todo.append((op, g, t, gin, len(f.mem.at(t + 1)), None))
            s, ins = f, ins[:la] + ins[la + lb:end]
        else:
            r = s.kernel(t).lower(prog, ins) if op is None else ()
            while todo:
                op, g, t, gin, la2, r1 = todo.pop()
                if r1 is None:  # f is lowered: g next
                    todo.append((op, g, t, gin, la2, r))
                    s, ins = g, gin + (r[la2:] if op is seq_comp else ())
                    break
                lb2 = len(g.mem.at(t + 1))
                yf = r1[la2:] if op is par_comp else ()
                r = r1[:la2] + r[:lb2] + yf + r[lb2:]
            else:
                return r


def some_row(rng, shape):
    """A row of ``shape``: a random value of each base, or a small int."""
    return tuple(rng.choice(b.enumerate()) if b.enumerable
                 else rng.randint(-3, 3) for b in shape)


def lowering_cases():
    """``(name, signature, source or term)`` for the programs, the chain
    and the nest at 50 levels, and 200 seeded terms, every fourth of them
    beside itself, so that both parts of a ``par`` hold memory."""
    root = Path(__file__).resolve().parent.parent
    for path in sorted([*root.glob("programs/*.ms"),
                        *root.glob("bench/programs/*.ms")]):
        yield path.name, SIG, path.read_text()
    yield "chain", SIG, stateful_chain(50)
    yield "nest", SIG, nest(50)
    for seed in range(200):
        rng = random.Random(seed)
        iw, ow = random_wires(rng, 0, 2), random_wires(rng, 1, 2)
        t = random_term_of_type(rng, FIN, iw, ow, 12)
        yield seed, FIN, t if seed % 4 else Par(t, t)


def test_lowering_matches_reference_lowering():
    """Every tick kernel from 0 to n + 1 gives the Dists of the kernel that
    ``reference_lower`` lowers, on every row of an enumerable input shape
    of at most 400 rows, and on the rows a seeded run reaches."""
    compared = 0
    for name, sig, source in lowering_cases():
        term = source if sig is FIN else elaborate(parse(source))
        f, rng = compile_term(term, sig), random.Random(str(name))
        m_row = ()
        for t in range(f.n + 2):
            k = f.kernel(t)
            ref = Kernel(k.in_shape, k.out_shape, None,
                         partial(reference_lower, f, t))
            reached = m_row + some_row(rng, f.x.at(t))
            rows = [reached]
            if prod(len(b.enumerate()) if b.enumerable else 401
                    for b in k.in_shape) <= 400:
                rows += enumerate_rows(k.in_shape)
            for row in rows:
                assert k.dist(row) == ref.dist(row), (name, t, row)
                compared += 1
            d = k.dist(reached)
            m_row = rng.choice(d.support())[:len(f.mem.at(t + 1))]
    assert compared >= 4500, compared


def test_rule_built_dists_are_checked_dists():
    """A flat program's rule builds its ``Dist`` without the constructor's
    checks; each one holds positive masses that sum to 1, and equals the
    checked ``Dist`` of its table. The summed draws merge entries."""
    streams = [compile_term(elaborate(parse(
        "main = unif(0, 1) + unif(0, 1) + unif(0, 1)\n")),
        default_signature())]
    for seed in range(200):
        rng = random.Random(seed)
        iw, ow = random_wires(rng, 0, 2), random_wires(rng, 1, 2)
        streams.append(compile_term(
            random_term_of_type(rng, FIN, iw, ow, 12), FIN))
    built = 0
    for i, f in enumerate(streams):
        for t in range(4):
            k = f.kernel(t)
            for row in enumerate_rows(k.in_shape):
                d = k.dist(row)
                masses = [q for _, q in d.pairs()]
                assert all(q > 0 for q in masses) and sum(masses) == 1
                assert d == Dist(dict(d.pairs())), (i, t, row)
                built += 1
    assert built >= 4000


@pytest.mark.parametrize("run", [
    lambda f, n: run_det(f, n=n),
    lambda f, n: list(iter_sample(f, None, n, 7)),
], ids=["run_det", "iter_sample"])
def test_deterministic_run_builds_no_dist_per_tick(monkeypatch, run):
    """fib's ticks draw nothing, so their kernels run as row functions: 60
    ticks build as many ``Dist`` objects, checked or not, as 10."""
    fib = (Path(__file__).resolve().parent.parent / "programs" / "fib.ms")
    sig = default_signature()
    built = []
    init, trusted = Dist.__init__, Dist._trusted

    def counting(self, mapping):
        built.append(None)
        init(self, mapping)

    def counting_trusted(cls, p):
        built.append(None)
        return trusted(p)

    monkeypatch.setattr(Dist, "__init__", counting)
    monkeypatch.setattr(Dist, "_trusted", classmethod(counting_trusted))
    counts = []
    for n in (10, 60):
        f = compile_term(elaborate(parse(fib.read_text())), sig)
        del built[:]
        assert len(run(f, n)) == n + 1
        counts.append(len(built))
    assert counts[0] == counts[1], counts


def test_dead_stochastic_ops_are_dropped():
    def never(row):
        raise AssertionError("an op whose outputs nothing reads was run")

    drop = discard_stream(ShapeSeq.constant((I01,)))
    for coin in (lift_const(Kernel((), (I01,), never)), coin_stream()):
        s = reduce(par_comp, [seq_comp(coin, drop)] * 20)
        d = s.kernel(0).dist(())
        assert d == Dist({(): 1})
        ((_, q),) = d.pairs()
        assert q == ONE and type(q) is Fraction


def test_many_draws_in_one_tick_merge(monkeypatch):
    """A tick that sums 20 draws of unif(0, 1) keeps one table entry per
    partial sum: about n^2 leaf calls, not the 2^20 paths of an enumeration
    that never merges."""
    n = 20
    src = "main = " + " + ".join(["unif(0, 1)"] * n) + "\n"
    f = compile_term(elaborate(parse(src)), default_signature())
    calls = []
    dist = Kernel.dist

    def counting(self, row):
        calls.append(None)
        assert len(calls) <= 5000, "more than 5000 kernel.dist calls"
        return dist(self, row)

    monkeypatch.setattr(Kernel, "dist", counting)
    start = time.perf_counter()
    d = f.kernel(0).dist(())
    assert time.perf_counter() - start < 1.0
    assert d == Dist({(s,): Fraction(comb(n, s), 2 ** n)
                      for s in range(n + 1)})


def test_long_run_heap_stays_bounded():
    """10^5 ticks of a counter, keeping only the current row: the heap stays
    within 2 MB of its size at tick 10^3."""
    counters = (Path(__file__).resolve().parent.parent / "programs"
                / "counters.ms")
    cur = compile_term(elaborate(parse(counters.read_text())),
                       default_signature())
    m_row = ()
    tracemalloc.start()
    try:
        for t in range(1, 10 ** 5 + 1):
            mem, now, cur = cur.unroll()
            m_row = now.dist(m_row).the_value()[:len(mem)]
            if t % 1000 == 0:
                heap = tracemalloc.get_traced_memory()[0]
                if t == 1000:
                    base = heap
                assert heap - base < 2 * 2 ** 20, \
                    f"tick {t}: heap grew by {(heap - base) / 2 ** 20:.1f} MB"
    finally:
        tracemalloc.stop()
