import random
from fractions import Fraction

import pytest

from mstream.errors import BadIndex, EmptySupport, NotEnumerable, ShapeMismatch
from mstream.kernel import (
    BOOL,
    INT,
    ONE,
    UNIT,
    Dist,
    FinSet,
    IntRange,
    Kernel,
    conditional,
    const_dist_kernel,
    copy,
    det_kernel,
    dirac,
    discard,
    dist_source,
    enumerate_rows,
    identity_kernel,
    kernel_compose,
    kernel_eq,
    kernel_tensor,
    marginalize,
    random_dist,
    random_kernel,
    range_kernel,
    rewire,
    sample,
    sample_bits,
    smallest_row,
    swap,
    triangle,
    uniform,
)
from mstream.values import value_key

F = Fraction

COIN = dist_source(uniform([0, 1]), IntRange(0, 1))


# ---------------------------------------------------------------------------
# values / ordering
# ---------------------------------------------------------------------------

def test_value_order_classes():
    # unit < booleans < integers < tuples
    seq = [None, False, True, -3, 0, 7, (), (1,), (1, True)]
    assert sorted(seq, key=value_key) == seq


def test_bool_is_not_int_in_order():
    # although bool subclasses int in Python, True sorts before -100 here
    assert sorted([True, -100], key=value_key) == [True, -100]


# ---------------------------------------------------------------------------
# Dist
# ---------------------------------------------------------------------------

def test_dirac_table():
    d = dirac(3)
    assert d[3] == 1
    assert d[4] == 0
    assert d.support() == [3]
    assert d.is_dirac


def test_uniform_table():
    d = uniform([-1, 1])
    assert d[-1] == F(1, 2)
    assert d[1] == F(1, 2)
    assert d.support() == [-1, 1]


def test_dist_prunes_zeros_and_checks_total():
    d = Dist({0: F(1, 2), 1: F(1, 2), 2: F(0)})
    assert d.support() == [0, 1]
    with pytest.raises(ValueError):
        Dist({0: F(1, 3)})
    with pytest.raises(ValueError):
        Dist({0: F(3, 2), 1: F(-1, 2)})


def test_dist_contract_messages():
    with pytest.raises(ValueError, match=r"^negative mass -1/2 at 1$"):
        Dist({0: F(3, 2), 1: F(-1, 2)})
    with pytest.raises(ValueError, match=r"^negative mass -1 at 'a'$"):
        Dist([("a", -1), ("b", 2)])
    with pytest.raises(ValueError, match=r"^masses sum to 1/3, not 1$"):
        Dist({0: F(1, 3)})
    with pytest.raises(ValueError, match=r"^masses sum to 5/4, not 1$"):
        Dist([(0, F(3, 4)), (0, F(1, 2))])
    for empty in ({}, [], {0: F(0)}, [(1, 0), (2, False)]):
        with pytest.raises(ValueError, match=r"^masses sum to 0, not 1$"):
            Dist(empty)


def test_dist_prunes_sums_duplicates_and_converts():
    d = Dist({0: F(0), 1: F(1, 4), 2: 0, 3: F(3, 4)})
    assert d.support() == [1, 3] and len(d) == 2
    d = Dist([(0, F(1, 4)), (1, F(1, 2)), (0, F(1, 4)), (2, F(0))])
    assert d.items() == [(0, F(1, 2)), (1, F(1, 2))]
    for mass in (1, True):
        d = Dist({7: mass})
        assert type(d[7]) is Fraction and d[7] == 1
    d = Dist([(0, 1), (1, 0), (0, 0)])
    assert type(d[0]) is Fraction and d.support() == [0]
    # a Fraction mass is kept as the same object, so Dirac tables share ONE
    q = F(1, 3)
    assert Dist({0: q, 1: F(2, 3)})[0] is q
    assert dirac(5)[5] is ONE


def test_uniform_rejects_bad_input():
    with pytest.raises(EmptySupport):
        uniform([])
    with pytest.raises(ValueError):
        uniform([1, 1])


def test_dist_json_keys_sorted():
    d = Dist({(1, True): F(1, 4), (0, False): F(3, 4)})
    assert d.to_json_str() == '{"(0,false)": "3/4", "(1,true)": "1/4"}'


def test_marginalize_tables():
    d = Dist({(0, 0): F(1, 2), (1, 1): F(1, 2)})
    assert marginalize(d, [0]) == Dist({(0,): F(1, 2), (1,): F(1, 2)})
    assert marginalize(d, [0, 1]) == d
    with pytest.raises(BadIndex):
        marginalize(d, [2])


def test_marginal_of_product_is_factor():
    left = Dist({0: F(1, 3), 1: F(2, 3)})
    prod = Dist({(a, b): left[a] * F(1, 2)
                 for a in (0, 1) for b in (False, True)})
    assert marginalize(prod, [0]) == left.map(lambda v: (v,))


# ---------------------------------------------------------------------------
# shapes
# ---------------------------------------------------------------------------

def test_finset_sorts_canonically():
    s = FinSet((3, -1, True))
    assert s.values == (True, -1, 3)
    assert s.smallest() is True


def test_finset_compares_types_as_well_as_values():
    s = FinSet((0, True))
    assert [v for v in (0, 1, False, True, None, (0,)) if s.contains(v)] \
        == [0, True]
    assert not FinSet((0, 1)).contains(True)
    assert FinSet(((1,), 2)).contains((1,))
    assert not FinSet(((1,), 2)).contains((True,))
    assert FinSet((0, 1)) != FinSet((False, True))
    assert FinSet((1, 0)) == FinSet((0, 1))
    assert hash(FinSet((1, 0))) == hash(FinSet((0, 1)))


def test_int_base_not_enumerable():
    assert INT.contains(10**30)
    with pytest.raises(NotEnumerable):
        INT.enumerate()


def test_enumerate_rows():
    rows = list(enumerate_rows((IntRange(0, 1), BOOL)))
    assert rows == [(0, False), (0, True), (1, False), (1, True)]
    assert list(enumerate_rows(())) == [()]
    assert smallest_row((BOOL, IntRange(2, 5))) == (False, 2)


# ---------------------------------------------------------------------------
# kernel composition / tensor
# ---------------------------------------------------------------------------

def test_compose_coin_then_increment():
    inc = det_kernel((IntRange(0, 1),), (IntRange(1, 2),), lambda r: (r[0] + 1,))
    k = kernel_compose(COIN, inc)
    assert k.dist(()) == Dist({(1,): F(1, 2), (2,): F(1, 2)})


def test_draw_free_pure_ops_run_before_the_draw():
    """``inc`` reads no draw, so it runs once per row although the coin
    drawn before it branches twice; ``add`` reads the draw and runs once
    per branch."""
    calls = []

    def counted(name, fn):
        def run(row):
            calls.append(name)
            return fn(row)
        return run

    i2 = IntRange(0, 2)
    inc = det_kernel((i2,), (i2,), counted("inc", lambda r: (r[0] + 1,)))
    add = det_kernel((i2, i2), (i2,), counted("add", lambda r: (r[0] + r[1],)))
    coin = dist_source(uniform([0, 1]), i2)
    k = kernel_compose(kernel_tensor(coin, inc), add)
    assert k.dist((1,)) == Dist({(2,): F(1, 2), (3,): F(1, 2)})
    assert sorted(calls) == ["add", "add", "inc"]


def test_compose_shape_mismatch():
    inc = det_kernel((BOOL,), (BOOL,), lambda r: r)
    with pytest.raises(ShapeMismatch):
        kernel_compose(COIN, inc)


def test_tensor_of_two_coins_is_uniform_on_four():
    both = kernel_tensor(COIN, COIN)
    assert both.dist(()) == Dist({(a, b): F(1, 4)
                                  for a in (0, 1) for b in (0, 1)})


def test_compose_associative_unital_on_random_kernels():
    rng = random.Random(7)
    sh = (IntRange(0, 2),)
    for _ in range(25):
        f = random_kernel(sh, sh, rng)
        g = random_kernel(sh, sh, rng)
        h = random_kernel(sh, sh, rng)
        assert kernel_eq(kernel_compose(kernel_compose(f, g), h),
                         kernel_compose(f, kernel_compose(g, h)))
        assert kernel_eq(kernel_compose(identity_kernel(sh), f), f)
        assert kernel_eq(kernel_compose(f, identity_kernel(sh)), f)


def test_rewire_projection_and_swap():
    sh = (IntRange(0, 1), BOOL)
    proj = rewire(sh, (1,))
    assert proj.dist((0, True)) == dirac((True,))
    s = swap((IntRange(0, 1),), (BOOL,))
    assert s.dist((1, False)) == dirac((False, 1))


# ---------------------------------------------------------------------------
# comonoid structure
# ---------------------------------------------------------------------------

def test_copy_discard_tables():
    sh = (IntRange(0, 1),)
    assert copy(sh).dist((1,)) == dirac((1, 1))
    assert discard(sh).dist((1,)) == dirac(())


def test_comonoid_laws():
    sh = (IntRange(0, 2), BOOL)
    cp = copy(sh)
    n = len(sh)
    # counitality: copy then discard either side = id
    left = kernel_compose(cp, kernel_tensor(discard(sh), identity_kernel(sh)))
    right = kernel_compose(cp, kernel_tensor(identity_kernel(sh), discard(sh)))
    assert kernel_eq(left, identity_kernel(sh))
    assert kernel_eq(right, identity_kernel(sh))
    # coassociativity
    assert kernel_eq(kernel_compose(cp, kernel_tensor(cp, identity_kernel(sh))),
                     kernel_compose(cp, kernel_tensor(identity_kernel(sh), cp)))
    # cocommutativity
    assert kernel_eq(kernel_compose(cp, swap(sh, sh)), cp)


def test_discard_is_natural_for_every_kernel():
    rng = random.Random(11)
    sh = (IntRange(0, 2),)
    for _ in range(50):
        f = random_kernel(sh, (BOOL, IntRange(0, 1)), rng)
        assert kernel_eq(kernel_compose(f, discard(f.out_shape)),
                         discard(sh))


def test_copy_not_natural_for_fair_coin():
    sh = (IntRange(0, 1),)
    lhs = kernel_compose(COIN, copy(sh))
    rhs = kernel_compose(copy(()), kernel_tensor(COIN, COIN))
    assert lhs.dist(()) == Dist({(0, 0): F(1, 2), (1, 1): F(1, 2)})
    assert rhs.dist(()) == Dist({(a, b): F(1, 4)
                                 for a in (0, 1) for b in (0, 1)})
    assert not kernel_eq(lhs, rhs)


def test_copy_is_natural_for_deterministic_kernels():
    rng = random.Random(13)
    a = (IntRange(0, 2),)
    b = (BOOL, IntRange(0, 1))
    for _ in range(50):
        f = random_kernel(a, b, rng, deterministic=True)
        assert kernel_eq(kernel_compose(f, copy(b)),
                         kernel_compose(copy(a), kernel_tensor(f, f)))


# ---------------------------------------------------------------------------
# conditionals
# ---------------------------------------------------------------------------

def test_conditional_of_dirac_pair():
    sh = (IntRange(0, 3),)
    f = det_kernel(sh, sh + sh, lambda r: (r[0], (r[0] + 1) % 4))
    f_x, c_f = conditional(f, 1)
    assert kernel_eq(f_x, identity_kernel(sh))
    for a in range(4):
        assert c_f.dist((a, a)) == dirac(((a + 1) % 4,))


def test_conditional_ignores_x_for_independent_outputs():
    sh = (IntRange(0, 1),)
    f = kernel_compose(copy(()), kernel_tensor(COIN, COIN))
    _, c_f = conditional(f, 1)
    for x in (0, 1):
        assert c_f.dist((x,)) == Dist({(0,): F(1, 2), (1,): F(1, 2)})


def test_conditional_reconstruction_on_random_kernels():
    rng = random.Random(17)
    a = (IntRange(0, 1),)
    out = (IntRange(0, 1), BOOL)
    for _ in range(100):
        f = random_kernel(a, out, rng)
        f_x, c_f = conditional(f, 1)
        assert kernel_eq(triangle(f_x, c_f), f)


def test_conditional_with_empty_y_block():
    f = COIN
    f_x, c_f = conditional(f, 1)
    assert kernel_eq(f_x, f)
    assert c_f.dist((0,)) == dirac(())


# ---------------------------------------------------------------------------
# ranges
# ---------------------------------------------------------------------------

def test_range_is_identity_for_total_support():
    f = dist_source(uniform([0, 1]), IntRange(0, 1))
    r = range_kernel(f)
    assert kernel_eq(r, identity_kernel(f.in_shape + f.out_shape))


def test_range_of_dirac_rewrites_off_graph_pairs():
    sh = (IntRange(0, 2),)
    f = det_kernel(sh, sh, lambda r: ((r[0] + 1) % 3,))
    r = range_kernel(f)
    for a in range(3):
        for b in range(3):
            expect = (a, b) if b == (a + 1) % 3 else (a, (a + 1) % 3)
            assert r.dist((a, b)) == dirac(expect)


def _range_laws_hold(f, rng):
    a_sh, b_sh = f.in_shape, f.out_shape
    r = range_kernel(f)
    both = a_sh + b_sh

    # (1) composing with the range does not change the graph of f
    graph = triangle(f, swap(b_sh, a_sh))
    fixed = triangle(f, kernel_compose(swap(b_sh, a_sh), r))
    if not kernel_eq(graph, fixed):
        return False

    # (2) determinism of r as an equation
    det = kernel_eq(kernel_compose(r, copy(both)),
                    kernel_compose(copy(both), kernel_tensor(r, r)))
    if not det:
        return False

    # (3) r cancels disagreements outside the support of f
    y_sh = (IntRange(0, 1),)
    y_rows = list(enumerate_rows(y_sh))
    g = random_kernel(both, y_sh, rng)
    h_table = {row: g.dist(row) for row in enumerate_rows(both)}
    for row in enumerate_rows(both):
        a, b = row[:len(a_sh)], row[len(a_sh):]
        if f.dist(a)[b] == 0:
            h_table[row] = random_dist(y_rows, rng)
    h = Kernel(both, y_sh, lambda row: h_table[row])
    premise = kernel_eq(triangle(f, kernel_compose(swap(b_sh, a_sh), g)),
                        triangle(f, kernel_compose(swap(b_sh, a_sh), h)))
    conclusion = kernel_eq(kernel_compose(r, g), kernel_compose(r, h))
    return premise and conclusion


def test_range_laws_on_random_kernels():
    rng = random.Random(19)
    a = (IntRange(0, 1),)
    b = (IntRange(0, 2),)
    for _ in range(100):
        f = random_kernel(a, b, rng, max_support=2)
        assert _range_laws_hold(f, rng)


# ---------------------------------------------------------------------------
# triangle
# ---------------------------------------------------------------------------

def test_triangle_marginal_recovers_f():
    rng = random.Random(23)
    a = (IntRange(0, 1),)
    x = (IntRange(0, 2),)
    y = (BOOL,)
    for _ in range(25):
        f = random_kernel(a, x, rng)
        g = random_kernel(x + a, y, rng)
        t = triangle(f, g)
        assert t.in_shape == a and t.out_shape == x + y
        # discarding Y recovers f
        marg = kernel_compose(t, kernel_tensor(identity_kernel(x), discard(y)))
        assert kernel_eq(marg, f)


def test_triangle_associative_up_to_permutation():
    rng = random.Random(29)
    a = (IntRange(0, 1),)
    x = (IntRange(0, 1),)
    y = (BOOL,)
    z = (IntRange(0, 2),)
    for _ in range(25):
        f = random_kernel(a, x, rng)
        g = random_kernel(x + a, y, rng)
        h = random_kernel(y + x + a, z, rng)
        # (f ◁ g) ◁ h, reordering (x,y,a) -> (y,x,a) to feed h
        lhs = triangle(triangle(f, g),
                       kernel_compose(rewire(x + y + a, (1, 0, 2)), h))
        # f ◁ (g ◁ h)
        rhs = triangle(f, triangle(g, h))
        assert kernel_eq(lhs, rhs)


def fresh_units(k):
    """``k`` with every unit mass replaced by a fresh ``Fraction(3, 3)``."""
    def rule(row):
        return Dist({v: F(3, 3) if q == 1 else q for v, q in k.dist(row).pairs()})
    return Kernel(k.in_shape, k.out_shape, rule)


def kernel_variants(a, b, rng):
    """A stochastic kernel, a Dirac kernel built on ONE, and a Dirac kernel
    whose unit masses are equal to ONE but other objects."""
    return (random_kernel(a, b, rng),
            random_kernel(a, b, rng, deterministic=True),
            fresh_units(random_kernel(a, b, rng, deterministic=True)))


def ref_table(k, rule):
    """``rule(row, out)`` fills ``out`` with plain Fraction accumulation."""
    ref = {}
    for row in enumerate_rows(k.in_shape):
        out = {}
        rule(row, out)
        ref[row] = out
    return ref


def exact_table(k):
    got = {row: dict(k.dist(row).pairs()) for row in enumerate_rows(k.in_shape)}
    assert all(type(q) is Fraction for t in got.values() for q in t.values())
    return got


def test_product_rules_match_fraction_reference():
    assert F(3, 3) == ONE and F(3, 3) is not ONE
    rng = random.Random(37)
    a, x, y = (IntRange(0, 1),), (IntRange(0, 2),), (BOOL, IntRange(0, 1))
    for _ in range(6):
        for f in kernel_variants(a, x, rng):
            for g in kernel_variants(x, y, rng):
                def compose(row, out, f=f, g=g):
                    for u, p in f.dist(row).pairs():
                        for z, q in g.dist(u).pairs():
                            out[z] = out.get(z, F(0)) + p * q

                def tensor(row, out, f=f, g=g):
                    for u, p in f.dist(row[:1]).pairs():
                        for z, q in g.dist(row[1:]).pairs():
                            out[u + z] = out.get(u + z, F(0)) + p * q

                k = kernel_compose(f, g)
                assert exact_table(k) == ref_table(k, compose)
                k = kernel_tensor(f, g)
                assert exact_table(k) == ref_table(k, tensor)
            for g in kernel_variants(x + a, y, rng):
                def tri(row, out, f=f, g=g):
                    for u, p in f.dist(row).pairs():
                        for z, q in g.dist(u + row).pairs():
                            out[u + z] = out.get(u + z, F(0)) + p * q

                k = triangle(f, g)
                assert exact_table(k) == ref_table(k, tri)
    # Dirac after Dirac passes the shared unit mass through untouched
    f, g = (random_kernel(s, t, rng, deterministic=True)
            for s, t in ((a, x), (x, y)))
    fg = kernel_compose(f, g)
    for row in enumerate_rows(a):
        (q,) = [q for _, q in fg.dist(row).pairs()]
        assert q is ONE


def test_triangle_shape_mismatch():
    f = COIN
    g = identity_kernel((BOOL,))
    with pytest.raises(ShapeMismatch):
        triangle(f, g)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_inverse_cdf():
    assert sample(dirac(5), F(0)) == 5
    assert sample(dirac(5), F(99, 100)) == 5
    d = uniform([-1, 1])
    assert sample(d, F(0)) == -1
    assert sample(d, F(49, 100)) == -1
    assert sample(d, F(1, 2)) == 1
    assert sample(d, F(99, 100)) == 1


def reference_sample(d, u):
    """The draw as a plain walk: the support in canonical order, a Fraction
    running sum, and the first value with ``u`` below it."""
    acc = F(0)
    vs = sorted(d.pairs(), key=lambda vq: value_key(vq[0]))
    for v, q in vs:
        acc += q
        if u < acc:
            return v
    return vs[-1][0]


def mixed_dist(rng):
    """1 to 50 int or tuple atoms whose masses have mixed denominators,
    some of them far above 2**64."""
    n = rng.randint(1, 50)
    if rng.random() < 0.5:
        vs = rng.sample(range(-60, 60), n)
    else:
        vs = rng.sample([(a, b) for a in range(-5, 5)
                         for b in (None, False, True, (1,), (0, 2))], n)
    ws = [F(rng.randint(1, 9), rng.choice((1, 2, 3, 7, 64, 3 ** 50, 2 ** 70)))
          for _ in vs]
    total = sum(ws)
    return Dist({v: w / total for v, w in zip(vs, ws)})


def test_sample_matches_the_fraction_walk():
    rng = random.Random(2024)
    tiny = F(1, 2 ** 64)
    for _ in range(120):
        d = mixed_dist(rng)
        acc, bounds = F(0), []
        for _, q in sorted(d.pairs(), key=lambda vq: value_key(vq[0])):
            acc += q
            bounds.append(acc)
        vs, cum, den = d.cdf()
        assert list(vs) == d.support() and cum[-1] == den
        us = [F(0), 1 - tiny, F(1), 0, 1, -1, 2, 0.5, 0.999999, -0.25,
              rng.random(), float("inf"), float("-inf")]
        us += bounds + [b - tiny for b in bounds]
        for u in us:
            assert sample(d, u) == reference_sample(d, u), (d, u)
        for k in [0, 2 ** 64 - 1] + [rng.getrandbits(64) for _ in range(50)]:
            assert sample_bits(d, k) == sample(d, F(k, 2 ** 64)), (d, k)


def test_sample_fair_coin_frequency():
    rng = random.Random(31)
    d = uniform([0, 1])
    n = 10_000
    ones = sum(sample(d, F(rng.getrandbits(53), 2**53)) for _ in range(n))
    # 5 sigma around n/2 with sigma = sqrt(n)/2
    assert abs(ones - n / 2) <= 5 * (n ** 0.5) / 2
