"""End-to-end acceptance suite: one test per shipped guarantee.

Each test is self-contained, uses independently coded oracles where a
numeric answer is checked, and carries its stated wall-clock budget where
one applies.  Random instances are seeded, so every run checks the same
instances.

Law-suite tests draw random terms and compare exact behaviors at a
horizon; draws whose exact observation would exceed a small state cap are
skipped and redrawn (the count of verified instances is asserted, so the
suite never passes by skipping).
"""

import itertools
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from mstream import (
    BOOL,
    CausalityError,
    DelayTerm,
    Dist,
    Fbk,
    Gen,
    Id,
    IntRange,
    Signature,
    StateCapExceeded,
    WireType,
    check_causality,
    compile_term,
    conditional,
    copy,
    default_signature,
    dirac,
    discard,
    elaborate,
    finite_signature,
    is_stochastic,
    kernel_compose,
    kernel_eq,
    kernel_tensor,
    marginalize,
    mix,
    obs_equal,
    observe,
    observe_marginals,
    par_term,
    parse,
    pretty_program,
    range_kernel,
    run_det,
    sample_trace,
    seq_term,
    swap,
    triangle,
    uniform,
)
from mstream.cli import main as cli_main
from mstream.kernel import (
    Kernel,
    dist_source,
    enumerate_rows,
    identity_kernel,
    random_dist,
    random_kernel,
)
from mstream.sfg_ir import GenSpec, random_term_of_type, shift_wires

F = Fraction
PROGRAMS = Path(__file__).resolve().parent.parent / "programs"
SIG = default_signature()
FIN = finite_signature()
I3 = IntRange(0, 2)


def build(name, main=None):
    src = (PROGRAMS / name).read_text()
    return compile_term(elaborate(parse(src), main), SIG)


def draw_until(n, instance, max_attempts_factor=10):
    """Run ``instance(rng)`` on fresh seeded rngs until n checks verified.

    ``instance`` returns True (law held), False (law failed) or None
    (observation over the cap; skipped).  Returns the number of verified
    stochastic instances.
    """
    verified = stochastic = attempts = i = 0
    while verified < n:
        attempts += 1
        assert attempts <= max_attempts_factor * n, \
            f"only {verified}/{n} instances fit under the state cap"
        rng = random.Random(mix(0xACCE97, i))
        i += 1
        result = instance(rng)
        if result is None:
            continue
        assert result is not False, f"law failed on seeded instance {i - 1}"
        verified += 1
        if result == "stochastic":
            stochastic += 1
    return stochastic


def capped_obs_equal(a, b, sig, horizon=5, cap=30_000):
    try:
        fa, fb = compile_term(a, sig), compile_term(b, sig)
        return obs_equal(fa, fb, horizon, cap=cap)
    except StateCapExceeded:
        return None


def tagged(ok, term, sig):
    """Fold the stochasticity of the instance into draw_until's result."""
    if ok is not True:
        return ok
    return "stochastic" if is_stochastic(term, sig) else True


def rand_wire(rng, max_delay=1):
    return WireType(rng.choice((BOOL, I3)), rng.randrange(max_delay + 1))


def rand_wires(rng, lo, hi, max_delay=1):
    return tuple(rand_wire(rng, max_delay)
                 for _ in range(rng.randint(lo, hi)))


def bool_wires(rng, lo, hi, max_delay=1):
    """Narrow wires for positions that multiply input enumeration."""
    return tuple(WireType(BOOL, rng.randrange(max_delay + 1))
                 for _ in range(rng.randint(lo, hi)))


# ---------------------------------------------------------------------------
# 1. Fibonacci end to end
# ---------------------------------------------------------------------------

def test_01_fibonacci_trace(capsys):
    t0 = time.perf_counter()
    code = cli_main(["run", str(PROGRAMS / "fib.ms"), "--steps", "9"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 0
    import json
    vals = [json.loads(line)["out"][0] for line in out.splitlines()]
    assert vals == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 2. Random-walk exact marginals vs brute-force oracle
# ---------------------------------------------------------------------------

def walk_oracle(t):
    """Distribution of a sum of t independent +/-1 steps, by enumeration."""
    acc = {}
    for steps in itertools.product((-1, 1), repeat=t):
        v = (sum(steps),)
        acc[v] = acc.get(v, F(0)) + F(1, 2 ** t)
    return Dist(acc)


def test_02_walk_exact_marginals():
    t0 = time.perf_counter()
    ms = observe_marginals(build("walk.ms"), 3)
    assert ms[1] == walk_oracle(1)
    assert ms[2] == walk_oracle(2)
    assert ms[3] == walk_oracle(3)
    assert ms[2] == Dist({(-2,): F(1, 4), (0,): F(1, 2), (2,): F(1, 4)})
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 3. Ehrenfest occupancy vs transition-matrix oracle
# ---------------------------------------------------------------------------

def ehrenfest_oracle(k):
    """Urn-1 occupancy after k moves: 5-state chain, matrix power."""
    p = [[F(0)] * 5 for _ in range(5)]
    for s in range(5):
        if s > 0:
            p[s][s - 1] = F(s, 4)
        if s < 4:
            p[s][s + 1] = F(4 - s, 4)
    row = [F(0)] * 4 + [F(1)]
    for _ in range(k):
        row = [sum(row[s] * p[s][j] for s in range(5)) for j in range(5)]
    return Dist({(j,): q for j, q in enumerate(row) if q})


def test_03_ehrenfest_occupancy():
    t0 = time.perf_counter()
    ms = observe_marginals(build("ehrenfest.ms"), 6)
    for k in range(1, 7):
        assert ms[k] == ehrenfest_oracle(k), f"after {k} moves"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 4. Feedback axioms on random terms
# ---------------------------------------------------------------------------

def tightening(rng):
    s = (rand_wire(rng),)
    x, y = rand_wires(rng, 0, 1), rand_wires(rng, 1, 2)
    x2, y2 = rand_wires(rng, 0, 1), rand_wires(rng, 1, 1)
    f = random_term_of_type(rng, FIN, shift_wires(s) + x, s + y, 7)
    g = random_term_of_type(rng, FIN, x2, x, 4)
    h = random_term_of_type(rng, FIN, y, y2, 4)
    lhs = Fbk(s, seq_term(par_term(Id(shift_wires(s)), g), f,
                          par_term(Id(s), h)))
    rhs = seq_term(g, Fbk(s, f), h)
    return tagged(capped_obs_equal(lhs, rhs, FIN), lhs, FIN)


def vanishing(rng):
    x, y = rand_wires(rng, 0, 1), rand_wires(rng, 1, 2)
    f = random_term_of_type(rng, FIN, x, y, 8)
    return tagged(capped_obs_equal(Fbk((), f), f, FIN), f, FIN)


def joining(rng):
    t, s = (rand_wire(rng),), (rand_wire(rng),)
    x, y = rand_wires(rng, 0, 1), rand_wires(rng, 1, 1)
    g = random_term_of_type(
        rng, FIN, shift_wires(t) + shift_wires(s) + x, t + s + y, 9)
    lhs = Fbk(s, Fbk(t, g))
    rhs = Fbk(t + s, g)
    return tagged(capped_obs_equal(lhs, rhs, FIN), lhs, FIN)


def strength(rng):
    s = (rand_wire(rng),)
    x, y = bool_wires(rng, 0, 1), rand_wires(rng, 1, 1)
    z, w = bool_wires(rng, 0, 1), rand_wires(rng, 1, 1)
    f = random_term_of_type(rng, FIN, shift_wires(s) + x, s + y, 6)
    g = random_term_of_type(rng, FIN, z, w, 4)
    lhs = par_term(Fbk(s, f), g)
    rhs = Fbk(s, par_term(f, g))
    return tagged(capped_obs_equal(lhs, rhs, FIN), lhs, FIN)


def sliding(rng):
    d = rng.randrange(2)
    tb, sb = (rng.choice((BOOL, I3)),), (rng.choice((BOOL, I3)),)
    det = rng.random() < 0.5
    h_kernel = random_kernel(tb, sb, rng, deterministic=det)
    sig = Signature(gens=list(FIN.gens.values())
                    + [GenSpec("slid", h_kernel, stochastic=not det)])
    tw = (WireType(tb[0], d),)
    sw = (WireType(sb[0], d),)
    x, y = rand_wires(rng, 0, 1), rand_wires(rng, 1, 1)
    f = random_term_of_type(rng, sig, shift_wires(sw) + x, tw + y, 7)
    h = Gen("slid", d)
    lhs = Fbk(sw, seq_term(f, par_term(h, Id(y))))
    rhs = Fbk(tw, seq_term(par_term(DelayTerm(h), Id(x)), f))
    return tagged(capped_obs_equal(lhs, rhs, sig), lhs, sig)


def test_04_feedback_axioms():
    t0 = time.perf_counter()
    law_secs = []
    for law in (tightening, vanishing, joining, strength, sliding):
        t_law = time.perf_counter()
        stoch = draw_until(200, law)
        law_secs.append(f"{law.__name__} {time.perf_counter() - t_law:.1f}s")
        assert stoch >= 50, f"{law.__name__}: too few stochastic instances"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"took {elapsed:.1f}s ({', '.join(law_secs)})"


# ---------------------------------------------------------------------------
# 5. Monoidal laws of composition
# ---------------------------------------------------------------------------

def seq_assoc(rng):
    a, b = rand_wires(rng, 0, 1), rand_wires(rng, 1, 2)
    c, d = rand_wires(rng, 1, 2), rand_wires(rng, 1, 2)
    f = random_term_of_type(rng, FIN, a, b, 5)
    g = random_term_of_type(rng, FIN, b, c, 5)
    h = random_term_of_type(rng, FIN, c, d, 5)
    return capped_obs_equal(seq_term(f, seq_term(g, h)),
                            seq_term(seq_term(f, g), h), FIN)


def seq_unital(rng):
    a, b = rand_wires(rng, 0, 1), rand_wires(rng, 1, 2)
    f = random_term_of_type(rng, FIN, a, b, 6)
    left = capped_obs_equal(seq_term(Id(a), f) if a else f, f, FIN)
    right = capped_obs_equal(seq_term(f, Id(b)), f, FIN)
    if left is None or right is None:
        return None
    return left and right


def interchange(rng):
    a, b = bool_wires(rng, 0, 1), bool_wires(rng, 0, 1)
    e = rand_wires(rng, 0, 1)
    c, d, w = (rand_wires(rng, 1, 1) for _ in range(3))
    f = random_term_of_type(rng, FIN, a, c, 4)
    g = random_term_of_type(rng, FIN, b, d, 4)
    h = random_term_of_type(rng, FIN, c, e, 4)
    k = random_term_of_type(rng, FIN, d, w, 4)
    return capped_obs_equal(
        seq_term(par_term(f, g), par_term(h, k)),
        par_term(seq_term(f, h), seq_term(g, k)), FIN)


def delay_functorial(rng):
    a, b = bool_wires(rng, 0, 1), bool_wires(rng, 1, 1)
    c = rand_wires(rng, 1, 1)
    f = random_term_of_type(rng, FIN, a, b, 5)
    g = random_term_of_type(rng, FIN, b, c, 5)
    both = capped_obs_equal(DelayTerm(seq_term(f, g)),
                            seq_term(DelayTerm(f), DelayTerm(g)), FIN)
    tensor = capped_obs_equal(DelayTerm(par_term(f, g)),
                              par_term(DelayTerm(f), DelayTerm(g)), FIN)
    if both is None or tensor is None:
        return None
    return both and tensor


def test_05_monoidal_laws():
    total = 0
    for law, n in ((seq_assoc, 60), (seq_unital, 60),
                   (interchange, 70), (delay_functorial, 60)):
        draw_until(n, law)
        total += n
    assert total >= 200


# ---------------------------------------------------------------------------
# 6. Markov-kernel laws
# ---------------------------------------------------------------------------

KSHAPES = ((IntRange(0, 1),), (IntRange(0, 3),), (BOOL,),
           (BOOL, IntRange(0, 1)))


def range_laws_hold(f, rng):
    a_sh, b_sh = f.in_shape, f.out_shape
    r = range_kernel(f)
    both = a_sh + b_sh
    graph = triangle(f, swap(b_sh, a_sh))
    fixed = triangle(f, kernel_compose(swap(b_sh, a_sh), r))
    if not kernel_eq(graph, fixed):
        return False
    if not kernel_eq(kernel_compose(r, copy(both)),
                     kernel_compose(copy(both), kernel_tensor(r, r))):
        return False
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


def comonoid_laws_hold(sh):
    cp, dc, idk = copy(sh), discard(sh), identity_kernel(sh)
    coassoc = kernel_eq(kernel_compose(cp, kernel_tensor(cp, idk)),
                        kernel_compose(cp, kernel_tensor(idk, cp)))
    cocomm = kernel_eq(kernel_compose(cp, swap(sh, sh)), cp)
    counit = kernel_eq(kernel_compose(cp, kernel_tensor(idk, dc)), idk)
    return coassoc and cocomm and counit


def test_06_markov_kernel_laws():
    rng = random.Random(0xD15C)
    for i in range(100):
        a = rng.choice(KSHAPES)
        x, y = rng.choice(KSHAPES[:3]), rng.choice(KSHAPES[:3])
        joint = random_kernel(a, x + y, rng, max_support=4)
        assert kernel_eq(kernel_compose(joint, discard(x + y)), discard(a)), \
            f"discard naturality, instance {i}"
        f_y, c_f = conditional(joint, len(x))
        assert kernel_eq(triangle(f_y, c_f), joint), \
            f"conditional reconstruction, instance {i}"
        f = random_kernel(a, x, rng, max_support=4)
        assert range_laws_hold(f, rng), f"range laws, instance {i}"
        assert comonoid_laws_hold(a), f"comonoid laws, instance {i}"


# ---------------------------------------------------------------------------
# 7. Copy is not natural for the coin, but is for deterministic kernels
# ---------------------------------------------------------------------------

def test_07_copy_nonnatural_witness():
    b = (IntRange(0, 1),)
    coin = dist_source(uniform([0, 1]), b[0])
    through_copy = kernel_compose(coin, copy(b))
    two_coins = kernel_tensor(coin, coin)
    assert through_copy.dist(()) == Dist({(0, 0): F(1, 2), (1, 1): F(1, 2)})
    assert two_coins.dist(()) == Dist({(0, 0): F(1, 4), (0, 1): F(1, 4),
                                       (1, 0): F(1, 4), (1, 1): F(1, 4)})
    assert not kernel_eq(through_copy, two_coins)

    rng = random.Random(0xD37)
    for i in range(100):
        a, b = rng.choice(KSHAPES), rng.choice(KSHAPES)
        f = random_kernel(a, b, rng, deterministic=True)
        assert kernel_eq(kernel_compose(f, copy(b)),
                         kernel_compose(copy(a), kernel_tensor(f, f))), \
            f"deterministic copy naturality, instance {i}"


# ---------------------------------------------------------------------------
# 8. Longer observations marginalize to shorter ones
# ---------------------------------------------------------------------------

def truncation_marginalizes(rng):
    y = rand_wires(rng, 1, 2)
    term = random_term_of_type(rng, FIN, (), y, rng.randint(4, 8))
    if not is_stochastic(term, FIN):
        return None
    stream = compile_term(term, FIN)
    try:
        obs = [observe(stream, n, cap=50_000) for n in range(5)]
    except StateCapExceeded:
        return None
    for n in range(4):
        keep = range(sum(len(sh) for sh in obs[n + 1].out_shapes[:n + 1]))
        if marginalize(obs[n + 1].dist(()), keep) != obs[n].dist(()):
            return False
    return True


def test_08_truncation_marginalization():
    draw_until(100, truncation_marginalizes, max_attempts_factor=20)


# ---------------------------------------------------------------------------
# 9. The evaluators agree with exact observation
# ---------------------------------------------------------------------------

DET_SIG = Signature(gens=[g for g in finite_signature().gens.values()
                          if not g.stochastic])


def det_run_matches_observe(rng):
    x = rand_wires(rng, 0, 1)
    y = rand_wires(rng, 1, 2)
    term = random_term_of_type(rng, DET_SIG, x, y, rng.randint(4, 8))
    stream = compile_term(term, DET_SIG)
    inputs = [rng.choice(list(enumerate_rows(stream.in_seq.at(t))))
              for t in range(6)]
    trace = run_det(stream, inputs, 5)
    try:
        obs = observe(stream, 5, cap=50_000)
    except StateCapExceeded:
        return None
    d = obs.dist(sum(inputs, ()))
    return d == dirac(sum((tuple(row) for row in trace), ()))


def test_09_evaluator_agreement():
    draw_until(100, det_run_matches_observe)

    # sampled tick-marginals of the walk stay within 5 sigma of exact
    stream = build("walk.ms")
    exact = observe_marginals(stream, 3)
    n = 10_000
    counts = [dict() for _ in range(4)]
    for i in range(n):
        trace = sample_trace(stream, None, 3, mix(0x5A11, i))
        for t, row in enumerate(trace):
            counts[t][row] = counts[t].get(row, 0) + 1
    for t in range(4):
        for row, p in exact[t].items():
            emp = counts[t].get(row, 0) / n
            pf = float(p)
            sigma = math.sqrt(pf * (1 - pf) / n)
            assert abs(emp - pf) <= 5 * sigma + 1e-12, \
                f"tick {t}, outcome {row}: {emp} vs {pf}"


# ---------------------------------------------------------------------------
# 10. Surface language front end
# ---------------------------------------------------------------------------

def test_10_surface_language():
    fib = build("fib.ms")
    assert [r[0] for r in run_det(fib, None, 6)] == [0, 1, 1, 2, 3, 5, 8]

    walk = build("walk.ms")
    trace = sample_trace(walk, None, 8, 7)
    assert trace[0] == (0,)
    assert all(b[0] - a[0] in (-1, 1) for a, b in zip(trace, trace[1:]))

    ehr = build("ehrenfest.ms")
    trace = sample_trace(ehr, None, 8, 7)
    assert trace[0] == (4,)
    assert all(0 <= r[0] <= 4 for r in trace)

    with pytest.raises(CausalityError):
        check_causality(parse("x = x + 1\n"))

    for path in sorted(PROGRAMS.glob("*.ms")):
        prog = parse(path.read_text())
        assert parse(pretty_program(prog)) == prog, path.name
