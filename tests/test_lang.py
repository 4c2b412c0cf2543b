import random
import sys
import time
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate
from pathlib import Path

import pytest

from mstream.errors import (
    CausalityError,
    ElaborationError,
    ParseError,
    TermTypeError,
)
from mstream.kernel import BOOL, CACHE_ROWS, INT, Dist, IntRange, det_kernel
from mstream.lang import (
    Analysis,
    BinOp,
    Ident,
    InputDecl,
    IntLit,
    Neg,
    Paren,
    Program,
    TupleExpr,
    UnifCall,
    WaitCall,
    check_causality,
    elaborate,
    parse,
    pretty_expr,
    pretty_program,
)
from mstream.sfg_ir import (
    Copy,
    Discard,
    GenSpec,
    Id,
    Sym,
    WireType,
    compile as compile_term,
    default_signature,
    fold,
    infer_type,
    read_term,
)
from mstream.stream_core import observe_marginals, run_det, sample_trace
from scaling import assert_doubling_at_most, nest, stateful_chain

F = Fraction
SIG = default_signature()
PROGRAMS = Path(__file__).resolve().parent.parent / "programs"

FIB_SRC = "fib = 0 fby (fib + (1 fby wait(fib)))\n"
WALK_SRC = "walk = 0 fby (unif(-1, 1) + walk)\n"
EHRENFEST_SRC = """\
-- four balls, two urns; each tick one uniformly chosen ball hops over
u = unif(0, 1)
v = unif(0, 1)
b1 = 1 fby (b1 + (1 - 2*b1) * ((1-u) * (1-v)))
b2 = 1 fby (b2 + (1 - 2*b2) * ((1-u) * v))
b3 = 1 fby (b3 + (1 - 2*b3) * (u * (1-v)))
b4 = 1 fby (b4 + (1 - 2*b4) * (u * v))
main = b1 + b2 + b3 + b4
"""


def build(src, main=None):
    return compile_term(elaborate(parse(src), main), SIG)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_fib_tree():
    p = parse(FIB_SRC)
    want = BinOp(
        "fby",
        IntLit(0),
        Paren(BinOp(
            "+",
            Ident("fib"),
            Paren(BinOp("fby", IntLit(1), WaitCall(Ident("fib")))),
        )),
    )
    assert p.defs[0].expr == want
    assert p.main == "fib"


def test_parse_precedence():
    e = parse("y = 1 + 2 * 3 fby -4 - 5\n").defs[0].expr
    want = BinOp("fby",
                 BinOp("+", IntLit(1), BinOp("*", IntLit(2), IntLit(3))),
                 BinOp("-", Neg(IntLit(4)), IntLit(5)))
    assert e == want


def test_fby_right_associative():
    e = parse("y = 1 fby 2 fby 3\n").defs[0].expr
    assert e == BinOp("fby", IntLit(1), BinOp("fby", IntLit(2), IntLit(3)))


def test_parse_inputs_and_positions():
    p = parse("input x : int\ninput b : bool@1\ny = x\n")
    assert p.inputs == (InputDecl("x", WireType(INT, 0)),
                        InputDecl("b", WireType(BOOL, 1)))
    assert p.defs[0].pos == (3, 1)
    assert p.defs[0].expr.pos == (3, 5)


def test_parse_unif_forms():
    vals = lambda s: parse(f"y = {s}\n").defs[0].expr.values()
    assert vals("unif(-1, 1)") == (-1, 1)
    assert vals("unif{3, 1, 2}") == (1, 2, 3)
    assert vals("unif(0..3)") == (0, 1, 2, 3)
    assert vals("unif(5)") == (5,)


def test_parse_errors():
    cases = [
        "x = 1 +\n",            # dangling operator
        "x = \n",
        "x = y\n",              # undefined
        "x = 1\nx = 2\n",       # duplicate
        "input x : int\nx = 1\n",
        "fby = 1\n",            # reserved
        "x = wait 1\n",
        "x = unif()\n",
        "x = unif(3..1)\n",
        "input x : float\ny = 1\n",
        "",                      # no definitions
        "x = 1 ? 2\n",
        "input x : {1,1}\nmain = x\n",    # repeated set value
        "input x : int[2..1]\nmain = x\n",  # empty range
        "input x : int@-1\nmain = x\n",    # negative delay
    ]
    for src in cases:
        with pytest.raises(ParseError):
            parse(src)


def test_long_integer_literals():
    before = sys.get_int_max_str_digits()
    big = "9" * 5000
    assert parse("main = " + big).defs[0].expr == IntLit(10 ** 5000 - 1)
    assert read_term("unif{" + big + "}@0").args == (10 ** 5000 - 1,)
    assert sys.get_int_max_str_digits() == before


def test_parse_error_position():
    with pytest.raises(ParseError) as e:
        parse("y = 1\nx = 1 +\n")
    assert e.value.line == 2


def test_comments_and_semicolons():
    p = parse("a = 1; b = a -- trailing words\n-- full line\nmain = b\n")
    assert [d.name for d in p.defs] == ["a", "b", "main"]
    assert p.main == "main"


def test_newline_inside_parens():
    p = parse("y = (1 +\n     2)\n")
    assert p.defs[0].expr == Paren(BinOp("+", IntLit(1), IntLit(2)))


def test_round_trip_bundled_programs():
    for src in (FIB_SRC, WALK_SRC, EHRENFEST_SRC):
        p = parse(src)
        assert parse(pretty_program(p)) == p


def test_round_trip_tricky():
    for src in ("y = a - -b\n", "y = -(a + b) * c\n", "y = (1, (2, 3))\n",
                "y = 1 fby (2 fby 3) + 4\n", "y = wait((a))\n"):
        full = "a = 1\nb = 2\nc = 3\n" + src
        p = parse(full)
        assert parse(pretty_program(p)) == p


def test_chained_negation_prints_without_brackets():
    src = "main = " + "- " * 300 + "1\n"
    assert pretty_program(parse(src)) == "main = " + "- " * 299 + "-1\n"
    assert parse(pretty_program(parse(src))) == parse(src)
    for src in ("main = 3 - -1\n", "main = -(1 + 2)\n",
                "x = 1\nmain = -x\n"):
        assert pretty_program(parse(src)) == src


def test_parse_inverts_pretty_program_at_10000_deep_brackets():
    """Texts are compared: ``==`` on 10⁴-deep ASTs would recurse."""
    limit = sys.getrecursionlimit()
    n = 10 ** 4
    src = "\n".join([
        "a = " + "1 + (" * n + "1" + ")" * n,
        "b = " + "(" * n + "1" + " * 2)" * n,
        "c = " + "wait(" * n + "a" + ")" * n,
        "d = " + "(1, " * n + "1" + ")" * n,
        "e = " + "-(" * n + "1" + ")" * n,
        "main = " + "0 fby (" * n + "1" + ")" * n,
    ]) + "\n"
    text = pretty_program(parse(src))
    assert text == src
    assert pretty_program(parse(text)) == text
    assert sys.getrecursionlimit() == limit


def test_pretty_program_is_linear_in_nest_depth():
    n = 8 * 10 ** 4
    src = ("a = " + "1 + (" * n + "1" + ")" * n + "\n"
           + "main = " + "0 fby " * n + "a\n")
    p = parse(src)
    start = time.perf_counter()
    text = pretty_program(p)
    assert time.perf_counter() - start < 3
    assert text == src


def test_pretty_expr_inserts_needed_parens():
    e = BinOp("+", BinOp("fby", IntLit(1), IntLit(2)), IntLit(3))
    assert pretty_expr(e) == "(1 fby 2) + 3"
    assert parse("y = " + pretty_expr(e) + "\n").defs[0].expr == \
        BinOp("+", Paren(BinOp("fby", IntLit(1), IntLit(2))), IntLit(3))


# ---------------------------------------------------------------------------
# causality
# ---------------------------------------------------------------------------

def test_unguarded_self_reference_rejected():
    with pytest.raises(CausalityError) as e:
        check_causality(parse("x = x + 1\n"))
    assert "x" in str(e.value)


def test_fby_guards_cycle():
    an = check_causality(parse("a = 0 fby b\nb = a + 1\n"))
    assert an.sccs == (("a", "b"),)
    assert an.recursive == {"a", "b"}


def test_fib_accepted_with_demands():
    an = check_causality(parse(FIB_SRC))
    demands = sorted(o.demand for o in an.occurrences if o.name == "fib")
    assert demands == [1, 1]


def test_wait_alone_does_not_guard():
    with pytest.raises(CausalityError):
        check_causality(parse("x = 0 fby wait(x)\n"))
    with pytest.raises(CausalityError):
        check_causality(parse("y = wait(1)\n"))


def test_two_fbys_leave_one_explicit_delay():
    an = check_causality(parse("x = 0 fby (1 fby x)\n"))
    (occ,) = [o for o in an.occurrences if o.name == "x"]
    assert occ.demand == 2


def test_mutual_cycle_all_zero_rejected():
    with pytest.raises(CausalityError):
        check_causality(parse("a = b + 1\nb = a + 1\n"))


def test_input_before_declared_delay():
    with pytest.raises(CausalityError):
        check_causality(parse("input x : int@1\ny = x + 1\n"))
    check_causality(parse("input x : int@1\ny = 0 fby x\n"))


def test_scc_order_is_topological():
    an = check_causality(parse("a = b\nb = 1\nc = a\n"))
    assert an.sccs == (("b",), ("a",), ("c",))


def test_width_errors():
    with pytest.raises(TermTypeError):
        check_causality(parse("y = 1 + (2, 3)\n"))
    with pytest.raises(TermTypeError):
        check_causality(parse("y = 1 fby (2, 3)\n"))
    with pytest.raises(TermTypeError):
        check_causality(parse("p = (0, 0) fby p\n"))


def test_base_errors_name_the_definition():
    for src in ("input x : bool\ny = x + 1\n",
                "input x : {0,1}\ny = -x\n",
                "input x : {0,1}\ny = x fby 2\n",
                "input x : int[0..2]\ny = 0 fby x\n"):
        with pytest.raises(TermTypeError, match="in 'y'") as e:
            check_causality(parse(src))
        assert "(at " not in str(e.value)
    an = check_causality(parse("input x : bool\ny = (x fby x, 1)\n"))
    assert an.widths["y"] == 2


def delayed_ring(n):
    """One recursive SCC of n members: each adds 1 to the one before it,
    and the first delays the last."""
    return f"x0 = 0 fby x{n - 1}\n" + "".join(
        f"x{i} = x{i - 1} + 1\n" for i in range(1, n))


@pytest.mark.parametrize("program", [stateful_chain, delayed_ring])
def test_causality_is_linear_in_the_number_of_definitions(program):
    """Doubling the definitions at most about doubles the analysis: its
    minimum time at 4000 definitions is at most 2.5 times the one at
    2000."""
    assert_doubling_at_most({n: parse(program(n)) for n in (2000, 4000)},
                            [("causality", check_causality)])


@pytest.mark.parametrize("program, n", [(stateful_chain, 2000), (nest, 2500)])
def test_setup_is_linear_in_program_size(program, n):
    """Doubling a program at most about doubles each stage of its set-up:
    causality plus elaboration, compilation, and the first 4 ticks."""
    assert_doubling_at_most(
        {size: parse(program(size)) for size in (n, 2 * n)},
        [("elaborate", elaborate),
         ("compile", partial(compile_term, sig=SIG)),
         ("first 4 ticks", partial(run_det, n=3))])


# ---------------------------------------------------------------------------
# elaboration
# ---------------------------------------------------------------------------

def test_constant_definition():
    s = build("y = 1 + 2\n")
    assert run_det(s, n=3) == [(3,), (3,), (3,), (3,)]


def test_fib_runs():
    s = build(FIB_SRC)
    got = [r[0] for r in run_det(s, n=9)]
    assert got == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]


def test_walk_marginals():
    s = build(WALK_SRC)
    ms = observe_marginals(s, 3)
    assert ms[0] == Dist({(0,): F(1)})
    assert ms[1] == Dist({(-1,): F(1, 2), (1,): F(1, 2)})
    assert ms[2] == Dist({(-2,): F(1, 4), (0,): F(1, 2), (2,): F(1, 4)})
    assert ms[3] == Dist({(-3,): F(1, 8), (-1,): F(3, 8),
                          (1,): F(3, 8), (3,): F(1, 8)})


def ehrenfest_oracle(k):
    row = {4: F(1)}
    for _ in range(k):
        nxt = {}
        for s, p in row.items():
            if s > 0:
                nxt[s - 1] = nxt.get(s - 1, 0) + p * F(s, 4)
            if s < 4:
                nxt[s + 1] = nxt.get(s + 1, 0) + p * F(4 - s, 4)
        row = nxt
    return {(s,): p for s, p in row.items()}


def test_ehrenfest_occupancy():
    s = build(EHRENFEST_SRC)
    ms = observe_marginals(s, 3)
    for k in range(4):
        assert ms[k] == Dist(ehrenfest_oracle(k)), f"step {k}"


def test_elaborated_terms_typecheck():
    for src in (FIB_SRC, WALK_SRC, EHRENFEST_SRC,
                "a = 0 fby b\nb = a + 1\n",
                "input x : int\ny = x fby y * 2\n"):
        infer_type(elaborate(parse(src)), SIG)


def test_mutual_recursion_runs():
    s = build("a = 0 fby b\nb = a + 1\n")  # main = b
    assert [r[0] for r in run_det(s, n=4)] == [1, 2, 3, 4, 5]
    s2 = build("a = 0 fby b\nb = a + 1\n", main="a")
    assert [r[0] for r in run_det(s2, n=4)] == [0, 1, 2, 3, 4]


def test_open_program_with_input():
    s = build("input x : int\ny = 0 fby x\n")
    assert run_det(s, [(7,), (8,), (9,)]) == [(0,), (7,), (8,)]


def test_delayed_input():
    s = build("input x : int@1\ny = 0 fby x\n")
    assert run_det(s, [(), (10,), (20,)]) == [(0,), (10,), (20,)]


def test_sharing_one_sample_per_tick():
    s = build("w = unif(0, 1)\ny = w + w\n")
    ms = observe_marginals(s, 1)
    assert ms[0] == Dist({(0,): F(1, 2), (2,): F(1, 2)})


def test_register_semantics_match_fby_law():
    # non-recursive fby: out0 = a0, out_t = b_{t-1}
    s = build("input a : int\ninput b : int\ny = a fby b\n")
    assert run_det(s, [(1, 10), (2, 20), (3, 30)]) == [(1,), (10,), (20,)]


def test_tuple_output():
    s = build("p = (1, 2, 1 + 2)\n")
    assert run_det(s, n=1) == [(1, 2, 3), (1, 2, 3)]


def test_tuple_fby():
    s = build("p = (0, 9) fby (1, 8)\n")
    assert run_det(s, n=2) == [(0, 9), (1, 8), (1, 8)]


def test_main_override_and_missing():
    p = parse("a = 1\nb = 2\n")
    assert run_det(compile_term(elaborate(p, "a"), SIG), n=0) == [(1,)]
    with pytest.raises(TermTypeError, match="no definition named 'zzz'"):
        elaborate(p, "zzz")
    p = parse("input x : int\na = x + 1\n")
    with pytest.raises(TermTypeError, match="no definition named 'x'"):
        elaborate(p, "x")


def wiring_width(t):
    """The wires of all ``Id``, ``Copy``, ``Discard`` and ``Sym`` leaves."""
    def width(u, *kids):
        if isinstance(u, (Id, Copy, Discard)):
            return len(u.ws)
        return len(u.a) + len(u.b) if isinstance(u, Sym) else sum(kids)
    return fold(t, width)


@pytest.mark.parametrize("n", [200, 400])
@pytest.mark.parametrize("shape", ["chain", "main_first", "shared_draw"])
def test_chained_definitions_elaborate_to_linear_wiring(shape, n):
    """Each step carries only the blocks read later, so n chained
    definitions elaborate to O(n) wires, not to n copies of the env."""
    limit = sys.getrecursionlimit()
    drawn = shape == "shared_draw"
    lines = ["x0 = unif(0, 1)" if drawn else "x0 = 0 fby x0 + 1"]
    lines += [f"x{i} = x{i - 1} + {'x0' if drawn else 1}"
              for i in range(1, n)]
    lines.append(f"main = x{n - 1}")
    if shape == "main_first":
        lines.reverse()
    assert wiring_width(elaborate(parse("\n".join(lines) + "\n"))) <= 6 * n
    assert sys.getrecursionlimit() == limit


def test_wait_retimes_but_does_not_resample():
    # wait(x) moves x onto a one-tick-later wire; the delayed slot of fby
    # already reads one tick back, so these two programs agree.
    s = build("input x : int\ny = 0 fby wait(x)\n")
    s2 = build("input x : int\ny = 0 fby x\n")
    rows = [(5,), (6,), (7,), (8,)]
    assert run_det(s, rows) == run_det(s2, rows) == \
        [(0,), (5,), (6,), (7,)]


def test_unif_singleton_is_constant():
    s = build("y = unif(7)\n")
    ms = observe_marginals(s, 1)
    assert ms[1] == Dist({(7,): F(1)})


def test_sample_walk_steps():
    s = build(WALK_SRC)
    tr = sample_trace(s, None, 6, seed=99)
    vals = [r[0] for r in tr]
    assert vals[0] == 0
    assert all(abs(b - a) == 1 for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# a reference evaluator for deterministic programs
# ---------------------------------------------------------------------------

def reference_rows(p, inputs, n):
    """Main's rows at ticks 0..n, read off the equations directly.

    ``inputs`` maps each input name to its values by row; an input declared
    at delay δ reads row t + δ at tick t.
    """
    defs = {d.name: d.expr for d in p.defs}
    delays = {i.name: i.wire.delay for i in p.inputs}

    @lru_cache(maxsize=None)
    def name_at(x, t):
        if x in delays:
            return (inputs[x][t + delays[x]],)
        return at(defs[x], t)

    def at(e, t):
        if isinstance(e, IntLit):
            return (e.value,)
        if isinstance(e, Ident):
            return name_at(e.name, t)
        if isinstance(e, (Paren, WaitCall)):  # wait only retimes
            return at(e.expr, t)
        if isinstance(e, Neg):
            return (-at(e.expr, t)[0],)
        if isinstance(e, TupleExpr):
            return sum((at(x, t) for x in e.items), ())
        if e.op == "fby":
            return at(e.lhs, 0) if t == 0 else at(e.rhs, t - 1)
        a, b = at(e.lhs, t)[0], at(e.rhs, t)[0]
        return ({"+": a + b, "-": a - b, "*": a * b}[e.op],)

    return [name_at(p.main, t) for t in range(n + 1)]


def random_det_program(rng):
    """A causal program without ``unif``: self and mutual recursion, forward
    references, ``fby``, ``wait``, tuples and inputs at delay 0 or 1."""
    inputs = [(f"x{k}", rng.choice((0, 0, 1))) for k in range(rng.randint(0, 2))]
    names = [f"d{i}" for i in range(rng.randint(1, 4))] + ["main"]
    widths = [rng.choice((1, 1, 1, 2)) for _ in names]

    def one(i, d, depth):
        # names at demand 0 point backwards only, so every cycle has an fby
        pool = [x for x, delay in inputs if delay <= d] + [
            n for j, n in enumerate(names) if widths[j] == 1
            and (j < i or (d >= 1 and widths[i] == 1))]
        kind = rng.choice(("lit", "name", "name") + (
            ("neg", "op", "op", "fby", "fby") + (("wait",) if d else ())
            if depth else ()))
        if kind == "name" and pool:
            return rng.choice(pool)
        if kind == "neg":
            return "- " + one(i, d, depth - 1)
        if kind == "op":
            return (f"({one(i, d, depth - 1)} {rng.choice('+-*')} "
                    f"{one(i, d, depth - 1)})")
        if kind == "fby":
            return f"({one(i, d, depth - 1)} fby {one(i, d + 1, depth - 1)})"
        if kind == "wait":
            return f"wait({one(i, d - 1, depth - 1)})"
        return str(rng.randint(0, 3))

    def expr(i):
        depth = rng.randint(1, 3)
        if widths[i] == 1:
            return one(i, 0, depth)
        pair = f"({one(i, 0, depth)}, {one(i, 0, depth)})"
        later = f"({one(i, 1, depth)}, {one(i, 1, depth)})"
        return rng.choice((pair, f"{pair} fby {later}"))

    lines = [f"input {x} : int@{delay}" for x, delay in inputs]
    lines += [f"{n} = {expr(i)}" for i, n in enumerate(names)]
    values = {x: [rng.randint(-3, 3) for _ in range(10)] for x, _ in inputs}
    return "\n".join(lines) + "\n", values


def test_parse_returns_a_program_or_raises_parse_error():
    """Seeded edits of random programs: every one parses to a program whose
    text reads back to the same text, or raises ParseError."""
    rng = random.Random(2024)
    extra = "-+*(),;:@{}=.0123456789 \nabcdfbywaitunif_²"
    corpus = []
    for _ in range(400):
        src, _ = random_det_program(rng)
        for _ in range(6):
            i = rng.randrange(len(src) + 1)
            c = rng.choice(src + extra)
            edit = rng.randrange(3)
            if edit == 0:
                corpus.append(src[:i] + c + src[i:])
            elif edit == 1:
                corpus.append(src[:i] + src[i + 1:])
            else:
                corpus.append(src[:i] + c + src[i + 1:])
    assert len(corpus) >= 2000
    parsed = 0
    for src in corpus:
        try:
            p = parse(src)
        except ParseError:
            continue
        assert isinstance(p, Program), src
        text = pretty_program(p)
        assert pretty_program(parse(text)) == text, src
        parsed += 1
    assert 0 < parsed < len(corpus)


def test_elaboration_agrees_with_reference_evaluator():
    """Every program runs to the reference rows; a closed one also observes
    as the point at each row and samples them at any seed, each on a
    stream compiled afresh, so that no path reads rows another cached."""
    rng = random.Random(0x5EED)
    checked = closed = 0
    while checked < 1000:
        src, values = random_det_program(rng)
        p = parse(src)
        rows = [tuple(values[i.name][t] for i in p.inputs
                      if i.wire.delay <= t) for t in range(8)]
        want = reference_rows(p, values, 7)
        got = run_det(compile_term(elaborate(p), SIG),
                      rows if p.inputs else None, None if p.inputs else 7)
        assert got == want, src
        checked += 1
        if p.inputs:
            continue
        assert observe_marginals(compile_term(elaborate(p), SIG), 7) \
            == [Dist({row: 1}) for row in want], src
        for seed in (0, 2024):
            assert sample_trace(compile_term(elaborate(p), SIG), None, 7,
                                seed) == want, src
        closed += 1
    assert closed >= 250, closed


def test_long_runs_match_closed_forms():
    """Closed forms of runs whose tick kernels meet a row again, and of
    runs longer than ``CACHE_ROWS`` ticks: deterministic ones, whose ticks
    are row functions and cache nothing, and one that draws, whose
    stationary kernel's ``Dist`` cache fills and is cleared on the way.
    Memory rows recur in the running sum with other inputs, so each of its
    rows depends on both."""
    sig = default_signature()
    sig.gens["minus"] = GenSpec("minus", det_kernel(
        (INT, INT), (INT,), lambda r: (r[0] - r[1],)))
    flip = compile_term(elaborate(parse("main = 0 fby (1 - main)\n")), sig)
    assert run_det(flip, n=20000) == [(t % 2,) for t in range(20001)]
    assert observe_marginals(flip, 8) == [Dist({(t % 2,): 1})
                                          for t in range(9)]

    def program(name):
        return compile_term(elaborate(parse(
            (PROGRAMS / name).read_text())), SIG)

    n = 5000
    assert n > CACHE_ROWS
    want = [(t + 1,) for t in range(n + 1)]
    assert run_det(program("counters.ms"), n=n) == want
    assert sample_trace(program("counters.ms"), None, n, 3) == want
    assert observe_marginals(program("counters.ms"), n) == [
        Dist({row: 1}) for row in want]

    rng = random.Random(1)
    xs = [rng.choice((-1, 0, 1)) for _ in range(n + 1)]
    sums = [(0,)] + [(v,) for v in accumulate(xs[:-1])]
    seen = {}  # the last input and sum, with the next input
    assert any(seen.setdefault((xs[t - 1], sums[t - 1]), xs[t]) != xs[t]
               for t in range(1, n + 1))
    assert run_det(program("running_sum.ms"), [(x,) for x in xs]) == sums

    coin = compile_term(elaborate(parse(
        "c = 0 fby (c + 1)\nmain = c + unif(0, 1)\n")), SIG)
    assert {row[0] - t for t, row in enumerate(sample_trace(coin, None, n,
                                                             3))} == {0, 1}
    assert observe_marginals(coin, n) == [
        Dist({(t,): F(1, 2), (t + 1,): F(1, 2)}) for t in range(n + 1)]
