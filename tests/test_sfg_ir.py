import itertools
import random
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

from mstream.errors import ParseError, TermTypeError
from mstream.kernel import (
    BOOL,
    INT,
    Dist,
    FinSet,
    IntRange,
    Kernel,
    marginalize,
)
from mstream.lang import elaborate, parse
from mstream.sfg_ir import (
    Const,
    Copy,
    DelayTerm,
    Discard,
    Fbk,
    FbyBox,
    Gen,
    Id,
    Par,
    Register,
    Seq,
    Sym,
    Term,
    Wait,
    WireType,
    alive,
    compile as compile_term,
    default_signature,
    finite_signature,
    infer_type,
    is_stochastic,
    node_count,
    par,
    perm_term,
    pretty,
    random_term,
    read_term,
    seq,
    wires_to_seq,
)
from mstream.stream_core import ShapeSeq, obs_equal, observe, run_det

F = Fraction
SIG = default_signature()
FIN = finite_signature()

W0 = WireType(INT, 0)
W1 = WireType(INT, 1)
W2 = WireType(INT, 2)


def fby_const(v, arg_wire):
    """v fby <arg>, as a term (arg one tick later than the result)."""
    w = WireType(arg_wire.base, arg_wire.delay - 1)
    return seq(par(Const(v, w.base, w.delay), Id((arg_wire,))), FbyBox(w))


def fib_term():
    # fed wire: the sequence itself, one tick later
    body = seq(
        Copy((W1,)),
        par(Id((W1,)), seq(Wait(W1), fby_const(1, W2))),
        Gen("plus", 1),
        fby_const(0, W1),
        Copy((W0,)),
    )
    return Fbk((W0,), body)


def walk_term():
    body = seq(
        par(Gen("unif", 1, args=(-1, 1)), Id((W1,))),
        Gen("plus", 1),
        fby_const(0, W1),
        Copy((W0,)),
    )
    return Fbk((W0,), body)


# ---------------------------------------------------------------------------
# wires / typing
# ---------------------------------------------------------------------------

def test_alive_and_seq_of_wires():
    ws = (WireType(BOOL, 0), WireType(INT, 2), WireType(BOOL, 1))
    assert alive(ws, 0) == (BOOL,)
    assert alive(ws, 1) == (BOOL, BOOL)
    assert alive(ws, 2) == (BOOL, INT, BOOL)
    s = wires_to_seq(ws)
    assert s.at(1) == (BOOL, BOOL) and s.at(5) == (BOOL, INT, BOOL)


def test_infer_type_basic_nodes():
    assert infer_type(Id((W0,)), SIG) == ((W0,), (W0,))
    assert infer_type(Gen("plus", 0), SIG) == ((W0, W0), (W0,))
    assert infer_type(Const(3, INT, 1), SIG) == ((), (W1,))
    assert infer_type(FbyBox(W0), SIG) == ((W0, W1), (W0,))
    assert infer_type(Wait(W0), SIG) == ((W0,), (W1,))
    assert infer_type(Register(W0), SIG) == ((W0, W0), (W0,))
    assert infer_type(DelayTerm(Gen("neg", 0)), SIG) == ((W1,), (W1,))


def test_fbk_over_sym_has_wait_type():
    for d in (0, 1, 3):
        a = (WireType(INT, d + 1),)
        b = (WireType(INT, d),)
        t = Fbk(b, Sym(a, b))
        assert infer_type(t, SIG) == (b, a)


def test_seq_then_discard_types():
    t = Seq(Gen("plus", 0), Discard((W0,)))
    assert infer_type(t, SIG) == ((W0, W0), ())


def test_type_error_carries_path():
    bad = Seq(Gen("plus", 0), Par(Gen("neg", 0), Seq(Gen("neg", 0),
                                                     Gen("plus", 0))))
    with pytest.raises(TermTypeError) as e:
        infer_type(bad, SIG)
    assert e.value.path  # locates some inner node
    with pytest.raises(TermTypeError):
        infer_type(Gen("nope", 0), SIG)


def test_10000_deep_seq_chain_without_recursion():
    limit = sys.getrecursionlimit()
    n = 10 ** 4 + 1
    t = seq(Const(5, INT), *[Gen("neg", 0)] * n)
    assert infer_type(t, SIG) == ((), (W0,))
    assert pretty(t) == "seq(" * n + "const(5:int)@0" + ", neg@0)" * n
    assert run_det(compile_term(t, SIG), n=2) == [(-5,)] * 3
    with pytest.raises(TermTypeError) as e:
        infer_type(seq(Const(5, BOOL), *[Gen("neg", 0)] * n), SIG)
    assert e.value.path == ("seq", 0) * n
    assert sys.getrecursionlimit() == limit


def test_fbk_requires_shifted_prefix():
    # body consumes the fed wire at the same tick it is produced: rejected
    bad = Fbk((W0,), Copy((W0,)))
    with pytest.raises(TermTypeError) as e:
        infer_type(bad, SIG)
    assert "front" in str(e.value)


def test_const_value_must_fit_base():
    with pytest.raises(TermTypeError):
        infer_type(Const(5, IntRange(0, 2), 0), SIG)


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------

def test_compile_id_is_identity():
    from mstream.stream_core import identity
    s = compile_term(Id((WireType(IntRange(0, 1), 0),)), SIG)
    assert obs_equal(s, identity(s.in_seq), 4)


def test_compile_fib():
    got = run_det(compile_term(fib_term(), SIG), n=9)
    assert got == [(0,), (1,), (1,), (2,), (3,), (5,), (8,), (13,), (21,), (34,)]


def test_compile_walk_first_step():
    p = observe(compile_term(walk_term(), SIG), 1)
    d = marginalize(p.dist(()), [1])
    assert d == Dist({(-1,): F(1, 2), (1,): F(1, 2)})


def test_compile_register_matches_term():
    t = Register(W0)
    s = compile_term(t, SIG)
    assert run_det(s, [(9, 1), (9, 2), (9, 3)]) == [(9,), (1,), (2,)]


def test_compile_wait_shifts():
    s = compile_term(Wait(W0), SIG)
    assert run_det(s, [(5,), (6,), (7,)]) == [(), (5,), (6,)]


@pytest.mark.parametrize("term, inputs, want", [
    (FbyBox(W1), [(), (5,), (6, 1), (7, 2)], [(), (5,), (1,), (2,)]),
    (FbyBox(W2), [(), (), (5,), (6, 1)], [(), (), (5,), (1,)]),
    (Wait(W1), [(), (5,), (6,), (7,)], [(), (), (5,), (6,)]),
    (Wait(W2), [(), (), (5,), (6,)], [(), (), (), (5,)]),
    (Register(W1), [(), (9, 1), (9, 2), (9, 3)], [(), (9,), (1,), (2,)]),
    (Register(W2), [(), (), (9, 1), (9, 2)], [(), (), (9,), (1,)]),
    (Const(3, INT, 1), [()] * 4, [(), (3,), (3,), (3,)]),
    (Const(3, INT, 2), [()] * 4, [(), (), (3,), (3,)]),
    (Gen("plus", 1), [(), (1, 2), (3, 4), (5, 6)], [(), (3,), (7,), (11,)]),
    (Gen("plus", 2), [(), (), (1, 2), (3, 4)], [(), (), (3,), (7,)]),
])
def test_delayed_leaf_traces(term, inputs, want):
    s = compile_term(term, SIG)
    iw, ow = infer_type(term, SIG)
    assert (s.in_seq, s.out_seq) == (wires_to_seq(iw), wires_to_seq(ow))
    assert run_det(s, inputs) == want


def test_fbk_over_sym_compiles_to_wait():
    b = (WireType(IntRange(0, 2), 0),)
    a = (WireType(IntRange(0, 2), 1),)
    lhs = compile_term(Fbk(b, Sym(a, b)), SIG)
    rhs = compile_term(Wait(b[0]), SIG)
    assert obs_equal(lhs, rhs, 5)


def test_compile_functorial_for_seq_and_par():
    from mstream.stream_core import par_comp, seq_comp
    a = Gen("not", 0)
    b = Gen("coin", 0)
    lhs = compile_term(Seq(b, a), FIN)
    rhs = seq_comp(compile_term(b, FIN), compile_term(a, FIN))
    assert obs_equal(lhs, rhs, 4)
    lhs2 = compile_term(Par(a, b), FIN)
    rhs2 = par_comp(compile_term(a, FIN), compile_term(b, FIN))
    assert obs_equal(lhs2, rhs2, 4)


def test_perm_term_routes_wires():
    ws = (W0, WireType(BOOL, 0), WireType(INT, 0))
    t = perm_term(ws, (2, 0, 1))
    s = compile_term(t, SIG)
    assert run_det(s, [(1, True, 7)]) == [(7, 1, True)]


def test_perm_term_with_delays():
    ws = (W0, WireType(BOOL, 1))
    t = perm_term(ws, (1, 0))
    s = compile_term(t, SIG)
    assert run_det(s, [(3,), (4, False)]) == [(3,), (False, 4)]


def _sym_count(t):
    if isinstance(t, (Seq, Par)):
        return _sym_count(t.fst) + _sym_count(t.snd)
    if isinstance(t, (Fbk, DelayTerm)):
        return _sym_count(t.body)
    return int(isinstance(t, Sym))


def _mixed_wires(n, shift):
    return tuple(WireType(INT, (k + shift) % 3) for k in range(n))


def test_perm_term_every_permutation_up_to_five_wires():
    for n in range(6):
        for shift in (0, 1):
            ws = _mixed_wires(n, shift)
            for perm in itertools.permutations(range(n)):
                t = perm_term(ws, perm)
                assert infer_type(t, SIG) == (ws, tuple(ws[i] for i in perm))
                assert _sym_count(t) <= max(n - 1, 0)
                rows = [tuple(10 * k + tk for k in range(n)
                              if ws[k].delay <= tk) for tk in range(4)]
                want = [tuple(10 * i + tk for i in perm
                              if ws[i].delay <= tk) for tk in range(4)]
                assert run_det(compile_term(t, SIG), rows) == want, perm


def test_perm_term_moves_a_block_to_the_front_with_one_sym():
    for n in range(6):
        ws = _mixed_wires(n, 0)
        for i in range(n):
            for r in range(1, n - i + 1):
                block = list(range(i, i + r))
                perm = block + [k for k in range(n) if k not in block]
                t = perm_term(ws, perm)
                if i == 0:
                    assert t == Id(ws)
                else:
                    assert _sym_count(t) == 1, perm


def test_ehrenfest_ir_stays_small():
    programs = Path(__file__).resolve().parent.parent / "programs"
    t = elaborate(parse((programs / "ehrenfest.ms").read_text()))
    assert node_count(t) <= 283
    assert _sym_count(t) <= 11
    for name, most in (("fib", 30), ("counters", 38), ("running_sum", 26)):
        t = elaborate(parse((programs / f"{name}.ms").read_text()))
        assert node_count(t) <= most, name


@pytest.mark.parametrize("name, most", [("ehrenfest", 200), ("fib", 30)])
def test_compile_builds_few_kernels(monkeypatch, name, most):
    """Composition records its parts and builds no kernel: compiling a
    program and unrolling its first tick builds the leaves' kernels and one
    kernel per tick of the root's prefix, not one per tick of every
    composite node."""
    programs = Path(__file__).resolve().parent.parent / "programs"
    t = elaborate(parse((programs / f"{name}.ms").read_text()))
    built = []
    init = Kernel.__init__

    def counting(self, *args):
        built.append(None)
        init(self, *args)

    monkeypatch.setattr(Kernel, "__init__", counting)
    compile_term(t, SIG).unroll()
    assert len(built) <= most, len(built)


def test_is_stochastic():
    assert is_stochastic(walk_term(), SIG)
    assert not is_stochastic(fib_term(), SIG)
    assert is_stochastic(Gen("coin", 0), FIN)
    assert not is_stochastic(Gen("not", 0), FIN)


# ---------------------------------------------------------------------------
# random terms
# ---------------------------------------------------------------------------

def test_random_terms_typecheck():
    for k in range(1000):
        t = random_term(FIN, size=1 + k % 12, seed=k)
        infer_type(t, FIN)  # must not raise


def test_random_term_respects_size():
    for k in range(300):
        size = 1 + k % 14
        t = random_term(FIN, size=size, seed=10_000 + k)
        assert node_count(t) <= size


def test_random_term_deterministic_and_varied():
    a = random_term(FIN, 8, seed=5)
    b = random_term(FIN, 8, seed=5)
    assert a == b
    distinct = {pretty(random_term(FIN, 8, seed=s)) for s in range(40)}
    assert len(distinct) > 10


def test_random_term_size_one_is_leaf():
    for s in range(50):
        t = random_term(FIN, 1, seed=s)
        assert isinstance(t, (Id, Gen, Const, Discard))


def test_random_terms_include_feedback():
    found = 0
    for s in range(200):
        txt = pretty(random_term(FIN, 10, seed=s))
        found += "fbk[" in txt
    assert found > 10


def test_random_terms_compile_and_unroll():
    for s in range(300):
        t = random_term(FIN, 8, seed=777 + s)
        st = compile_term(t, FIN)
        cur = st
        for _ in range(4):  # shape checks run at construction
            _, _, cur = cur.unroll()


def test_unroll_chain_closes_into_fixed_point():
    programs = Path(__file__).resolve().parent.parent / "programs"
    streams = [compile_term(elaborate(parse(p.read_text())), SIG)
               for p in sorted(programs.glob("*.ms"))]
    streams += [compile_term(random_term(FIN, 8, seed=4_040 + s), FIN)
                for s in range(40)]
    for st in streams:
        cur = st
        for _ in range(len(st.ks) + 1):
            _, now, cur = cur.unroll()
        _, now_next, later = cur.unroll()
        assert later is cur, st
        assert now_next is now, st


def test_random_terms_observable():
    for s in range(60):
        t = random_term(FIN, 7, seed=31_337 + s)
        st = compile_term(t, FIN)
        observe(st, 2)


# ---------------------------------------------------------------------------
# printer / reader
# ---------------------------------------------------------------------------

def test_pretty_examples():
    assert pretty(Id(())) == "id"
    assert pretty(Gen("unif", 0, args=(-1, 1))) == "unif{-1,1}@0"
    assert pretty(Const(0, INT, 0)) == "const(0:int)@0"
    assert pretty(Wait(W1)) == "wait[int@1]"
    fib = pretty(fib_term())
    assert "fbk[" in fib and "fby[" in fib and "wait[" in fib


def test_read_term_round_trip_on_random_terms():
    for s in range(100):
        t = random_term(FIN, 9, seed=map_seed(s))
        assert read_term(pretty(t)) == t


def test_read_term_inverts_pretty_on_10000_deep_nests():
    """Texts are compared: ``==`` on 10⁴-deep terms would recurse."""
    limit = sys.getrecursionlimit()
    n = 10 ** 4
    leaf = Gen("neg", 0)
    nests = [seq(*[leaf] * n), par(*[leaf] * n)]  # nested to the left
    for wrap in (partial(Seq, leaf), partial(Par, leaf),
                 partial(Fbk, (W1,)), DelayTerm):
        t = leaf
        for _ in range(n):
            t = wrap(t)
        nests.append(t)
    for t in nests:
        text = pretty(t)
        assert pretty(read_term(text)) == text
    assert sys.getrecursionlimit() == limit


def map_seed(s):
    return 424_242 + 7 * s


def test_read_term_handles_wire_syntax():
    t = read_term("sym[bool@0,int[0..2]@1|{-1,1}@0]")
    assert t == Sym((WireType(BOOL, 0), WireType(IntRange(0, 2), 1)),
                    (WireType(FinSet((-1, 1)), 0),))
    assert read_term("id") == Id(())
    assert read_term(" seq( id , delay( coin@0 ) ) ") == Seq(
        Id(()), DelayTerm(Gen("coin", 0)))


def test_read_term_rejects_garbage():
    for bad in ("seq(id", "fbk[int@0]", "const(0)@0", "id[int]", "wat@@0",
                "id[bool@-1]", "coin@-1", "const(true:bool)@-1",
                "id[int[2..1]@0]", "id[{1,1}@0]", "2oin@1", "id;"):
        with pytest.raises(ParseError):
            read_term(bad)


def test_fib_walk_terms_round_trip():
    for t in (fib_term(), walk_term()):
        assert read_term(pretty(t)) == t


def test_read_term_skips_comments_and_newlines():
    assert read_term("seq(id,  -- the coin\n  coin@0)\n-- done\n") == Seq(
        Id(()), Gen("coin", 0))
    assert read_term("id\n") == Id(())


def test_read_term_returns_a_term_or_raises_parse_error():
    rng = random.Random(2024)
    extra = "-@{}[]()|,:;.0123456789 \nabcxyz_²"
    corpus = []
    for s in range(400):
        text = pretty(random_term(FIN, 9, seed=map_seed(s)))
        for _ in range(6):
            i = rng.randrange(len(text) + 1)
            c = rng.choice(text + extra)
            edit = rng.randrange(3)
            if edit == 0:
                corpus.append(text[:i] + c + text[i:])
            elif edit == 1:
                corpus.append(text[:i] + text[i + 1:])
            else:
                corpus.append(text[:i] + c + text[i + 1:])
    assert len(corpus) >= 2000
    parsed = 0
    for text in corpus:
        try:
            t = read_term(text)
        except ParseError:
            continue
        assert isinstance(t, Term), text
        parsed += 1
    assert 0 < parsed < len(corpus)


def test_programs_and_term_literals_read_bases_alike():
    def program_base(b):
        return parse(f"input x : {b}\nmain = x\n").inputs[0].wire.base

    def term_base(b):
        return read_term(f"id[{b}@0]").ws[0].base

    for b in ("int", "bool", "unit", "int[0..2]", "int[-3..-1]",
              "int [ 5 .. 5 ]", "{-1,1}", "{2, 0, 1}", "{ - 4 }",
              "{true,false}", "{()}", "{1,(),false}"):
        assert program_base(b) == term_base(b), b
    for b in ("int[2..1]", "{1,1}", "{1,true}", "{}", "int[0..]", "{0,}",
              "float", "{x}"):
        for read in (program_base, term_base):
            with pytest.raises(ParseError):
                read(b)
