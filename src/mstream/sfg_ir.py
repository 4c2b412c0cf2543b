"""Typed terms for signal-flow graphs with delayed feedback.

Terms denote wirings of one-tick kernels: sequential/parallel composition,
symmetry, copy/discard, one-tick buffers, and a feedback constructor whose
loop carries values one tick later. Each wire has a base type and a delay:
the wire is silent before tick ``delay`` and carries base values from then
on. ``infer_type`` checks a term, ``compile`` turns it into a stream
process, ``random_term`` generates well-typed terms for the law suites, and
``pretty``/``read_term`` give a parse-stable text form. Its lexer and its
value, base and delay rules are the ones ``lang`` parses programs with.

Compilation maps each node onto one ``stream_core`` primitive: wiring
leaves onto ``identity``/``swap_stream``/``copy_stream``/``discard_stream``,
generators, constants and buffers at delay ``d`` onto ``d`` applications of
``delay`` around ``lift_const``/``fby_box``/``wait_stream``/``register``,
and composites onto ``seq_comp``/``par_comp``/``fbk``/``delay``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Optional, Sequence, Tuple

from .errors import ParseError, ShapeMismatch, TermTypeError
from .kernel import (
    BOOL,
    INT,
    UNIT,
    Base,
    FinSet,
    IntRange,
    Kernel,
    Shape,
    const_source,
    det_kernel,
    dist_source,
    uniform,
)
from .stream_core import (
    ShapeSeq,
    Stream,
    copy_stream,
    delay as delay_stream,
    discard_stream,
    fbk as fbk_stream,
    fby_box,
    identity,
    lift_const,
    par_comp,
    register,
    seq_comp,
    swap_stream,
    wait_stream,
)
from .values import Value, value_str


# ---------------------------------------------------------------------------
# Wires
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WireType:
    """One wire: silent before tick ``delay``, carries ``base`` afterwards."""
    base: Base
    delay: int = 0

    def shifted(self, k: int = 1) -> "WireType":
        return WireType(self.base, self.delay + k)

    def __repr__(self):
        return f"{self.base!r}@{self.delay}"


Wires = Tuple[WireType, ...]


def shift_wires(ws: Wires, k: int = 1) -> Wires:
    return tuple(w.shifted(k) for w in ws)


def alive(ws: Wires, t: int) -> Shape:
    """The bases live at tick t, in wire order."""
    return tuple(w.base for w in ws if w.delay <= t)


def wires_to_seq(ws: Wires) -> ShapeSeq:
    d = max((w.delay for w in ws), default=0)
    return ShapeSeq([alive(ws, t) for t in range(d)], alive(ws, d))


# ---------------------------------------------------------------------------
# Signature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GenSpec:
    """A named one-tick generator: kernel applied at every live tick."""
    name: str
    in_bases: Shape
    out_bases: Shape
    kernel: Kernel
    stochastic: bool = False
    args: Tuple[Value, ...] = ()

    def __post_init__(self):
        if (self.kernel.in_shape != self.in_bases
                or self.kernel.out_shape != self.out_bases):
            raise ShapeMismatch(f"generator {self.name}: kernel shape "
                                f"does not match declared bases")


class Signature:
    """Named generators plus parameterized families (e.g. unif over a set)."""

    def __init__(self, gens: Sequence[GenSpec] = (),
                 families: Optional[Dict[str, Callable[..., GenSpec]]] = None):
        self.gens = {g.name: g for g in gens}
        self.families = dict(families or {})

    def lookup(self, name: str, args: Tuple[Value, ...] = ()) -> GenSpec:
        if args == () and name in self.gens:
            return self.gens[name]
        if name in self.families:
            return self.families[name](*args)
        raise TermTypeError(f"unknown generator {name!r}")

    def names(self):
        return sorted(self.gens)


def _binop(name, fn):
    return GenSpec(name, (INT, INT), (INT,),
                   det_kernel((INT, INT), (INT,), lambda r: (fn(r[0], r[1]),)))


def _unif_family(*values) -> GenSpec:
    vals = tuple(values)
    if not vals or any(not isinstance(v, int) or isinstance(v, bool)
                       for v in vals):
        raise TermTypeError(f"unif needs integer values, got {vals!r}")
    return GenSpec("unif", (), (INT,),
                   dist_source(uniform(sorted(set(vals))), INT),
                   stochastic=True, args=vals)


def default_signature() -> Signature:
    """Integer arithmetic plus the uniform-choice family."""
    return Signature(
        gens=[
            _binop("plus", lambda a, b: a + b),
            _binop("minus", lambda a, b: a - b),
            _binop("times", lambda a, b: a * b),
            GenSpec("neg", (INT,), (INT,),
                    det_kernel((INT,), (INT,), lambda r: (-r[0],))),
        ],
        families={"unif": _unif_family},
    )


def finite_signature() -> Signature:
    """Generators over finite bases only; every wire stays enumerable.

    This is the signature the random-term law suites draw from, so that
    compiled terms can always be observed exactly.
    """
    i3 = IntRange(0, 2)
    return Signature(gens=[
        GenSpec("not", (BOOL,), (BOOL,),
                det_kernel((BOOL,), (BOOL,), lambda r: (not r[0],))),
        GenSpec("xor", (BOOL, BOOL), (BOOL,),
                det_kernel((BOOL, BOOL), (BOOL,), lambda r: (r[0] ^ r[1],))),
        GenSpec("conj", (BOOL, BOOL), (BOOL,),
                det_kernel((BOOL, BOOL), (BOOL,), lambda r: (r[0] and r[1],))),
        GenSpec("coin", (), (BOOL,),
                dist_source(uniform([False, True]), BOOL), stochastic=True),
        GenSpec("cyc", (i3,), (i3,),
                det_kernel((i3,), (i3,), lambda r: ((r[0] + 1) % 3,))),
        GenSpec("addmod3", (i3, i3), (i3,),
                det_kernel((i3, i3), (i3,), lambda r: ((r[0] + r[1]) % 3,))),
        GenSpec("unif3", (), (i3,),
                dist_source(uniform([0, 1, 2]), i3), stochastic=True),
        GenSpec("tobit", (BOOL,), (i3,),
                det_kernel((BOOL,), (i3,), lambda r: (int(r[0]),))),
        GenSpec("iszero", (i3,), (BOOL,),
                det_kernel((i3,), (BOOL,), lambda r: (r[0] == 0,))),
    ])


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

class Term:
    pass


@dataclass(frozen=True)
class Id(Term):
    ws: Wires = ()


@dataclass(frozen=True)
class Gen(Term):
    name: str
    delay: int = 0
    args: Tuple[Value, ...] = ()


@dataclass(frozen=True)
class Const(Term):
    value: Value
    base: Base
    delay: int = 0


@dataclass(frozen=True)
class Seq(Term):
    fst: Term
    snd: Term


@dataclass(frozen=True)
class Par(Term):
    fst: Term
    snd: Term


@dataclass(frozen=True)
class Sym(Term):
    a: Wires
    b: Wires


@dataclass(frozen=True)
class Copy(Term):
    ws: Wires


@dataclass(frozen=True)
class Discard(Term):
    ws: Wires


@dataclass(frozen=True)
class FbyBox(Term):
    w: WireType


@dataclass(frozen=True)
class Wait(Term):
    w: WireType


@dataclass(frozen=True)
class Register(Term):
    w: WireType


@dataclass(frozen=True)
class Fbk(Term):
    s: Wires
    body: Term


@dataclass(frozen=True)
class DelayTerm(Term):
    body: Term


def seq(*ts: Term) -> Term:
    out = ts[0]
    for t in ts[1:]:
        out = Seq(out, t)
    return out


def par(*ts: Term) -> Term:
    out = ts[0]
    for t in ts[1:]:
        out = Par(out, t)
    return out


# ---------------------------------------------------------------------------
# The fold every pass over a term runs on
# ---------------------------------------------------------------------------

def fold(t: Term, f: Callable):
    """``f(node, *values of its children)`` at every node of ``t``, children
    first and left to right, on explicit stacks: no call recurses."""
    order, todo = [], [t]  # each node before its descendants, right first
    while todo:
        u = todo.pop()
        order.append(u)
        kind = type(u)
        if kind is Seq or kind is Par:
            todo.append(u.fst)
            todo.append(u.snd)
        elif kind is Fbk or kind is DelayTerm:
            todo.append(u.body)
    vals = []
    for u in reversed(order):
        kind = type(u)
        if kind is Seq or kind is Par:
            b = vals.pop()
            vals[-1] = f(u, vals[-1], b)
        elif kind is Fbk or kind is DelayTerm:
            vals[-1] = f(u, vals[-1])
        else:
            vals.append(f(u))
    return vals[0]


def _path(t: Term, node: Term) -> tuple:
    """The path from ``t`` down to the first occurrence of ``node``."""
    def find(u, *kids):  # the steps up from ``node`` to ``u``, or None
        if u is node:
            return []
        for i, p in enumerate(kids):
            if p is not None:
                p += (i,) * (len(kids) == 2) + (_KEYWORDS[type(u)],)
                return p
    return tuple(reversed(fold(t, find)))


# ---------------------------------------------------------------------------
# Typechecking
# ---------------------------------------------------------------------------

#: The input and output wires of each wiring leaf.
_WIRING_TYPES = {
    Id: lambda u: (u.ws, u.ws),
    Sym: lambda u: (u.a + u.b, u.b + u.a),
    Copy: lambda u: (u.ws, u.ws + u.ws),
    Discard: lambda u: (u.ws, ()),
    FbyBox: lambda u: ((u.w, u.w.shifted()), (u.w,)),
    Wait: lambda u: ((u.w,), (u.w.shifted(),)),
    Register: lambda u: ((u.w, u.w), (u.w,)),
}


def infer_type(t: Term, sig: Signature) -> Tuple[Wires, Wires]:
    """Input and output wires of a term, or TermTypeError at the failing node."""

    def fail(u, msg):
        raise TermTypeError(msg, path=_path(t, u))

    def typed(u, a=None, b=None):
        if isinstance(u, Seq):
            (in1, out1), (in2, out2) = a, b
            if out1 != in2:
                fail(u, f"cannot compose: first yields {out1!r}, "
                     f"second needs {in2!r}")
            return in1, out2
        if isinstance(u, Par):
            return a[0] + b[0], a[1] + b[1]
        if type(u) in _WIRING_TYPES:
            return _WIRING_TYPES[type(u)](u)
        if isinstance(u, Gen):
            try:
                spec = sig.lookup(u.name, u.args)
            except TermTypeError as e:
                fail(u, e.message)
            d = u.delay
            return (tuple(WireType(x, d) for x in spec.in_bases),
                    tuple(WireType(x, d) for x in spec.out_bases))
        if isinstance(u, Const):
            if not u.base.contains(u.value):
                fail(u, f"constant {value_str(u.value)} is not a "
                     f"{u.base!r} value")
            return (), (WireType(u.base, u.delay),)
        if isinstance(u, Fbk):
            (bin_, bout), k = a, len(u.s)
            want_in = shift_wires(u.s)
            if bin_[:k] != want_in:
                fail(u, f"feedback body must consume {want_in!r} in front, "
                     f"found {bin_[:k]!r}")
            if bout[:k] != u.s:
                fail(u, f"feedback body must produce {u.s!r} in front, "
                     f"found {bout[:k]!r}")
            return bin_[k:], bout[k:]
        if isinstance(u, DelayTerm):
            return shift_wires(a[0]), shift_wires(a[1])
        fail(u, f"not a term: {u!r}")

    return fold(t, typed)


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

def _delayed(s: Stream, d: int) -> Stream:
    for _ in range(d):
        s = delay_stream(s)
    return s


def compile(t: Term, sig: Signature) -> Stream:  # noqa: A001 - module-local name
    """Structural compilation of a checked term to a stream process.

    Equal subterms compile to one shared stream per call. A memo local to
    the call keys a leaf by the leaf term, and a composite by its kind, the
    streams its children compiled to and, for ``fbk``, its loop wires.
    """
    infer_type(t, sig)
    memo = {}

    def shared(u, *kids):
        key = (type(u), getattr(u, "s", None), *map(id, kids)) if kids else u
        s = memo.get(key)
        if s is None:
            s = memo[key] = _compile(sig, u, *kids)
        return s

    return fold(t, shared)


_STREAMS = {Id: identity, Copy: copy_stream, Discard: discard_stream,
            FbyBox: fby_box, Wait: wait_stream, Register: register}


def _compile(sig: Signature, t: Term, a=None, b=None) -> Stream:
    """The stream of node ``t`` whose children compiled to ``a`` and ``b``."""
    if isinstance(t, Seq):
        return seq_comp(a, b)
    if isinstance(t, Par):
        return par_comp(a, b)
    if isinstance(t, (Id, Copy, Discard)):
        return _STREAMS[type(t)](wires_to_seq(t.ws))
    if isinstance(t, (FbyBox, Wait, Register)):
        return _delayed(_STREAMS[type(t)]((t.w.base,)), t.w.delay)
    if isinstance(t, Sym):
        return swap_stream(wires_to_seq(t.a), wires_to_seq(t.b))
    if isinstance(t, Gen):
        return _delayed(lift_const(sig.lookup(t.name, t.args).kernel), t.delay)
    if isinstance(t, Const):
        return _delayed(lift_const(const_source(t.value, t.base)), t.delay)
    if isinstance(t, Fbk):
        return fbk_stream(a, wires_to_seq(t.s))
    if isinstance(t, DelayTerm):
        return delay_stream(a)
    raise TermTypeError(f"not a term: {t!r}")


def is_stochastic(t: Term, sig: Signature) -> bool:
    """True when some generator in the term draws randomness."""
    return fold(t, lambda u, a=False, b=False: a or b or isinstance(u, Gen)
                and sig.lookup(u.name, u.args).stochastic)


def node_count(t: Term) -> int:
    return fold(t, lambda u, a=0, b=0: 1 + a + b)


# ---------------------------------------------------------------------------
# Permutations as terms
# ---------------------------------------------------------------------------

def perm_term(ws: Wires, perm: Sequence[int]) -> Term:
    """A term permuting ``ws`` so output j is input perm[j], as block swaps.

    Output positions are filled left to right. Wires that already sit side
    by side in the wanted order move together, by one ``Sym`` per block.
    """
    perm = list(perm)
    if sorted(perm) != list(range(len(ws))):
        raise TermTypeError(f"not a permutation: {perm!r}")
    cur = list(range(len(ws)))
    out = None
    j = 0
    while j < len(perm):
        i = cur.index(perm[j])
        r = 1
        while i + r < len(cur) and cur[i + r] == perm[j + r]:
            r += 1
        if i > j:
            now = tuple(ws[k] for k in cur)
            parts = [Id(now[:j])] if j else []
            parts.append(Sym(now[j:i], now[i:i + r]))
            if i + r < len(now):
                parts.append(Id(now[i + r:]))
            layer = par(*parts)
            out = layer if out is None else Seq(out, layer)
            cur[j:i + r] = cur[i:i + r] + cur[j:i]
        j += r
    return Id(ws) if out is None else out


# ---------------------------------------------------------------------------
# Random terms
# ---------------------------------------------------------------------------

_POOL_BASES = (BOOL, IntRange(0, 2), FinSet((-1, 1)))


def _random_wires(rng, limit=2, max_delay=1) -> Wires:
    n = rng.randrange(0, limit + 1)
    return tuple(WireType(rng.choice(_POOL_BASES), rng.randrange(0, max_delay + 1))
                 for _ in range(n))


def _const_for(rng, w: WireType) -> Term:
    return Const(rng.choice(w.base.enumerate()), w.base, w.delay)


def _consts(rng, ws: Wires) -> Term:
    if not ws:
        return Id(())
    return par(*[_const_for(rng, w) for w in ws])


def _fallback_cost(iw: Wires, ow: Wires) -> int:
    if iw == ow:
        return 1
    if not ow:
        return 1
    consts = max(1, 2 * len(ow) - 1)
    return consts if not iw else 2 + consts


def _fallback(rng, iw: Wires, ow: Wires) -> Term:
    if iw == ow:
        return Id(iw)
    if not ow:
        return Discard(iw)
    if not iw:
        return _consts(rng, ow)
    return Seq(Discard(iw), _consts(rng, ow))


def random_term_of_type(rng: random.Random, sig: Signature,
                        iw: Wires, ow: Wires, budget: int) -> Term:
    """A random term of the requested wire type.

    Uses at most max(budget, minimal-size-for-this-type) constructors; every
    structural choice is admitted only when the remaining budget can still pay
    for both halves, so the bound is exact, not best-effort.
    """
    floor = _fallback_cost(iw, ow)
    if budget < floor:
        budget = floor
    options = []
    if iw == ow and iw:
        options += [("id", None)]
    g = _pick_gen(rng, sig, iw, ow)
    if g is not None:
        options += [("gen", g)] * 2
    for _ in range(3):
        mid = _random_wires(rng)
        if budget >= 1 + _fallback_cost(iw, mid) + _fallback_cost(mid, ow):
            options += [("seq", mid)] * 3
            break
    if len(iw) + len(ow) > 1:
        ci = rng.randrange(0, len(iw) + 1)
        co = rng.randrange(0, len(ow) + 1)
        split = (iw[:ci], iw[ci:], ow[:co], ow[co:])
        if ((ci, co) not in ((0, 0), (len(iw), len(ow)))
                and budget >= (1 + _fallback_cost(split[0], split[2])
                               + _fallback_cost(split[1], split[3]))):
            options += [("par", split)]
    s = (WireType(rng.choice(_POOL_BASES), rng.randrange(0, 2)),)
    if budget >= 1 + _fallback_cost(shift_wires(s) + iw, s + ow):
        options += [("fbk", s)] * 2
    if not options:
        return _fallback(rng, iw, ow)
    kind, data = rng.choice(options)

    if kind == "id":
        return Id(iw)
    if kind == "gen":
        return data
    if kind == "seq":
        mid = data
        t1 = random_term_of_type(rng, sig, iw, mid,
                                 budget - 1 - _fallback_cost(mid, ow))
        t2 = random_term_of_type(rng, sig, mid, ow,
                                 budget - 1 - node_count(t1))
        return Seq(t1, t2)
    if kind == "par":
        i1, i2, o1, o2 = data
        t1 = random_term_of_type(rng, sig, i1, o1,
                                 budget - 1 - _fallback_cost(i2, o2))
        t2 = random_term_of_type(rng, sig, i2, o2,
                                 budget - 1 - node_count(t1))
        return Par(t1, t2)
    body = random_term_of_type(rng, sig, shift_wires(data) + iw, data + ow,
                               budget - 1)
    return Fbk(data, body)


def _pick_gen(rng, sig: Signature, iw: Wires, ow: Wires) -> Optional[Term]:
    if not ow or len(set(w.delay for w in iw + ow)) > 1:
        return None
    d = ow[0].delay
    names = [n for n in sig.names()
             if sig.gens[n].in_bases == tuple(w.base for w in iw)
             and sig.gens[n].out_bases == tuple(w.base for w in ow)]
    if not names:
        return None
    return Gen(rng.choice(names), d)


def random_term(sig: Signature, size: int, seed: int) -> Term:
    """A random well-typed term with at most ``size`` constructors."""
    rng = random.Random(seed)
    if size <= 1:
        iw = _random_wires(rng, limit=1)
        return random_term_of_type(rng, sig, iw, iw, 1)
    iw = _random_wires(rng)
    ow = _random_wires(rng)
    while _fallback_cost(iw, ow) > size:
        ow = ow[:-1]
    return random_term_of_type(rng, sig, iw, ow, size)


# ---------------------------------------------------------------------------
# Printer / reader
# ---------------------------------------------------------------------------

_PAIR_TERMS = {"seq": Seq, "par": Par}
_WIRE_TERMS = {"fby": FbyBox, "wait": Wait, "reg": Register}
_WIRES_TERMS = {"id": Id, "copy": Copy, "discard": Discard}
_KEYWORDS = {Fbk: "fbk", DelayTerm: "delay", **{
    cls: kw for terms in (_PAIR_TERMS, _WIRE_TERMS, _WIRES_TERMS)
    for kw, cls in terms.items()}}


def _wire_str(w: WireType) -> str:
    return f"{w.base!r}@{w.delay}"


def _wires_str(ws: Wires) -> str:
    return ",".join(_wire_str(w) for w in ws)


def pretty(t: Term) -> str:
    """The text of ``t``, joined from pieces that one walk over an explicit
    stack of nodes and closing text emits, so printing is linear."""
    out, todo = [], [t]
    while todo:
        u = todo.pop()
        kind = type(u)
        if kind is str:
            out.append(u)
        elif kind is Seq or kind is Par:
            out.append(_KEYWORDS[kind] + "(")
            todo += (")", u.snd, ", ", u.fst)
        elif kind is Fbk or kind is DelayTerm:
            out.append(f"fbk[{_wires_str(u.s)}](" if kind is Fbk else "delay(")
            todo += (")", u.body)
        else:
            out.append(_show(u))
    return "".join(out)


def _show(t: Term) -> str:
    """The text of the leaf ``t``."""
    kw = _KEYWORDS.get(type(t))
    if kw in _WIRE_TERMS:
        return f"{kw}[{_wire_str(t.w)}]"
    if kw in _WIRES_TERMS:
        return f"{kw}[{_wires_str(t.ws)}]" if t.ws or kw != "id" else "id"
    if isinstance(t, Gen):
        args = "{" + ",".join(map(value_str, t.args)) + "}" if t.args else ""
        return f"{t.name}{args}@{t.delay}"
    if isinstance(t, Const):
        return f"const({value_str(t.value)}:{t.base!r})@{t.delay}"
    if isinstance(t, Sym):
        return f"sym[{_wires_str(t.a)}|{_wires_str(t.b)}]"
    raise TermTypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# Lexer and the rules shared by term literals and ``.ms`` programs
# ---------------------------------------------------------------------------

_SYMBOLS = "+-*(){}[],:;@=|"


@dataclass(frozen=True)
class _Tok:
    kind: str  # "int" | "name" | "op" | "nl" | "eof"
    text: str
    line: int
    col: int


def _tokenize(src: str) -> list:
    """Tokens of ``src``. ``--`` comments run to the end of the line, ``;``
    is a newline token, and newlines inside brackets make no token."""
    toks = []
    line, col = 1, 1
    depth = 0
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c == "-" and i + 1 < n and src[i + 1] == "-":
            while i < n and src[i] != "\n":
                i += 1
                col += 1
            continue
        if c == "\n":
            if depth == 0:
                toks.append(_Tok("nl", "\n", line, col))
            i += 1
            line += 1
            col = 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c.isdecimal():
            j = i
            while j < n and src[j].isdecimal():
                j += 1
            toks.append(_Tok("int", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(_Tok("name", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if c == "." and i + 1 < n and src[i + 1] == ".":
            toks.append(_Tok("op", "..", line, col))
            i += 2
            col += 2
            continue
        if c in _SYMBOLS:
            if c in "({[":
                depth += 1
            elif c in ")}]":
                depth = max(0, depth - 1)
            toks.append(_Tok("nl" if c == ";" else "op", c, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(_Tok("eof", "", line, col))
    return toks


class _TokenParser:
    """Token cursor plus the value, base and delay rules of both text forms."""

    def __init__(self, src: str):
        self.toks = _tokenize(src)
        self.i = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def fail(self, msg, tok=None):
        tok = tok or self.peek()
        raise ParseError(msg, tok.line, tok.col)

    def at_op(self, text) -> bool:
        t = self.peek()
        return t.kind == "op" and t.text == text

    def try_op(self, text) -> bool:
        if self.at_op(text):
            self.next()
            return True
        return False

    def eat_op(self, text) -> _Tok:
        if not self.at_op(text):
            self.fail(f"expected {text!r}")
        return self.next()

    @staticmethod
    def int_value(tok: _Tok) -> int:
        """The value of an integer token of any length.

        Converts at most 4000 digits at a time, so Python's limit on the
        digits of one ``int(str)`` conversion never applies.
        """
        n = 0
        for i in range(0, len(tok.text), 4000):
            chunk = tok.text[i:i + 4000]
            n = n * 10 ** len(chunk) + int(chunk)
        return n

    def signed_int(self) -> int:
        neg = self.try_op("-")
        t = self.peek()
        if t.kind != "int":
            self.fail("expected an integer")
        self.next()
        return -self.int_value(t) if neg else self.int_value(t)

    def value(self) -> Value:
        t = self.peek()
        if t.kind == "name" and t.text in ("true", "false"):
            self.next()
            return t.text == "true"
        if self.try_op("("):
            self.eat_op(")")
            return None
        return self.signed_int()

    def value_set(self) -> tuple:
        """The values of ``{v, ...}``, read after its opening brace."""
        vals = [self.value()]
        while self.try_op(","):
            vals.append(self.value())
        self.eat_op("}")
        return tuple(vals)

    def base(self) -> Base:
        t = self.next()
        if t.kind == "name" and t.text == "int":
            if not self.try_op("["):
                return INT
            lo = self.signed_int()
            self.eat_op("..")
            hi = self.signed_int()
            self.eat_op("]")
            if lo > hi:
                self.fail(f"empty range {lo}..{hi}", t)
            return IntRange(lo, hi)
        if t.kind == "name" and t.text in ("bool", "unit"):
            return BOOL if t.text == "bool" else UNIT
        if t.kind == "op" and t.text == "{":
            vals = self.value_set()
            if len(set(vals)) < len(vals):
                self.fail("set values must be distinct", t)
            return FinSet(vals)
        self.fail("expected a base type", t)

    def delay(self) -> int:
        t = self.peek()
        if t.kind != "int":
            self.fail("expected a delay")
        self.next()
        return self.int_value(t)


class _TermReader(_TokenParser):
    """The grammar of ``pretty``'s output; newlines count as spaces."""

    def __init__(self, text: str):
        super().__init__(text)
        self.toks = [t for t in self.toks if t.text != "\n"]

    def closed(self, rule, closer):
        """What ``rule`` reads, followed by the symbol ``closer``."""
        out = rule()
        self.eat_op(closer)
        return out

    def at_delay(self) -> int:
        self.eat_op("@")
        return self.delay()

    def wire(self) -> WireType:
        return WireType(self.base(), self.at_delay())

    def wire_list(self) -> Wires:
        out = []
        if not (self.at_op("]") or self.at_op("|")):
            out.append(self.wire())
            while self.try_op(","):
                out.append(self.wire())
        return tuple(out)

    def term(self) -> Term:
        """A term, on a stack of ``(symbol due next, what to build)`` per
        open ``seq(``, ``par(``, ``delay(`` or ``fbk[..](``."""
        frames = []
        while True:
            t = self.next()
            if t.kind != "name":
                self.fail("expected a term", t)
            kw = t.text
            if kw in _PAIR_TERMS and self.try_op("("):
                frames.append((",", _PAIR_TERMS[kw]))
            elif kw == "delay" and self.try_op("("):
                frames.append((")", DelayTerm))
            elif kw == "fbk" and self.try_op("["):
                s = self.closed(self.wire_list, "]")
                frames.append((")", partial(Fbk, s)))
                self.eat_op("(")
            else:
                u = self.leaf(kw)
                while frames:
                    symbol, make = frames.pop()
                    self.eat_op(symbol)
                    if symbol == ",":  # the first operand of seq or par
                        frames.append((")", partial(make, u)))
                        break
                    u = make(u)
                else:
                    return u

    def leaf(self, kw) -> Term:
        """The term that starts with the name ``kw`` and nests no term."""
        if kw == "const" and self.try_op("("):
            v = self.closed(self.value, ":")
            return Const(v, self.closed(self.base, ")"), self.at_delay())
        if kw in _WIRE_TERMS and self.try_op("["):
            return _WIRE_TERMS[kw](self.closed(self.wire, "]"))
        if kw in _WIRES_TERMS and self.try_op("["):
            return _WIRES_TERMS[kw](self.closed(self.wire_list, "]"))
        if kw == "sym" and self.try_op("["):
            a = self.closed(self.wire_list, "|")
            return Sym(a, self.closed(self.wire_list, "]"))
        if kw == "id" and not (self.at_op("{") or self.at_op("@")):
            return Id(())
        args = self.value_set() if self.try_op("{") else ()
        return Gen(kw, self.at_delay(), args)


def read_term(text: str) -> Term:
    """The term that ``pretty`` prints as ``text``; ``--`` comments and
    newlines may appear between tokens."""
    r = _TermReader(text)
    t = r.term()
    if r.peek().kind != "eof":
        r.fail("trailing input after term")
    return t
