"""A small Lucid-like dataflow language: parser, causality check, elaborator.

A program is a list of stream equations (plus optional declared inputs) over
integers, with ``a fby b`` ("followed by"), ``wait(e)`` (one-tick delay with a
silent first tick) and ``unif(...)`` (uniform choice from a finite set of
integers).  ``parse`` builds the AST, ``check_causality`` verifies that every
dependency cycle passes through a delay, and ``elaborate`` compiles the
program to a single feedback term over the default generator signature (see
``sfg_ir``): each strongly connected component of definitions becomes one
``Fbk`` whose fed-back wires cancel one syntactic delay per recursive use.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional, Union

from .errors import CausalityError, ElaborationError, ParseError, TermTypeError
from .kernel import INT
from .sfg_ir import (
    Const,
    Copy,
    Discard,
    Fbk,
    FbyBox,
    Gen,
    Id,
    Register,
    Sym,
    Term,
    Wait,
    WireType,
    _TokenParser,
    par,
    perm_term,
    seq,
)

Pos = tuple  # (line, column)

_NOPOS: Pos = (0, 0)


def _pos_field():
    return field(default=_NOPOS, compare=False, repr=False)


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntLit:
    value: int
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class Ident:
    name: str
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class Neg:
    expr: "Expr"
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class BinOp:
    op: str  # "+" | "-" | "*" | "fby"
    lhs: "Expr"
    rhs: "Expr"
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class WaitCall:
    expr: "Expr"
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class UnifCall:
    args: tuple  # integer literals as written; (lo, hi) when form == "range"
    form: str = "call"  # "call" | "set" | "range"
    pos: Pos = _pos_field()

    def values(self):
        """The support, as a sorted tuple of distinct integers."""
        if self.form == "range":
            lo, hi = self.args
            return tuple(range(lo, hi + 1))
        return tuple(sorted(set(self.args)))


@dataclass(frozen=True)
class TupleExpr:
    items: tuple
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class Paren:
    expr: "Expr"
    pos: Pos = _pos_field()


Expr = Union[IntLit, Ident, Neg, BinOp, WaitCall, UnifCall, TupleExpr, Paren]


@dataclass(frozen=True)
class InputDecl:
    name: str
    wire: WireType
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class Definition:
    name: str
    expr: Expr
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class Program:
    inputs: tuple = ()
    defs: tuple = ()
    main: str = ""

    def definition(self, name):
        for d in self.defs:
            if d.name == name:
                return d
        return None

    def input(self, name):
        for i in self.inputs:
            if i.name == name:
                return i
        return None


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_KEYWORDS = frozenset({"fby", "wait", "unif", "input"})


class _Parser(_TokenParser):
    """Statements and expressions over ``sfg_ir``'s lexer and base rules."""

    def skip_nl(self):
        while self.peek().kind == "nl":
            self.next()

    # -- statements ---------------------------------------------------------

    def program(self):
        inputs, defs = [], []
        self.skip_nl()
        while self.peek().kind != "eof":
            t = self.peek()
            if t.kind != "name":
                self.fail("expected a definition or input declaration")
            if t.text == "input":
                inputs.append(self.input_decl())
            else:
                defs.append(self.definition())
            t = self.peek()
            if t.kind == "nl":
                self.skip_nl()
            elif t.kind != "eof":
                self.fail("expected end of statement")
        if not defs:
            self.fail("program has no definitions")
        seen = set()
        for item in list(inputs) + list(defs):
            if item.name in seen:
                raise ParseError(f"duplicate name {item.name!r}",
                                 item.pos[0], item.pos[1])
            seen.add(item.name)
        main = "main" if any(d.name == "main" for d in defs) else defs[-1].name
        prog = Program(tuple(inputs), tuple(defs), main)
        self._resolve(prog)
        return prog

    def _resolve(self, prog):
        known = {d.name for d in prog.defs} | {i.name for i in prog.inputs}

        def walk(e):
            if isinstance(e, Ident):
                if e.name not in known:
                    raise ParseError(f"undefined name {e.name!r}",
                                     e.pos[0], e.pos[1])
            elif isinstance(e, (Neg, Paren)):
                walk(e.expr)
            elif isinstance(e, WaitCall):
                walk(e.expr)
            elif isinstance(e, BinOp):
                walk(e.lhs)
                walk(e.rhs)
            elif isinstance(e, TupleExpr):
                for item in e.items:
                    walk(item)

        for d in prog.defs:
            walk(d.expr)

    def input_decl(self):
        kw = self.next()
        t = self.peek()
        if t.kind != "name" or t.text in _KEYWORDS:
            self.fail("expected an input name")
        name = self.next()
        self.eat_op(":")
        wire = self.wiretype()
        return InputDecl(name.text, wire, (kw.line, kw.col))

    def definition(self):
        t = self.next()
        if t.text in _KEYWORDS:
            self.fail(f"{t.text!r} is a reserved word", t)
        self.eat_op("=")
        e = self.expr()
        return Definition(t.text, e, (t.line, t.col))

    def wiretype(self):
        base = self.base()
        return WireType(base, self.delay() if self.try_op("@") else 0)

    # -- expressions --------------------------------------------------------

    def expr(self):
        return self.fby_expr()

    def fby_expr(self):
        lhs = self.add_expr()
        t = self.peek()
        if t.kind == "name" and t.text == "fby":
            self.next()
            rhs = self.fby_expr()
            return BinOp("fby", lhs, rhs, (t.line, t.col))
        return lhs

    def add_expr(self):
        e = self.mul_expr()
        while True:
            t = self.peek()
            if t.kind == "op" and t.text in "+-":
                self.next()
                e = BinOp(t.text, e, self.mul_expr(), (t.line, t.col))
            else:
                return e

    def mul_expr(self):
        e = self.unary()
        while True:
            t = self.peek()
            if t.kind == "op" and t.text == "*":
                self.next()
                e = BinOp("*", e, self.unary(), (t.line, t.col))
            else:
                return e

    def unary(self):
        t = self.peek()
        if t.kind == "op" and t.text == "-":
            self.next()
            return Neg(self.unary(), (t.line, t.col))
        return self.atom()

    def atom(self):
        t = self.peek()
        if t.kind == "int":
            self.next()
            return IntLit(int(t.text), (t.line, t.col))
        if t.kind == "op" and t.text == "(":
            self.next()
            items = [self.expr()]
            while self.try_op(","):
                items.append(self.expr())
            self.eat_op(")")
            if len(items) == 1:
                return Paren(items[0], (t.line, t.col))
            return TupleExpr(tuple(items), (t.line, t.col))
        if t.kind == "name":
            if t.text == "wait":
                self.next()
                self.eat_op("(")
                inner = self.expr()
                self.eat_op(")")
                return WaitCall(inner, (t.line, t.col))
            if t.text == "unif":
                self.next()
                return self.unif_args((t.line, t.col))
            if t.text in _KEYWORDS:
                self.fail(f"{t.text!r} cannot appear here")
            self.next()
            return Ident(t.text, (t.line, t.col))
        self.fail("expected an expression")

    def unif_args(self, pos):
        if self.try_op("{"):
            vals = [self.signed_int()]
            while self.try_op(","):
                vals.append(self.signed_int())
            self.eat_op("}")
            return UnifCall(tuple(vals), "set", pos)
        self.eat_op("(")
        first = self.signed_int()
        if self.try_op(".."):
            hi = self.signed_int()
            self.eat_op(")")
            if first > hi:
                raise ParseError(f"empty range {first}..{hi}", pos[0], pos[1])
            return UnifCall((first, hi), "range", pos)
        vals = [first]
        while self.try_op(","):
            vals.append(self.signed_int())
        self.eat_op(")")
        return UnifCall(tuple(vals), "call", pos)


def parse(src: str) -> Program:
    """Parse program text into a :class:`Program`.

    The designated main stream is the definition named ``main`` when present,
    otherwise the last definition.  Raises :class:`ParseError` (with line and
    column) on malformed input, duplicate names, or unresolved references.
    """
    return _Parser(src).program()


# ---------------------------------------------------------------------------
# Pretty-printer
# ---------------------------------------------------------------------------

_LEVEL = {"fby": 0, "+": 1, "-": 1, "*": 2}


def _pe(e, ctx):
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, Ident):
        return e.name
    if isinstance(e, Neg):
        s, lvl = "-" + _pe(e.expr, 4), 3
    elif isinstance(e, BinOp):
        lvl = _LEVEL[e.op]
        if e.op == "fby":
            s = _pe(e.lhs, 1) + " fby " + _pe(e.rhs, 0)
        else:
            s = _pe(e.lhs, lvl) + f" {e.op} " + _pe(e.rhs, lvl + 1)
    elif isinstance(e, WaitCall):
        return "wait(" + _pe(e.expr, 0) + ")"
    elif isinstance(e, UnifCall):
        inner = ", ".join(str(v) for v in e.args)
        if e.form == "set":
            return "unif{" + inner + "}"
        if e.form == "range":
            return f"unif({e.args[0]}..{e.args[1]})"
        return "unif(" + inner + ")"
    elif isinstance(e, TupleExpr):
        return "(" + ", ".join(_pe(x, 0) for x in e.items) + ")"
    elif isinstance(e, Paren):
        return "(" + _pe(e.expr, 0) + ")"
    else:
        raise ElaborationError(f"unknown expression node {e!r}")
    return "(" + s + ")" if lvl < ctx else s


def pretty_expr(e: Expr) -> str:
    return _pe(e, 0)


def _wire_str(w: WireType) -> str:
    s = repr(w.base)
    return f"{s}@{w.delay}" if w.delay else s


def pretty_program(p: Program) -> str:
    """Render a program back to source text; ``parse`` inverts it."""
    lines = [f"input {i.name} : {_wire_str(i.wire)}" for i in p.inputs]
    lines += [f"{d.name} = {pretty_expr(d.expr)}" for d in p.defs]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Causality analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Occurrence:
    """A use of a name inside some definition's right-hand side.

    ``demand`` is the delay at which the value is consumed: each enclosing
    ``fby`` second slot adds one tick, each enclosing ``wait`` uses one up.
    """

    definition: str
    name: str
    demand: int
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class Analysis:
    program: Program
    occurrences: tuple
    sccs: tuple  # elaboration order; recursive members in zero-delay order
    recursive: frozenset
    widths: dict = field(compare=False)


def _collect(defn: Definition):
    occs = []

    def walk(e, d):
        if isinstance(e, Ident):
            occs.append(Occurrence(defn.name, e.name, d, e.pos))
        elif isinstance(e, (Neg, Paren)):
            walk(e.expr, d)
        elif isinstance(e, WaitCall):
            if d == 0:
                raise CausalityError(
                    f"wait(...) at line {e.pos[0]}, column {e.pos[1]} needs "
                    "an enclosing delay: its result has no value at the "
                    "first tick")
            walk(e.expr, d - 1)
        elif isinstance(e, BinOp):
            if e.op == "fby":
                walk(e.lhs, d)
                walk(e.rhs, d + 1)
            else:
                walk(e.lhs, d)
                walk(e.rhs, d)
        elif isinstance(e, TupleExpr):
            for item in e.items:
                walk(item, d)

    walk(defn.expr, 0)
    return occs


def _tarjan(nodes, succ):
    index, low, on = {}, {}, set()
    stack, out = [], []
    counter = [0]

    def strong(v):
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on.add(v)
        for w in succ(v):
            if w not in index:
                strong(w)
                low[v] = min(low[v], low[w])
            elif w in on:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            comp = []
            while True:
                w = stack.pop()
                on.discard(w)
                comp.append(w)
                if w == v:
                    break
            out.append(comp)

    for v in nodes:
        if v not in index:
            strong(v)
    return out  # dependencies before dependents


def _zero_delay_order(members, zero_edges, occs):
    """Order SCC members so zero-delay dependencies come first."""
    member_set = set(members)
    deps = {n: set() for n in members}
    for n, m in zero_edges:
        deps[n].add(m)
    order, placed = [], set()
    while len(order) < len(members):
        ready = [n for n in members
                 if n not in placed and deps[n] <= placed]
        if not ready:
            for o in occs:
                if (o.demand == 0 and o.definition in member_set
                        and o.name in member_set
                        and o.definition not in placed
                        and o.name not in placed):
                    raise CausalityError(
                        f"unguarded recursive use of {o.name!r} in the "
                        f"definition of {o.definition!r} (line {o.pos[0]}, "
                        f"column {o.pos[1]}): every cycle needs an fby")
            raise ElaborationError("zero-delay cycle without a witness")
        order.append(ready[0])
        placed.add(ready[0])
    return tuple(order)


def _expr_width(e, widths, defn):
    if isinstance(e, (IntLit, UnifCall)):
        return 1
    if isinstance(e, Ident):
        return widths[e.name]
    if isinstance(e, Paren):
        return _expr_width(e.expr, widths, defn)
    if isinstance(e, WaitCall):
        return _expr_width(e.expr, widths, defn)
    if isinstance(e, Neg):
        if _expr_width(e.expr, widths, defn) != 1:
            raise TermTypeError(
                f"operand of unary minus in {defn!r} is not a single stream")
        return 1
    if isinstance(e, BinOp):
        lw = _expr_width(e.lhs, widths, defn)
        rw = _expr_width(e.rhs, widths, defn)
        if e.op == "fby":
            if lw != rw:
                raise TermTypeError(
                    f"fby in {defn!r} combines streams of width {lw} and "
                    f"{rw}")
            return lw
        if lw != 1 or rw != 1:
            raise TermTypeError(
                f"operands of {e.op!r} in {defn!r} must be single streams")
        return 1
    if isinstance(e, TupleExpr):
        return sum(_expr_width(x, widths, defn) for x in e.items)
    raise ElaborationError(f"unknown expression node {e!r}")


def check_causality(p: Program) -> Analysis:
    """Verify that every dependency cycle passes through a delay.

    Returns the dependency analysis used by :func:`elaborate`: all name uses
    annotated with their demanded delay, strongly connected components of the
    definition graph in elaboration order, and stream widths.  Raises
    :class:`CausalityError` on an unguarded cycle, a ``wait`` whose result is
    needed at the first tick, or an input read before its declared delay.
    """
    occs = []
    for d in p.defs:
        occs.extend(_collect(d))
    inputs = {i.name: i for i in p.inputs}
    for o in occs:
        if o.name in inputs and o.demand < inputs[o.name].wire.delay:
            raise CausalityError(
                f"input {o.name!r} is silent until tick "
                f"{inputs[o.name].wire.delay} but the definition of "
                f"{o.definition!r} reads it at delay {o.demand} "
                f"(line {o.pos[0]}, column {o.pos[1]})")
    def_names = [d.name for d in p.defs]
    def_set = set(def_names)
    succs = {n: [] for n in def_names}
    for o in occs:
        if o.name in def_set and o.name not in succs[o.definition]:
            succs[o.definition].append(o.name)
    raw_sccs = _tarjan(def_names, lambda v: succs[v])

    order_index = {n: i for i, n in enumerate(def_names)}
    self_loop = {(o.definition, o.name) for o in occs}
    sccs, recursive = [], set()
    for comp in raw_sccs:
        members = tuple(sorted(comp, key=order_index.get))
        if len(members) > 1 or (members[0], members[0]) in self_loop:
            recursive.update(members)
            zero = {(o.definition, o.name) for o in occs
                    if o.demand == 0 and o.definition in comp
                    and o.name in comp}
            members = _zero_delay_order(members, zero, occs)
        sccs.append(members)

    widths = {i.name: 1 for i in p.inputs}
    for comp in sccs:
        for n in comp:
            widths[n] = 1
        for n in comp:
            d = p.definition(n)
            w = _expr_width(d.expr, widths, n)
            if n in recursive:
                if w != 1:
                    raise TermTypeError(
                        f"recursive definition {n!r} must be a single "
                        "stream")
            else:
                widths[n] = w
    return Analysis(p, tuple(occs), tuple(sccs), frozenset(recursive),
                    widths)


# ---------------------------------------------------------------------------
# Elaboration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Entry:
    name: Optional[str]
    wire: WireType
    fed: bool = False


def _ws(env):
    return tuple(e.wire for e in env)


def _compose(steps, t):
    if not isinstance(t, Id):
        steps.append(t)


def _route(env, srcs):
    """Bring ``env[srcs]`` to the front (rest keeps order); returns a step."""
    rest = [i for i in range(len(env)) if i not in set(srcs)]
    perm = list(srcs) + rest
    t = perm_term(_ws(env), tuple(perm))
    return t, [env[i] for i in perm]


def _block(env, name, fed=False):
    for i, e in enumerate(env):
        if e.name == name and e.fed == fed:
            k = 1
            while i + k < len(env) and env[i + k].name == name \
                    and env[i + k].fed == fed:
                k += 1
            return i, k
    return None


def _pad_waits(steps, env, k, rounds):
    for _ in range(rounds):
        front = [Wait(env[j].wire) for j in range(k)]
        rest = _ws(env[k:])
        _compose(steps, par(*front, Id(rest)))
        env = [dataclasses.replace(env[j], wire=env[j].wire.shifted(1))
               for j in range(k)] + env[k:]
    return env


class _Elab:
    def __init__(self, analysis):
        self.an = analysis
        self.p = analysis.program
        self.widths = analysis.widths
        self.delays = {d.name: 0 for d in self.p.defs}
        self.delays.update(
            {i.name: i.wire.delay for i in self.p.inputs})

    # expression elaboration: extend ``steps`` with terms mapping the wires
    # of ``env`` to the result wires followed by the unchanged ``env``.

    def expr(self, e, d, env, scc, steps):
        if isinstance(e, Paren):
            return self.expr(e.expr, d, env, scc, steps)
        if isinstance(e, IntLit):
            _compose(steps, par(Const(e.value, INT, d), Id(_ws(env))))
            return [_Entry(None, WireType(INT, d))] + env
        if isinstance(e, UnifCall):
            _compose(steps,
                     par(Gen("unif", d, args=e.values()), Id(_ws(env))))
            return [_Entry(None, WireType(INT, d))] + env
        if isinstance(e, Ident):
            return self.use(e, d, env, scc, steps)
        if isinstance(e, Neg):
            env = self.expr(e.expr, d, env, scc, steps)
            _compose(steps, par(Gen("neg", d), Id(_ws(env[1:]))))
            return [_Entry(None, WireType(INT, d))] + env[1:]
        if isinstance(e, WaitCall):
            if d == 0:
                raise ElaborationError("wait(...) demanded at the first tick")
            env = self.expr(e.expr, d - 1, env, scc, steps)
            return _pad_waits(steps, env, self._width(e.expr), 1)
        if isinstance(e, TupleExpr):
            for item in e.items:
                env = self.expr(item, d, env, scc, steps)
            k = self._width(e)
            blocks, at = [], 0
            for item in reversed(e.items):
                w = self._width(item)
                blocks.insert(0, list(range(at, at + w)))
                at += w
            srcs = [i for b in blocks for i in b]
            t, env = _route(env, srcs)
            _compose(steps, t)
            return [dataclasses.replace(x, name=None) for x in env[:k]] \
                + env[k:]
        if isinstance(e, BinOp):
            if e.op == "fby":
                return self.fby(e, d, env, scc, steps)
            env = self.expr(e.lhs, d, env, scc, steps)
            env = self.expr(e.rhs, d, env, scc, steps)
            rw, lw = env[0].wire, env[1].wire
            _compose(steps, par(Sym((rw,), (lw,)), Id(_ws(env[2:]))))
            name = {"+": "plus", "-": "minus", "*": "times"}[e.op]
            _compose(steps, par(Gen(name, d), Id(_ws(env[2:]))))
            return [_Entry(None, WireType(INT, d))] + env[2:]
        raise ElaborationError(f"unknown expression node {e!r}")

    def _width(self, e):
        return _expr_width(e, self.widths, "?")

    def use(self, e, d, env, scc, steps):
        if e.name in scc and d >= 1:
            loc = _block(env, e.name, fed=True)
            if loc is None:
                raise ElaborationError(f"missing fed wire for {e.name!r}")
            pad = d - 1
        else:
            loc = _block(env, e.name, fed=False)
            if loc is None:
                raise ElaborationError(f"{e.name!r} is not available yet")
            pad = d - env[loc[0]].wire.delay
            if pad < 0:
                raise ElaborationError(
                    f"{e.name!r} used before its declared delay")
        i, k = loc
        ws = _ws(env)
        block = ws[i:i + k]
        _compose(steps, par(Id(ws[:i]), Copy(block), Id(ws[i + k:])))
        doubled = env[:i + k] + env[i:]  # second copy sits after the first
        t, env2 = _route(doubled, range(i + k, i + 2 * k))
        _compose(steps, t)
        env2 = [dataclasses.replace(x, name=None, fed=False)
                for x in env2[:k]] + env2[k:]
        return _pad_waits(steps, env2, k, pad)

    def fby(self, e, d, env, scc, steps):
        k = self._width(e)
        env = self.expr(e.lhs, d, env, scc, steps)
        # A recursive delayed slot cancels against the fed-back wire (read
        # one tick later); likewise when the slot cannot be produced this
        # early.  Otherwise a register delays the same-tick value internally;
        # the two encodings agree observationally.
        delayed = (scc and self._mentions(e.rhs, scc)) \
            or not self._demandable(e.rhs, d)
        env = self.expr(e.rhs, d + 1 if delayed else d, env, scc, steps)
        srcs = [j for i in range(k) for j in (k + i, i)]  # interleave (a, b)
        t, env = _route(env, srcs)
        _compose(steps, t)
        box = FbyBox if delayed else Register
        boxes = [box(env[2 * i].wire) for i in range(k)]
        _compose(steps, par(*boxes, Id(_ws(env[2 * k:]))))
        return [_Entry(None, env[2 * i].wire) for i in range(k)] \
            + env[2 * k:]

    def _demandable(self, e, d):
        """Can every leaf of ``e`` deliver a value at demand ``d``?"""
        if d < 0:
            return False
        if isinstance(e, Ident):
            return d >= self.delays[e.name]
        if isinstance(e, (Neg, Paren)):
            return self._demandable(e.expr, d)
        if isinstance(e, WaitCall):
            return self._demandable(e.expr, d - 1)
        if isinstance(e, BinOp):
            if e.op == "fby":
                return self._demandable(e.lhs, d) and \
                    (self._demandable(e.rhs, d)
                     or self._demandable(e.rhs, d + 1))
            return self._demandable(e.lhs, d) \
                and self._demandable(e.rhs, d)
        if isinstance(e, TupleExpr):
            return all(self._demandable(x, d) for x in e.items)
        return True  # literals and unif

    def _mentions(self, e, names):
        if isinstance(e, Ident):
            return e.name in names
        if isinstance(e, (Neg, Paren, WaitCall)):
            return self._mentions(e.expr, names)
        if isinstance(e, BinOp):
            return self._mentions(e.lhs, names) \
                or self._mentions(e.rhs, names)
        if isinstance(e, TupleExpr):
            return any(self._mentions(x, names) for x in e.items)
        return False

    # definition groups -----------------------------------------------------

    def group(self, comp, env, steps):
        if comp[0] not in self.an.recursive:
            n = comp[0]
            env = self.expr(self.p.definition(n).expr, 0, env, frozenset(),
                            steps)
            k = self.widths[n]
            return [dataclasses.replace(x, name=n) for x in env[:k]] \
                + env[k:]
        scc = frozenset(comp)
        fed = [_Entry(n, WireType(INT, 1), fed=True) for n in comp]
        benv = fed + env
        bsteps = []
        for n in comp:
            benv = self.expr(self.p.definition(n).expr, 0, benv, scc,
                             bsteps)
            if benv[0].wire != WireType(INT, 0):
                raise TermTypeError(
                    f"recursive definition {n!r} must produce an integer "
                    "stream at delay 0")
            benv = [dataclasses.replace(benv[0], name=n)] + benv[1:]
        k = len(comp)
        # values sit reversed in front; restore definition-group order
        order = {n: i for i, n in enumerate(comp)}
        srcs = sorted(range(k), key=lambda j: order[benv[j].name])
        t, benv = _route(benv, srcs)
        _compose(bsteps, t)
        vals, feds, outer = benv[:k], benv[k:2 * k], benv[2 * k:]
        _compose(bsteps, par(Copy(_ws(vals)), Discard(_ws(feds)),
                             Id(_ws(outer))))
        body = seq(*bsteps) if bsteps else Id(_ws(benv))
        _compose(steps, Fbk(_ws(vals), body))
        return [dataclasses.replace(v, fed=False) for v in vals] \
            + [dataclasses.replace(x) for x in outer]


def elaborate(p: Program, main: Optional[str] = None) -> Term:
    """Compile a causality-checked program to a feedback term.

    The result maps the declared input wires to the wires of ``main`` (by
    default the program's designated main).  Each recursive group becomes one
    ``Fbk``; every recursive use at delay d reads the fed-back wire through
    d−1 waits; non-recursive ``a fby b`` becomes a register.
    """
    an = check_causality(p)
    name = main if main is not None else p.main
    if p.definition(name) is None:
        raise TermTypeError(f"no definition named {name!r}")
    el = _Elab(an)
    env = [_Entry(i.name, i.wire) for i in p.inputs]
    in_ws = _ws(env)
    steps = []
    for comp in an.sccs:
        env = el.group(comp, env, steps)
    i, k = _block(env, name)
    t, env = _route(env, range(i, i + k))
    _compose(steps, t)
    rest = _ws(env[k:])
    if rest:
        _compose(steps, par(Id(_ws(env[:k])), Discard(rest)))
    if not steps:
        return Id(in_ws)
    return seq(*steps)
