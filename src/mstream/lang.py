"""A small Lucid-like dataflow language: parser, causality check, elaborator.

A program is a list of stream equations (plus optional declared inputs) over
integers, with ``a fby b`` ("followed by"), ``wait(e)`` (one-tick delay with a
silent first tick) and ``unif(...)`` (uniform choice from a finite set of
integers).  ``parse`` builds the AST, ``check_causality`` verifies that every
dependency cycle passes through a delay and that widths and bases agree, and
``elaborate`` compiles the program to a single term over the default
generator signature (see ``sfg_ir``).  Each expression becomes its own term
over the names it uses, each definition is one step that routes the blocks
still read later, and each strongly connected component of definitions is
one ``Fbk`` whose fed-back wires cancel one syntactic delay per recursive use.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from math import inf
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
    Term,
    Wait,
    WireType,
    _TokenParser,
    par,
    perm_term,
    seq,
    shift_wires,
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
        self.names = []  # every name used, in source order
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
        for e in self.names:
            if e.name not in known:
                raise ParseError(f"undefined name {e.name!r}",
                                 e.pos[0], e.pos[1])

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
        """By operator precedence (``_LEVEL``).  Each open ``(`` or ``wait(``
        pushes a frame; ``vals`` holds its items so far, then operands."""
        frames, vals, ops = [], [], []
        while True:
            while self.at_op("-"):
                ops.append((_NEG, self.next()))
            t = self.peek()
            if t.text in ("(", "wait"):  # only an op or a name has this text
                if self.next().text == "wait":
                    self.eat_op("(")
                frames.append((t, vals, ops))
                vals, ops = [], []
                continue
            vals.append(self.atom())
            while True:  # after an operand: an operator or a closing bracket
                # apply the operators that bind tighter than the next one,
                # or all at the end; fby, at level 0, groups to the right
                lvl = _LEVEL.get(self.peek().text, -1)
                while ops and ops[-1][0] >= lvl + (lvl == 0):
                    prec, t = ops.pop()
                    if prec == _NEG:
                        vals[-1] = Neg(vals[-1], (t.line, t.col))
                    else:
                        b = vals.pop()
                        vals[-1] = BinOp(t.text, vals[-1], b, (t.line, t.col))
                if lvl >= 0:
                    ops.append((lvl, self.next()))
                    break
                if not frames:
                    return vals[0]
                t = frames[-1][0]
                if t.text == "(" and self.try_op(","):
                    break
                self.eat_op(")")
                pos = (t.line, t.col)
                e = (WaitCall(vals[0], pos) if t.text == "wait"
                     else Paren(vals[0], pos) if len(vals) == 1
                     else TupleExpr(tuple(vals), pos))
                _, vals, ops = frames.pop()
                vals.append(e)

    def atom(self):
        t = self.peek()
        if t.kind == "int":
            self.next()
            return IntLit(self.int_value(t), (t.line, t.col))
        if t.kind == "name":
            if t.text == "unif":
                self.next()
                return self.unif_args((t.line, t.col))
            if t.text in _KEYWORDS:
                self.fail(f"{t.text!r} cannot appear here")
            self.next()
            self.names.append(Ident(t.text, (t.line, t.col)))
            return self.names[-1]
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


#: ``fby`` binds loosest and to the right (``a fby b fby c`` is
#: ``a fby (b fby c)``), ``+ - *`` to the left, and unary minus tightest.
_LEVEL = {"fby": 0, "+": 1, "-": 1, "*": 2}
_NEG = 3


def parse(src: str) -> Program:
    """Parse program text into a :class:`Program`.

    The designated main stream is the definition named ``main`` when present,
    otherwise the last definition.  Raises :class:`ParseError` (with line and
    column) on malformed input, duplicate names, or unresolved references.
    """
    return _Parser(src).program()


# ---------------------------------------------------------------------------
# The walk and fold every pass over an expression runs on
# ---------------------------------------------------------------------------

def _walk(e, d=0, later=None) -> list:
    """``(node, demand, number of children)`` for every node of ``e`` at
    demand ``d``, parents and right subtrees first; ``wait(x)`` reads x a
    tick earlier, ``a fby b`` reads b one later or at ``later(node, d)``."""
    out, todo = [], [(e, d)]
    while todo:
        x, d = todo.pop()
        kind = type(x)
        if kind is BinOp:
            out.append((x, d, 2))
            todo.append((x.lhs, d))
            r = d if x.op != "fby" else d + 1 if later is None else later(x, d)
            todo.append((x.rhs, r))
        elif kind is Neg or kind is Paren or kind is WaitCall:
            out.append((x, d, 1))
            todo.append((x.expr, d - (kind is WaitCall)))
        elif kind is TupleExpr:
            out.append((x, d, len(x.items)))
            todo += [(item, d) for item in x.items]
        else:
            out.append((x, d, 0))
    return out


def _fold(nodes, f):
    """``f(node, demand, *values of its children)`` at every node of the walk
    ``nodes``, children first and left to right; returns the root's value."""
    vals = []
    for x, d, k in reversed(nodes):
        if k:
            vals[-k:] = [f(x, d, *vals[-k:])]
        else:
            vals.append(f(x, d))
    return vals[0]


# ---------------------------------------------------------------------------
# Pretty-printer
# ---------------------------------------------------------------------------

def pretty_expr(e: Expr) -> str:
    """The text of ``e``, joined from pieces that one walk over an explicit
    stack emits, so printing is linear. The stack holds closing text and
    ``(node, level its slot needs)``; an operand whose level is below its
    slot's is bracketed."""
    out, todo = [], [(e, 0)]
    while todo:
        item = todo.pop()
        if type(item) is str:
            piece = item
        else:
            x, ctx = item
            kind = type(x)
            lvl = (_LEVEL[x.op] if kind is BinOp else _NEG if kind is Neg
                   else 4)
            if lvl < ctx:
                piece = "("
                todo += (")", (x, 0))
            elif kind is BinOp:
                if x.op == "fby":
                    todo += ((x.rhs, 0), " fby ", (x.lhs, 1))
                else:
                    todo += ((x.rhs, lvl + 1), f" {x.op} ", (x.lhs, lvl))
                continue
            elif kind is Neg:
                piece = "-"
                todo.append((x.expr, _NEG))
            elif kind is WaitCall or kind is Paren:
                piece = "wait(" if kind is WaitCall else "("
                todo += (")", (x.expr, 0))
            elif kind is TupleExpr:
                piece = "("
                todo.append(")")
                for i in reversed(range(len(x.items))):
                    todo.append((x.items[i], 0))
                    if i:
                        todo.append(", ")
            else:
                piece = _leaf_text(x)
        if piece[0] == "-" and out and out[-1] == "-":
            out[-1] = "- "  # a space keeps "- -1" from reading as a comment
        out.append(piece)
    return "".join(out)


def _leaf_text(e) -> str:
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, Ident):
        return e.name
    if isinstance(e, UnifCall):
        inner = ", ".join(str(v) for v in e.args)
        if e.form == "set":
            return "unif{" + inner + "}"
        if e.form == "range":
            return f"unif({e.args[0]}..{e.args[1]})"
        return "unif(" + inner + ")"
    raise ElaborationError(f"unknown expression node {e!r}")


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


def _collect(defn: Definition, nodes):
    late = [e.pos for e, d, _ in nodes if isinstance(e, WaitCall) and d == 0]
    if late:
        line, col = min(late)  # the first in the source
        raise CausalityError(
            f"wait(...) at line {line}, column {col} needs an enclosing "
            "delay: its result has no value at the first tick")
    return [Occurrence(defn.name, e.name, d, e.pos)  # in source order
            for e, d, _ in reversed(nodes) if isinstance(e, Ident)]


def _tarjan(nodes, succ):
    """Strongly connected components, dependencies first; no recursion."""
    index, low, on, stack, out = {}, {}, set(), [], []
    for root in nodes:
        work = [] if root in index else [(root, None)]
        while work:
            v, it = work.pop()
            if it is None:
                index[v] = low[v] = len(index)
                stack.append(v)
                on.add(v)
                it = iter(succ(v))
            for w in it:
                if w not in index:
                    work += [(v, it), (w, None)]
                    break
                if w in on:
                    low[v] = min(low[v], index[w])
            else:
                if work:  # v is done, and its caller reaches what v reaches
                    low[work[-1][0]] = min(low[work[-1][0]], low[v])
                if low[v] == index[v]:
                    i = stack.index(v)
                    out.append(stack[i:])
                    on.difference_update(stack[i:])
                    del stack[i:]
    return out


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


def _expr_bases(nodes, bases, defn):
    """The base of each wire of ``e``; operands of ``+ - *`` and unary minus
    must be single int streams, and both sides of ``fby`` must agree."""
    def based(e, d, *kids):
        if isinstance(e, (IntLit, UnifCall)):
            return (INT,)
        if isinstance(e, Ident):
            return bases[e.name]
        if isinstance(e, (Paren, WaitCall)):
            return kids[0]
        if isinstance(e, Neg):
            b, = kids
            if len(b) != 1:
                raise TermTypeError(f"operand of unary minus in {defn!r} is "
                                    "not a single stream")
            if b != (INT,):
                raise TermTypeError(
                    f"operand of unary minus in {defn!r} must be an int "
                    f"stream, not {b[0]!r}")
            return b
        if isinstance(e, TupleExpr):
            return tuple(b for bs in kids for b in bs)
        lb, rb = kids
        if e.op == "fby":
            if len(lb) != len(rb):
                raise TermTypeError(
                    f"fby in {defn!r} combines streams of width {len(lb)} "
                    f"and {len(rb)}")
            if lb != rb:
                raise TermTypeError(
                    f"fby in {defn!r} combines {_bases_str(lb)} and "
                    f"{_bases_str(rb)} streams")
            return lb
        if len(lb) != 1 or len(rb) != 1:
            raise TermTypeError(
                f"operands of {e.op!r} in {defn!r} must be single streams")
        if lb + rb != (INT, INT):
            raise TermTypeError(
                f"operands of {e.op!r} in {defn!r} must be int streams, not "
                f"{lb[0]!r} and {rb[0]!r}")
        return lb

    return _fold(nodes, based)


def _bases_str(bases):
    return ", ".join(repr(b) for b in bases)


def check_causality(p: Program) -> Analysis:
    """Verify that every dependency cycle passes through a delay.

    Returns the dependency analysis used by :func:`elaborate`: all name uses
    annotated with their demanded delay, strongly connected components of the
    definition graph in elaboration order, and stream widths.  Raises
    :class:`CausalityError` on an unguarded cycle, a ``wait`` whose result is
    needed at the first tick, or an input read before its declared delay,
    and :class:`TermTypeError`, naming the definition, when widths or bases
    do not fit.
    """
    walks = {d.name: _walk(d.expr) for d in p.defs}
    occs = [o for d in p.defs for o in _collect(d, walks[d.name])]
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

    bases = {i.name: (i.wire.base,) for i in p.inputs}
    for comp in sccs:
        for n in comp:
            bases[n] = (INT,)
        for n in comp:
            b = _expr_bases(walks[n], bases, n)
            if n in recursive:
                if len(b) != 1:
                    raise TermTypeError(
                        f"recursive definition {n!r} must be a single "
                        "stream")
            else:
                bases[n] = b
    widths = {n: len(b) for n, b in bases.items()}
    return Analysis(p, tuple(occs), tuple(sccs), frozenset(recursive),
                    widths)


# ---------------------------------------------------------------------------
# Elaboration
# ---------------------------------------------------------------------------

_OPS = {"+": "plus", "-": "minus", "*": "times"}


def _seq(*ts):
    """``seq`` of the terms that are not identities."""
    steps = [t for t in ts if not isinstance(t, Id)]
    return seq(*steps) if steps else ts[0]


def _beside(t, ws):
    """``t`` with the wires ``ws`` passing by below it."""
    return par(t, Id(ws)) if ws else t


def _gather(env, picks):
    """The wiring from the blocks of ``env`` to the blocks ``picks``, in order.

    Blocks are ``(key, wires)`` pairs.  A block picked n ≥ 2 times is copied
    n − 1 times, an unpicked one is discarded, and one permutation puts the
    copies in the order of ``picks``.
    """
    counts = Counter(key for key, _ in picks)
    parts, ids, outs, copies = [], [], [], {}
    for key, ws in env:
        n = counts[key]
        if n == 1:
            ids += ws
        else:
            if ids:
                parts.append(Id(tuple(ids)))
                ids = []
            part = Discard(ws) if n == 0 else Id(ws)
            for c in range(1, n):
                part = _seq(part, _beside(Copy(ws), ws * (c - 1)))
            parts.append(part)
        copies[key] = iter(range(len(outs), len(outs) + n * len(ws)))
        outs += ws * n
    if ids:
        parts.append(Id(tuple(ids)))
    perm = [next(copies[key]) for key, ws in picks for _ in ws]
    layer = par(*parts) if parts else Id(())
    return _seq(layer, perm_term(tuple(outs), perm))


class _Elab:
    """Each expression becomes its own term over the env blocks it uses.

    An env block is ``((name, fed), wires)``: a declared input, an elaborated
    definition, or (``fed``) the fed-back wire of a recursive definition.
    ``last[name]`` is the index of the last SCC that reads ``name``.
    """

    def __init__(self, analysis):
        self.an = analysis
        p = analysis.program
        self.exprs = {d.name: d.expr for d in p.defs}
        self.delays = dict.fromkeys(self.exprs, 0)
        self.delays.update({i.name: i.wire.delay for i in p.inputs})
        self.wires = {(i.name, False): (i.wire,) for i in p.inputs}
        at = {n: k for k, comp in enumerate(analysis.sccs) for n in comp}
        self.last = dict.fromkeys(self.delays, -1)
        for o in analysis.occurrences:
            self.last[o.name] = max(self.last[o.name], at[o.definition])

    def node(self, scc, e, d, *kids):
        """``(t, uses, outs)``: ``t`` maps the env blocks ``uses``, in order,
        to the wires ``outs`` of ``e`` at demand ``d``, given its operands'."""
        if isinstance(e, BinOp):
            (ta, ua, oa), (tb, ub, ob) = kids
            if e.op != "fby":
                return (seq(par(ta, tb), Gen(_OPS[e.op], d)), ua + ub,
                        (WireType(INT, d),))
            # Every value sits at its demand, so the second slot is a tick
            # late exactly when _later raised its demand: an fby box then
            # takes it as is (for a recursive use, the fed-back wire), and
            # otherwise a register delays the same-tick value internally.
            # The two encodings agree observationally.
            k = len(oa)
            pairs = perm_term(oa + ob, [j for i in range(k) for j in (i, k + i)])
            box = Register if oa == ob else FbyBox
            return (_seq(par(ta, tb), pairs, par(*(box(w) for w in oa))),
                    ua + ub, oa)
        if isinstance(e, IntLit):
            return Const(e.value, INT, d), [], (WireType(INT, d),)
        if isinstance(e, Ident):
            # a recursive use after a delay reads the fed-back block (delay 1)
            key = (e.name, e.name in scc and d >= 1)
            ws = self.wires[key]
            t, outs = Id(ws), ws
            for _ in range(d - ws[0].delay):
                t = _seq(t, par(*(Wait(w) for w in outs)))
                outs = shift_wires(outs)
            return t, [(key, ws)], outs
        if isinstance(e, Paren):
            return kids[0]
        if isinstance(e, UnifCall):
            return (Gen("unif", d, args=e.values()), [],
                    (WireType(INT, d),))
        if isinstance(e, Neg):
            t, uses, _ = kids[0]
            return _seq(t, Gen("neg", d)), uses, (WireType(INT, d),)
        if isinstance(e, WaitCall):
            t, uses, outs = kids[0]
            return (_seq(t, par(*(Wait(w) for w in outs))), uses,
                    shift_wires(outs))
        if isinstance(e, TupleExpr):
            return (par(*(t for t, _, _ in kids)),
                    [u for _, uses, _ in kids for u in uses],
                    tuple(w for _, _, outs in kids for w in outs))
        raise ElaborationError(f"unknown expression node {e!r}")

    def _later(self, e, scc):
        """``later(x, d)`` for walking ``e``: the demand of the second slot of
        the fby ``x`` at demand d, one more when a node of it has no value at
        d (a use of ``scc`` has none).  ``slack[id(n)]`` is the least demand
        less need in n's subtree, less n's own demand."""
        slack = {}

        def note(x, d, *kids):
            lo = min((d, *kids))
            if type(x) is Ident:
                lo = -inf if x.name in scc else d - self.delays[x.name]
            slack[id(x)] = lo - d
            return lo

        _fold(_walk(e), note)
        return lambda x, d: d + (d + slack[id(x.rhs)] < 0)

    # definitions -----------------------------------------------------------

    def define(self, name, scc, env, after):
        """One step from ``env`` to the wires of ``name`` followed by the
        blocks still read after SCC ``after``, and the env after it."""
        e = self.exprs[name]
        nodes = _walk(e, 0, self._later(e, scc))
        t, uses, outs = _fold(nodes, partial(self.node, scc))
        self.wires[name, False] = outs
        keep = [b for b in env if self.last[b[0][0]] > after]
        rest = tuple(w for _, ws in keep for w in ws)
        step = _seq(_gather(env, uses + keep), _beside(t, rest))
        return step, [((name, False), outs)] + keep

    def group(self, k, comp, env):
        """The step of SCC ``k``, ``comp``, and the env after it."""
        if comp[0] not in self.an.recursive:
            return self.define(comp[0], frozenset(), env, k)
        scc = frozenset(comp)
        fed = [((n, True), (WireType(INT, 1),)) for n in comp]
        vals = [((n, False), (WireType(INT, 0),)) for n in comp]
        self.wires.update(fed)
        steps, benv = [], fed + env
        for n in comp:  # the group reads its own blocks until its end
            step, benv = self.define(n, scc, benv, k - 1)
            steps.append(step)
        # feed every value back, copy out those read later, drop the rest
        out = [b for b in vals + env if self.last[b[0][0]] > k]
        steps.append(_gather(benv, vals + out))
        return Fbk((WireType(INT, 0),) * len(comp), seq(*steps)), out


def elaborate(p: Program, main: Optional[str] = None) -> Term:
    """Compile a causality-checked program to a feedback term.

    The result maps the declared input wires to the wires of ``main`` (by
    default the program's designated main).  Each definition is one step:
    one wiring brings the env blocks its expression uses in front of the
    blocks still read later, and discards the rest; the expression's own
    term maps its blocks to its value.  Each recursive group becomes one
    ``Fbk``; every recursive use at delay d reads the fed-back wire through
    d−1 waits; non-recursive ``a fby b`` becomes a register.
    """
    an = check_causality(p)
    el = _Elab(an)
    name = main if main is not None else p.main
    if name not in el.exprs:
        raise TermTypeError(f"no definition named {name!r}")
    el.last[name] = len(an.sccs)  # read by the final selection
    env = [((i.name, False), (i.wire,)) for i in p.inputs]
    steps = []
    for k, comp in enumerate(an.sccs):
        step, env = el.group(k, comp, env)
        steps.append(step)
    steps.append(_gather(env, [((name, False), el.wires[name, False])]))
    return _seq(*steps)
