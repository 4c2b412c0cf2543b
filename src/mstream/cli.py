"""Command-line front end: run, sample, exact-observe and compare programs.

``mstream run|sample|exact|check`` executes ``.ms`` dataflow programs (or IR
term literals, for ``check``) and emits machine-readable traces and
distributions.  ``run`` and ``sample`` print each line as soon as its tick is
computed, so a long run holds one tick at a time; the engine checks every
``--inputs`` row against the program's input shapes before it computes the
first tick, so a malformed input leaves nothing printed.  ``exact`` and
``check`` compute their output in full before printing it, so a state-cap
hit at a late tick leaves no partial output behind.

Exit codes: 0 success; 1 check found a difference; 2 syntax errors; 3
causality or type errors (including malformed inputs); 4 a stochastic program
under the deterministic backend; 5 state-cap exceeded.

When the reader of standard output goes away, as ``mstream run … | head``
does, the command stops printing and exits with the code it would have
returned, writing nothing to standard error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from functools import cache
from itertools import chain
from typing import Iterator, Optional

from .errors import (
    MStreamError,
    NondeterministicStream,
    ParseError,
    ShapeMismatch,
    StateCapExceeded,
)
from .lang import elaborate, parse
from .rng import mix
from .sfg_ir import (
    Signature,
    compile as compile_term,
    default_signature,
    is_stochastic,
    read_term,
)
from .stream_core import (
    _compare,
    iter_det,
    iter_sample,
    obs_equal,  # noqa: F401 - bench/tracing.py wraps cli.obs_equal by name
    observe,
    observe_marginals,
    run_det,  # noqa: F401 - bench/tracing.py wraps cli.run_det by name
    sample_trace,  # noqa: F401 - bench/tracing.py wraps it by name
)
from .values import value_key, value_str


def _read_text(path) -> str:
    """The text of a UTF-8 file; an unreadable one is a syntax error at 0:0."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise ParseError(f"cannot read {path}: not UTF-8 ({e.reason})", 0, 0)
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror}", 0, 0)


def _read_inputs(path):
    """A tuple per non-blank line, of the values wires carry: int, bool, unit."""
    rows = []
    for ln, line in enumerate(_read_text(path).split("\n"), 1):
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as e:
            raise ParseError(f"inputs: {e.msg}", ln, e.colno)
        except RecursionError:
            raise ParseError("inputs: arrays nested too deeply", ln, 1)
        if not isinstance(data, list):
            raise ShapeMismatch(
                f"inputs line {ln}: each tick must be an array of values")
        if not all(v is None or isinstance(v, int) for v in data):  # or bool
            raise ShapeMismatch(f"inputs line {ln}: each value must be an "
                                "integer, true, false or null")
        rows.append(tuple(data))
    return rows


def _load_term(source, main):
    """A .ms file elaborates as a program; anything else reads as a term."""
    if os.path.exists(source) or source.endswith(".ms"):
        return elaborate(parse(_read_text(source)), main)
    return read_term(source)


def _build(args, sig: Signature):
    term = _load_term(args.source, args.main)
    return term, compile_term(term, sig)


def _input_rows(args, stream):
    """The ``--inputs`` rows of ticks 0..steps, or None for a closed
    program."""
    n = args.steps + 1
    seq = stream.in_seq
    open_program = any(seq.prefix[:n]) or (len(seq.prefix) < n
                                           and seq.tail != ())
    if args.inputs is None:
        if open_program:
            raise ShapeMismatch(
                "the program has inputs; provide --inputs FILE "
                "(JSON lines, one array per tick)")
        return None
    rows = _read_inputs(args.inputs)
    if len(rows) < args.steps + 1:
        raise ShapeMismatch(
            f"--steps {args.steps} needs {args.steps + 1} input rows, "
            f"got {len(rows)}")
    return rows[:n]


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------

def _row_key(v):
    """Width-1 rows display as the bare value."""
    if isinstance(v, tuple) and len(v) == 1:
        return value_str(v[0])
    return value_str(v)


def _dist_json(d):
    return {_row_key(v): f"{q.numerator}/{q.denominator}"
            for v, q in d.items()}


class _Echo:
    """A file whose ``write`` returns its text: a csv writer's ``writerow``
    over it returns the formatted line."""

    def write(self, text):
        return text


#: One csv record, without its line terminator.
_csv_line = csv.writer(_Echo(), lineterminator="").writerow


def _trace_lines(trace, fmt, trial=None) -> Iterator[str]:
    """One line per output row of ``trace``, each formatted as it comes.
    A JSON line's ``out`` is the row itself: ``json`` writes a tuple as an
    array and ``None`` as null, as :func:`values.value_to_json` would. A
    row of plain ints (not bools, which ``json`` writes as ``true`` and
    ``false``) is joined directly, into the bytes ``json`` would write."""
    if fmt == "json":
        head = '{"t": ' if trial is None else f'{{"trial": {trial}, "t": '
        for t, row in enumerate(trace):
            if all(type(v) is int for v in row):
                yield f'{head}{t}, "out": [{", ".join(map(str, row))}]}}'
            else:
                yield f'{head}{t}, "out": {json.dumps(row)}}}'
    elif fmt == "csv":
        head = [] if trial is None else [trial]
        for t, row in enumerate(trace):
            yield _csv_line(head + [t] + [value_str(v) for v in row])
    else:
        head = "" if trial is None else f"trial {trial} "
        for t, row in enumerate(trace):
            yield f"{head}t={t}: " + " ".join(map(value_str, row))


def _dist_lines(dists, fmt, joint_row=None):
    if fmt == "json":
        out = [json.dumps({"t": t, "dist": _dist_json(d)})
               for t, d in enumerate(dists)]
        if joint_row is not None:
            out.append(json.dumps(joint_row))
        return out
    if fmt == "csv":
        rows = []
        for t, d in enumerate(dists):
            for v, q in d.items():
                rows.append([t, _row_key(v), f"{q.numerator}/{q.denominator}"])
        if joint_row is not None:
            for k, p in joint_row["joint"].items():
                rows.append(["joint", k, p])
        return [_csv_line(r) for r in rows]
    out = []
    for t, d in enumerate(dists):
        cells = ", ".join(f"{k}: {p}" for k, p in _dist_json(d).items())
        out.append(f"t={t}  {{{cells}}}")
    if joint_row is not None:
        cells = ", ".join(f"{k}: {p}" for k, p in joint_row["joint"].items())
        out.append(f"joint  {{{cells}}}")
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_run(args: argparse.Namespace) -> Iterator[str]:
    """The lines of one trace, each computed when it is taken."""
    sig = default_signature()
    term, stream = _build(args, sig)
    rows = _input_rows(args, stream)
    if args.backend == "det":
        if is_stochastic(term, sig):
            raise NondeterministicStream(
                "the program samples; rerun with --backend stoch or use "
                "`mstream sample`")
        trace = iter_det(stream, rows, args.steps)
    else:
        trace = iter_sample(stream, rows, args.steps, args.seed)
    return _trace_lines(trace, args.fmt)


def cmd_sample(args: argparse.Namespace) -> Iterator[str]:
    """The lines of every trial in turn, each computed when it is taken."""
    _, stream = _build(args, default_signature())
    rows = _input_rows(args, stream)
    return chain.from_iterable(
        _trace_lines(iter_sample(stream, rows, args.steps, mix(args.seed, i)),
                     args.fmt, trial=i)
        for i in range(args.trials))


def cmd_exact(args: argparse.Namespace) -> list:
    _, stream = _build(args, default_signature())
    dists = observe_marginals(stream, args.steps, args.state_cap)
    joint_row = None
    if args.joint:
        proc = observe(stream, args.steps, args.state_cap)
        joint_row = {
            "joint": _dist_json(proc.dist(())),
            "slices": [[r.start, r.stop] for r in proc.out_slices()],
        }
    return _dist_lines(dists, args.fmt, joint_row)


def cmd_check(a: str, b: str, horizon: int, main: Optional[str],
              fmt: str, cap: Optional[int]) -> tuple:
    """Returns (exit_code, lines)."""
    sig = default_signature()
    sa = compile_term(_load_term(a, main), sig)
    sb = compile_term(_load_term(b, main), sig)
    k, ta, tb = _compare(sa, sb, horizon, cap)
    if k is None:
        if fmt == "json":
            return 0, [json.dumps({"equal": True, "horizon": horizon})]
        return 0, [f"equal up to t={horizon}"]
    # input prefixes in the canonical order, as a Dist orders its rows
    left, right = ({value_str(r): _dist_json(tab[r])
                    for r in sorted(tab, key=value_key)} for tab in (ta, tb))
    if fmt == "json":
        return 1, [json.dumps(
            {"equal": False, "t": k, "left": left, "right": right})]
    return 1, [f"differ at t={k}"] + [
        f"{label} {r} -> {json.dumps(d)}"
        for label, tab in (("left", left), ("right", right))
        for r, d in tab.items()]


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _nonneg(text):
    v = int(text)
    if v < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return v


def _positive(text):
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return v


def _common(sub, inputs=True):
    sub.add_argument("source", help=".ms program file")
    sub.add_argument("--main", help="definition to run (default: `main` "
                     "or the last definition)")
    sub.add_argument("--steps", type=_nonneg, default=9,
                     help="last tick; ticks 0..N are produced (default 9)")
    sub.add_argument("--format", dest="fmt", default="json",
                     choices=("json", "csv", "plain"))
    if inputs:
        sub.add_argument("--inputs", default=None,
                         help="JSON-lines file, one array of values per "
                         "tick")


@cache
def build_parser():
    """The parser of every command, built on first use and then reused."""
    cap_help = ("abort exact enumeration beyond this many states "
                "(default: MSTREAM_STATE_CAP or 10^6)")
    p = argparse.ArgumentParser(
        prog="mstream",
        description="Run, sample, exactly observe, and compare synchronous "
        "stream programs.")
    sp = p.add_subparsers(dest="cmd", required=True)

    run = sp.add_parser("run", help="execute one trace")
    _common(run)
    run.add_argument("--backend", choices=("det", "stoch"), default="det")
    run.add_argument("--seed", type=int, default=0)

    sam = sp.add_parser("sample", help="draw independent seeded traces")
    _common(sam)
    sam.add_argument("--seed", type=int, default=0)
    sam.add_argument("--trials", type=_positive, default=1)

    ex = sp.add_parser("exact", help="exact per-tick output distributions")
    _common(ex, inputs=False)
    ex.add_argument("--state-cap", type=_positive, default=None,
                    help=cap_help)
    ex.add_argument("--joint", action="store_true",
                    help="also emit the joint distribution over all ticks")

    ch = sp.add_parser("check", help="observational equality of two "
                       "programs or term literals")
    ch.add_argument("a", help=".ms file or term literal")
    ch.add_argument("b", help=".ms file or term literal")
    ch.add_argument("--horizon", type=_nonneg, default=5)
    ch.add_argument("--main", default=None)
    ch.add_argument("--format", dest="fmt", default="json",
                    choices=("json", "plain"))
    ch.add_argument("--state-cap", type=_positive, default=None,
                    help=cap_help)
    return p


def _drop_stdout():
    """Point standard output at the null device once its reader is gone,
    so that the flush at exit does not fail again and report on stderr.
    An in-process stdout without a file descriptor is left as it is."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError):
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def main(argv=None) -> int:
    # values are unbounded integers: lift Python's limit on the digits of an
    # int/str conversion (3.10.7 and later) while the command runs
    if not hasattr(sys, "set_int_max_str_digits"):
        return _main(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _main(argv) -> int:
    args = build_parser().parse_args(argv)
    text = os.environ.get("MSTREAM_STATE_CAP")
    if (args.cmd in ("exact", "check") and args.state_cap is None
            and text is not None):
        try:
            args.state_cap = _positive(text)
        except (ValueError, argparse.ArgumentTypeError):
            print("mstream: MSTREAM_STATE_CAP must be a positive integer, "
                  f"got {text!r}", file=sys.stderr)
            return 2
    try:
        if args.cmd == "check":
            code, lines = cmd_check(args.a, args.b, args.horizon, args.main,
                                    args.fmt, args.state_cap)
        else:
            code = 0
            lines = {"run": cmd_run, "sample": cmd_sample,
                     "exact": cmd_exact}[args.cmd](args)
        try:
            for line in lines:
                print(line)
            sys.stdout.flush()
        except BrokenPipeError:
            _drop_stdout()
    except ParseError as e:
        print(f"mstream: syntax error: {e}", file=sys.stderr)
        return 2
    except NondeterministicStream as e:
        print(f"mstream: {e}", file=sys.stderr)
        return 4
    except StateCapExceeded as e:
        print(f"mstream: {e}", file=sys.stderr)
        return 5
    except MStreamError as e:  # causality, type, shape and other errors
        print(f"mstream: {e}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
