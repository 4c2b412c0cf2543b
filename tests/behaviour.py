"""A fixed matrix of ``mstream`` commands, run in process, and a digest of
what each one prints.

Each command is run through ``cli.main`` from the repository root, with
paths relative to it, so that neither argv nor output depends on where the
checkout is. Its record is argv, exit code, stdout and stderr, and its
digest is the first 16 hex digits of the sha256 of that record.
``DIGESTS`` holds one line per command, in matrix order: its digest, then
its argv, so that a change of output shows there line by line.

The matrix, over the 7 program files of ``programs/`` and
``bench/programs/``:

- ``run`` (det, and stoch at seed 3) and ``sample --trials 2``;
- ``exact`` and ``exact --joint`` in json, csv and plain;
- ``check --horizon 4`` between every ordered pair of the files, in json
  and plain.

Those programs are closed, so every ``check`` among them observes the one
empty input prefix. A last block, ``check --horizon 5`` in json and plain
over the pairs of IR term literals of ``TERM_PAIRS``, observes programs
whose enumerable inputs give many prefixes:

- equal pairs: a coin beside a discarded input, against itself; a buffered
  input beside a coin, against the same wired another way; the identity on
  {0,1,2}, against a copy with one half discarded;
- pairs that differ at tick 0, 1 and 2, so that ``check`` prints the
  tables of 2, 16 and 8 prefixes a side;
- pairs whose interfaces differ (exit 3).

The coin beside a discarded input passes ``--state-cap`` 1000 at tick 4
(1024 entries), and the identity on {0,1,2} passes 40 at tick 3 part way
through the tick's prefixes. The term digests were written by the engine
that still mapped every input prefix to its table.

``exact`` and ``check`` each run with no cap and with ``--state-cap`` 3, 40
and 1000. Exit codes 0, 1, 3 and 5 occur.

Run ``python tests/behaviour.py`` to compare with ``DIGESTS``, or with
``--write`` to rewrite it after an intended change of output. With
``--src DIR`` it runs the matrix on the engine in ``DIR``, such as another
checkout's ``src/``, in place of this checkout's, and compares with this
checkout's ``DIGESTS``: ``python tests/behaviour.py --src ../parent/src``
prints the first command whose output the other engine changes.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "behaviour.sha256"
FILES = ["programs/counters.ms", "programs/ehrenfest.ms", "programs/fib.ms",
         "programs/running_sum.ms", "programs/walk.ms",
         "bench/programs/ehrenfest.ms", "bench/programs/fib.ms"]
CAPS = [[], ["--state-cap", "3"], ["--state-cap", "40"],
        ["--state-cap", "1000"]]
COIN = "par(discard[{0,1}@0], unif{0,1}@0)"
DELAYED_DRAW = "seq(unif{0,%s}@0, seq(wait[int@0], wait[int@1]))"
TERM_PAIRS = [
    (COIN, COIN),
    ("par(wait[{0,1}@0], unif{0,1}@0)",
     "seq(par(id[{0,1}@0], unif{0,1}@0), par(wait[{0,1}@0], id[int@0]))"),
    ("id[{0,1,2}@0]",
     "seq(copy[{0,1,2}@0], par(id[{0,1,2}@0], discard[{0,1,2}@0]))"),
    (COIN, "par(discard[{0,1}@0], const(0:int)@0)"),
    ("par(wait[{0,1}@0], wait[{0,1}@0])",
     "seq(sym[{0,1}@0|{0,1}@0], par(wait[{0,1}@0], wait[{0,1}@0]))"),
    (f"par(id[{{0,1}}@0], {DELAYED_DRAW % 1})",
     f"par(id[{{0,1}}@0], {DELAYED_DRAW % 2})"),
    (COIN, "id[{0,1}@0]"),
    ("id[{0,1}@0]", "id[{0,1,2}@0]"),
]


def commands():
    """Every argv of the matrix, in order."""
    for f in FILES:
        yield ["run", f]
        yield ["run", f, "--backend", "stoch", "--seed", "3"]
        yield ["sample", f, "--trials", "2"]
        for joint, fmt, cap in itertools.product(
                [[], ["--joint"]], ["json", "csv", "plain"], CAPS):
            yield ["exact", f, *joint, "--format", fmt, *cap]
    for a, b in itertools.product(FILES, repeat=2):
        for fmt, cap in itertools.product(["json", "plain"], CAPS):
            yield ["check", a, b, "--horizon", "4", "--format", fmt, *cap]
    for (a, b), fmt, cap in itertools.product(TERM_PAIRS, ["json", "plain"],
                                              CAPS):
        yield ["check", a, b, "--horizon", "5", "--format", fmt, *cap]


def record(argv) -> bytes:
    """argv, exit code, stdout and stderr of one in-process command."""
    from mstream.cli import main  # after ``__main__`` puts src/ on the path

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # a usage error
            code = e.code
    return repr((argv, code, out.getvalue(), err.getvalue())).encode()


def digests() -> list:
    """``"<digest of the record> <argv>"`` for each command, in order."""
    cwd = os.getcwd()
    cap = os.environ.pop("MSTREAM_STATE_CAP", None)
    os.chdir(ROOT)
    try:
        return [f"{hashlib.sha256(record(argv)).hexdigest()[:16]} "
                f"{' '.join(argv)}" for argv in commands()]
    finally:
        os.chdir(cwd)
        if cap is not None:
            os.environ["MSTREAM_STATE_CAP"] = cap


def first_difference(got, want):
    """The first line of ``got`` that differs from ``want``, or None."""
    for g, w in itertools.zip_longest(got, want):
        if g != w:
            return g if g is not None else f"missing: {w}"
    return None


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Compare the command matrix with its digests.")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--write", action="store_true",
                       help="rewrite the digests from this checkout")
    group.add_argument("--src", metavar="DIR", default=ROOT / "src",
                       help="run the engine in DIR instead of src/")
    args = parser.parse_args()
    sys.path.insert(0, str(Path(args.src).resolve()))
    lines = digests()
    if args.write:
        DIGESTS.write_text("\n".join(lines) + "\n")
        print(f"wrote {len(lines)} digests to {DIGESTS.name}")
    else:
        diff = first_difference(lines, DIGESTS.read_text().splitlines())
        print(f"{len(lines)} commands; first difference: {diff}")
        sys.exit(diff is not None)
