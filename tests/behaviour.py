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

``exact`` and ``check`` each run with no cap and with ``--state-cap`` 3, 40
and 1000. Exit codes 0, 1, 3 and 5 occur.

Run ``python tests/behaviour.py`` to compare with ``DIGESTS``, or with
``--write`` to rewrite it after an intended change of output.
"""

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
    sys.path.insert(0, str(ROOT / "src"))
    lines = digests()
    if sys.argv[1:] == ["--write"]:
        DIGESTS.write_text("\n".join(lines) + "\n")
        print(f"wrote {len(lines)} digests to {DIGESTS.name}")
    else:
        diff = first_difference(lines, DIGESTS.read_text().splitlines())
        print(f"{len(lines)} commands; first difference: {diff}")
        sys.exit(diff is not None)
