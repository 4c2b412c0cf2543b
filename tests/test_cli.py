import contextlib
import csv
import gc
import io
import json
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from mstream.cli import _trace_lines, build_parser, main
from mstream.kernel import Kernel
from mstream.stream_core import Stream
from mstream.values import value_str, value_to_json

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"
FIB = str(PROGRAMS / "fib.ms")
WALK = str(PROGRAMS / "walk.ms")
EHRENFEST = str(PROGRAMS / "ehrenfest.ms")
COUNTERS = str(PROGRAMS / "counters.ms")
RUNNING_SUM = str(PROGRAMS / "running_sum.ms")
RAMP = str(PROGRAMS / "ramp_inputs.jsonl")

RANGE_W = "int[0..1]@0"
WAIT = f"wait[{RANGE_W}]"
FBK_SYM = f"fbk[{RANGE_W}](sym[int[0..1]@1|{RANGE_W}])"
COIN_COPY = "seq(unif{0,1}@0, copy[int@0])"
TWO_COINS = "par(unif{0,1}@0, unif{0,1}@0)"


def cli(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def out_values(stdout):
    """Single-output JSON trace -> list of values."""
    rows = [json.loads(line) for line in stdout.splitlines()]
    assert [r["t"] for r in rows] == list(range(len(rows)))
    return [r["out"][0] for r in rows]


def test_parser_is_built_once_and_keeps_no_state():
    p = build_parser()
    assert build_parser() is p
    a = p.parse_args(["exact", FIB, "--steps", "3", "--joint"])
    b = p.parse_args(["exact", FIB])
    c = p.parse_args(["check", FIB, WALK])
    assert (a.steps, a.joint, b.steps, b.joint) == (3, True, 9, False)
    assert (c.cmd, c.horizon, c.state_cap) == ("check", 5, None)
    assert not hasattr(c, "joint")


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_fib(capsys):
    code, out, err = cli(capsys, "run", FIB, "--steps", "9")
    assert code == 0 and err == ""
    assert out_values(out) == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]


def test_run_default_steps(capsys):
    code, out, _ = cli(capsys, "run", FIB)
    assert code == 0
    assert len(out.splitlines()) == 10


def test_run_counters_main_flag(capsys):
    code, out, _ = cli(capsys, "run", COUNTERS, "--steps", "4", "--main", "a")
    assert code == 0
    assert out_values(out) == [0, 1, 2, 3, 4]
    code, out, _ = cli(capsys, "run", COUNTERS, "--steps", "4")
    assert out_values(out) == [1, 2, 3, 4, 5]


def test_run_stochastic_under_det_exits_4(capsys):
    code, out, err = cli(capsys, "run", WALK, "--steps", "3")
    assert code == 4
    assert out == ""
    assert "stoch" in err


def test_run_walk_stoch_backend(capsys):
    code, out, _ = cli(capsys, "run", WALK, "--steps", "20",
                       "--backend", "stoch", "--seed", "7")
    assert code == 0
    vals = out_values(out)
    assert vals[0] == 0
    assert all(b - a in (-1, 1) for a, b in zip(vals, vals[1:]))


def test_run_syntax_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.ms"
    bad.write_text("x = 1 +\n")
    code, out, err = cli(capsys, "run", str(bad))
    assert code == 2
    assert out == ""
    assert "syntax" in err


@pytest.mark.parametrize("argv", [
    ["check", "id[int[2..1]@0]", "id"],
    ["check", "id[{1,1}@0]", "id"],
    ["check", "id[bool@-2]", "id[bool@0]"],
    ["run", "{repeated}"],
])
def test_malformed_base_or_delay_exits_2(tmp_path, argv):
    repeated = tmp_path / "repeated.ms"
    repeated.write_text("input x : {1,1}\nmain = x\n")
    argv = [str(repeated) if a == "{repeated}" else a for a in argv]
    p = subprocess.run([sys.executable, "-m", "mstream", *argv],
                       capture_output=True, text=True)
    assert p.returncode == 2
    assert p.stdout == ""
    assert p.stderr.startswith("mstream: syntax error: ")
    assert "Traceback" not in p.stderr


def test_run_missing_file_exits_2(capsys):
    code, _, err = cli(capsys, "run", "no_such_program.ms")
    assert code == 2
    assert "no_such_program.ms" in err


def test_run_causality_error_exits_3(tmp_path, capsys):
    bad = tmp_path / "loop.ms"
    bad.write_text("x = x + 1\n")
    code, out, err = cli(capsys, "run", str(bad))
    assert code == 3
    assert out == ""
    assert "x" in err


def test_run_with_inputs(capsys):
    code, out, _ = cli(capsys, "run", RUNNING_SUM, "--steps", "4",
                       "--inputs", RAMP)
    assert code == 0
    assert out_values(out) == [0, 1, 3, 6, 10]


def test_run_open_program_needs_inputs(capsys):
    code, _, err = cli(capsys, "run", RUNNING_SUM, "--steps", "2")
    assert code == 3
    assert "--inputs" in err


def test_run_too_few_input_rows(capsys):
    code, _, err = cli(capsys, "run", RUNNING_SUM, "--steps", "30",
                       "--inputs", RAMP)
    assert code == 3
    assert "31" in err


def test_run_bad_inputs_json(tmp_path, capsys):
    f = tmp_path / "inputs.jsonl"
    f.write_text("[1\n")
    code, _, err = cli(capsys, "run", RUNNING_SUM, "--steps", "0",
                       "--inputs", str(f))
    assert code == 2


def test_run_non_array_input_row(tmp_path, capsys):
    f = tmp_path / "inputs.jsonl"
    f.write_text('{"x": 1}\n')
    code, _, err = cli(capsys, "run", RUNNING_SUM, "--steps", "0",
                       "--inputs", str(f))
    assert code == 3


def test_run_csv_format(capsys):
    code, out, _ = cli(capsys, "run", FIB, "--steps", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["0,0", "1,1", "2,1", "3,2"]


def test_run_plain_format(capsys):
    code, out, _ = cli(capsys, "run", FIB, "--steps", "2",
                       "--format", "plain")
    assert code == 0
    assert out.splitlines() == ["t=0: 0", "t=1: 1", "t=2: 1"]


def test_run_term_literal(capsys):
    code, out, _ = cli(capsys, "run", "const(5:int)@0", "--steps", "2")
    assert code == 0
    assert out_values(out) == [5, 5, 5]


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------

def test_exact_walk_t2(capsys):
    code, out, err = cli(capsys, "exact", WALK, "--steps", "2")
    assert code == 0 and err == ""
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows[0] == {"t": 0, "dist": {"0": "1/1"}}
    assert rows[1] == {"t": 1, "dist": {"-1": "1/2", "1": "1/2"}}
    assert rows[2] == {"t": 2, "dist": {"-2": "1/4", "0": "1/2", "2": "1/4"}}


def test_exact_deterministic_all_dirac(capsys):
    code, out, _ = cli(capsys, "exact", FIB, "--steps", "5")
    assert code == 0
    fibs = [0, 1, 1, 2, 3, 5]
    for t, line in enumerate(out.splitlines()):
        row = json.loads(line)
        assert row == {"t": t, "dist": {str(fibs[t]): "1/1"}}


def ehrenfest_oracle(k):
    """Occupancy of urn 1 after k single-ball moves, 4 balls, start full."""
    row = {4: Fraction(1)}
    for _ in range(k):
        nxt = {}
        for s, p in row.items():
            if s > 0:
                nxt[s - 1] = nxt.get(s - 1, Fraction(0)) + p * Fraction(s, 4)
            if s < 4:
                nxt[s + 1] = nxt.get(s + 1, Fraction(0)) + p * Fraction(4 - s, 4)
        row = nxt
    return row


def test_exact_ehrenfest_matches_oracle(capsys):
    code, out, _ = cli(capsys, "exact", EHRENFEST, "--steps", "4")
    assert code == 0
    for k, line in enumerate(out.splitlines()):
        row = json.loads(line)
        want = {str(s): f"{p.numerator}/{p.denominator}"
                for s, p in sorted(ehrenfest_oracle(k).items())}
        assert row == {"t": k, "dist": want}, f"tick {k}"


def test_exact_joint(capsys):
    code, out, _ = cli(capsys, "exact", "unif{0,1}@0", "--steps", "1",
                       "--joint")
    assert code == 0
    lines = out.splitlines()
    assert json.loads(lines[0]) == {"t": 0, "dist": {"0": "1/2", "1": "1/2"}}
    joint = json.loads(lines[2])
    assert joint["joint"] == {"(0,0)": "1/4", "(0,1)": "1/4",
                              "(1,0)": "1/4", "(1,1)": "1/4"}
    assert joint["slices"] == [[0, 1], [1, 2]]


def test_exact_open_program_exits_3(capsys):
    code, _, err = cli(capsys, "exact", RUNNING_SUM, "--steps", "2")
    assert code == 3


def test_exact_state_cap_exits_5(capsys):
    code, out, err = cli(capsys, "exact", EHRENFEST, "--steps", "4",
                         "--state-cap", "2")
    assert code == 5
    assert out == ""
    assert err == ("mstream: joint support reached 4 entries (cap 2) "
                   "at tick 0\n")
    for cmd in (["exact", WALK, "--steps", "5"], ["check", WALK, WALK]):
        code, out, err = cli(capsys, *cmd, "--state-cap", "3")
        assert code == 5
        assert out == ""
        assert err.startswith("mstream: joint support reached 4 entries "
                              "(cap 3) at tick ")


def test_large_state_cap_exits_5(capsys):
    three_coins = f"par({TWO_COINS}, unif{{0,1}}@0)"
    for cmd in (["check", three_coins, three_coins],
                ["exact", three_coins, "--joint"]):
        code, out, err = cli(capsys, *cmd, "--state-cap", "30000")
        assert (code, out) == (5, "")
        assert err == ("mstream: joint support reached 32768 entries "
                       "(cap 30000) at tick 4\n")


def test_exact_plain_format(capsys):
    code, out, _ = cli(capsys, "exact", WALK, "--steps", "1",
                       "--format", "plain")
    assert code == 0
    assert out.splitlines() == ["t=0  {0: 1/1}", "t=1  {-1: 1/2, 1: 1/2}"]


def test_exact_csv_format(capsys):
    code, out, _ = cli(capsys, "exact", WALK, "--steps", "1",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["0,0,1/1", "1,-1,1/2", "1,1,1/2"]


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def test_sample_walk_trials(capsys):
    code, out, _ = cli(capsys, "sample", WALK, "--steps", "5",
                       "--trials", "3", "--seed", "42")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 18
    for i in range(3):
        tr = [r for r in rows if r["trial"] == i]
        assert [r["t"] for r in tr] == [0, 1, 2, 3, 4, 5]
        vals = [r["out"][0] for r in tr]
        assert vals[0] == 0
        assert all(b - a in (-1, 1) for a, b in zip(vals, vals[1:]))


def test_sample_reproducible_bytes(capsys):
    args = ("sample", WALK, "--steps", "8", "--trials", "4", "--seed", "9")
    code1, out1, _ = cli(capsys, *args)
    code2, out2, _ = cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_sample_seed_changes_output(capsys):
    _, out1, _ = cli(capsys, "sample", WALK, "--steps", "20", "--seed", "1")
    _, out2, _ = cli(capsys, "sample", WALK, "--steps", "20", "--seed", "2")
    assert out1 != out2


def test_sample_ehrenfest_conserves_balls(capsys):
    code, out, _ = cli(capsys, "sample", EHRENFEST, "--steps", "12",
                       "--trials", "5", "--seed", "3")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    for i in range(5):
        vals = [r["out"][0] for r in rows if r["trial"] == i]
        assert vals[0] == 4
        assert all(0 <= v <= 4 for v in vals)
        # exactly one ball hops per tick
        assert all(abs(b - a) == 1 for a, b in zip(vals, vals[1:]))


def test_sample_deterministic_program(capsys):
    code, out, _ = cli(capsys, "sample", FIB, "--steps", "4",
                       "--trials", "2")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    for i in range(2):
        assert [r["out"][0] for r in rows if r["trial"] == i] == [0, 1, 1, 2, 3]


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_fib_vs_itself(capsys):
    code, out, err = cli(capsys, "check", FIB, FIB)
    assert code == 0 and err == ""
    assert json.loads(out) == {"equal": True, "horizon": 5}


def test_check_wait_vs_feedback_over_swap(capsys):
    code, out, _ = cli(capsys, "check", WAIT, FBK_SYM, "--horizon", "6")
    assert code == 0
    assert json.loads(out) == {"equal": True, "horizon": 6}


def test_reg_literal_exits_2(capsys):
    code, out, err = cli(capsys, "check", f"reg[{RANGE_W}]", WAIT)
    assert (code, out) == (2, "")
    assert "expected '@'" in err


def test_check_coin_copy_vs_two_coins(capsys):
    code, out, _ = cli(capsys, "check", COIN_COPY, TWO_COINS)
    assert code == 1
    diff = json.loads(out)
    assert diff["equal"] is False
    assert diff["t"] == 0
    assert diff["left"]["()"] == {"(0,0)": "1/2", "(1,1)": "1/2"}
    assert diff["right"]["()"] == {"(0,0)": "1/4", "(0,1)": "1/4",
                                   "(1,0)": "1/4", "(1,1)": "1/4"}


def test_check_interface_mismatch_exits_3(capsys):
    code, _, err = cli(capsys, "check", "id[int@0]", "id[bool@0]")
    assert code == 3
    assert "interfaces differ" in err


def test_check_walk_programs_differ_later(tmp_path, capsys):
    # same tick-0 and tick-1 behaviour, drifts apart at t=2
    other = tmp_path / "biased.ms"
    other.write_text("walk = 0 fby (unif(-1, 1) * walk + unif(-1, 1))\n")
    code, out, _ = cli(capsys, "check", WALK, str(other), "--horizon", "4")
    assert code == 1
    assert json.loads(out)["t"] >= 1


def test_check_plain_diff(capsys):
    code, out, _ = cli(capsys, "check", COIN_COPY, TWO_COINS,
                       "--format", "plain")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "differ at t=0"
    assert any(line.startswith("left ()") for line in lines)
    assert any(line.startswith("right ()") for line in lines)


MIXED_INPUT_PAIRS = [
    # unit beside an int: Python's < cannot order (None,) and (1,)
    ("id[{(),1}@0]", "seq(discard[{(),1}@0], const(1:{(),1})@0)",
     ["(())", "(1)"], ['{"()": "1/1"}', '{"1": "1/1"}'],
     ['{"1": "1/1"}', '{"1": "1/1"}']),
    # a bool beside an int: true comes first, as in the Dist beside it
    ("id[{-1,true}@0]", "seq(discard[{-1,true}@0], const(true:{-1,true})@0)",
     ["(true)", "(-1)"], ['{"true": "1/1"}', '{"-1": "1/1"}'],
     ['{"true": "1/1"}', '{"true": "1/1"}']),
]


@pytest.mark.parametrize("a, b, prefixes, left, right", MIXED_INPUT_PAIRS)
def test_check_orders_mixed_input_prefixes_canonically(capsys, a, b, prefixes,
                                                       left, right):
    """Input prefixes over sets that mix unit, bool and int print in the
    canonical value order, in JSON and plain."""
    code, out, err = cli(capsys, "check", a, b)
    assert (code, err) == (1, "")
    diff = json.loads(out)
    assert diff["t"] == 0
    for side, dists in (("left", left), ("right", right)):
        assert list(diff[side]) == prefixes
        assert [json.dumps(d) for d in diff[side].values()] == dists
    code, out, err = cli(capsys, "check", a, b, "--format", "plain")
    assert (code, err) == (1, "")
    assert out.splitlines() == ["differ at t=0"] + [
        f"{side} {r} -> {d}" for side, dists in (("left", left),
                                                 ("right", right))
        for r, d in zip(prefixes, dists)]


def test_check_has_no_csv_format():
    """``check`` prints JSON or plain lines only; ``csv`` is a usage error."""
    p = mstream_proc("check", COIN_COPY, TWO_COINS, "--format", "csv")
    assert p.returncode == 2 and p.stdout == ""
    assert "invalid choice: 'csv'" in p.stderr


# ---------------------------------------------------------------------------
# process-level
# ---------------------------------------------------------------------------

def test_commands_leave_no_stream_to_the_cyclic_collector(capsys):
    """Every command frees its compiled streams by reference counting: with
    the cyclic collector off, a collection finds no ``Stream`` in a cycle."""
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for argv in (["run", FIB, "--steps", "30"],
                     ["sample", EHRENFEST, "--trials", "3"],
                     ["exact", EHRENFEST, "--steps", "5", "--joint"],
                     ["check", EHRENFEST, EHRENFEST, "--horizon", "3"],
                     ["check", COIN_COPY, TWO_COINS]):
            main(argv)
            gc.collect()
            cyclic = sum(isinstance(o, Stream) for o in gc.garbage)
            gc.garbage.clear()
            assert cyclic == 0, f"{argv[0]}: {cyclic} streams in cycles"
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    capsys.readouterr()


def test_module_entry_point():
    p = subprocess.run(
        [sys.executable, "-m", "mstream", "run", FIB, "--steps", "6"],
        capture_output=True, text=True)
    assert p.returncode == 0
    assert out_values(p.stdout) == [0, 1, 1, 2, 3, 5, 8]


def test_closed_pipe_ends_the_run_quietly():
    """A reader that goes away, as ``mstream run … | head -1`` does, ends
    the run with the exit code it would have had and nothing on stderr,
    not with a ``BrokenPipeError`` traceback."""
    p = subprocess.Popen(
        [sys.executable, "-m", "mstream", "run",
         str(PROGRAMS / "counters.ms"), "--steps", "100000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = p.stdout.readline()
    p.stdout.close()
    err = p.stderr.read()
    p.stderr.close()
    assert p.wait(timeout=60) == 0
    assert first == b'{"t": 0, "out": [1]}\n'
    assert err == b""


def test_subprocess_run_reproducible():
    cmd = [sys.executable, "-m", "mstream", "sample", WALK,
           "--steps", "6", "--trials", "2", "--seed", "11"]
    a = subprocess.run(cmd, capture_output=True)
    b = subprocess.run(cmd, capture_output=True)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as e:
        main(["run"])  # missing source
    assert e.value.code == 2


@pytest.mark.parametrize("argv", [
    ["run", WALK, "--state-cap", "1"],
    ["sample", WALK, "--steps", "3", "--state-cap", "1"],
    ["exact", WALK, "--inputs", RAMP],
], ids=["run", "sample", "exact"])
def test_flags_only_where_read(argv, capsys):
    """``--state-cap`` bounds exact enumeration, which run and sample never
    do; ``exact`` takes closed programs only, so it has no ``--inputs``."""
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def mstream_proc(*argv):
    return subprocess.run([sys.executable, "-m", "mstream", *argv],
                          capture_output=True, text=True)


@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
def test_run_prints_integers_of_any_length(tmp_path, fmt):
    src = tmp_path / "powers.ms"
    src.write_text("x = 1 fby (x * 1000)\n")
    p = mstream_proc("run", str(src), "--steps", "1450", "--format", fmt)
    assert p.returncode == 0, p.stderr
    last = p.stdout.splitlines()[-1]
    if fmt == "json":
        value = json.loads(last, parse_int=str)["out"][0]
    else:
        value = last.split("," if fmt == "csv" else ": ")[-1]
    assert value == "1" + "0" * 4350


def test_long_integer_literals_are_read(tmp_path):
    big = "9" * 5000
    src = tmp_path / "big.ms"
    src.write_text(f"main = {big}\n")
    p = mstream_proc("run", str(src), "--steps", "0", "--format", "csv")
    assert p.returncode == 0, p.stderr
    assert p.stdout == f"0,{big}\n"
    p = mstream_proc("check", f"unif{{{big}}}@0", f"unif{{{big}}}@0")
    assert p.returncode == 0, p.stderr
    assert json.loads(p.stdout)["equal"] is True


def test_type_error_names_its_location_once():
    p = mstream_proc("check", "foo@0", "id[bool@0]")
    assert p.returncode == 3
    assert p.stderr == "mstream: unknown generator 'foo' (at root)\n"
    p = mstream_proc("check", "seq(id[bool@0], foo@0)", "id[bool@0]")
    assert p.returncode == 3
    assert p.stderr == "mstream: unknown generator 'foo' (at seq/1)\n"


@pytest.mark.parametrize("defn, line", [("main", "main = x + 1"),
                                         ("main", "main = -x"),
                                         ("y", "y = x fby 2")])
def test_program_type_errors_name_the_definition(tmp_path, capsys, defn,
                                                 line):
    src = tmp_path / "bad.ms"
    src.write_text(f"input x : {{0,1}}\n{line}\n")
    code, out, err = cli(capsys, "run", str(src), "--steps", "1")
    assert code == 3 and out == ""
    assert f"in {defn!r}" in err and "(at " not in err


def test_main_lifts_the_digit_limit_only_while_it_runs(tmp_path, capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = limit()
    big = "9" * 5000
    src = tmp_path / "big.ms"
    src.write_text(f"main = {big}\n")
    code, out, err = cli(capsys, "run", str(src), "--steps", "0",
                         "--format", "csv")
    assert code == 0, err
    assert out == f"0,{big}\n"
    assert limit() == before


def deep_program(tmp_path, terms, parenthesised=False):
    """``main = 1 + 1 + ... + 1``: ``terms`` nested additions, or with
    ``parenthesised`` ``(1 + (1 + (... + 1)))``, one bracket per term."""
    src = tmp_path / "deep.ms"
    if parenthesised:
        body = " + ".join(["(1"] * terms) + ")" * terms
    else:
        body = " + ".join(["1"] * terms)
    src.write_text(f"main = {body}\n")
    return str(src)


def test_400_term_chain_runs(tmp_path):
    src = deep_program(tmp_path, 400)
    p = mstream_proc("run", src, "--steps", "1")
    assert (p.returncode, p.stderr) == (0, ""), p.stderr
    assert out_values(p.stdout) == [400, 400]
    p = mstream_proc("exact", src, "--steps", "1")
    assert (p.returncode, p.stderr) == (0, ""), p.stderr
    assert [json.loads(line)["dist"] for line in p.stdout.splitlines()] \
        == [{"400": "1/1"}] * 2
    p = mstream_proc("check", src, src, "--horizon", "1")
    assert (p.returncode, p.stderr) == (0, ""), p.stderr
    assert json.loads(p.stdout) == {"equal": True, "horizon": 1}


@pytest.mark.parametrize("body, value", [
    (" + ".join(["1"] * 10 ** 4), 10 ** 4),
    ("- " * (10 ** 4 + 1) + "1", -1),
], ids=["sum", "negation"])
def test_10000_term_chain_runs(tmp_path, capsys, body, value):
    """No pass recurses on the length of an expression."""
    limit = sys.getrecursionlimit()
    src = tmp_path / "long.ms"
    src.write_text(f"main = {body}\n")
    code, out, err = cli(capsys, "run", str(src), "--steps", "1")
    assert (code, err) == (0, "") and out_values(out) == [value] * 2
    code, out, err = cli(capsys, "exact", str(src), "--steps", "1")
    assert (code, err) == (0, "")
    assert [json.loads(line)["dist"] for line in out.splitlines()] \
        == [{str(value): "1/1"}] * 2
    code, out, err = cli(capsys, "check", str(src), str(src), "--horizon", "1")
    assert (code, err, json.loads(out)) \
        == (0, "", {"equal": True, "horizon": 1})
    assert sys.getrecursionlimit() == limit


def test_1000_term_fby_chain_runs(tmp_path, capsys):
    limit = sys.getrecursionlimit()
    src = tmp_path / "fby.ms"
    src.write_text("main = " + " fby ".join(["0"] * 999 + ["1"]) + "\n")
    code, out, err = cli(capsys, "run", str(src), "--steps", "1000",
                         "--format", "csv")
    assert (code, err) == (0, "")
    assert out.splitlines()[997:] == ["997,0", "998,0", "999,1", "1000,1"]
    assert sys.getrecursionlimit() == limit


def test_1200_definition_chain_written_main_first_runs(tmp_path, capsys):
    """Every definition depends on the next one down, so the search for
    recursive groups goes 1200 definitions deep."""
    limit = sys.getrecursionlimit()
    n = 1200
    lines = [f"main = x{n - 1}"]
    lines += [f"x{i} = x{i - 1} + 1" for i in range(n - 1, 0, -1)]
    src = tmp_path / "chain.ms"
    src.write_text("\n".join(lines + ["x0 = 0 fby x0 + 1"]) + "\n")
    code, out, err = cli(capsys, "run", str(src), "--steps", "2")
    assert (code, err) == (0, "")
    assert out_values(out) == [n - 1, n, n + 1]
    assert sys.getrecursionlimit() == limit


@pytest.mark.parametrize("terms", [300, 1200, 10 ** 4])
def test_deeply_nested_program_runs(tmp_path, capsys, terms):
    """Brackets are read on an explicit stack, so they nest to any depth."""
    limit = sys.getrecursionlimit()
    src = deep_program(tmp_path, terms, parenthesised=True)
    code, out, err = cli(capsys, "run", src, "--steps", "1")
    assert (code, err) == (0, "") and out_values(out) == [terms] * 2
    code, out, err = cli(capsys, "exact", src, "--steps", "1")
    assert (code, err) == (0, "")
    assert [json.loads(line)["dist"] for line in out.splitlines()] \
        == [{str(terms): "1/1"}] * 2
    code, out, err = cli(capsys, "check", src, src, "--horizon", "1")
    assert (code, err, json.loads(out)) \
        == (0, "", {"equal": True, "horizon": 1})
    assert sys.getrecursionlimit() == limit


def test_deeply_nested_inputs_line_exits_2(tmp_path):
    inputs = tmp_path / "deep.jsonl"
    inputs.write_text("[1]\n" + "[" * 10 ** 5 + "\n")
    p = mstream_proc("run", RUNNING_SUM, "--steps", "1",
                     "--inputs", str(inputs))
    assert (p.returncode, p.stdout) == (2, "")
    assert p.stderr == ("mstream: syntax error: 2:1: inputs: arrays nested "
                        "too deeply\n")


@pytest.mark.parametrize("row", ["[[1]]", '["a"]', "[1.5]"])
def test_input_value_that_no_wire_carries_exits_3(tmp_path, row):
    inputs = tmp_path / "bad.jsonl"
    inputs.write_text(f"[1]\n{row}\n")
    p = mstream_proc("run", RUNNING_SUM, "--steps", "1",
                     "--inputs", str(inputs))
    assert (p.returncode, p.stdout) == (3, "")
    assert p.stderr == ("mstream: inputs line 2: each value must be an "
                        "integer, true, false or null\n")


def test_true_is_not_an_input_of_an_integer_set(tmp_path, capsys):
    """A kernel caches rows by value, and ``(True,) == (1,)``: a row of
    ``true`` on a ``{0,1}`` wire would be served for ``1`` later on."""
    prog = tmp_path / "bit.ms"
    prog.write_text("input x : {0,1}\nmain = x\n")
    inputs = tmp_path / "bits.jsonl"
    inputs.write_text("[true]\n[1]\n")
    argv = ["run", str(prog), "--steps", "1", "--inputs", str(inputs)]
    assert cli(capsys, *argv) == (
        3, "", "mstream: tick 0: input (True,) does not fit ({0,1},)\n")
    inputs.write_text("[1]\n[0]\n")
    code, out, _ = cli(capsys, *argv)
    assert (code, out_values(out)) == (0, [1, 0])


@pytest.mark.parametrize("argv", [
    ["check", "const(true:{0,1})@0", "const(1:{0,1})@0"],
    ["run", "par(const(true:{0,1})@0, const(1:{0,1})@0)"],
])
def test_true_is_not_a_constant_of_an_integer_set(capsys, argv):
    code, out, err = cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("mstream: constant true is not a {0,1} value")


def test_sets_of_equal_values_of_other_types_stay_apart(tmp_path, capsys):
    """``{0,1}`` and ``{false,true}`` are different types, so equal-looking
    wiring leaves over them do not compile to one shared stream, and ``{0,true}``
    holds exactly ``0`` and ``true``."""
    inputs = tmp_path / "mixed.jsonl"
    inputs.write_text("[0, true]\n[1, false]\n")
    code, out, _ = cli(capsys, "run", "par(id[{0,1}@0], id[{false,true}@0])",
                       "--steps", "1", "--inputs", str(inputs))
    assert (code, [json.loads(line)["out"] for line in out.splitlines()]) \
        == (0, [[0, True], [1, False]])
    code, _, err = cli(capsys, "run", "seq(id[{0,1}@0], id[{false,true}@0])")
    assert code == 3 and err.startswith("mstream: cannot compose")
    code, out, _ = cli(capsys, "run", "par(const(true:{0,true})@0, "
                       "const(0:{0,true})@0)", "--steps", "0")
    assert (code, out) == (0, '{"t": 0, "out": [true, 0]}\n')
    code, _, err = cli(capsys, "run", "const(1:{0,true})@0")
    assert code == 3 and "constant 1 is not a {true,0} value" in err


def bad_files(tmp_path):
    """(argv, path) for each file the CLI must refuse with exit 2: a missing
    inputs file, a directory, and an inputs file and a program that are not
    UTF-8."""
    bad_inputs = tmp_path / "bad.jsonl"
    bad_inputs.write_bytes(b"[1]\n\xff\n")
    bad_ms = tmp_path / "bad.ms"
    bad_ms.write_bytes(b"main = 1\xff\n")
    missing = str(tmp_path / "missing.jsonl")
    return [(["run", RUNNING_SUM, "--inputs", missing], missing),
            (["run", RUNNING_SUM, "--inputs", str(tmp_path)], str(tmp_path)),
            (["run", RUNNING_SUM, "--inputs", str(bad_inputs)],
             str(bad_inputs)),
            (["check", str(bad_ms), str(bad_ms)], str(bad_ms))]


def test_unreadable_files_exit_2(tmp_path):
    for argv, path in bad_files(tmp_path):
        p = mstream_proc(*argv)
        assert p.returncode == 2, argv
        assert p.stdout == ""
        assert p.stderr.startswith(
            f"mstream: syntax error: 0:0: cannot read {path}: "), p.stderr
        assert len(p.stderr.splitlines()) == 1 and "Traceback" not in p.stderr


@pytest.mark.parametrize("value", ["abc", "0", "-5"])
def test_bad_state_cap_variable_exits_2(monkeypatch, capsys, value):
    monkeypatch.setenv("MSTREAM_STATE_CAP", value)
    for cmd in (["exact", EHRENFEST], ["check", WALK, WALK]):
        code, out, err = cli(capsys, *cmd)
        assert code == 2 and out == ""
        assert err == ("mstream: MSTREAM_STATE_CAP must be a positive "
                       f"integer, got {value!r}\n")
    # the option overrides the variable
    code, _, err = cli(capsys, "exact", EHRENFEST, "--state-cap", "100")
    assert code == 0, err


def test_small_state_cap_variable_exits_5(monkeypatch, capsys):
    monkeypatch.setenv("MSTREAM_STATE_CAP", "2")
    code, out, err = cli(capsys, "exact", EHRENFEST, "--steps", "4")
    assert code == 5 and out == ""
    assert err == ("mstream: joint support reached 4 entries (cap 2) "
                   "at tick 0\n")


# ---------------------------------------------------------------------------
# seeded bytes
# ---------------------------------------------------------------------------

GOLDEN = Path(__file__).resolve().parent / "golden_samples.json"


# An unused input, a dead recursive draw, an on-time fby of a draw and a
# mutually recursive pair; ``inline.ms`` in a command names this source.
INLINE_SRC = """\
input y : int
x = unif(1, 2) fby (x + unif(0, 1))
r = 0 fby unif(0, 3)
a = 0 fby (b + unif(0, 1))
b = a + r
main = (a, b, r)
"""


def golden_commands():
    """The seeded commands whose stdout lines ``golden_samples.json``
    records; a change to how draws are made must keep every byte."""
    for prog in ("programs/walk.ms", "programs/ehrenfest.ms",
                 "programs/counters.ms", "programs/fib.ms"):
        for seed in ("0", "42", "99999999999"):
            yield f"sample {prog} --steps 12 --trials 3 --seed {seed}"
            yield f"run {prog} --backend stoch --steps 12 --seed {seed}"
    for prog in ("programs/running_sum.ms", "inline.ms"):
        inputs = "--inputs programs/ramp_inputs.jsonl --steps 9"
        for seed in ("0", "42", "99999999999"):
            yield f"sample {prog} {inputs} --trials 3 --seed {seed}"
            yield f"run {prog} {inputs} --backend stoch --seed {seed}"


@pytest.mark.parametrize("command", list(golden_commands()))
def test_seeded_output_bytes_are_pinned(tmp_path, capsys, command):
    expected = json.loads(GOLDEN.read_text())[command]
    (tmp_path / "inline.ms").write_text(INLINE_SRC)
    argv = [str(PROGRAMS.parent / a) if a.startswith("programs/")
            else str(tmp_path / a) if a == "inline.ms" else a
            for a in command.split()]
    code, out, err = cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == "".join(line + "\n" for line in expected)


# ---------------------------------------------------------------------------
# streamed output
# ---------------------------------------------------------------------------

def _csv_lines(rows):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    for r in rows:
        w.writerow(r)
    return buf.getvalue().splitlines()


def reference_trace_lines(trace, fmt, trial=None):
    """The trace formatting of the buffered CLI, which built every line
    from a list of rows before printing any."""
    if fmt == "json":
        out = []
        for t, row in enumerate(trace):
            obj = {} if trial is None else {"trial": trial}
            obj["t"] = t
            obj["out"] = [value_to_json(v) for v in row]
            out.append(json.dumps(obj))
        return out
    if fmt == "csv":
        rows = []
        for t, row in enumerate(trace):
            head = [] if trial is None else [trial]
            rows.append(head + [t] + [value_str(v) for v in row])
        return _csv_lines(rows)
    out = []
    for t, row in enumerate(trace):
        head = "" if trial is None else f"trial {trial} "
        out.append(f"{head}t={t}: " + " ".join(value_str(v) for v in row))
    return out


@pytest.fixture
def any_int_digits():
    """Lifts the limit on the digits of an int/str conversion, as ``main``
    does while a command runs."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


TRACES = {
    "ints": [(0,), (-7, 12), (10 ** 4999,)],
    "bools": [(True,), (False, True), (1, False)],
    "unit": [(None,), (None, 0), ()],
    "tuples": [((1, 2),), ((True, (None, -3)), 4), (((),), ((0, (1,)),))],
}


@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
@pytest.mark.parametrize("trial", [None, 0, 12])
@pytest.mark.parametrize("kind", list(TRACES))
def test_streamed_lines_match_the_buffered_format(any_int_digits, kind,
                                                   trial, fmt):
    trace = TRACES[kind]
    assert len(str(10 ** 4999)) == 5000
    want = reference_trace_lines(trace, fmt, trial)
    got = _trace_lines(iter(trace), fmt, trial)
    assert not isinstance(got, list)
    assert list(got) == want


@pytest.mark.parametrize("trial", [None, 3])
def test_json_lines_write_rows_as_json_does(any_int_digits, trial):
    """Rows of plain ints are joined without ``json``; every ``out`` still
    has the bytes of ``json.dumps``, bools (ints in Python) included."""
    rows = [(0,), (-1, 7), (-(10 ** 99999),), (True,), (False, 0),
            (None,), ((1, (True, None)), -2), ()]
    head = '{"t": ' if trial is None else f'{{"trial": {trial}, "t": '
    assert list(_trace_lines(iter(rows), "json", trial)) == [
        f'{head}{t}, "out": {json.dumps(row)}}}' for t, row in enumerate(rows)]


def test_run_writes_bool_outputs_as_json(capsys):
    code, out, _ = cli(capsys, "run", "par(const(false:bool)@0, "
                       "const(-3:int)@0)", "--steps", "1")
    assert (code, out) == (0, '{"t": 0, "out": [false, -3]}\n'
                              '{"t": 1, "out": [false, -3]}\n')


class Sink:
    """A stdout that keeps nothing."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


def heap_peak(argv):
    """The peak of the traced heap while ``main(argv)`` writes to a sink."""
    gc.collect()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(Sink()):
            assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("argv, small, large", [
    (["run", COUNTERS], ["--steps", "5000"], ["--steps", "50000"]),
    (["sample", EHRENFEST, "--steps", "3"], ["--trials", "500"],
     ["--trials", "5000"]),
])
def test_long_runs_print_in_bounded_memory(argv, small, large):
    """Ten times the ticks or trials raise the heap's peak by at most
    1 MB: each line is printed as it is produced."""
    heap_peak(argv + small)  # compiles and imports what both runs use
    grown = heap_peak(argv + large) - heap_peak(argv + small)
    assert grown <= 2 ** 20, f"peak grew by {grown / 2 ** 20:.1f} MB"


def evaluated_ticks(monkeypatch):
    """The ticks the engine evaluates, as ``(entry, row)``: each call of a
    row function that ``Kernel.row_fn`` hands out, and each ``Kernel.dist``
    call not made inside another (a flat program's stochastic leaves are
    called through their ``dist``)."""
    calls, depth = [], []
    row_fn, dist = Kernel.row_fn, Kernel.dist

    def counted_row_fn(self):
        fn = row_fn(self)
        if fn is None:
            return None

        def step(row):
            calls.append(("row_fn", row))
            return fn(row)
        return step

    def counted_dist(self, row):
        if not depth:
            calls.append(("dist", row))
        depth.append(row)
        try:
            return dist(self, row)
        finally:
            depth.pop()

    monkeypatch.setattr(Kernel, "row_fn", counted_row_fn)
    monkeypatch.setattr(Kernel, "dist", counted_dist)
    return calls


class Closed:
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError("closed")


def test_run_stops_at_the_first_line_that_cannot_be_written(monkeypatch):
    calls = evaluated_ticks(monkeypatch)
    with contextlib.redirect_stdout(Closed()):
        assert main(["run", COUNTERS, "--steps", "100000"]) == 0
    assert 1 <= len(calls) <= 2
    assert {entry for entry, _ in calls} == {"row_fn"}


def test_sample_stops_at_the_first_line_that_cannot_be_written(monkeypatch):
    """Every Ehrenfest tick draws, so its ticks keep the ``Dist`` path."""
    calls = evaluated_ticks(monkeypatch)
    with contextlib.redirect_stdout(Closed()):
        assert main(["sample", EHRENFEST, "--steps", "100000"]) == 0
    assert 1 <= len(calls) <= 2
    assert {entry for entry, _ in calls} == {"dist"}
