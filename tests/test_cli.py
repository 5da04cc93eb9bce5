"""Tests for the command line interface: formats, examples, exit codes."""

import json
import os
import subprocess
import sys

import pytest

import realhurwitz
from realhurwitz import oracle, poly
from realhurwitz.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_table_csv_contains_degree_four_count(capsys):
    code, out = run(capsys, "table", "--max-degree", "3", "--max-m", "3",
                    "--connected", "--format", "csv")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "m,kappa_plus,kappa_minus,lambda,chi,connected,value_num,value_den"
    assert "3,4,,,2,true,2,1" in lines
    assert "3,,4,,2,true,2,1" in lines


def test_table_text_small_block(capsys):
    code, out = run(capsys, "table", "--max-degree", "1", "--max-m", "0")
    assert code == 0
    assert out.splitlines() == [
        "m=0 k+:[] k-:[] l:[] chi=0 value=1",
        "m=0 k+:[] k-:[1] l:[] chi=2 value=1",
        "m=0 k+:[1] k-:[] l:[] chi=2 value=1",
        "m=0 k+:[] k-:[] l:[1] chi=4 value=1",
        "m=0 k+:[1] k-:[1] l:[] chi=4 value=1",
    ]


def test_table_cap_zero_single_row(capsys):
    code, out = run(capsys, "table", "--max-degree", "0", "--max-m", "5")
    assert code == 0
    assert out.splitlines() == ["m=0 k+:[] k-:[] l:[] chi=0 value=1"]


def test_table_json_is_deterministic(capsys):
    code, first = run(capsys, "table", "--max-degree", "2", "--max-m", "4",
                      "--format", "json")
    assert code == 0
    code, second = run(capsys, "table", "--max-degree", "2", "--max-m", "4",
                       "--format", "json")
    assert code == 0
    assert first == second
    data = json.loads(first)
    row = data["rows"][0]
    assert set(row) == {"m", "kappa_plus", "kappa_minus", "lambda", "chi",
                        "connected", "value_num", "value_den"}
    assert all(isinstance(r["value_num"], str) for r in data["rows"])


def test_verify_paper_suite_passes(capsys):
    code, out = run(capsys, "verify", "--suite", "paper")
    assert code == 0
    assert "FAIL" not in out
    assert out.strip().endswith("all checks passed")


def test_verify_oracle_suite_passes(capsys):
    code, out = run(capsys, "verify", "--suite", "oracle", "--max-size", "3")
    assert code == 0
    assert "FAIL" not in out


def test_verify_spectral_suite_passes(capsys):
    code, out = run(capsys, "verify", "--suite", "spectral")
    assert code == 0
    assert "MISMATCH" not in out
    assert "FAIL" not in out


def test_verify_nonsep_suite_passes(capsys):
    code, out = run(capsys, "verify", "--suite", "nonsep")
    assert code == 0
    assert "FAIL" not in out


def test_verify_genus0_suite_reports_known_discrepancy(capsys):
    code, out = run(capsys, "verify", "--suite", "genus0", "--max-m", "4",
                    "--max-degree", "4")
    assert code == 0
    lines = out.splitlines()
    assert not [line for line in lines if line.startswith("FAIL")]
    notes = [line for line in lines if line.startswith("note")]
    assert len(notes) == 1
    assert "u^2/2!" in notes[0]
    assert "printed 1/2 actual 1" in notes[0]


def test_block_json_matches_csv_sparsity(capsys):
    code, out = run(capsys, "block", "--nplus", "1", "--nminus", "1",
                    "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["basis"]) == 4
    flat = [x for row in data["entries"] for x in row]
    assert flat.count(["1", "1"]) == 4
    code, out = run(capsys, "block", "--nplus", "1", "--nminus", "1",
                    "--format", "csv")
    assert code == 0
    assert len(out.splitlines()) == 5  # header plus four nonzero entries


def test_spectrum_json_block_1_1(capsys):
    code, out = run(capsys, "spectrum", "--nplus", "1", "--nminus", "1",
                    "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["exact"] is True
    assert data["orthogonal"] is True
    assert [c["matches"] for c in data["reference_comparison"]] == [
        True, False, True, False]
    assert all(isinstance(p[0], list) for p in data["pairs"])


def test_spectrum_json_float_block(capsys):
    code, out = run(capsys, "spectrum", "--nplus", "2", "--nminus", "1",
                    "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["exact"] is False
    assert all(isinstance(p[0], float) for p in data["pairs"])
    assert "reference_comparison" not in data


@pytest.mark.parametrize("tol", ["-1", "nan", "inf", "0", "1", "2"])
def test_spectrum_tolerance_outside_unit_interval_exits_two(capsys, tol):
    # parsed only: the parent accepted these and then looped forever or
    # ended in a traceback
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args(["spectrum", "--nplus", "2", "--nminus", "1",
                                   "--tol", tol])
    assert info.value.code == 2


def test_spectrum_certification_failure_exits_one(capsys):
    code = main(["spectrum", "--nplus", "2", "--nminus", "2", "--tol", "1e-300"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "exceeds tolerance" in captured.err


def test_spectrum_small_tolerance_certifies(capsys):
    code = main(["spectrum", "--nplus", "2", "--nminus", "2", "--tol", "1e-15"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert "certified floating point" in captured.out


def test_oracle_command(capsys):
    code, out = run(capsys, "oracle", "--nplus", "1", "--nminus", "1", "--m", "1")
    assert code == 0
    assert out.splitlines() == [
        "m=1 k+:[] k-:[2] l:[] chi=2 value=1",
        "m=1 k+:[2] k-:[] l:[] chi=2 value=1",
    ]


def test_nonsep_json_has_kappa_odd_column(capsys):
    code, out = run(capsys, "nonsep", "--max-n", "2", "--max-m", "2",
                    "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert all("kappa_odd" in row for row in data["rows"])


@pytest.mark.parametrize("argv", [
    ("table", "--max-degree", "1", "--max-m", "1200"),
    ("oracle", "--nplus", "1", "--nminus", "1", "--m", "1200"),
    ("nonsep", "--max-n", "2", "--max-m", "1200"),
], ids=["table", "oracle", "nonsep"])
def test_long_series_do_not_recurse(capsys, argv):
    # one u step is one loop iteration, not one stack frame
    code, out = run(capsys, *argv)
    assert code == 0
    assert out


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["table", "--max-degree", "-1"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["nosuchcommand"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["verify"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["table", "--threads", "2"])  # the flag is gone
    assert info.value.code == 2


@pytest.mark.parametrize("argv, layer, name", [
    (["table", "--connected"], poly, "series"),
    (["nonsep", "--connected"], poly, "series"),
    (["verify", "--suite", "nonsep"], oracle, "class_multiplication"),
])
def test_internal_error_exits_three_with_one_line(capsys, monkeypatch, argv, layer, name):
    def broken(*args, **kwargs):
        raise ArithmeticError("labelled sum 1 at p is not divisible by 2\nsecond line")

    monkeypatch.setattr(layer, name, broken)
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err == ("realhurwitz: internal error: ArithmeticError: "
                   "labelled sum 1 at p is not divisible by 2 second line\n")
    assert "Traceback" not in err


TABLE = ["table", "--max-degree", "6", "--max-m", "10", "--format"]


@pytest.mark.parametrize("argv", [
    TABLE + ["text"], TABLE + ["csv"], TABLE + ["json"],
    ["block", "--nplus", "5", "--nminus", "5"],
    ["spectrum", "--nplus", "3", "--nminus", "4", "--format", "json"],
], ids=["text", "csv", "json", "block", "spectrum"])
def test_closed_output_pipe_exits_quietly(argv):
    # each output is far larger than a pipe buffer (the spectrum's JSON is
    # one write), so writing it fails once the reader has gone, with stdout
    # buffered or not
    src = os.path.dirname(os.path.dirname(realhurwitz.__file__))
    for unbuffered in ("1", None):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env.update(PYTHONPATH=src, **({"PYTHONUNBUFFERED": unbuffered} if unbuffered else {}))
        proc = subprocess.Popen([sys.executable, "-m", "realhurwitz", *argv],
                                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141, unbuffered
        assert err == b"", unbuffered


class _Pipe:
    """The binary buffer of an unbuffered stdout on a pipe: a write takes at
    most `take` bytes and returns how many it took; once `room` bytes are
    in, the reader has gone and the next write raises BrokenPipeError."""

    def __init__(self, take: int, room: int) -> None:
        self.data, self.take, self.room = bytearray(), take, room

    def write(self, b) -> int:
        if len(self.data) >= self.room:
            raise BrokenPipeError(32, "Broken pipe")
        n = min(len(b), self.take, self.room - len(self.data))
        self.data += bytes(b[:n])
        return n

    def flush(self) -> None:
        pass


class _Stdout:
    encoding = "utf-8"

    def __init__(self, buffer: _Pipe) -> None:
        self.buffer = buffer

    def flush(self) -> None:
        pass


# every command writes through one writer: tables, the dumps' three formats,
# the oracle's walk counts and verify's lines
SHORT_WRITE = (
    [["table", "--max-degree", "3", "--max-m", "6", "--format", f] for f in ("text", "csv", "json")]
    + [["block", "--nplus", "2", "--nminus", "2", "--format", f] for f in ("csv", "json", "text")]
    + [["spectrum", "--nplus", "2", "--nminus", "1", "--format", f] for f in ("json", "text")]
    + [["oracle", "--nplus", "3", "--nminus", "2", "--m", "4", "--format", "json"],
       ["verify", "--suite", "oracle", "--max-size", "2"]])


@pytest.mark.parametrize("argv", SHORT_WRITE, ids=[
    "text", "csv", "json", "block-csv", "block-json", "block-text", "spectrum-json",
    "spectrum-text", "oracle", "verify-oracle"])
def test_a_short_write_is_written_on_until_the_pipe_breaks(capsys, monkeypatch, argv):
    assert main(argv) == 0
    full = capsys.readouterr().out.encode()
    args = build_parser().parse_args(argv)
    # every byte arrives, in order, through writes that take part of a block
    pipe = _Pipe(take=1000, room=len(full))
    monkeypatch.setattr(sys, "stdout", _Stdout(pipe))
    assert args.func(args) == 0
    assert pipe.data == full
    # the reader goes during the last write: it raises, and main exits 141
    pipe = _Pipe(take=len(full), room=len(full) - 10)
    monkeypatch.setattr(sys, "stdout", _Stdout(pipe))
    with pytest.raises(BrokenPipeError):
        args.func(args)
    assert pipe.data == full[:-10]


def test_the_operator_choices_are_the_operator_kinds():
    from realhurwitz.operators import OperatorKind
    commands = next(a for a in build_parser()._actions if a.dest == "command")
    operator = next(a for a in commands.choices["block"]._actions if a.dest == "operator")
    assert list(operator.choices) == [k.value for k in OperatorKind]
