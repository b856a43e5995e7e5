"""The benchmark's own output checker accepts what the command line writes.

perfbench/check.py marks a command malformed when an output file lacks the
header, row count or keys it reads. Running a few cli-small commands,
ring-wide's first two and register-deep's first two, through it here
catches an output-format change before a benchmark run does. The
perfbench modules are imported as they are, never edited.
"""

import os
import sys

import pytest

from ringqpe.cli import main

REPO = os.path.join(os.path.dirname(__file__), "..")
PERFBENCH = os.path.join(REPO, "perfbench")
PER_KIND = 4


@pytest.fixture(scope="module")
def perfbench():
    # check.py imports workloads as a top-level module
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, PERFBENCH)
    sys.dont_write_bytecode = True
    try:
        import check
        import workloads
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag
    return workloads, check


def _run_and_check(check, commands, tmp_path, capsys):
    for cmd in commands:
        out_dir = str(tmp_path / f"c{cmd.cid}")
        code = main(cmd.argv(out_dir))
        stderr = capsys.readouterr().err
        result = check.check(cmd, code, stderr, out_dir)
        assert result["ok"], f"{cmd.argv(out_dir)}: {result['reasons']}"


def test_cli_small_outputs_pass_the_benchmark_checker(perfbench, tmp_path, capsys):
    workloads, check = perfbench
    commands = workloads.build("cli-small", 9001, str(tmp_path / "problems"), REPO)
    chosen = []
    for sub in ("ring-sim", "qpe", "compare"):
        chosen += [cmd for cmd in commands if cmd.sub == sub][:PER_KIND]
    _run_and_check(check, chosen, tmp_path, capsys)


def test_ring_wide_outputs_pass_the_benchmark_checker(perfbench, tmp_path, capsys):
    # an n = 32 eigenvector that exits 0, then a three-component state that
    # exits 4, both through compare at l = 1000, N = 65536, t = 16
    workloads, check = perfbench
    commands = workloads.build("ring-wide", 9001, str(tmp_path / "problems"), REPO)
    chosen = commands[:2]
    assert [cmd.expected_exit for cmd in chosen] == [0, 4]
    _run_and_check(check, chosen, tmp_path, capsys)


def test_register_deep_outputs_pass_the_benchmark_checker(perfbench, tmp_path, capsys):
    # qpe at t = 16 writes all 2^16 rows of qpe_distribution.csv
    workloads, check = perfbench
    commands = workloads.build("register-deep", 9001, str(tmp_path / "problems"), REPO)
    chosen = commands[:2]
    assert [(cmd.sub, cmd.flags) for cmd in chosen] == [("qpe", ["--t-bits", "16"])] * 2
    _run_and_check(check, chosen, tmp_path, capsys)
