"""Every shipped problem's commands print and write what tests/golden/cli
froze: exit code, stdout, stderr and each output file, byte for byte."""

import importlib.util
import json
import os

import pytest

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

_spec = importlib.util.spec_from_file_location(
    "regen", os.path.join(GOLDEN, "regen.py"))
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def test_every_case_has_a_golden_and_every_golden_a_case():
    frozen = sorted(name[:-len(".json")] for name in os.listdir(regen.CLI_DIR))
    assert frozen == sorted(regen.CLI_CASES)


@pytest.mark.parametrize("case", sorted(regen.CLI_CASES))
def test_command_matches_its_golden(case, tmp_path):
    with open(os.path.join(regen.CLI_DIR, f"{case}.json")) as fh:
        want = json.load(fh)
    assert regen.run_cli(regen.CLI_CASES[case], str(tmp_path)) == want
