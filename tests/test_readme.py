"""README examples run: the Library code and each command transcript."""

import argparse
import os
import re
import shlex

import pytest

from ringqpe.cli import build_parser, main

ROOT = os.path.join(os.path.dirname(__file__), "..")

with open(os.path.join(ROOT, "README.md")) as _fh:
    README = _fh.read()

# (language, body) of each fenced block, in order
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, flags=re.M | re.S)
# each `ringqpe ...` command block and the transcript block right after it
TRANSCRIPTS = [
    (body.strip(), after)
    for (lang, body), (after_lang, after) in zip(BLOCKS, BLOCKS[1:])
    if lang == "sh" and body.startswith("ringqpe ") and after_lang == "text"
]


def test_library_example_runs(monkeypatch):
    library = README.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"^```python\n(.*?)^```$", library, flags=re.M | re.S).group(1)
    monkeypatch.chdir(ROOT)
    exec(compile(code, "README.md", "exec"), {})


def test_command_line_section_names_exactly_the_parser_flags():
    section = README.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    defined = {flag for sub in subparsers.choices.values()
               for action in sub._actions
               if not isinstance(action, argparse._HelpAction)
               for flag in action.option_strings if flag.startswith("--")}
    assert sorted(named - defined) == [], "README names flags no subcommand takes"
    assert sorted(defined - named) == [], "flags the README does not name"


def test_every_command_has_a_transcript():
    commands = [body for lang, body in BLOCKS
                if lang == "sh" and body.startswith("ringqpe ")]
    assert commands and len(TRANSCRIPTS) == len(commands)


@pytest.mark.parametrize("command,transcript", TRANSCRIPTS,
                         ids=[cmd.split()[1] for cmd, _ in TRANSCRIPTS])
def test_command_prints_its_transcript(command, transcript, tmp_path, monkeypatch,
                                       capsys):
    monkeypatch.chdir(ROOT)
    argv = shlex.split(command)[1:] + ["--out-dir", str(tmp_path)]
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    want = transcript.splitlines()
    assert out[:len(want)] == want
