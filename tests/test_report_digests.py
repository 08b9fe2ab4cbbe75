"""The digest tool that proves a refactor keeps every report's bytes:
`tools/report_digests.py` must run only commands the CLI parses, each once,
must tell a changed report from a float tail and from a mended error, must
draw the same random commands from the same seed, and under `--env` must
find a setting that no program reads changes no report.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from stochorder import cli

ROOT = Path(__file__).resolve().parents[1]


def _module(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


digests = _module("report_digests", ROOT / "tools" / "report_digests.py")
workloads = _module("workloads", ROOT / "perfbench" / "workloads.py")


def test_every_fixed_command_parses():
    parser = cli._build_parser()
    fixed = digests.commands(cli._TABLE1, workloads)
    for argv in fixed:
        assert argv[-1] == "--no-timing"
        parser.parse_args(argv)  # argparse exits 2 on a command it refuses
    # `table --id table2` and `katz` ran three times each
    assert len({tuple(argv) for argv in fixed}) == len(fixed)


@pytest.mark.parametrize("here,there,allow_mended,verdict", [
    ((0, '{"a": 1.0}', ""), (0, '{"a": 1.0}', ""), False, "same"),
    ((0, '{"a": 1.0}', ""), (0, '{"a": 1.0000000000001}', ""), False, "float"),
    ((0, '{"a": 1.0}', ""), (0, '{"a": 1.1}', ""), False, "changed"),
    ((0, '{"a": 1}', ""), (0, '{"a": 2}', ""), False, "changed"),  # integers have no tail
    ((0, '{"a": 1.0}', ""), (0, '{"b": 1.0}', ""), False, "changed"),
    ((0, "a,b\n1,2\n", ""), (0, "a,b\n1,3\n", ""), False, "changed"),  # not JSON
    ((2, "", "error: x\n"), (2, "", "error: y\n"), False, "changed"),
    ((0, '{"a": 1.0}', ""), (2, "", "error: x\n"), True, "mended"),
    ((0, '{"a": 1.0}', ""), (2, "", "error: x\n"), False, "changed"),
    ((2, "", "error: x\n"), (0, '{"a": 1.0}', ""), True, "changed"),
])
def test_compare_tells_each_verdict(here, there, allow_mended, verdict):
    assert digests.compare(here, there, allow_mended)[0] == verdict


def test_random_commands_are_drawn_from_the_seed():
    first = digests.random_commands(20, 1, cli._TABLE1)
    assert first == digests.random_commands(20, 1, cli._TABLE1)
    assert first != digests.random_commands(20, 2, cli._TABLE1)
    assert len(first) == 20
    parser = cli._build_parser()
    for argv in first:
        parser.parse_args(argv)


def test_a_setting_that_nothing_reads_changes_no_report():
    """`--env` runs the commands again in a child interpreter with the
    setting; one that neither numpy nor the package reads moves nothing."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "report_digests.py"),
         "--env", "REPORT_DIGESTS_UNREAD_SETTING=1", "--random", "5"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1].startswith("5 commands: 5 identical, 0 moved")


def test_env_takes_a_name_and_a_value():
    assert digests._setting("A=b=c") == ("A", "b=c")
    for text in ("NAME", "=VALUE", ""):
        with pytest.raises(digests.argparse.ArgumentTypeError):
            digests._setting(text)
