"""The README's quick starts run as written, and its scenario keys are the parser's."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import otfsim
from otfsim import runner
from otfsim.cli import EXIT_OK, main
from otfsim.runner import CSV_HEADER

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced(lang):
    """The bodies of the README's code blocks fenced as ``lang``."""
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.M | re.S)


def test_library_quick_start_runs_cleanly(tmp_path):
    (code,) = fenced("python")
    src = str(Path(otfsim.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout


def test_cli_quick_start_scenario_simulates(tmp_path, capsys):
    (scenario,) = fenced("json")
    cfg = tmp_path / "scenario.json"
    cfg.write_text(scenario)
    assert main(["simulate", "--config", str(cfg)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines[1:]) == len(json.loads(scenario)["snr_db_list"]) == 4


def test_scenario_keys_table_names_the_parsers_keys():
    table = README.split("### Scenario keys", 1)[1].split("\n\n")[1]
    rows = re.findall(r"^\| (.*?) \| (.*?) \|$", table, flags=re.M)[2:]
    keys = {key for first, _ in rows for key in re.findall(r"`([^`]+)`", first)}
    fields = {first.strip("`"): set(re.search(r"\{(.*?)\}", meaning)[1].split(", "))
              for first, meaning in rows if "{" in meaning}
    assert keys == (
        {f"frame.{key}" for key in runner._FRAME_KEYS}
        | {f"channel.{key}" for key in runner._CHANNEL_KEYS}
        | set(runner._SCENARIO_KEYS) - {"frame", "channel"}
    )
    assert fields == {
        "channel.taps": set(runner._TAP_KEYS),
        "channel.random": set(runner._RANDOM_KEYS),
        "multiuser": set(runner._MULTIUSER_KEYS),
    }
