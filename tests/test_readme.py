"""The README's CLI examples run as written: its config files and commands."""

import re
import shlex
from pathlib import Path

from conecert.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
FENCE = re.compile(r"```(\w+)\n(.*?)```", re.S)


def readme_examples():
    """Config files by name (the `name.json` that introduces each JSON block)
    and the lines of the `sh` block that runs `conecert`."""
    text = README.read_text()
    configs, commands, last = {}, None, 0
    for m in FENCE.finditer(text):
        lang, body = m.groups()
        if lang == "json":
            configs[re.search(r"`(\w+\.json)`", text[last : m.start()]).group(1)] = body
        elif lang == "sh" and body.startswith("conecert "):
            commands = body.splitlines()
        last = m.end()
    return configs, commands


def test_readme_cli_examples_exit_zero(tmp_path, capsys):
    configs, commands = readme_examples()
    assert sorted(configs) == ["cubic.json", "gauge.json", "halve.json"]
    assert len(commands) == 5
    for name, body in configs.items():
        (tmp_path / name).write_text(body)
    for line in commands:
        argv = shlex.split(line)
        assert argv[0] == "conecert"
        argv = [
            str(tmp_path / a) if a in configs or a == "run/" else a for a in argv[1:]
        ]
        assert main(argv) == 0, (line, capsys.readouterr().err)
