"""The README's examples run as written: its Python quick start, config files
and commands."""

import re
import shlex
from pathlib import Path

from conecert.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
FENCE = re.compile(r"```(\w+)\n(.*?)```", re.S)


def readme_python():
    """The body of the README's one `python` block."""
    (body,) = [body for lang, body in FENCE.findall(README.read_text()) if lang == "python"]
    return body


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


def test_readme_quick_start_certifies_the_fixed_point():
    body, scope = readme_python(), {}
    exec(body, scope)
    result = scope["result"]
    assert result.certificate.status == "certified"
    x = result.fixed_point
    assert len(x) == 2 and abs(x[0] - 2.0) <= 1e-9 and abs(x[1] - 4.0 / 3.0) <= 1e-9
    # The comment next to it shows the value the run returns.
    assert f"result.fixed_point      # {x}\n" in body
