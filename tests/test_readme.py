"""The README's examples run as written: its Python quick start, config files
and commands."""

import re
import shlex
from pathlib import Path

from conecert import cli
from conecert.cli import main
from conecert.picard import write_trace_csv

from helpers import trace_csv_points

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


def test_readme_runs_rebuild_their_steps_from_trace_csv(tmp_path, monkeypatch):
    """The README's recipe: step k of a `picard` or `roots` run is
    d(x_k, x_{k+1}) under the config's metric, from rows k and k + 1 of its
    `trace.csv`, the run's step bit for bit."""
    configs, commands = readme_examples()
    for name, body in configs.items():
        (tmp_path / name).write_text(body)
    traces = []

    def keep(fh, trace):
        traces.append(trace)
        write_trace_csv(fh, trace)

    monkeypatch.setattr(cli, "write_trace_csv", keep)
    runs = [shlex.split(line)[1:] for line in commands if line.split()[1] in ("picard", "roots")]
    assert [argv[0] for argv in runs] == ["picard", "roots"]
    for argv in runs:
        out = tmp_path / argv[0]
        assert argv[-2:] == ["--out", "run/"]
        assert main([str(tmp_path / a) if a in configs else a for a in argv[:-1]] + [str(out)]) == 0
        trace = traces.pop()
        points = trace_csv_points((out / "trace.csv").read_text())
        rebuilt = [trace.metric.distance(a, b) for a, b in zip(points, points[1:])]
        hexes = [[[c.hex() for c in s.coords] for s in steps] for steps in (rebuilt, trace.step_dists)]
        assert len(rebuilt) >= 2 and hexes[0] == hexes[1]


def test_readme_quick_start_certifies_the_fixed_point():
    body, scope = readme_python(), {}
    exec(body, scope)
    result = scope["result"]
    assert result.certificate.status == "certified"
    x = result.fixed_point
    assert len(x) == 2 and abs(x[0] - 2.0) <= 1e-9 and abs(x[1] - 4.0 / 3.0) <= 1e-9
    # The comment next to it shows the value the run returns.
    assert f"result.fixed_point      # {x}\n" in body
