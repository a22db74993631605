"""The benchmark's tracer names brickrank functions by (module, name);
a rename would silently turn its layer metric to 0.  The package's
__all__ lists are names too, and must stay true, and so must the
README's console examples."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path
import re
import shlex
import types

import brickrank.cli

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{fname}" for module, fname, _ in tracing.WRAPPED
        if not isinstance(getattr(importlib.import_module(f"brickrank.{module}"),
                                  fname, None), types.FunctionType)
    ]
    assert missing == []


def test_all_lists_are_true():
    """Every name in a module's __all__ exists, and every public name the
    package re-exports is in its home module's __all__."""
    import brickrank

    stale, unlisted = [], []
    for info in pkgutil.iter_modules(brickrank.__path__):
        module = importlib.import_module(f"brickrank.{info.name}")
        stale += [f"{info.name}.{name}" for name in getattr(module, "__all__", ())
                  if not hasattr(module, name)]
    for name, value in vars(brickrank).items():
        home = getattr(value, "__module__", None)
        if name.startswith("_") or not (home or "").startswith("brickrank."):
            continue
        if name not in importlib.import_module(home).__all__:
            unlisted.append(f"{home}.{name}")
    assert (stale, unlisted) == ([], [])


def _readme_examples():
    """(command, shown output lines) for each `$ brickrank` line of the
    README's code blocks; the output runs to a blank line, the next
    command or the end of the block."""
    examples, command, shown, fenced = [], None, [], False
    for line in (ROOT / "README.md").read_text().splitlines() + ["```"]:
        if line.startswith("```") or not line.strip() or line.startswith("$"):
            if command:
                examples.append((command, shown))
            command, shown = None, []
            fenced ^= line.startswith("```")
            if fenced and line.startswith("$ brickrank "):
                command = line[2:]
        elif command:
            shown.append(line)
    return examples


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    """Every README example prints the lines shown; a `...` line stands
    for any run of lines.  Commands that redirect their output are skipped."""
    monkeypatch.chdir(tmp_path)
    examples = [(cmd, shown) for cmd, shown in _readme_examples()
                if ">" not in shlex.split(cmd)]
    assert len(examples) >= 8
    for cmd, shown in examples:
        code = brickrank.cli.main(shlex.split(cmd)[1:])
        out = capsys.readouterr().out
        pattern = "".join(r"(?:.*\n)*" if line == "..." else re.escape(line) + "\n"
                          for line in shown)
        assert (cmd, code, re.fullmatch(pattern, out) is not None) == (cmd, 0, True), out


def test_readme_python_examples_run(tmp_path, monkeypatch):
    """Every python code block of the README runs without an error."""
    monkeypatch.chdir(tmp_path)
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
