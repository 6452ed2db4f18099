"""Public surface: exported names resolve, modules keep out of each other's
private names and of the model family, and the README quick start runs."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import seqfdr

README = Path(__file__).resolve().parent.parent / "README.md"


def test_exports_resolve_and_quick_start_runs(capsys):
    modules = [seqfdr] + [
        importlib.import_module(f"seqfdr.{info.name}")
        for info in pkgutil.iter_modules(seqfdr.__path__)
    ]
    for module in modules:
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (module.__name__, missing)
    assert all(hasattr(m, "__all__") for m in modules if m.__name__ != "seqfdr.errors")

    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    lines = capsys.readouterr().out.splitlines()
    # one decision line per stream: stream, action, step, level
    assert sorted(int(line.split()[0]) for line in lines) == list(range(10))
    assert {line.split()[1] for line in lines} <= {"accept", "reject"}


def test_no_module_imports_another_modules_private_name():
    # a name with one leading underscore is its module's own business;
    # dunders such as the package's __version__ are not private
    offences = []
    for path in sorted(Path(seqfdr.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("seqfdr")):
                offences += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                             if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert not offences, offences


def test_only_the_model_and_the_cli_read_the_family():
    # what a family means (its law, sampler, marginals and statistic) is
    # SimpleModel's business; the CLI checks the user's config field by name
    readers = set()
    for path in sorted(Path(seqfdr.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "family":
                readers.add(path.name)
    assert readers == {"sprt.py", "cli.py"}, readers
