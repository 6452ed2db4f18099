"""Public surface: exported names resolve, modules keep out of each other's
private names and of the model family, importing the package leaves
scipy.stats and scipy.optimize out, the README quick start runs, and no
source, test or script imports a name it never uses; the reproduction
script refuses bad arguments with argparse's exit 2."""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import seqfdr

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


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


def test_start_up_leaves_scipy_stats_and_optimize_unimported():
    # scipy.stats and scipy.optimize add about half a second and 40 MB to
    # every start-up: the count law uses scipy.special alone, and the LP
    # solver is imported only where a program is solved
    code = ("import sys\n"
            "import seqfdr.cli, seqfdr.calibrate, seqfdr.fixed_sample, seqfdr.yellowcard\n"
            "import seqfdr.worstcase\n"
            "print(sorted(m for m in sys.modules if m.startswith(('scipy.stats', "
            "'scipy.optimize'))))")
    env = dict(os.environ, PYTHONPATH=str(Path(seqfdr.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"


def test_no_file_imports_a_name_it_never_uses():
    # a name an import binds must be read in its file, or listed in its
    # __all__ (a re-export); ``from __future__`` imports bind no name
    offences = []
    for path in sorted(p for d in ("src", "tests", "scripts") for p in (ROOT / d).rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        bound, used = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.update((a.asname or a.name, node.lineno) for a in node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                used.update(ast.literal_eval(node.value))
        offences += [f"{path.relative_to(ROOT)}:{line} {name}"
                     for name, line in bound.items() if name not in used]
    assert not offences, offences


@pytest.mark.parametrize("args", [["--seed", "-1"], ["--reps", "0"], ["--workers", "0"]],
                         ids=["seed", "reps", "workers"])
def test_reproduce_tables_refuses_bad_arguments(args):
    # argparse refuses the value before any cell runs: exit 2, a usage
    # message and no traceback
    env = dict(os.environ, PYTHONPATH=str(Path(seqfdr.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "reproduce_tables.py"), *args],
                         capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 2
    assert f"argument {args[0]}" in out.stderr and "Traceback" not in out.stderr
    assert out.stdout == ""
