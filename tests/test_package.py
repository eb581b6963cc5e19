import ast
import importlib
import re
import shlex
from pathlib import Path

import neonext
from neonext import cli


def test_every_exported_name_resolves():
    missing = [name for name in neonext.__all__ if not hasattr(neonext, name)]
    assert not missing, f"neonext.__all__ names missing attributes: {missing}"
    assert len(set(neonext.__all__)) == len(neonext.__all__)


ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never references (``__all__`` counts as a
    reference): a dependency-free stand-in for pyflakes' unused-import check."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                if a.name != "*":
                    imported[a.asname or a.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {e.value for e in node.value.elts}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda t: t[::-1]) if name not in used]


def test_unused_imports_detected():
    assert unused_imports("import os\nfrom a import b, c as d\nprint(d)\n") == ["line 1: os", "line 2: b"]


def test_no_unused_imports():
    found = {
        str(path.relative_to(ROOT)): names
        for folder in ("src", "scripts", "tests")
        for path in sorted((ROOT / folder).rglob("*.py"))
        if (names := unused_imports(path.read_text()))
    }
    assert not found, found


def private_imports(source: str) -> list[str]:
    """``from m import _name`` imports: another module's private names."""
    return [
        f"line {node.lineno}: {'.' * node.level}{node.module or ''} {a.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for a in node.names
        if a.name.startswith("_") and not a.name.startswith("__")
    ]


def test_private_imports_detected():
    source = "from .blocks import ok, _pw_fwd\nfrom . import _kernels\nfrom a import __version__\n"
    assert private_imports(source) == ["line 1: .blocks _pw_fwd", "line 2: . _kernels"]


def test_no_private_imports():
    found = {
        str(path.relative_to(ROOT)): names
        for folder in ("src", "scripts")
        for path in sorted((ROOT / folder).rglob("*.py"))
        if (names := private_imports(path.read_text()))
    }
    assert not found, found


def function_level_imports(source: str) -> list[str]:
    """Imports inside a function body, where they hide a module cycle."""
    return [
        f"line {node.lineno}: in {fn.name}"
        for fn in ast.walk(ast.parse(source))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]


def test_function_level_imports_detected():
    source = "import os\ndef f():\n    from .model import one_hot\n    def g():\n        import re\n"
    assert function_level_imports(source) == ["line 3: in f", "line 5: in f", "line 5: in g"]


def test_no_function_level_imports():
    found = {
        str(path.relative_to(ROOT)): names
        for folder in ("src", "scripts")
        for path in sorted((ROOT / folder).rglob("*.py"))
        if (names := function_level_imports(path.read_text()))
    }
    assert not found, found


def module_definitions(source: str) -> dict[str, int]:
    """A module's top-level functions and classes, with their lines."""
    return {
        node.name: node.lineno
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }


def referenced_names(source: str) -> set[str]:
    """Every name a module reads, reads as an attribute or imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


def unreferenced_definitions(defining: dict[str, str], others: list[str]) -> list[str]:
    """Top-level functions and classes of the ``defining`` sources (by label)
    that no source names anywhere but in their own ``def`` or ``class``
    line; docstrings and comments do not count."""
    used = set().union(*map(referenced_names, [*defining.values(), *others]))
    return [
        f"{label} line {line}: {name}"
        for label, source in defining.items()
        for name, line in module_definitions(source).items()
        if name not in used
    ]


def test_unreferenced_definitions_detected():
    defining = {"m.py": 'def used(): pass\ndef unused():\n    """``unused``"""\nclass Kept: pass\nclass Dropped:\n    def used(self): pass\n'}
    others = ["from m import Kept\nused()\n"]
    assert unreferenced_definitions(defining, others) == ["m.py line 2: unused", "m.py line 5: Dropped"]


def sources(folder: str) -> dict[str, str]:
    """The text of every Python file under ``folder``, by repo-relative path."""
    return {str(path.relative_to(ROOT)): path.read_text() for path in sorted((ROOT / folder).rglob("*.py"))}


def test_no_unreferenced_definitions():
    # a function or class nothing calls, imports or names is dead code
    others = [text for folder in ("scripts", "perfbench", "tests") for text in sources(folder).values()]
    found = unreferenced_definitions(sources("src"), others)
    assert not found, found


def test_perfbench_imports_resolve():
    # the suite never imports perfbench, so a name deleted from neonext
    # that the benchmark still imports would pass it unnoticed
    files = sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "perfbench" / "tests").glob("*.py"))
    assert files
    missing = [
        f"{path.relative_to(ROOT)} line {node.lineno}: {node.module} {a.name}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").startswith("neonext")
        for a in node.names
        if not hasattr(importlib.import_module(node.module), a.name)
    ]
    assert not missing, missing


def script_mismatches(readme: str, scripts: list[str]) -> list[str]:
    """Scripts (file names under ``scripts/``) that README does not name as
    ``scripts/<name>.py``, and such names in README that are not a script."""
    named = set(re.findall(r"scripts/([\w-]+\.py)", readme))
    return [f"scripts/{name}: not in README" for name in sorted(set(scripts) - named)] + [
        f"scripts/{name}: no such script" for name in sorted(named - set(scripts))
    ]


def test_script_mismatches_detected():
    readme = "Run `scripts/kept.py --quick`; scripts/gone.py was deleted.\n"
    assert script_mismatches(readme, ["kept.py", "new.py"]) == [
        "scripts/new.py: not in README", "scripts/gone.py: no such script",
    ]


def test_readme_names_every_script_and_no_other():
    scripts = [path.name for path in sorted((ROOT / "scripts").glob("*.py"))]
    assert scripts
    found = script_mismatches((ROOT / "README.md").read_text(), scripts)
    assert not found, found


def readme_cli_lines(readme: str) -> list[str]:
    """Every ``neonext …`` line in README's code blocks that holds no shell variable."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, re.S | re.M)
    return [
        line.strip() for block in blocks for line in block.splitlines()
        if line.strip().startswith("neonext ") and "$" not in line
    ]


def readme_cli_failures(readme: str, monkeypatch) -> list[str]:
    """README's ``neonext`` lines that ``cli.main`` refuses, with every
    subcommand handler a no-op: only the arguments are checked."""
    handlers = [name for name in vars(cli) if name.startswith("_cmd_")]
    assert len(handlers) == 6, handlers
    for name in handlers:
        monkeypatch.setattr(cli, name, lambda args: 0)
    return [line for line in readme_cli_lines(readme) if cli.main(shlex.split(line, comments=True)[1:]) != 0]


def test_readme_cli_failures_detected(monkeypatch, capsys):
    readme = (
        "```\nneonext ablate --config x --seeds 1\nneonext train --config x    # one run\n```\n"
        "Text: neonext ablate --bad.\n```\nfor k in 4 7; do\n  neonext bench --op $op --k $k\ndone\n```\n"
    )
    assert readme_cli_failures(readme, monkeypatch) == ["neonext ablate --config x --seeds 1"]
    assert "unrecognized arguments: --seeds 1" in capsys.readouterr().err


def test_readme_cli_examples_run(monkeypatch):
    readme = (ROOT / "README.md").read_text()
    commands = {line.split()[1] for line in readme_cli_lines(readme)}
    assert commands == {"bench", "gradcheck", "train", "ablate", "init-dump", "equiv-check"}
    assert not readme_cli_failures(readme, monkeypatch)


def threading_imports(source: str) -> list[str]:
    """Imports of the standard library's ``threading``, which starts threads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names if name.split(".")[0] == "threading"]
    return found


def test_threading_imports_detected():
    source = "import os, threading\nfrom threading import Thread\nimport threading as t\nfrom .threading import x\n"
    assert threading_imports(source) == ["line 1: threading", "line 2: threading", "line 3: threading"]


def test_only_parallel_starts_threads():
    # every split runs through parallel.run_pieces, which joins its threads
    found = {
        label: names
        for folder in ("src", "scripts")
        for label, text in sources(folder).items()
        if label != "src/neonext/parallel.py" and (names := threading_imports(text))
    }
    assert not found, found
