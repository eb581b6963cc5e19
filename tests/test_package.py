import ast
from pathlib import Path

import neonext


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
