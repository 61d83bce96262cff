"""Package-level properties."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import blaschkepick


def test_import_does_not_load_scipy():
    # numpy is the only runtime dependency; a fresh interpreter shows what
    # the import pulls in, whatever this test process has loaded already.
    src = str(Path(blaschkepick.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, blaschkepick; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "[]"


def test_every_exported_name_resolves():
    missing = [name for name in blaschkepick.__all__ if not hasattr(blaschkepick, name)]
    assert missing == []
    assert len(set(blaschkepick.__all__)) == len(blaschkepick.__all__)


def test_readme_quick_start_runs(capsys):
    # The README's example must keep running as the public API changes.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = readme.split("```python\n")[1:]
    assert len(blocks) == 1
    exec(compile(blocks[0].split("```")[0], "README.md", "exec"), {})
    assert "False" in capsys.readouterr().out


def test_no_module_imports_an_unused_name():
    # No linter ships with the package; this catches an import left behind
    # when the code that used it goes.  A name counts as used when the
    # module reads it or lists it in __all__.
    package = Path(blaschkepick.__file__).resolve().parent
    unused = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = next(
            (
                {elt.value for elt in node.value.elts}
                for node in tree.body
                if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            ),
            set(),
        )
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used | exported]
    assert unused == []


def test_every_module_level_name_is_read():
    # A function, class or constant that nothing in the package reads is
    # dead code.  A read is a loaded name, an attribute, a name imported
    # from a sibling module or a string in __all__; dunders are exempt.
    package = Path(blaschkepick.__file__).resolve().parent
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(package.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                read.update(elt.value for elt in node.value.elts)
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [f"{module}.{name}" for name in names if not name.startswith("__") and name not in read]
    assert defined == []
