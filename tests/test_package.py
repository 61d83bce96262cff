"""Package-level properties."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import blaschkepick
from blaschkepick import (
    ContactProblem,
    JetData,
    UnitaryRealization,
    corner_value,
    evaluate,
    level_set,
    make_blaschke,
    make_report,
    realize,
    resolvent_rows,
    sp_boundary_structured,
    taylor_jet,
)


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


@pytest.mark.parametrize("module, other", [("schwarz_pick", "realization"), ("realization", "schwarz_pick")])
def test_the_routes_checked_against_each_other_import_nothing_from_each_other(module, other):
    # The structured and radial routes (schwarz_pick) are checked against the
    # realization route; neither module reads the other's code.
    package = Path(blaschkepick.__file__).resolve().parent
    tree = ast.parse((package / f"{module}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            imported.update(alias.name for alias in node.names if not node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[-1] for alias in node.names)
    assert other not in imported


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


# One rule decides what a number is, at every entry that takes one: numpy
# reads it as a single bool, integer, real or complex value.  Each entry
# takes the input x in one role, named in its refusals; `base` is a value
# the entry accepts (0 for a zero, 1 elsewhere).  Row entries read x as one
# coefficient of a row.
_B = make_blaschke([0.5])
_R = realize(_B)
NUMBER_ENTRIES = {
    "make_blaschke-zero": ("zero", 0, lambda x: make_blaschke([x])),
    "make_blaschke-constant": ("constant", 1, lambda x: make_blaschke([0.5], x)),
    "ContactProblem-point": ("point", 1, lambda x: ContactProblem(b=_B, points=(x,), contact_orders=(2,))),
    "taylor_jet-z0": ("z0", 1, lambda x: taylor_jet(_B, x, 3).tolist()),
    "evaluate": ("z", 1, lambda x: evaluate(_B, x)),
    "level_set-tau": ("tau", 1, lambda x: level_set(_B, x)),
    "resolvent_rows-point": ("point", 1, lambda x: resolvent_rows(_R, [x], [2]).tolist()),
    "UnitaryRealization-D": ("D", 1, lambda x: UnitaryRealization(A=_R.A, B=_R.B, C=_R.C, D=x).D),
    "JetData-row": ("values row 0", 1, lambda x: JetData(points=(1.0,), values=((x, 0.5),))),
    "sp_boundary_structured-row": (
        "jet 0", 1, lambda x: sp_boundary_structured([(x, 0.5)], [1.0], [1]).flat.tolist()
    ),
    "corner_value-row": ("jet 0", 1, lambda x: corner_value([x, 0.5, 0.25, 0.0], 1.0, 1)),
}


@pytest.mark.parametrize("x", ["1", b"1", None, [1, 2]], ids=["str", "bytes", "none", "list"])
@pytest.mark.parametrize("entry", NUMBER_ENTRIES)
def test_non_number_is_a_type_error_naming_its_role(entry, x):
    role, _, call = NUMBER_ENTRIES[entry]
    with pytest.raises(TypeError) as info:
        call(x)
    assert role in str(info.value)


@pytest.mark.parametrize("x", [float("nan"), complex(0.0, float("inf"))], ids=["nan", "inf"])
@pytest.mark.parametrize("entry", NUMBER_ENTRIES)
def test_non_finite_number_is_a_value_error_naming_its_role(entry, x):
    role, _, call = NUMBER_ENTRIES[entry]
    with pytest.raises(ValueError) as info:
        call(x)
    assert role in str(info.value)


@pytest.mark.parametrize(
    "kind",
    [int, float, bool, np.int64, np.uint8, np.float32, np.float64, np.complex64, np.bool_, np.array],
)
@pytest.mark.parametrize("entry", NUMBER_ENTRIES)
def test_every_number_reads_as_its_complex_value(entry, kind):
    # Python and numpy scalars, 0-d arrays and bools give what their
    # complex value gives, bit for bit and with the same stored types (a
    # stored scalar is a Python complex, so a bool is stored as 1+0j).
    _, base, call = NUMBER_ENTRIES[entry]
    x = kind(base)
    assert repr(call(x)) == repr(call(complex(x)))


# Matrices take the same number rule: each entry takes x as one entry of a
# matrix it accepts at x = 1.  A non-number, and a ragged nesting, is a
# TypeError naming the matrix; a non-finite entry and a wrong shape are
# ValueErrors.
_ONE = [[1.0]]
_RAGGED = [[1.0], [1.0, 2.0]]
MATRIX_ENTRIES = {
    "make_report": ("matrix", lambda x: make_report([[2.0, 0.5], [0.5, x]], strict=False).matrix),
    "UnitaryRealization-A": ("A", lambda x: UnitaryRealization(A=[[x]], B=_ONE, C=_ONE, D=0.5).A),
    "UnitaryRealization-B": ("B", lambda x: UnitaryRealization(A=_ONE, B=[[x]], C=_ONE, D=0.5).B),
    "UnitaryRealization-C": ("C", lambda x: UnitaryRealization(A=_ONE, B=_ONE, C=[[x]], D=0.5).C),
}
RAGGED_MATRICES = {
    "make_report": ("matrix", lambda: make_report(_RAGGED)),
    "UnitaryRealization-A": ("A", lambda: UnitaryRealization(A=_RAGGED, B=_ONE, C=_ONE, D=0.5)),
    "UnitaryRealization-B": ("B", lambda: UnitaryRealization(A=_ONE, B=_RAGGED, C=_ONE, D=0.5)),
    "UnitaryRealization-C": ("C", lambda: UnitaryRealization(A=_ONE, B=_ONE, C=_RAGGED, D=0.5)),
}


@pytest.mark.parametrize("x", ["1", b"1", None], ids=["str", "bytes", "none"])
@pytest.mark.parametrize("entry", MATRIX_ENTRIES)
def test_non_number_matrix_entry_is_a_type_error_naming_the_matrix(entry, x):
    role, call = MATRIX_ENTRIES[entry]
    with pytest.raises(TypeError, match=f"^{role} must be an array of numbers"):
        call(x)


@pytest.mark.parametrize("entry", RAGGED_MATRICES)
def test_ragged_matrix_is_a_type_error_naming_the_matrix(entry):
    role, call = RAGGED_MATRICES[entry]
    with pytest.raises(TypeError, match=f"^{role} must be an array of numbers"):
        call()


@pytest.mark.parametrize("x", [float("nan"), complex(0.0, float("inf"))], ids=["nan", "inf"])
@pytest.mark.parametrize("entry", MATRIX_ENTRIES)
def test_non_finite_matrix_entry_is_a_value_error_naming_the_matrix(entry, x):
    role, call = MATRIX_ENTRIES[entry]
    with pytest.raises(ValueError, match=f"^{role} has a non-finite entry"):
        call(x)


@pytest.mark.parametrize("kind", [int, float, bool, np.int64, np.float32, np.complex64, np.bool_])
@pytest.mark.parametrize("entry", MATRIX_ENTRIES)
def test_every_matrix_entry_reads_as_its_complex_value(entry, kind):
    _, call = MATRIX_ENTRIES[entry]
    assert np.asarray(call(kind(1))).tolist() == np.asarray(call(1 + 0j)).tolist()
