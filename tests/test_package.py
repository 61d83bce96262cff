"""Package-level properties."""

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
