"""Every name a library module imports is used by that module, and the
library needs nothing at run time beyond the standard library and numpy."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "twoorigins"

#: module -> imported names kept although the module never reads them, each
#: with its reason.
KEPT = {
    # the benchmark's traced CLI wraps it by name on the cli module
    "cli": {"classify_wa_pair"},
}


def unused_imports(source: str) -> set:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add((alias.asname or alias.name).split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.stem,
)
def test_module_uses_every_import(path):
    # __init__.py is left out: its imports are the public API
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert unused == KEPT.get(path.stem, set())


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom x import a, b as c\nnp.zeros(a)\n"
    assert unused_imports(source) == {"os", "c"}


def third_party_imports(source: str) -> set:
    """Top-level packages imported anywhere in source, other than relative
    imports, the standard library and numpy."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots - set(sys.stdlib_module_names) - {"numpy"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_module_imports_only_stdlib_and_numpy(path):
    assert third_party_imports(path.read_text(encoding="utf-8")) == set()


def test_third_party_imports_are_found():
    source = "import os.path\nimport numpy as np\nfrom scipy import stats\nfrom . import x\n"
    assert third_party_imports(source) == {"scipy"}


def test_join_and_verify_run_without_scipy(tmp_path):
    # a fresh process: the test process itself may have imported scipy
    xs = [1.0 + i / 32 for i in range(33)]
    samples = [[x, x + 0.4 * (x - 1.0) * (2.0 - x)] for x in xs]
    (tmp_path / "map.json").write_text(json.dumps({"samples": samples}))
    (tmp_path / "spec.json").write_text(json.dumps({
        "charts": [{"label": "u", "image": [0.0, 2.0]}, {"label": "v", "image": [1.0, 3.0]}],
        "transitions": [{"between": [0, 1], "samples": samples}],
        "k": 1, "tol": 1e-3,
    }))
    script = (
        "import sys\n"
        "from twoorigins.cli import run\n"
        "codes = [run(['verify', 'map.json', '--k', '1', '--tol', '1e-3']), run(['join', 'spec.json'])]\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0] []"
