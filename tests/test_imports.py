"""Every name a library module imports is used by that module, the library
needs nothing at run time beyond the standard library and numpy, and only
the subcommands that glue or certify load numpy."""

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


def import_roots(node) -> set:
    """Top-level packages an import statement names; relative imports name none."""
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[0] for alias in node.names}
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return {node.module.split(".")[0]}
    return set()


def third_party_imports(source: str) -> set:
    """Top-level packages imported anywhere in source, other than relative
    imports, the standard library and numpy."""
    roots = set().union(*map(import_roots, ast.walk(ast.parse(source))))
    return roots - set(sys.stdlib_module_names) - {"numpy"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_module_imports_only_stdlib_and_numpy(path):
    assert third_party_imports(path.read_text(encoding="utf-8")) == set()


def test_third_party_imports_are_found():
    source = "import os.path\nimport numpy as np\nfrom scipy import stats\nfrom . import x\n"
    assert third_party_imports(source) == {"scipy"}


def import_time_imports(source: str) -> set:
    """Top-level packages that importing source imports: those named outside
    any function body (module and class bodies run at import)."""
    roots, stack = set(), list(ast.parse(source).body)
    while stack:
        node = stack.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            roots |= import_roots(node)
            stack.extend(ast.iter_child_nodes(node))
    return roots


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_module_imports_numpy_when_imported(path):
    # join binds numpy on first use, so only the commands that need it pay for it
    assert "numpy" not in import_time_imports(path.read_text(encoding="utf-8"))


def test_import_time_imports_are_found():
    source = ("import os\ntry:\n    import numpy\nexcept ImportError:\n    pass\n"
              "class A:\n    import json\n"
              "def f():\n    import scipy\n")
    assert import_time_imports(source) == {"os", "numpy", "json"}


def fresh_run(script: str, cwd):
    """Run script in a fresh interpreter (the test process itself may have
    imported numpy or scipy) and return the JSON of its last stdout line."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_exact_subcommands_never_load_numpy(tmp_path):
    wa = {"neg": [{"c": -1, "e": 1}], "orientation": "preserving"}
    (tmp_path / "w2.json").write_text(json.dumps(dict(wa, pos=[{"c": 2, "e": 1}])))
    (tmp_path / "w3.json").write_text(json.dumps(dict(wa, pos=[{"c": 3, "e": 1}])))
    (tmp_path / "z2.json").write_text(json.dumps({
        "name": "Z2", "elements": ["e", "s"], "table": [[0, 1], [1, 0]],
        "subgroups": {"T": ["e"], "A": ["e", "s"]},
    }))
    script = (
        "import json, sys\n"
        "import twoorigins\n"
        "from twoorigins.cli import run\n"
        "after_import = 'numpy' in sys.modules\n"
        "codes = [run(['classify', '--a', '2', '--b', '2']),\n"
        "         run(['psi', '--a', '4', '--selfcheck']),\n"
        "         run(['germ', 'compose', '--g', 'w2.json', '--h', 'w3.json']),\n"
        "         run(['cosets', 'z2.json', '--C', 'T', '--D', 'A']),\n"
        "         run(['structure', 'same', '--h', 'w2.json', '--g', 'w2.json'])]\n"
        "print(json.dumps([codes, after_import, 'numpy' in sys.modules]))\n"
    )
    assert fresh_run(script, tmp_path) == [[0, 0, 0, 0, 0], False, False]


def test_join_and_verify_run_without_scipy(tmp_path):
    # they are the subcommands that load numpy, and they need nothing more
    xs = [1.0 + i / 32 for i in range(33)]
    samples = [[x, x + 0.4 * (x - 1.0) * (2.0 - x)] for x in xs]
    (tmp_path / "map.json").write_text(json.dumps({"samples": samples}))
    (tmp_path / "spec.json").write_text(json.dumps({
        "charts": [{"label": "u", "image": [0.0, 2.0]}, {"label": "v", "image": [1.0, 3.0]}],
        "transitions": [{"between": [0, 1], "samples": samples}],
        "k": 1, "tol": 1e-3,
    }))
    script = (
        "import json, sys\n"
        "from twoorigins.cli import run\n"
        "codes = [run(['verify', 'map.json', '--k', '1', '--tol', '1e-3']), run(['join', 'spec.json'])]\n"
        "print(json.dumps([codes, 'numpy' in sys.modules,\n"
        "                  sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
    )
    assert fresh_run(script, tmp_path) == [[0, 0], True, []]


def test_cli_imports_join_eagerly(tmp_path):
    """The benchmark's process probe reads the twoorigins.join line of
    `-X importtime` for `import twoorigins.cli`; a CLI that loads join lazily
    needs a benchmark change that drops that probe first."""
    script = "import json, sys\nimport twoorigins.cli\nprint(json.dumps('twoorigins.join' in sys.modules))\n"
    assert fresh_run(script, tmp_path) is True
