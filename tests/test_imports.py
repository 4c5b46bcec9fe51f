"""Every name a library module imports is used by that module, every
private helper is named somewhere in the library, the library needs nothing
at run time beyond the standard library and numpy, only the subcommands
that glue or certify load numpy, no module loads dataclasses, each CLI
subcommand loads only the layers it calls and binds every layer name it
reads, and `import twoorigins` loads no submodule."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "twoorigins"

#: module -> imported names kept although the module never reads them, each
#: with its reason.
KEPT: dict[str, set] = {}


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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_module_uses_every_import(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert unused == KEPT.get(path.stem, set())


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom x import a, b as c\nnp.zeros(a)\n"
    assert unused_imports(source) == {"os", "c"}


def orphaned_helpers(sources) -> set:
    """Module-level private functions and classes (one leading underscore)
    that no source names, neither as a name nor as an attribute."""
    trees = [ast.parse(source) for source in sources]
    private = {node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")}
    named = {node.id if isinstance(node, ast.Name) else node.attr
             for tree in trees for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))}
    return private - named


def test_every_private_helper_is_used():
    sources = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    assert orphaned_helpers(sources) == set()


def test_orphaned_helpers_are_found():
    sources = ["def _used():\n    pass\n\ndef _orphan():\n    pass\n\nclass _Gone:\n    pass\n",
               "import m\nm._used()\n\ndef f():\n    def _inner():\n        pass\n"]
    assert orphaned_helpers(sources) == {"_orphan", "_Gone"}


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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_module_imports_dataclasses(path):
    # value types are Records: a dataclass execs its methods at class
    # creation, and every CLI process would pay for it at start
    roots = set().union(*map(import_roots, ast.walk(ast.parse(path.read_text(encoding="utf-8")))))
    assert "dataclasses" not in roots


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


def test_cli_import_loads_neither_dataclasses_nor_inspect(tmp_path):
    # compared with the modules present before, since site differs by machine
    script = ("import json, sys\nbefore = set(sys.modules)\nimport twoorigins.cli\n"
              "print(json.dumps(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before))))\n")
    assert fresh_run(script, tmp_path) == []


def test_cli_imports_join_eagerly(tmp_path):
    """The benchmark's process probe reads the twoorigins.join line of
    `-X importtime` for `import twoorigins.cli`; a CLI that loads join lazily
    needs a benchmark change that drops that probe first."""
    script = "import json, sys\nimport twoorigins.cli\nprint(json.dumps('twoorigins.join' in sys.modules))\n"
    assert fresh_run(script, tmp_path) is True


#: twoorigins modules every CLI process loads: the package, cli and what
#: cli imports at the top (join stays eager, see test_cli_imports_join_eagerly)
CLI_CORE = {"twoorigins", "twoorigins.cli", "twoorigins.errors", "twoorigins.realnum",
            "twoorigins.join", "twoorigins._numerics", "twoorigins._record"}


def write_cli_inputs(directory: Path) -> None:
    wa = {"neg": [{"c": -1, "e": 1}], "orientation": "preserving"}
    (directory / "w2.json").write_text(json.dumps(dict(wa, pos=[{"c": 2, "e": 1}])))
    (directory / "w3.json").write_text(json.dumps(dict(wa, pos=[{"c": 3, "e": 1}])))
    (directory / "z2.json").write_text(json.dumps({
        "name": "Z2", "elements": ["e", "s"], "table": [[0, 1], [1, 0]],
        "subgroups": {"T": ["e"], "A": ["e", "s"]},
    }))
    xs = [1.0 + i / 32 for i in range(33)]
    samples = [[x, x + 0.4 * (x - 1.0) * (2.0 - x)] for x in xs]
    (directory / "map.json").write_text(json.dumps({"samples": samples}))
    (directory / "spec.json").write_text(json.dumps({
        "charts": [{"label": "u", "image": [0.0, 2.0]}, {"label": "v", "image": [1.0, 3.0]}],
        "transitions": [{"between": [0, 1], "samples": samples}],
        "k": 1, "tol": 1e-3,
    }))


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("argv, layers", [
    pytest.param(["cosets", "z2.json", "--C", "T", "--D", "A"], {"cosets"}, id="cosets"),
    pytest.param(["cosets", "z2.json", "--D", "A", "--pm"], {"cosets"}, id="cosets-pm"),
    pytest.param(["germ", "compose", "--g", "w2.json", "--h", "w3.json"], {"germs"},
                 id="germ-compose"),
    pytest.param(["germ", "jet", "--h", "w3.json", "--order", "2"], {"germs"}, id="germ-jet"),
    pytest.param(["psi", "--a", "4", "--selfcheck"], {"germs", "dline"}, id="psi"),
    pytest.param(["structure", "same", "--h", "w2.json", "--g", "w3.json"], {"germs", "dline"},
                 id="structure"),
    pytest.param(["classify", "--a", "2", "--b", "3"], {"germs", "dline", "cosets"},
                 id="classify"),
    pytest.param(["join", "spec.json"], set(), id="join"),
    pytest.param(["verify", "map.json", "--k", "1", "--tol", "1e-3"], set(), id="verify"),
])
def test_each_subcommand_loads_only_its_layers(tmp_path, argv, layers, as_json):
    write_cli_inputs(tmp_path)
    argv = argv + ["--json"] * as_json
    script = ("import json, sys\nfrom twoorigins.cli import run\n"
              f"code = run({argv!r})\n"
              "print(json.dumps([code, sorted(m for m in sys.modules\n"
              "                               if m.split('.')[0] == 'twoorigins')]))\n")
    code, loaded = fresh_run(script, tmp_path)
    assert code in (0, 1)
    assert set(loaded) == CLI_CORE | {f"twoorigins.{m}" for m in layers}


def test_package_import_loads_no_submodule_and_lists_its_names(tmp_path):
    script = ("import json, sys\nimport twoorigins\nnames = dir(twoorigins)\n"
              "print(json.dumps([sorted(m for m in sys.modules if m.startswith('twoorigins.')),\n"
              "                  sorted(set(twoorigins.__all__) - set(names)),\n"
              "                  len(twoorigins.__all__)]))\n")
    # 94: the public names of the six layer modules
    assert fresh_run(script, tmp_path) == [[], [], 94]


def top_level_names(source: str) -> set:
    """Names a module binds at top level by def, class or assignment."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_star_import_gives_the_defining_modules_objects():
    import twoorigins

    namespace = {}
    exec("from twoorigins import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(twoorigins.__all__)
    defined_in = {}
    for path in SRC.glob("*.py"):
        if path.stem != "__init__":
            for name in top_level_names(path.read_text(encoding="utf-8")):
                defined_in.setdefault(name, []).append(path.stem)
    for name in twoorigins.__all__:
        (module,) = defined_in[name]
        assert namespace[name] is getattr(importlib.import_module(f"twoorigins.{module}"), name)


def layer_binds(source: str, table: dict) -> dict:
    """For each _cmd_* function of a CLI source: the modules its first
    statement (after a docstring) passes to _bind, and the modules of the
    table names it reads itself or through the module-level functions it
    calls, directly or not."""
    funcs = {node.name: node for node in ast.parse(source).body
             if isinstance(node, ast.FunctionDef)}
    module_of = {name: module for module, names in table.items() for name in names}
    out = {}
    for cmd in (name for name in funcs if name.startswith("_cmd_")):
        needed, seen, stack = set(), set(), [cmd]
        while stack:
            fn = stack.pop()
            if fn in seen:
                continue
            seen.add(fn)
            for node in ast.walk(funcs[fn]):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    if node.id in funcs:
                        stack.append(node.id)
                    elif node.id in module_of:
                        needed.add(module_of[node.id])
        body = funcs[cmd].body
        if ast.get_docstring(funcs[cmd]) is not None:
            body = body[1:]
        first = body[0]
        bound = set()
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Call)
                and getattr(first.value.func, "id", None) == "_bind"):
            bound = {ast.literal_eval(arg) for arg in first.value.args}
        out[cmd] = (bound, needed)
    return out


def test_each_subcommand_binds_the_layers_it_reads():
    # in-process tests share one cli module, where a missing bind hides
    # behind a name an earlier test bound
    from twoorigins import cli

    binds = layer_binds((SRC / "cli.py").read_text(encoding="utf-8"), cli._LAYER_NAMES)
    assert len(binds) == 7
    assert {cmd: bound for cmd, (bound, _) in binds.items()} == \
        {cmd: needed for cmd, (_, needed) in binds.items()}


def test_cli_layer_names_exist_on_their_modules():
    from twoorigins import cli

    assert [(module, name) for module, names in cli._LAYER_NAMES.items() for name in names
            if not hasattr(importlib.import_module(f"twoorigins.{module}"), name)] == []


def test_missing_layer_binds_are_found():
    source = ("def _helper():\n    return g()\n\n"
              "def _cmd_a(args):\n    \"\"\"doc\"\"\"\n    _bind(\"m\")\n    return f() + _helper()\n\n"
              "def _cmd_b(args):\n    x = f\n    return x()\n")
    assert layer_binds(source, {"m": ("f",), "n": ("g",)}) == {
        "_cmd_a": ({"m"}, {"m", "n"}), "_cmd_b": (set(), {"m"})}
