"""The lazy package and the module boundaries of the command line: importing
``afkit`` loads no module, a public name loads only its own, and each
subcommand loads only the modules it uses."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import afkit

SRC = str(Path(afkit.__file__).resolve().parent.parent)

# loaded by every subcommand: the package, the parser, the formats and what
# they import
CLI_BASE = {"afkit", "afkit.cli", "afkit.config", "afkit.core", "afkit.semantics", "afkit.formats"}

AF_TEXT = "arg(a).\narg(b).\natt(a,b).\natt(b,b).\n"
SET_TEXT = "a\nb\n"
LOGIC_TEXT = "atoms a\ninterpretations 1\nmodels({}) = {}\nmodels(a) = {1}\n"

# argv (file names are replaced by paths) -> modules loaded beyond CLI_BASE
SUBCOMMANDS = [
    (["enumerate", "--semantics", "prf", "f.apx"], set()),
    (["labellings", "--semantics", "grd", "f.apx"], set()),
    (["kernel", "--kind", "k_stb", "f.apx"], {"kernels"}),
    (["equiv", "--notion", "E", "--semantics", "stb", "f.apx", "f.apx"], {"kernels"}),
    (["witness", "--notion", "E", "--semantics", "stb", "f.apx", "f.apx"], {"kernels"}),
    (["analyze-set", "s.set"], {"realizability"}),
    (["realize", "--semantics", "stg", "s.set"], {"realizability"}),
    (["classify", "--semantics", "semi", "f.apx"], {"realizability"}),
    (["verify-class", "--semantics", "com", "f.apx"], {"verifiability"}),
    (["charlogic", "--characterize", "l.lf"], {"charlogic"}),
    (["rho-logic", "--universe", "a", "--semantics", "stb"], {"charlogic", "kernels"}),
]


def loaded_modules(code, *argv):
    """The afkit modules a fresh interpreter holds after running `code`,
    which ends by printing their sorted list as JSON."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


AFKIT_MODULES = "json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'afkit'))"


@pytest.mark.parametrize("argv,extra", SUBCOMMANDS, ids=[a[0] for a, _ in SUBCOMMANDS])
def test_subcommand_loads_only_its_modules(tmp_path, argv, extra):
    files = {"f.apx": AF_TEXT, "s.set": SET_TEXT, "l.lf": LOGIC_TEXT}
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    code = (
        "import json, sys\n"
        "from afkit.cli import main\n"
        "rc = main(sys.argv[1:])\n"
        "assert rc in (0, 1, 3), rc\n"
        f"print({AFKIT_MODULES})\n"
    )
    assert loaded_modules(code, *argv) == CLI_BASE | {f"afkit.{m}" for m in extra}


def test_bare_import_loads_no_module():
    assert loaded_modules(f"import json, sys, afkit\nprint({AFKIT_MODULES})") == {"afkit"}


def test_name_loads_only_its_module():
    code = f"import json, sys, afkit\nafkit.kernel\nprint({AFKIT_MODULES})"
    assert loaded_modules(code) == {"afkit", "afkit.config", "afkit.core", "afkit.semantics", "afkit.kernels"}


@pytest.mark.parametrize("name", afkit.__all__)
def test_public_name_is_its_home_object(name):
    home = importlib.import_module(f"afkit.{afkit._HOME[name]}")
    assert getattr(afkit, name) is getattr(home, name)
    assert afkit.__dict__[name] is getattr(home, name)  # kept after first access


def test_star_import_and_dir_cover_all():
    namespace = {}
    exec("from afkit import *", namespace)
    assert set(afkit.__all__) <= set(namespace)
    assert set(afkit.__all__) <= set(dir(afkit))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'afkit' has no attribute 'nope'$"):
        afkit.nope
    assert not hasattr(afkit, "_nope")


@pytest.mark.parametrize("module,name", [
    ("kernels", "KERNEL_IDS"), ("kernels", "NOTIONS"), ("kernels", "EXPANSION_NOTIONS"),
    ("kernels", "DELETION_NOTIONS"), ("realizability", "SIGNATURE_SEMANTICS"),
    ("realizability", "CLASSIFIABLE_SEMANTICS"), ("verifiability", "EXACT_CLASS"),
    ("verifiability", "VERIFIABLE_SEMANTICS"),
])
def test_choice_list_defined_once(module, name):
    from afkit import config

    assert getattr(importlib.import_module(f"afkit.{module}"), name) is getattr(config, name)


def test_no_private_name_crosses_a_module():
    # a helper that another module needs is public: it has a name and a
    # contract of its own
    crossings = []
    for path in sorted(Path(afkit.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "afkit"):
                crossings += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert crossings == []


# stdlib modules that no subcommand needs: dataclasses and what it imports
COLD_START_FREE = {"dataclasses", "inspect", "ast", "dis"}


def modules_after_main(tmp_path, argv):
    """Every module a fresh interpreter holds after `main(argv)`, listed
    before the probe imports json to print them."""
    files = {"f.apx": AF_TEXT, "s.set": SET_TEXT, "l.lf": LOGIC_TEXT}
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    code = (
        "import sys\n"
        "from afkit.cli import main\n"
        "rc = main(sys.argv[1:])\n"
        "assert rc in (0, 1, 3), rc\n"
        "loaded = sorted(sys.modules)\n"
        "import json\n"
        "print(json.dumps(loaded))\n"
    )
    return loaded_modules(code, *argv)


@pytest.mark.parametrize("argv", [a for a, _ in SUBCOMMANDS], ids=[a[0] for a, _ in SUBCOMMANDS])
def test_text_run_loads_no_dataclasses_or_json(tmp_path, argv):
    loaded = modules_after_main(tmp_path, [*argv, "--output", "text"])
    assert loaded & (COLD_START_FREE | {"json"}) == set()


@pytest.mark.parametrize("argv", [a for a, _ in SUBCOMMANDS], ids=[a[0] for a, _ in SUBCOMMANDS])
def test_json_run_loads_json_but_no_dataclasses(tmp_path, argv):
    loaded = modules_after_main(tmp_path, [*argv, "--output", "json"])
    assert "json" in loaded
    assert loaded & COLD_START_FREE == set()


def test_cli_prints_only_in_main():
    # handlers return (exit code, text, JSON payload) and main prints one of
    # them: print and the json import occur in no other function of cli.py
    tree = ast.parse((Path(afkit.__file__).resolve().parent / "cli.py").read_text(encoding="utf-8"))
    sites = []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
                sites.append(("print", getattr(top, "name", None)))
            elif isinstance(node, ast.Import) and any(a.name == "json" for a in node.names):
                sites.append(("json", getattr(top, "name", None)))
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                sites.append(("json", getattr(top, "name", None)))
    assert {kind for kind, _ in sites} == {"print", "json"}
    assert {where for _, where in sites} == {"main"}


def test_checked_construction_only_where_names_are_checked():
    # AF._from_checked skips the name check: only the modules that build
    # frameworks from names already checked call it, never those reading input
    callers = set()
    for path in sorted(Path(afkit.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "_from_checked":
                callers.add(path.stem)
    assert callers == {"core", "charlogic", "realizability", "kernels"}
