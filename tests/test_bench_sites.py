"""The benchmark's traced pass rebinds names inside zzcalc modules: each
`(module, name)` of `bench/tracing.py`'s SITES.  Every one of them must
be bound on a fresh import of zzcalc, or the traced pass fails; this
checks that without running the benchmark.  The import happens in a
child process, so the test session's own zzcalc modules stay as they
are.

A site is also the one reason a module may import a name from a sibling
and not use it: every other such import is used, or re-exported through
the module's __all__."""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

RESOLVE = """
import importlib, importlib.util, json, sys

spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
missing = []
for where, attr, span in tracing.SITES:
    module, _, cls = where.partition(".")
    owner = importlib.import_module("zzcalc." + module)
    if cls:
        owner = getattr(owner, cls, None)
    # a class attribute must be the class's own, as the tracer reads it
    bound = attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr)
    if not bound or not callable(getattr(owner, attr)):
        missing.append([where, attr, span])
print(json.dumps({"sites": len(tracing.SITES), "missing": missing}))
"""


def test_every_tracing_site_resolves():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", RESOLVE, str(ROOT / "bench" / "tracing.py")],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["sites"] > 0
    assert result["missing"] == []


def assigned(tree, name):
    """The literal value of the module-level assignment to name, if any."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    return ()


def test_every_sibling_import_is_used():
    """Each name a zzcalc module imports from a sibling is used in it,
    listed in its __all__, or a tracing site; __init__ only re-exports."""
    tracing = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    sites = {(where, attr) for where, attr, _ in assigned(tracing, "SITES")}
    unused = []
    for path in sorted((ROOT / "src" / "zzcalc").glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        kept = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        kept |= set(assigned(tree, "__all__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    name = alias.asname or alias.name
                    if name not in kept and (path.stem, name) not in sites:
                        unused.append(f"{path.stem}: {name}")
    assert unused == []


def test_every_all_entry_is_bound():
    """Each name in a zzcalc module's __all__ is bound in that module: a
    stale entry breaks `import *` and would pass an unused sibling import
    off as an export."""
    stale = []
    for path in sorted((ROOT / "src" / "zzcalc").glob("*.py")):
        module = importlib.import_module(
            "zzcalc" if path.stem == "__init__" else f"zzcalc.{path.stem}")
        stale += [f"{path.stem}: {name}" for name in getattr(module, "__all__", ())
                  if not hasattr(module, name)]
    assert stale == []
