import ast
import os
import subprocess
import sys
from pathlib import Path

import perpetua


def test_exports_resolve_and_are_distinct():
    # one name per job: an alias would export the same object twice
    seen = {}
    for name in perpetua.__all__:
        obj = getattr(perpetua, name)
        if callable(obj):
            assert id(obj) not in seen, f"{name} duplicates {seen[id(obj)]}"
            seen[id(obj)] = name


def _loads_in_fresh_interpreter(module):
    # a fresh interpreter: other test modules import scipy.stats themselves
    src = str(Path(perpetua.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = f"import sys, perpetua, perpetua.cli; print({module!r} in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_import_loads_no_scipy_stats():
    assert _loads_in_fresh_interpreter("scipy.stats") == "False"


def test_import_loads_no_scipy_integrate():
    # the package integrates with its own tanh-sinh rule
    assert _loads_in_fresh_interpreter("scipy.integrate") == "False"


def test_laws_uses_only_four_scipy_special_functions():
    # the inventory a runtime without scipy must replace
    tree = ast.parse(Path(perpetua.__file__).with_name("laws.py").read_text())
    used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "special"}
    assert used == {"gammaln", "digamma", "zeta", "hyp1f1"}
