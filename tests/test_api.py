import ast
import os
import subprocess
import sys
from pathlib import Path

import perpetua
from perpetua.laws import FAMILIES, ScalarLaw


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


def test_log_gamma_ratio_and_weibull_use_no_scipy():
    tree = ast.parse(Path(perpetua.__file__).with_name("laws.py").read_text())
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    for name in ("_log_gamma_ratio", "Weibull"):
        assert [node for node in ast.walk(defs[name])
                if isinstance(node, ast.Name) and node.id == "special"] == [], name


def test_each_family_defines_one_moment_method():
    # ScalarLaw derives each of the two from the other, so a family that
    # defines neither would recurse forever
    for cls in FAMILIES.values():
        own = [name for name in ("abs_moment", "_log_abs_moment")
               if getattr(cls, name) is not getattr(ScalarLaw, name)]
        assert len(own) == 1, (cls.family, own)
