"""No code in ``src/tjl`` that only tests run.

Every function, class and method of the package (dunders excepted) must be
reachable by name from a command, that is from ``tjl.cli.main``, from the
module-level code of some module, or from the benchmark child
``bench/child.py``, whose every name, bare or attribute, is a root.  The
package re-exports nothing, so an import is not a use.  Reachability is by
name alone, read from the source with ``ast``: a definition is reached once
a reached body mentions its name.  A module-level function or class must
be mentioned as a bare name, which is how the package calls what it
imports; a method may be mentioned as a bare name or as an attribute.  A
reached class also reaches its class-level statements and its dunder
methods, which Python calls without naming them.  Matching by name
over-approximates (two methods of one name are reached together), so the
test can miss dead code but never flags live code.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tjl"
BENCH_CHILD = ROOT / "bench" / "child.py"


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _names(nodes) -> tuple[set[str], set[str]]:
    """(the bare names, the attribute names) that nodes mention."""
    bare, attrs = set(), set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                bare.add(n.id)
            elif isinstance(n, ast.Attribute):
                attrs.add(n.attr)
    return bare, attrs


def _class_own_code(cls: ast.ClassDef) -> list[ast.AST]:
    """What a reached class runs without naming it: bases, decorators,
    class-level statements and dunder methods."""
    own = [*cls.bases, *cls.keywords, *cls.decorator_list]
    for st in cls.body:
        if not isinstance(st, ast.FunctionDef) or _is_dunder(st.name):
            own.append(st)
    return own


def _definitions_and_roots(package: Path):
    """({qualified name: (simple name, is a method, the code it runs)},
    the bare root names, the attribute root names)."""
    defs = {}
    bare = {"main"}  # the console script tjl.cli:main
    attrs: set[str] = set()
    for path in sorted(package.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(), filename=str(path))
        for st in tree.body:
            if isinstance(st, ast.FunctionDef):
                defs[f"{module}.{st.name}"] = (st.name, False, [st])
            elif isinstance(st, ast.ClassDef):
                defs[f"{module}.{st.name}"] = (st.name, False,
                                               _class_own_code(st))
                for sub in st.body:
                    if isinstance(sub, ast.FunctionDef) \
                            and not _is_dunder(sub.name):
                        defs[f"{module}.{st.name}.{sub.name}"] = (
                            sub.name, True, [sub])
            elif not isinstance(st, (ast.Import, ast.ImportFrom)):
                more_bare, more_attrs = _names([st])
                bare |= more_bare
                attrs |= more_attrs
    bare |= set.union(*_names([ast.parse(BENCH_CHILD.read_text())]))
    return defs, bare, attrs


def _unreached(package: Path = PACKAGE) -> list[str]:
    defs, bare, attrs = _definitions_and_roots(package)
    pending = dict(defs)
    grew = True
    while grew:
        grew = False
        for qual, (name, method, code) in list(pending.items()):
            if name in bare or (method and name in attrs):
                del pending[qual]
                more_bare, more_attrs = _names(code)
                bare |= more_bare
                attrs |= more_attrs
                grew = True
    return sorted(pending)


def test_every_definition_is_reached_from_a_command():
    unreached = _unreached()
    assert not unreached, (
        "defined in src/tjl but reached by no command, module-level code or "
        "bench/child.py (delete it, or move a test oracle into tests/): "
        + ", ".join(unreached))


def _copy_package(tmp_path: Path) -> None:
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())


def _append(path: Path, code: str) -> None:
    path.write_text(path.read_text() + code)


def test_the_guard_sees_a_helper_that_nothing_calls(tmp_path):
    """A function and a method that no reached code names are reported;
    the same names stay quiet once a command mentions them.  An export is
    not a use, and a module-level function is not reached by a method
    call of the same name."""
    _copy_package(tmp_path)
    _append(tmp_path / "cyclotomic.py",
            "\n\ndef _orphan_helper():\n    return 0\n"
            "\n\nclass _Orphan:\n    def orphan_method(self):\n"
            "        return 0\n")
    orphans = {"cyclotomic._orphan_helper", "cyclotomic._Orphan",
               "cyclotomic._Orphan.orphan_method"}
    assert orphans <= set(_unreached(tmp_path))

    # named only in a re-export and in __all__
    _append(tmp_path / "__init__.py",
            "\nfrom .cyclotomic import _orphan_helper\n"
            "\n__all__ = ['_orphan_helper']\n")
    assert "cyclotomic._orphan_helper" in _unreached(tmp_path)

    # a module-level wrapper named like the method that the package calls
    assert "quaternion.OrderElement.trd" not in _unreached(tmp_path)
    _append(tmp_path / "quaternion.py",
            "\n\ndef trd(x):\n    return x.trd()\n")
    assert "quaternion.trd" in _unreached(tmp_path)

    _append(tmp_path / "cli.py",
            "\n_USED = (_orphan_helper, _Orphan().orphan_method)\n")
    assert not orphans & set(_unreached(tmp_path))
