"""No code in ``src/tjl`` that only tests run.

Every function, class and method of the package (dunders excepted) must be
reachable by name from a command, that is from ``tjl.cli.main``, from the
module-level code of some module, or from ``tjl.__all__``.  Reachability is
by name alone, read from the source with ``ast``: a definition is reached
once a reached body mentions its name, as a bare name or as an attribute.
A reached class also reaches its class-level statements and its dunder
methods, which Python calls without naming them.  Matching by name
over-approximates (two methods of one name are reached together), so the
test can miss dead code but never flags live code.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tjl"


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _names(nodes) -> set[str]:
    out = set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                out.add(n.id)
            elif isinstance(n, ast.Attribute):
                out.add(n.attr)
    return out


def _class_own_code(cls: ast.ClassDef) -> list[ast.AST]:
    """What a reached class runs without naming it: bases, decorators,
    class-level statements and dunder methods."""
    own = [*cls.bases, *cls.keywords, *cls.decorator_list]
    for st in cls.body:
        if not isinstance(st, ast.FunctionDef) or _is_dunder(st.name):
            own.append(st)
    return own


def _definitions_and_roots(package: Path):
    """({qualified name: (simple name, the code it runs)}, root names)."""
    defs = {}
    roots = {"main"}  # the console script tjl.cli:main
    for path in sorted(package.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(), filename=str(path))
        for st in tree.body:
            if isinstance(st, ast.FunctionDef):
                defs[f"{module}.{st.name}"] = (st.name, [st])
            elif isinstance(st, ast.ClassDef):
                defs[f"{module}.{st.name}"] = (st.name, _class_own_code(st))
                for sub in st.body:
                    if isinstance(sub, ast.FunctionDef) \
                            and not _is_dunder(sub.name):
                        defs[f"{module}.{st.name}.{sub.name}"] = (sub.name,
                                                                  [sub])
            elif isinstance(st, (ast.Import, ast.ImportFrom)):
                continue  # a re-export is not a use
            elif module == "__init__":
                if any(isinstance(t, ast.Name) and t.id == "__all__"
                       for t in getattr(st, "targets", ())):
                    roots |= {e.value for e in st.value.elts}
            else:
                roots |= _names([st])
    return defs, roots


def _unreached(package: Path = PACKAGE) -> list[str]:
    defs, reached = _definitions_and_roots(package)
    pending = dict(defs)
    grew = True
    while grew:
        grew = False
        for qual, (name, code) in list(pending.items()):
            if name in reached:
                del pending[qual]
                reached |= _names(code)
                grew = True
    return sorted(pending)


def test_every_definition_is_reached_from_a_command_or_the_exports():
    unreached = _unreached()
    assert not unreached, (
        "defined in src/tjl but reached by no command, module-level code or "
        "tjl.__all__ (delete it, or move a test oracle into tests/): "
        + ", ".join(unreached))


def test_the_guard_sees_a_helper_that_nothing_calls(tmp_path):
    """A function and a method that no reached code names are reported;
    the same names stay quiet once a command mentions them."""
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    cyc = tmp_path / "cyclotomic.py"
    cyc.write_text(cyc.read_text()
                   + "\n\ndef _orphan_helper():\n    return 0\n"
                   + "\n\nclass _Orphan:\n    def orphan_method(self):\n"
                     "        return 0\n")
    assert {"cyclotomic._orphan_helper", "cyclotomic._Orphan",
            "cyclotomic._Orphan.orphan_method"} <= set(_unreached(tmp_path))
    cli = tmp_path / "cli.py"
    cli.write_text(cli.read_text()
                   + "\n_USED = (_orphan_helper, _Orphan().orphan_method)\n")
    assert not {"cyclotomic._orphan_helper", "cyclotomic._Orphan",
                "cyclotomic._Orphan.orphan_method"} & set(_unreached(tmp_path))
