"""One memo kind in ``src/tjl``: every module-level cache is made by
``cyclotomic.memo``, which registers it in ``cyclotomic.MEMOS``, so that
emptying the registry empties every cache.

Read from the source with ``ast``, the package has
- no ``lru_cache`` or ``functools.cache`` outside the body of ``memo``;
- no ``global`` statement;
- no module-level name bound to an empty ``{}``, ``[]``, ``set()``,
  ``dict()`` or ``list()``, or to ``None``, other than ``MEMOS``: each is
  the start of a hand-rolled memo.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tjl"


def _names_a_cache(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "lru_cache"
    if isinstance(node, ast.Attribute):
        return node.attr == "lru_cache" or (
            node.attr == "cache" and isinstance(node.value, ast.Name)
            and node.value.id == "functools")
    if isinstance(node, ast.ImportFrom):
        return node.module == "functools" and any(
            alias.name in ("lru_cache", "cache") for alias in node.names)
    return False


def _is_empty(value: ast.AST | None) -> bool:
    if isinstance(value, ast.Dict):
        return not value.keys
    if isinstance(value, ast.List):
        return not value.elts
    if isinstance(value, ast.Constant):
        return value.value is None
    return (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id in ("set", "dict", "list")
            and not value.args and not value.keywords)


def _memo_body(tree: ast.Module) -> set[int]:
    """The ids of the nodes of a module-level ``def memo``."""
    return {id(node) for st in tree.body
            if isinstance(st, ast.FunctionDef) and st.name == "memo"
            for node in ast.walk(st)}


def _violations(package: Path = PACKAGE) -> list[str]:
    out = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = _memo_body(tree) if path.stem == "cyclotomic" else set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                out.append(f"{path.name}:{node.lineno}: global "
                           f"{', '.join(node.names)}")
            elif _names_a_cache(node) and id(node) not in allowed:
                out.append(f"{path.name}:{node.lineno}: a cache outside memo")
        for st in tree.body:
            if isinstance(st, ast.Assign):
                targets = st.targets
            elif isinstance(st, ast.AnnAssign) and st.value is not None:
                targets = [st.target]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and _is_empty(st.value) \
                        and (path.stem, target.id) != ("cyclotomic", "MEMOS"):
                    out.append(f"{path.name}:{st.lineno}: module-level "
                               f"{target.id} starts empty")
    return out


def test_every_module_level_cache_is_a_registered_memo():
    found = _violations()
    assert not found, (
        "memoise through cyclotomic.memo, which registers the cache in "
        "MEMOS, not by hand: " + "; ".join(found))


def test_the_guard_sees_a_planted_cache_dict_and_global(tmp_path):
    """An lru_cache, a module-level memo dict and a global statement
    planted in a copy of the package are each reported."""
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    assert not _violations(tmp_path)
    ff = tmp_path / "funcfield.py"
    ff.write_text(ff.read_text() + (
        "\n\nfrom functools import lru_cache\n"
        "\n\n@lru_cache(maxsize=None)\n"
        "def _planted(q):\n"
        "    return q\n"
        "\n\n_PLANTED: dict = {}\n"
        "\n\ndef _planted_global():\n"
        "    global _PLANTED\n"
        "    _PLANTED = {1: 1}\n"))
    found = "\n".join(_violations(tmp_path))
    assert found.count("funcfield.py") == 4, found
    assert "a cache outside memo" in found
    assert "module-level _PLANTED starts empty" in found
    assert "global _PLANTED" in found
