"""Every top-level import of the library is used, and its public names resolve.

No linter ships with the project, so this reads each module with ``ast``.
A top-level import counts as used when the module names it anywhere (in
code or in an annotation); in ``__init__`` a name listed in ``__all__`` is
used too, since re-exporting it is the point of the import.  The packed
int64 keys of the exterior engine stay inside ``exterior.py``: no other
module imports or reaches the names that read or write them.  Likewise the
exact fallback of the pairing primitive is named only in ``weyl.py``, so no
module forks the choice between the int64 and the Python-int pairing.
"""

import ast
from pathlib import Path

import pytest

import rootcoh

SRC = Path(__file__).resolve().parents[1] / "src" / "rootcoh"
MODULES = sorted(SRC.glob("*.py"))


def _top_level_imports(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            # "import a.b" binds "a"
            names += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def _all_of(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def test_the_library_has_modules():
    assert SRC / "__init__.py" in MODULES and len(MODULES) > 1


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_top_level_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    named = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    if path.name == "__init__.py":
        named |= set(_all_of(tree))
    unused = [name for name in _top_level_imports(tree) if name not in named]
    assert unused == [], f"{path.name} imports but never uses {unused}"


def test_every_public_name_resolves():
    assert len(set(rootcoh.__all__)) == len(rootcoh.__all__)
    missing = [name for name in rootcoh.__all__ if not hasattr(rootcoh, name)]
    assert missing == []


#: Names that carry the packed-key format; only ``exterior.py`` may use them.
PACKED = {"sum_keys", "encode_vectors", "decode_vectors", "_encoder", "_layers"}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_packed_keys_stay_in_exterior(path):
    if path.name == "exterior.py":
        return
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and str(node.module).endswith("exterior"):
            used |= {a.name for a in node.names} & PACKED
        elif isinstance(node, ast.Attribute) and node.attr in PACKED:
            used.add(node.attr)
    assert not used, f"{path.name} reaches the packed-key format through {sorted(used)}"


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_exact_pairings_stay_in_weyl(path):
    if path.name == "weyl.py":
        return
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    named = False
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            named |= any(a.name == "exact_pairings" for a in node.names)
        elif isinstance(node, ast.Attribute):
            named |= node.attr == "exact_pairings"
        elif isinstance(node, ast.Name):
            named |= node.id == "exact_pairings"
    assert not named, f"{path.name} names exact_pairings; call weyl.pairings instead"
