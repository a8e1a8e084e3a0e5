"""Every module-level function and class in `dsmimo` has a job: a caller in
the library or the experiment scripts, or, for a name that
`dsmimo/__init__.py` exports, a README "Public API" line saying why it is
public."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dsmimo"


def exported_names(init=PACKAGE / "__init__.py"):
    """The names that the package's `from .module import ...` lines export."""
    tree = ast.parse(init.read_text(encoding="utf-8"))
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def referenced_names(paths):
    """Names read as a variable or an attribute in the given files, leaving
    out reads inside a top-level definition of the same name."""
    seen = set()
    for path in paths:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(top, "name", None) if isinstance(
                top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    seen.add(name)
    return seen


def defined_names(paths):
    """The module-level functions and classes of the given files."""
    return [top.name for path in paths for top in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(top, (ast.FunctionDef, ast.ClassDef))]


def readme_public_api(readme=ROOT / "README.md"):
    """{name: reason} from the README's "Public API" bullets
    ("- `name`: reason")."""
    text = readme.read_text(encoding="utf-8")
    section = re.search(r"^## Public API\n(.*?)(?=^## |\Z)", text, re.S | re.M)
    assert section, "README has no '## Public API' section"
    return dict(re.findall(r"^[-*] `(\w+)`: *(\S.*)$", section.group(1), re.M))


def unjustified(exports, callers, listed):
    return [n for n in exports if n not in callers and n not in listed]


def orphans(paths, exports, callers):
    """The module-level definitions in paths that are not exported and have
    no caller."""
    return unjustified([n for n in defined_names(paths) if n not in exports], callers, {})


MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def library_callers():
    return referenced_names(MODULES + sorted((ROOT / "scripts").glob("*.py")))


def test_every_export_has_a_caller_or_a_readme_line():
    assert unjustified(exported_names(), library_callers(), readme_public_api()) == []


def test_every_unexported_definition_has_a_caller():
    assert orphans(MODULES, set(exported_names()), library_callers()) == []


def test_readme_lists_only_exported_names():
    assert sorted(set(readme_public_api()) - set(exported_names())) == []


def test_guard_catches_an_unused_export(tmp_path):
    init = tmp_path / "__init__.py"
    init.write_text("from .sep import sep_mpsk\nfrom .detform import unused_kernel\n")
    user = tmp_path / "cli.py"
    user.write_text("from . import sep\n\n\ndef unused_kernel(x):\n"
                    "    return unused_kernel(x - 1)\n\n\nsep.sep_mpsk()\n")
    callers = referenced_names([user])
    assert unjustified(exported_names(init), callers, {}) == ["unused_kernel"]
    assert unjustified(exported_names(init), callers, {"unused_kernel": "why"}) == []


def test_guard_catches_an_orphaned_helper(tmp_path):
    module = tmp_path / "mc.py"
    module.write_text("class Plan:\n    pass\n\n\ndef _orphan(x):\n    return _orphan(x - 1)\n\n\n"
                      "def _used(x):\n    return Plan()\n\n\n"
                      "def estimate(x):\n    return _used(x)\n")
    assert defined_names([module]) == ["Plan", "_orphan", "_used", "estimate"]
    assert orphans([module], {"estimate"}, referenced_names([module])) == ["_orphan"]
