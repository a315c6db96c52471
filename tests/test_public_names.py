"""No library code that only tests call.

Every public function, class, method and module-level assignment defined in
src/rwkvp must be read by name from the package itself, the benchmark
(perfbench/*.py) or the README. A name that only tests use is a path no
program runs: its oracle belongs in the test module, and a second path to the
same numbers belongs nowhere.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "rwkvp").glob("*.py"))


def _public_definitions(tree: ast.Module, module: str) -> dict[str, str]:
    """Qualified name -> bare name for the module's public functions, classes and
    module-level assignments, and the public methods of its classes."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            defs[f"{module}.{node.name}"] = node.name
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("_"):
                    defs[f"{module}.{target.id}"] = target.id
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    defs[f"{module}.{node.name}.{item.name}"] = item.name
    return defs


def _referenced_names(tree: ast.Module) -> set[str]:
    """Every name the code reads or calls: plain names and attribute names. An
    assignment's own target is not a read, so only Load contexts count."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def test_every_public_name_has_a_caller_outside_tests():
    defined, used = {}, set()
    for path in PACKAGE:
        tree = ast.parse(path.read_text())
        defined.update(_public_definitions(tree, path.stem))
        used |= _referenced_names(tree)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        used |= _referenced_names(ast.parse(path.read_text()))
    used |= set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    unused = sorted(qualified for qualified, name in defined.items() if name not in used)
    assert not unused, f"only tests call: {unused}"
