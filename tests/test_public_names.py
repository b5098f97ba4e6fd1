"""The public API, pinned: a name added to or removed from it shows here.

The rule is the AST count that CHANGES.md entries report: module-level public
functions, classes and constants of src/eitsim/*.py, plus the public methods
and annotated fields of public classes.  After a deliberate change, rewrite
the list from the repository root with

    python3 tests/test_public_names.py > tests/data/public_names.txt
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "eitsim"
PINNED = TESTS / "data" / "public_names.txt"


def _public(name: str) -> bool:
    return not name.startswith("_")


def public_names() -> list[str]:
    names = []
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
                names.append(f"{module}.{node.name}")
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef):
                            member = item.name
                        elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                            member = item.target.id
                        else:
                            continue
                        if _public(member):
                            names.append(f"{module}.{node.name}.{member}")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names += [f"{module}.{t.id}" for t in targets
                          if isinstance(t, ast.Name) and _public(t.id)]
    return names


def test_public_names_are_pinned():
    names = public_names()
    pinned = PINNED.read_text().split()
    added = sorted(set(names) - set(pinned))
    removed = sorted(set(pinned) - set(names))
    assert not added and not removed, f"added {added}, removed {removed}"
    assert len(names) == len(pinned)


if __name__ == "__main__":
    print("\n".join(public_names()))
