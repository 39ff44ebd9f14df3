"""src/ keeps only what the package itself runs.

Every function, class and method defined in `src/spikedrf` must be referenced
somewhere in `src/spikedrf` outside its own definition: as a name, as an
attribute, or as an import alias (so an export in `__init__.py` counts).
Dunder names are exempt.  Code that only tests use lives in `tests/`, shared
reference implementations in `tests/oracles.py`.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "spikedrf"

# Assumption checks without a caller yet: ROADMAP item 5 runs them in the
# theory commands and `compare` and reports their verdicts, so they stay.
ALLOWED = {"check_nondegeneracy", "hermite_tail_check"}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions_and_references(src: Path):
    """({name: [file:line, ...]} of the non-dunder definitions, set of names referenced outside their own body)."""
    defined, referenced = {}, set()

    def visit(node, path, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, DEFINITIONS):
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    defined.setdefault(child.name, []).append(f"{path.name}:{child.lineno}")
                visit(child, path, enclosing | {child.name})
                continue
            if isinstance(child, ast.Name):
                name = child.id
            elif isinstance(child, ast.Attribute):
                name = child.attr
            elif isinstance(child, ast.alias):
                name = child.name.rsplit(".", 1)[-1]
            else:
                name = None
            if name is not None and name not in enclosing:
                referenced.add(name)
            visit(child, path, enclosing)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text()), path, frozenset())
    return defined, referenced


def test_every_src_definition_has_a_src_caller():
    defined, referenced = definitions_and_references(SRC)
    unused = {name: where for name, where in defined.items() if name not in referenced}
    extra = {name: where for name, where in unused.items() if name not in ALLOWED}
    assert not extra, f"defined in src/ but never used there (move to tests/ or delete): {extra}"
    assert set(unused) == ALLOWED, f"allow-listed names now have a caller in src/; drop them from ALLOWED: {ALLOWED - set(unused)}"
