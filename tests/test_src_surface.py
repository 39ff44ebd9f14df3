"""src/ keeps only what the package itself runs.

Every function, class and method defined in `src/spikedrf` must be referenced
somewhere in `src/spikedrf` outside its own definition: as a name, as an
attribute, or as an import alias (so an export in `__init__.py` counts).
Dunder names are exempt.  Code that only tests use lives in `tests/`, shared
reference implementations in `tests/oracles.py`.

Every field of a `@dataclass` in `src/spikedrf` must be read as an attribute
(`obj.field` in a load context) somewhere in `src/spikedrf`.  Both checks
match by name only, which is their blind spot: a field or function escapes
when any unrelated attribute or name in `src/` shares its name (a problem's
`link` field against `config.link`, a result's `config` field against
`args.config`), and a container whose fields are all read elsewhere escapes
even if no caller reads the container.  Such leftovers need a reader's eye.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "spikedrf"

# Assumption checks without a caller yet: ROADMAP item 5 runs them in the
# theory commands and `compare` and reports their verdicts, so they stay.
ALLOWED = {"check_nondegeneracy", "hermite_tail_check"}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# Dataclass fields that nothing in src/ reads yet, each with the reason it stays.
ALLOWED_FIELDS = {
    # tests compare each eps level with the damped oracle
    "DensityCurve.im_levels",
    # the spike values the coefficient tables come from
    "DetEquivProblem.zeta_u",
    # the return value of the allow-listed `hermite_tail_check` (ROADMAP item 5)
    "TailReport.max_order",
    "TailReport.tail_mass",
    "TailReport.threshold",
    "TailReport.passed",
}


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


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if (target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def fields_and_attribute_reads(src: Path):
    """({"Class.field": file:line} of every dataclass field, set of attribute names read in src/)."""
    fields, reads = {}, set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                        fields[f"{node.name}.{stmt.target.id}"] = f"{path.name}:{stmt.lineno}"
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
    return fields, reads


def test_every_dataclass_field_is_read_in_src():
    fields, reads = fields_and_attribute_reads(SRC)
    unread = {name: where for name, where in fields.items() if name.split(".")[1] not in reads}
    extra = {name: where for name, where in unread.items() if name not in ALLOWED_FIELDS}
    assert not extra, f"dataclass fields that nothing in src/ reads (delete them or derive them in tests/): {extra}"
    assert set(unread) == ALLOWED_FIELDS, (
        f"allow-listed fields now have a reader in src/; drop them from ALLOWED_FIELDS: {ALLOWED_FIELDS - set(unread)}"
    )
