"""src/ keeps only what the package itself runs.

Every function, class and method defined in `src/spikedrf` must be referenced
somewhere in `src/spikedrf` outside its own definition: as a name, as an
attribute, or as an import alias outside `__init__.py` (a re-export there is
no use, so a name that only the package's users or the tests call fails).
Dunder names are exempt.  Code that only tests use lives in `tests/`, shared
reference implementations in `tests/oracles.py`.

Every field of a `@dataclass` in `src/spikedrf` must be read as an attribute
(`obj.field` in a load context) somewhere in `src/spikedrf`.  Both checks
match by name only, which is their blind spot: a field or function escapes
when any unrelated attribute or name in `src/` shares its name (a problem's
`link` field against `config.link`, a result's `config` field against
`args.config`), and a container whose fields are all read elsewhere escapes
even if no caller reads the container.  Such leftovers need a reader's eye.

Every dataclass field with a plain default (any default but a
`field(default_factory=...)`) must be given a value by some construction in
`src/spikedrf`: by position, by keyword, by `**` unpacking (which gives every
field) or by a keyword of `dataclasses.replace`.  A default that no
construction overrides is a constant, not a field.  A construction is a call
of the class by name, or of `cls` in one of its methods; `replace` keywords
match fields by name, whatever the object replaced.

Every parameter with a default, of every function in `src/spikedrf`, must be
given a value by some call in `src/spikedrf`: an option that only tests set
is a module constant that they monkeypatch.  A call that only passes on a
parameter of its own enclosing function gives a value only if that parameter
is itself given one by some call, so a default forwarded down a chain of
calls stays unset.  Calls match definitions by name, so a call to an
unrelated function of the same name counts too; a method is taken as called
on an instance, and a class name as a call of its `__init__`.  An allowed
parameter whose reason names a `bench/` file must still be set there: passed
by keyword to the function, or both named in string constants.

Nor may src/ give such a parameter only one constant: each call gives it
the literal it passes, or the default when it leaves it out, and a call that
passes anything else (a name, an expression, a parameter passed on) gives a
varying value.  A parameter with one value is a constant, not an option.
This check shares ALLOWED_PARAMS with the one above.

No module in `src/` or `tests/` imports a name it does not use (names in
`__all__` and `from __future__` imports are exempt).

Every module-level upper-case constant in `src/spikedrf` must be read, as a
name or an attribute, somewhere in `src/spikedrf` outside its own
assignment: a constant that only tests read belongs in `tests/`.  It matters
beyond tidiness because the cache digest hashes every upper-case constant of
`detequiv` and `spectrum`, so a dead one there still changes the digest.
"""
import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "spikedrf"
TESTS = Path(__file__).resolve().parent

# Definitions that nothing in src/ references, each with the reason it stays: none.
ALLOWED = set()

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# Dataclass fields that nothing in src/ reads yet, each with the reason it stays: none.
ALLOWED_FIELDS = set()


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
            elif isinstance(child, ast.alias) and path.name != "__init__.py":
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


def _plain_default(value) -> bool:
    """True for a field default other than `field(default_factory=...)`; `field(...)` without `default` has none."""
    if value is None:
        return False
    if isinstance(value, ast.Call) and getattr(value.func, "id", getattr(value.func, "attr", None)) == "field":
        return any(kw.arg == "default" for kw in value.keywords)
    return True


def unset_dataclass_defaults(src: Path) -> dict:
    """{"Class.field": file:line} of every dataclass field with a plain default that no construction in src/ sets."""
    classes = {}  # name -> (names of its bases, [(field, file:line, plain default?)] in class-body order)
    calls = []  # (call, name of the class whose body encloses it, for `cls(...)`)

    def visit(node, path, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_dataclass(child):
                    classes[child.name] = ([b.id for b in child.bases if isinstance(b, ast.Name)], [
                        (stmt.target.id, f"{path.name}:{stmt.lineno}", _plain_default(stmt.value))
                        for stmt in child.body if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                    ])
                visit(child, path, child.name)
                continue
            if isinstance(child, ast.Call):
                calls.append((child, owner))
            visit(child, path, owner)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text()), path, None)

    def fields(name):
        """The class's fields in `__init__` order: its dataclass bases' first."""
        bases, own = classes[name]
        return [f for base in bases if base in classes for f in fields(base)] + [f[0] for f in own]

    given = set()
    for call, owner in calls:
        func = call.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "replace" and (isinstance(func, ast.Name) or getattr(func.value, "id", None) == "dataclasses"):
            given.update(f"{cls}.{kw.arg}" for cls in classes for kw in call.keywords if kw.arg in fields(cls))
            continue
        name = owner if name == "cls" else name
        if name not in classes:
            continue
        order = fields(name)
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):  # fills every positional field from here on
                given.update(f"{name}.{f}" for f in order[i:])
                break
            given.add(f"{name}.{order[i]}")
        for kw in call.keywords:
            given.update(f"{name}.{f}" for f in (order if kw.arg is None else [kw.arg]))
    return {f"{cls}.{field}": where for cls, (_, own) in classes.items() for field, where, plain in own
            if plain and f"{cls}.{field}" not in given}


def test_every_dataclass_default_is_set_in_src():
    unset = unset_dataclass_defaults(SRC)
    assert not unset, f"dataclass fields whose plain default no construction in src/ overrides (make them constants): {unset}"


# Parameters with a default that no call in src/ gives a value, each with the reason it stays.
# A reason that names a bench/ file is checked against that file (test_bench_still_sets_the_cited_parameters).
ALLOWED_PARAMS = {
    "cli.main(argv)": "the console script calls main() with no argument; the benchmark passes argv",
    "model.validate_config(for_theory)": "bench/setup_probe.py passes it",
    "simulate.gradient_step(chunk)": "bench/tracer.py binds it by name",
}


def _parameters(fn: ast.FunctionDef, method: bool):
    """(positional parameter names, less self/cls for a method; every parameter name; {name: default} of those with one)."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaults = dict(zip(positional[len(positional) - len(args.defaults):], args.defaults))
    defaults.update({a.arg: d for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None})
    return positional[int(method):], positional + [a.arg for a in args.kwonlyargs], defaults


def _passed_on(expr: ast.expr, scope: dict):
    """The enclosing function's parameter that `expr` only passes on, or None when it is a value of its own."""
    return scope.get(expr.id) if isinstance(expr, ast.Name) else None


def parameter_calls(src: Path) -> tuple:
    """({"module.function(param)": (file:line, default)} of every defaulted parameter, [(passed, scope)]).

    One (passed, scope) per call in src/ and definition it matches: `passed` maps each "key(param)" of the
    definition to the expression the call gives it, or None when the call leaves it out; `scope` maps the
    parameter names of the call's enclosing functions to their "key(param)".
    """
    defs = {}  # name a call uses -> [(key, positional parameters, every parameter)]; a class name calls its __init__
    defaulted = {}  # "key(param)" -> (file:line, default expression)
    calls = []  # (call node, scope)

    def visit(node, path, qual, scope, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, qual + [child.name], scope, True)
            elif isinstance(child, ast.FunctionDef):
                positional, names, defaults = _parameters(child, in_class)
                key = f"{path.stem}.{'.'.join(qual + [child.name])}"
                defs.setdefault(qual[-1] if in_class and child.name == "__init__" else child.name, []).append(
                    (key, positional, names)
                )
                defaulted.update({f"{key}({n})": (f"{path.name}:{child.lineno}", d) for n, d in defaults.items()})
                visit(child, path, qual + [child.name], {**scope, **{n: f"{key}({n})" for n in names}}, False)
            else:
                if isinstance(child, ast.Call):
                    calls.append((child, scope))
                visit(child, path, qual, scope, in_class)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text()), path, [], {}, False)

    uses = []
    for call, scope in calls:
        name = call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", None)
        for key, positional, names in defs.get(name, ()):
            passed = dict.fromkeys((f"{key}({n})" for n in names))
            for i, arg in enumerate(call.args[:len(positional)]):
                if isinstance(arg, ast.Starred):  # fills every positional from here on
                    passed.update(dict.fromkeys((f"{key}({p})" for p in positional[i:]), arg))
                    break
                passed[f"{key}({positional[i]})"] = arg
            passed.update({f"{key}({kw.arg})": kw.value for kw in call.keywords if kw.arg is not None})
            uses.append((passed, scope))
    return defaulted, uses


def unset_parameters(src: Path) -> dict:
    """{"module.function(param)": file:line} of every defaulted parameter that no call in src/ gives a value."""
    defaulted, uses = parameter_calls(src)
    # (target "key(param)", the enclosing parameter it only passes on, or None for a value of its own)
    edges = [(target, _passed_on(expr, scope)) for passed, scope in uses for target, expr in passed.items() if expr]
    given, grew = set(), True
    while grew:
        grew = False
        for target, source in edges:
            if target not in given and (source is None or source in given):
                given.add(target)
                grew = True
    return {param: where for param, (where, _) in defaulted.items() if param not in given}


def test_every_src_option_is_set_in_src():
    unset = unset_parameters(SRC)
    extra = {name: where for name, where in unset.items() if name not in ALLOWED_PARAMS}
    assert not extra, f"parameters with a default that no call in src/ sets (make them module constants): {extra}"
    assert set(unset) == set(ALLOWED_PARAMS), (
        f"allow-listed parameters now get a value in src/; drop them from ALLOWED_PARAMS: {set(ALLOWED_PARAMS) - set(unset)}"
    )


def one_valued_parameters(src: Path) -> dict:
    """{"module.function(param)": file:line} of every defaulted parameter that src/ only ever gives one constant.

    A call gives the literal it passes, or the default when it leaves the parameter out; a call that passes
    anything but a literal (a name, an expression, a parameter passed on) gives a varying value.
    """
    defaulted, uses = parameter_calls(src)
    values = {param: set() for param in defaulted}
    for passed, _ in uses:
        for param, expr in passed.items():
            if param not in values:
                continue
            default = defaulted[param][1]
            expr = default if expr is None else expr
            try:
                values[param].add(repr(ast.literal_eval(expr)))
            except ValueError:  # a default is one value whatever it is; anything else a call passes varies
                values[param].add(ast.dump(expr) if expr is default else None)
    return {param: defaulted[param][0] for param, seen in values.items() if len(seen) <= 1 and None not in seen}


def test_no_src_option_has_one_value():
    one_valued = one_valued_parameters(SRC)
    extra = {name: where for name, where in one_valued.items() if name not in ALLOWED_PARAMS}
    assert not extra, f"parameters that every call in src/ gives the same constant (make them constants): {extra}"


def sets_by_name(path: Path, function: str, param: str) -> bool:
    """True when `path` calls `function` with the keyword `param`, or names both in string constants (binds by name)."""
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            callee = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
            if callee == function and any(kw.arg == param for kw in node.keywords):
                return True
    strings = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    return param in strings and function in {part for text in strings for part in text.split(".")}


def test_bench_still_sets_the_cited_parameters():
    cited = {entry: re.findall(r"bench/[\w/]+\.py", reason) for entry, reason in ALLOWED_PARAMS.items()}
    cited = {entry: files for entry, files in cited.items() if files}
    assert cited, "no ALLOWED_PARAMS reason names a bench/ file any more"
    stale = []
    for entry, files in cited.items():
        function, param = re.fullmatch(r"(?:\w+\.)+(\w+)\((\w+)\)", entry).groups()
        stale += [f"{entry}: {name}" for name in files if not sets_by_name(REPO / name, function, param)]
    assert not stale, f"allow-listed parameters whose cited bench/ file no longer sets them: {stale}"


def unused_imports(path: Path) -> list:
    """Names a module imports and never uses, other than `from __future__` and the names of its `__all__`."""
    tree = ast.parse(path.read_text())
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    unused = [hit for root in (SRC, TESTS) for path in sorted(root.glob("*.py")) for hit in unused_imports(path)]
    assert not unused, f"imported but never used: {unused}"


def constants_and_reads(src: Path):
    """({name: [file:line, ...]} of the module-level upper-case constants, set of names read outside their assignment)."""
    constants, reads = {}, set()
    for path in sorted(src.glob("*.py")):
        body = ast.parse(path.read_text()).body
        for stmt in body:
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
            own = {node.id for target in targets for node in ast.walk(target)
                   if isinstance(node, ast.Name) and node.id.isupper()}
            for name in own:
                constants.setdefault(name, []).append(f"{path.name}:{stmt.lineno}")
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                    name = node.id if isinstance(node, ast.Name) else node.attr
                    if name not in own:
                        reads.add(name)
    return constants, reads


def test_every_src_constant_is_read_in_src():
    constants, reads = constants_and_reads(SRC)
    assert constants, "the scan found no constants in src/"
    unread = {name: where for name, where in constants.items() if name not in reads}
    assert not unread, f"upper-case constants that nothing in src/ reads (delete them or move them to tests/): {unread}"
