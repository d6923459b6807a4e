"""Checks on the package source itself."""

import ast
import sys
from pathlib import Path

import psrewrite

SOURCES = sorted(Path(psrewrite.__file__).parent.glob("*.py"))


def test_no_bare_asserts_in_package():
    # `assert` vanishes under `python -O`; invariants raise RewritingErrors.
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert SOURCES and not found, f"bare assert statements: {found}"


def test_package_imports_only_the_standard_library():
    # The runtime is stdlib-only: relative imports, `__future__` and the
    # standard library's top-level modules are all the package may import.
    def outside(node):
        if isinstance(node, ast.Import):
            return [a.name for a in node.names
                    if a.name.partition(".")[0] not in sys.stdlib_module_names]
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.partition(".")[0] not in sys.stdlib_module_names:
                return [node.module]
        return []

    found = [f"{path.name}:{node.lineno} {name}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             for name in outside(node)]
    assert SOURCES and not found, f"imports outside the standard library: {found}"


def test_int_checks_go_through_require_int():
    # One rule for an int parameter: `monomials.require_int`, which rejects
    # a bool.  The CLI keeps its own checks, whose messages are its output.
    def names_bool(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and any(isinstance(t, ast.Name) and t.id == "bool"
                        for t in ast.walk(node.args[1])))

    found = []
    for path in SOURCES:
        if path.name == "cli.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        allowed = set()
        if path.name == "monomials.py":
            allowed = {id(n) for fn in tree.body
                       if isinstance(fn, ast.FunctionDef) and fn.name == "require_int"
                       for n in ast.walk(fn)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if names_bool(node) and id(node) not in allowed]
    assert SOURCES and not found, f"int checks outside require_int: {found}"


def test_iterable_checks_go_through_require_iterable():
    # One rule for an iterable parameter: `monomials.require_iterable`,
    # which reads it once into a tuple and names it when it is not one.
    def names_iterable(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and any(isinstance(t, ast.Name) and t.id == "Iterable"
                        or isinstance(t, ast.Attribute) and t.attr == "Iterable"
                        for t in ast.walk(node.args[1])))

    kept, found = [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        inside = set()
        if path.name == "monomials.py":
            inside = {id(n) for fn in tree.body
                      if isinstance(fn, ast.FunctionDef) and fn.name == "require_iterable"
                      for n in ast.walk(fn)}
        for node in ast.walk(tree):
            if names_iterable(node):
                (kept if id(node) in inside else found).append(f"{path.name}:{node.lineno}")
    assert len(kept) == 1 and not found, f"iterable checks outside require_iterable: {found}"


def test_type_errors_come_from_the_check_helpers():
    # A wrong argument type is reported by `require_int`, `require_type` or
    # `require_iterable`, in their words.  Four messages the helpers cannot
    # word stay where they are; each is named here by its opening text, with
    # an interpolated value shown as "…".
    kept = ("exponents … are not a tuple", "terms must map monomials",
            "coefficient … is not a rational number", "edge … is not an (a, b) pair")

    def text(node):
        if isinstance(node, ast.Constant):
            return str(node.value)
        if isinstance(node, ast.JoinedStr):
            return "".join(text(v) if isinstance(v, ast.Constant) else "…" for v in node.values)
        return "?"

    helpers, found = 0, []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        inside = set()
        if path.name == "monomials.py":
            inside = {id(n) for fn in tree.body if isinstance(fn, ast.FunctionDef)
                      and fn.name in {"require_int", "require_type", "require_iterable"}
                      for n in ast.walk(fn)}
        for node in ast.walk(tree):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if not (isinstance(exc, ast.Name) and exc.id == "TypeError"):
                continue
            if id(node) in inside:
                helpers += 1
                continue
            message = node.exc.args[0] if isinstance(node.exc, ast.Call) and node.exc.args else None
            if message is None or not text(message).startswith(kept):
                found.append(f"{path.name}:{node.lineno}")
    assert helpers == 3 and not found, f"type errors outside the check helpers: {found}"


def test_no_module_imports_a_private_name_of_rewrite():
    # A trace checks itself when it is built, so no consumer of one needs
    # the reducer's internals.
    found = [f"{path.name}:{node.lineno} {a.name}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.ImportFrom) and node.module == "rewrite"
             for a in node.names if a.name.startswith("_")]
    assert SOURCES and not found, f"private names of rewrite imported: {found}"


def test_one_reduction_step_in_package():
    # `_Reducer.step` is the package's one reduction step and
    # `_Compiled.dividing` its one divisor test: no module steps in series
    # arithmetic with `scale_term`, or tests divisors with `dividing_rules`.
    found = [f"{path.name}:{node.lineno} {node.func.attr}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in {"scale_term", "dividing_rules"}]
    assert SOURCES and not found, f"second step paths: {found}"


def test_one_backward_traversal_in_ars():
    # `ars._sweep` is the finite-system layer's one backward traversal: the
    # only loops that append to the list they iterate, a queue, are its own
    # and the forward search of `_path_to_normal_form`, and no `while` loop
    # outside that search's path walk brings back union-find finds.
    tree = ast.parse((Path(psrewrite.__file__).parent / "ars.py").read_text())
    queues, whiles = set(), set()
    for top in tree.body:
        if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.While):
                whiles.add(top.name)
            if isinstance(node, ast.For) and isinstance(node.iter, ast.Name) and any(
                    isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                    and n.func.attr == "append" and isinstance(n.func.value, ast.Name)
                    and n.func.value.id == node.iter.id
                    for n in ast.walk(node)):
                queues.add(top.name)
    assert queues == {"_sweep", "_path_to_normal_form"}, f"queues in {sorted(queues)}"
    assert whiles <= {"_path_to_normal_form"}, f"while loops in {sorted(whiles)}"


def test_no_fraction_arithmetic_in_the_reduction_loop():
    # The reducer computes on ints and (num, den) pairs, converting to
    # `Fraction` only where a value leaves it: no method of `_Reducer`, and
    # none of `_fold`, `_combine` and `_run`, names `Fraction` or divides
    # with `/`.
    tree = ast.parse((Path(psrewrite.__file__).parent / "rewrite.py").read_text())
    loop = [top for top in tree.body
            if isinstance(top, ast.FunctionDef) and top.name in {"_fold", "_combine", "_run"}]
    loop += [fn for top in tree.body
             if isinstance(top, ast.ClassDef) and top.name == "_Reducer"
             for fn in top.body if isinstance(fn, ast.FunctionDef)]
    assert {"_fold", "_combine", "_run", "step", "end"} <= {fn.name for fn in loop}
    found = [f"{fn.name}:{node.lineno}"
             for fn in loop for node in ast.walk(fn)
             if (isinstance(node, ast.Name) and node.id == "Fraction")
             or (isinstance(node, ast.Attribute) and node.attr == "Fraction")
             or (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div))]
    assert not found, f"Fraction arithmetic in the reduction loop: {found}"


def test_no_unused_imports_or_private_names():
    # Every name a module imports is used in it, and every private
    # module-level name is referenced somewhere in the package; so a helper
    # or import left behind by a refactor fails here.
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}

    def loaded(tree):
        return {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}

    def defined(top):
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            return [top.name]
        if isinstance(top, ast.Assign):
            return [t.id for t in top.targets if isinstance(t, ast.Name)]
        if isinstance(top, ast.AnnAssign) and isinstance(top.target, ast.Name):
            return [top.target.id]
        return []

    referenced = set().union(*(
        loaded(tree) | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        | {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        for tree in trees.values()))
    found = []
    for name, tree in trees.items():
        if name == "__init__.py":
            continue
        used = loaded(tree)
        found += [f"{name}:{node.lineno} import {a.asname or a.name}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Import)
                  or isinstance(node, ast.ImportFrom) and node.module != "__future__"
                  for a in node.names if (a.asname or a.name).partition(".")[0] not in used]
        found += [f"{name}:{node.lineno} {d}" for node in tree.body for d in defined(node)
                  if d.startswith("_") and not d.startswith("__") and d not in referenced]
    assert SOURCES and not found, f"unused imports or private names: {found}"


def test_rule_sets_compile_only_through_the_slot():
    # `_compile` keeps the last rule set's `_Compiled` for the next call on
    # it; an entry point that called `_Compiled(...)` itself would skip it.
    def calls(tree):
        return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name) and node.func.id == "_Compiled"]

    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    (helper,) = [top for top in trees["rewrite.py"].body
                 if isinstance(top, ast.FunctionDef) and top.name == "_compile"]
    inside = {id(node) for node in calls(helper)}
    found = [f"{name}:{node.lineno}" for name, tree in trees.items()
             for node in calls(tree) if id(node) not in inside]
    assert inside and not found, f"_Compiled built outside _compile: {found}"


def test_cli_reads_files_only_through_the_slot():
    # `cli._load` reads a file and `cli._parsed`, a one-entry
    # `functools.lru_cache`, keeps what it parsed for the next call on the
    # same bytes; a command that opened or parsed a file itself would skip
    # it, and so would a parser passed as a new lambda on every call.  So
    # `open` and the file parsers are named only inside `_load`, or as the
    # parser a `_load` call passes.  Nor does any hand-kept module state
    # stand in for the memo: `cli.py` has no `global` statement.
    readers = {"open", "parse_rules", "parse_ars_system"}
    tree = ast.parse((Path(psrewrite.__file__).parent / "cli.py").read_text())
    (load,) = [top for top in tree.body
               if isinstance(top, ast.FunctionDef) and top.name == "_load"]
    inside = {id(node) for node in ast.walk(load)}
    loads = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "_load"]
    passed = {id(node.args[1]) for node in loads if len(node.args) > 1}
    found = [f"cli.py:{node.lineno} {node.id}" for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id in readers
             and id(node) not in inside and id(node) not in passed]
    found += [f"cli.py:{node.lineno} parser" for node in loads
              if len(node.args) < 2 or not isinstance(node.args[1], ast.Name)
              or node.args[1].id not in readers]
    found += [f"cli.py:{node.lineno} .{node.attr}" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and node.attr in {"open", "read_text", "read_bytes"}]
    assert len(loads) == 2 and not found, f"files read outside _load: {found}"
    found = [f"cli.py:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Global)]
    assert not found, f"global statements: {found}"
