"""The package holds what the command line reaches.

Every command of the shipped-cli reference and the exit-code table run
under a ``sys.setprofile`` hook that records the code of each call.
Every function or method defined in ``src/jetexp`` must be among them,
unless ``ALLOWED`` names it with its reason; an allowlisted name that no
longer exists, or that is now reached, fails too, so the list cannot go
stale.  A second check reads each module with ``ast`` and fails on a
name it imports and never reads, and a third on any function but
``poly.combine`` that reads the product loop ``poly._products_into`` or
the partial rows ``poly._partial_rows``.
"""

import ast
import importlib
import os
import sys

import jetexp

import test_cli

SRC = os.path.dirname(os.path.abspath(jetexp.__file__))

TRACER = "hooked or read by the benchmark tracer, which pins its name"
VALUE_API = "value API of a class in jetexp.__all__ that tests build data with"

# "module:qualified name" -> why it stays in the package unreached
ALLOWED = {
    "chart:Chart.__repr__": "repr",
    "enveloping:_IndexedSum.__repr__": "repr",
    "geometry:Connection.__repr__": "repr",
    "poly:GradedPoly.__repr__": "repr",
    "poly:NotHomogeneousError.__init__": "exception constructor",
    "enveloping:DiffOp.apply": TRACER,
    "fedosov:dnabla_form": TRACER,
    "geometry:nabla_sym": TRACER,
    "geometry:coordinate_replacement": TRACER + " (called by nabla_sym)",
    "enveloping:_IndexedSum.terms": TRACER + " (the terms view)",
    "poly:GradedPoly.terms": TRACER + " (the terms view)",
    "enveloping:_IndexedSum.function": VALUE_API,
    "enveloping:_IndexedSum.homogeneous_components": VALUE_API,
    "enveloping:_IndexedSum.__neg__": VALUE_API,
    "enveloping:DiffOp.identity": VALUE_API,
    "geometry:Connection.flat": VALUE_API,
    "geometry:Connection.__eq__": VALUE_API,
    "poly:GradedPoly.homogeneous_components": VALUE_API,
    "poly:GradedPoly.__pow__": VALUE_API,
    "poly:GradedPoly.__rmul__": VALUE_API,
    "perturbation:perturb_contraction.new_d_big":
        "checked on the toy complex by tests/test_perturbation.py",
    "perturbation:perturb_contraction.new_d_small":
        "checked on the toy complex by tests/test_perturbation.py",
    "__init__:__getattr__": "package attribute for library users; the CLI "
                            "imports submodules directly",
}


def _modules():
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            path = os.path.join(SRC, name)
            with open(path, encoding="utf-8") as handle:
                yield name[:-3], path, ast.parse(handle.read(), path)


def _defined():
    """(file, first line) -> "module:qualified name" of every function
    and method in the package; a decorated one starts at its first
    decorator, as its code does."""
    found = {}

    def visit(node, module, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno] + [d.lineno
                                             for d in child.decorator_list])
                name = prefix + child.name
                found[path, line] = "%s:%s" % (module, name)
                visit(child, module, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, path, prefix + child.name + ".")
            else:
                visit(child, module, path, prefix)

    for module, path, tree in _modules():
        visit(tree, module, path, "")
    return found


def test_every_src_function_is_reached_or_allowed(tmp_path, capsys):
    # a function behind a cache that earlier tests filled is not called
    for module, _, _ in _modules():
        for value in vars(importlib.import_module("jetexp." + module)).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        test_cli.test_verify_matches_shipped_reference()
        test_cli.test_exit_codes(tmp_path, capsys)
    finally:
        sys.setprofile(previous)
    defined = _defined()
    reached = {defined[key] for key in
               {(os.path.abspath(c.co_filename), c.co_firstlineno)
                for c in codes} if key in defined}
    names = set(defined.values())
    assert sorted(names - reached - set(ALLOWED)) == []
    assert sorted(set(ALLOWED) - names) == [], "allowlisted, not defined"
    assert sorted(set(ALLOWED) & reached) == [], "allowlisted, now reached"


def test_every_src_import_is_read():
    unread = []
    for module, _, tree in _modules():
        imported = {}
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom)
                    and node.module != "__future__"
                    or isinstance(node, ast.Import)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):  # a package re-exports through __all__
            if (isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__"
                            for t in node.targets)):
                read.update(ast.literal_eval(node.value))
        unread += ["%s:%d %s" % (module, line, name)
                   for name, line in sorted(imported.items())
                   if name not in read]
    assert unread == []


KERNEL_LOOPS = ("_products_into", "_partial_rows")


def test_product_loop_has_one_caller():
    # every product, derivation and partial enters the kernel's loops
    # through combine: no other function, nor module-level code, reads
    # their names
    readers = set()

    def visit(node, module, owner, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                visit(child, module, name, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, owner, prefix + child.name + ".")
            else:
                if (getattr(child, "id", None) in KERNEL_LOOPS
                        or isinstance(child, ast.Attribute)
                        and child.attr in KERNEL_LOOPS):
                    readers.add("%s:%s" % (module, owner))
                visit(child, module, owner, prefix)

    for module, _, tree in _modules():
        visit(tree, module, "<module>", "")
    assert sorted(readers) == ["poly:combine"]
