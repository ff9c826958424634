"""Every exception the package raises is one that the CLI turns into exit 1 or 2.

`cli.main` maps exception types to exit codes and prints one `error:` line;
any other type escapes it as a traceback. This scans every `raise` under
src/spinsvd, resolves the raised class in its module and checks it against
the classes in `main`'s except clauses.
"""

import argparse
import ast
import builtins
import importlib
from pathlib import Path

from spinsvd import cli

PACKAGE = Path(cli.__file__).resolve().parent

# raised where the CLI cannot reach them, or handled before main
ALLOWED = {
    argparse.ArgumentTypeError,  # argparse turns it into a usage error, exit 1
    AttributeError,  # the PEP 562 module __getattr__s
    AssertionError,  # the four-site oracle's self-check
    IndexError,  # library misuse that the CLI validates away
}


def resolve(node, namespace):
    """The object that a Name or dotted Attribute expression names in namespace."""
    if isinstance(node, ast.Name):
        return namespace.get(node.id, getattr(builtins, node.id, None))
    return getattr(resolve(node.value, namespace), node.attr)


def mapped_by_main():
    """Exception classes named in cli.main's except clauses."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    main = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    names = []
    for handler in (n for n in ast.walk(main) if isinstance(n, ast.ExceptHandler)):
        names += handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return tuple(resolve(name, vars(cli)) for name in names)


def raised_classes():
    """(module:line, class) for every raise of a class or a call of one."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        stem = path.stem
        module = importlib.import_module("spinsvd" if stem == "__init__" else f"spinsvd.{stem}")
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                found.append((f"{stem}:{node.lineno}", resolve(exc, vars(module))))
    return found


def test_every_raised_exception_maps_to_an_exit_code():
    mapped = mapped_by_main()
    assert mapped and all(isinstance(cls, type) for cls in mapped)
    raised = raised_classes()
    assert len(raised) > 40  # the scan sees the package's raises
    unmapped = [
        (where, cls)
        for where, cls in raised
        if not (isinstance(cls, type) and (issubclass(cls, mapped) or cls in ALLOWED))
    ]
    assert unmapped == []
