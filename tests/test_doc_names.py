"""The package names that docstrings and comments cite must exist.

Docstrings and comments across the package name functions of other
modules as ``module.name``, say ``fileio.write_dyads_patch`` or
``records.DyadTable``.  Deleting or renaming the function leaves such a
reference stale without any other test failing; this test makes that a
fast failure.  A trailing ``*`` stands for any name with that prefix, as
in ``kernels.local_linear_*``.
"""

import ast
import importlib
import io
import pkgutil
import re
import tokenize
from pathlib import Path

import twophase

PACKAGE = Path(twophase.__file__).parent
MODULES = {info.name for info in pkgutil.iter_modules([str(PACKAGE)])}
REFERENCE = re.compile(r"``(\w+)\.([\w.]+?)(\*?)``")


def prose(source):
    """The docstrings and comments of a module's source."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc:
                yield doc
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            yield token.string


def references():
    """``(file, module, dotted name, prefix?)`` for each package name cited."""
    for path in sorted(PACKAGE.glob("*.py")):
        for text in prose(path.read_text(encoding="utf-8")):
            for match in REFERENCE.finditer(text):
                module, name, star = match.groups()
                if module in MODULES:
                    yield path.name, module, name, star == "*"


def resolves(module, name, prefix):
    owner = importlib.import_module(f"{twophase.__name__}.{module}")
    *path, last = name.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    if prefix:
        return any(attr.startswith(last) for attr in dir(owner))
    return hasattr(owner, last)


def test_every_cited_package_name_exists():
    cited = list(references())
    assert cited  # the pattern still finds the references
    assert [f"{file}: ``{module}.{name}{'*' * prefix}``"
            for file, module, name, prefix in cited
            if not resolves(module, name, prefix)] == []
