"""The independence rule as one table: the package modules each module may import.

The engines' agreement is the evidence, so no engine may compute through
another.  The four X engines and the E = G = S engines import only the shared
layers.  ``orientations`` checks the sink theorems against the coloring and
P-tableau engines, and ``modular`` contracts certificates with the two path
closed forms of ``gfunctions`` and nothing else of it.  A module added to the
package gets a row here.
"""

import ast
from pathlib import Path

import chromsym

PACKAGE = Path(chromsym.__file__).parent
SHARED = {"errors", "hessenberg", "partitions", "qpoly", "symfunc"}
ENGINES = {"coloring", "gfunctions", "modular", "orientations", "ptableaux", "transition"}
X_ENGINES = {"coloring", "gfunctions", "ptableaux", "transition"}

MAY_IMPORT = {
    "errors": set(),
    "hessenberg": {"errors"},
    "partitions": {"errors"},
    "qpoly": {"errors"},
    "symfunc": {"errors", "partitions", "qpoly"},
    **{name: SHARED for name in X_ENGINES},
    "orientations": SHARED | {"coloring", "ptableaux"},
    "modular": SHARED | {"gfunctions"},
    "verify": SHARED | ENGINES,
    "cli": SHARED | ENGINES | {"verify"},
    "__init__": SHARED,
}


def package_imports(tree: ast.Module) -> list[tuple[ast.stmt, set[str]]]:
    """Each import of a package module, with the module names it reaches."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = {a.name for a in node.names} if node.module is None else {node.module}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("chromsym"):
            names = {node.module.removeprefix("chromsym").lstrip(".") or a.name for a in node.names}
        elif isinstance(node, ast.Import):
            names = {a.name.removeprefix("chromsym.") for a in node.names if a.name.startswith("chromsym")}
        else:
            continue
        if names:
            out.append((node, names))
    return out


def test_each_module_imports_only_the_package_modules_its_row_allows():
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    assert trees.keys() == MAY_IMPORT.keys()
    for name, tree in trees.items():
        found = package_imports(tree)
        imported = set().union(*(names for _, names in found))
        assert imported <= MAY_IMPORT[name], (name, imported - MAY_IMPORT[name])
        assert bool(imported) == bool(MAY_IMPORT[name]), name  # the walk sees the real imports
        for node, _ in found:  # one relative import at the top, never a deferred one
            assert node in tree.body and isinstance(node, ast.ImportFrom) and node.level, name
    for name in ENGINES:  # and no import of any kind inside an engine's functions
        imports = [n for n in ast.walk(trees[name]) if isinstance(n, (ast.Import, ast.ImportFrom))]
        assert all(node in trees[name].body and isinstance(node, ast.ImportFrom) for node in imports)
    (closed_forms,) = [n for n, names in package_imports(trees["modular"]) if names == {"gfunctions"}]
    assert [a.name for a in closed_forms.names] == ["path_e_closed", "path_x_closed"]
    private = [n.attr for n in ast.walk(trees["modular"]) if isinstance(n, ast.Attribute) and n.attr[0] == "_"]
    assert private == []  # QRat is read through its public fields and constructors
