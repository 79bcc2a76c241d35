"""Every public function and method of the package has a caller in the package.

A name that only tests reach is code the verify suites, the command line
and the benchmark never run.  A test that needs a definition stated
directly keeps it in the test file, as test_gfunctions.py keeps the
bounded permutations and test_transition.py keeps ``insertions``.
"""

import ast
from collections import Counter
from pathlib import Path

import chromsym

SRC = Path(chromsym.__file__).parent
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")

# Public names with no caller in the package that stay, by qualified name.
KEPT = {
    "certificate_from_json",  # bench/reference.py reads certificates back
    "SymFun.to_e",  # tests/test_acceptance.py calls it on engine results
    "theta_of",  # the tableau-to-orientation map the hook counts are tested against
    "dominates",  # the order the Kostka matrices are tested to be triangular in
    "certificate_json",  # the parsed form of reduce --emit json
    "SymFun.is_e_positive_at_one",  # the paper's theorem at q = 1, for a positivity suite
}


def references(node):
    """The names, attribute names and string constants anywhere under node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def public_definitions(tree):
    """(qualified name, def node) for the module's public functions and its
    classes' public methods."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                    yield f"{node.name}.{method.name}", method


def acceptance_imports():
    tree = ast.parse(ACCEPTANCE.read_text())
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("chromsym")
        for alias in node.names
    }


def unreferenced():
    """{qualified name: module} of the public definitions that nothing in the
    package refers to outside their own bodies."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    everywhere = Counter(name for tree in trees.values() for name in references(tree))
    out = {}
    for module, tree in trees.items():
        for qualname, node in public_definitions(tree):
            own = sum(1 for name in references(node) if name == node.name)
            if everywhere[node.name] == own:
                out[qualname] = module
    return out


def test_every_public_function_has_a_caller_in_src():
    allowed = KEPT | acceptance_imports() | set(chromsym.__all__)
    dead = {f"{module}.{name}" for name, module in unreferenced().items() if name not in allowed}
    assert dead == set()


def test_kept_names_are_defined_and_have_no_caller():
    # an entry that gains a caller in the package, or loses its definition, leaves the list
    assert KEPT <= set(unreferenced())
