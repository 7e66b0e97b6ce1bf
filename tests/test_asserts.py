"""The assert statements left in the package.

python -O strips asserts, so an exactness check written as one would
silently switch off.  Checks raise VerificationError instead; the only
asserts allowed are the internal invariants listed here.
"""

import ast
from pathlib import Path

import pitchcut

# (module, enclosing function, asserted expression)
ALLOWED = {
    ("cutloop.py", "run", "solution.status == 'optimal'"),
    ("ratlp.py", "_solve", "status == 'optimal'"),
}


def asserts(tree, module):
    """(module, function, expression) of each assert in the tree, the
    function being the dotted path of the defs around it."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Assert):
                found.add((module, ".".join(scope), ast.unparse(child.test)))
            visit(child, scope)

    visit(tree, ())
    return found


def test_only_the_listed_invariants_are_asserts():
    package = Path(pitchcut.__file__).parent
    found = set()
    for path in sorted(package.glob("*.py")):
        found |= asserts(ast.parse(path.read_text()), path.name)
    assert found == ALLOWED, (
        "asserts outside the list (checks must raise): %s; listed but "
        "gone: %s" % (sorted(found - ALLOWED), sorted(ALLOWED - found)))
