"""One walk over a module's syntax tree for the design guards.

Each guard test matches the nodes it looks for and names their owner from
the scopes `walk` gives; the walk itself is written once, here.
"""

import ast

_SCOPES = {ast.FunctionDef: "def", ast.AsyncFunctionDef: "def", ast.ClassDef: "class"}


def walk(source: str):
    """Each node of ``source``'s tree, depth first in `ast.iter_child_nodes`
    order, with its enclosing scopes and its parent (None for the module).
    The scopes are a tuple of ("def" or "class", name), outermost first; a
    def or class encloses everything under it, its decorators and defaults
    included."""
    stack = [(ast.parse(source), (), None)]
    while stack:
        node, scopes, parent = stack.pop()
        yield node, scopes, parent
        kind = _SCOPES.get(type(node))
        inner = (*scopes, (kind, node.name)) if kind else scopes
        stack.extend((child, inner, node) for child in reversed(list(ast.iter_child_nodes(node))))


def innermost(scopes) -> str | None:
    """The name of the innermost enclosing def or class, None at module level."""
    return scopes[-1][1] if scopes else None


def called(node) -> str | None:
    """The name a call calls, bare or as an attribute; None for any other node."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
