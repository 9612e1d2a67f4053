"""One walk over a module's syntax tree for the design guards.

Each guard test matches the nodes it looks for and names their owner from
the scopes `walk` gives; the walk itself is written once, here, and so is
the package's import graph that the layout guard reads.
"""

import ast
import graphlib

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


def package_imports(sources: dict) -> dict:
    """Each relaycap module of ``sources`` (its name without ``.py``, source
    text) and the relaycap modules it imports, anywhere in its body,
    relatively or by the package's name.  A name imported from the package
    itself that is none of its modules is an import of ``__init__``."""

    def target(name: str) -> str:
        return name if name in sources else "__init__"

    graph = {}
    for module, source in sources.items():
        found = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                parts = [alias.name.split(".") for alias in node.names]
                found |= {target(p[1]) for p in parts if p[0] == "relaycap" and len(p) > 1}
            elif isinstance(node, ast.ImportFrom):
                path = node.module.split(".") if node.module else []
                if node.level == 0 and path[:1] != ["relaycap"]:
                    continue
                inner = path if node.level else path[1:]
                if inner:
                    found.add(target(inner[0]))
                else:
                    found |= {target(alias.name) for alias in node.names}
        graph[module] = found - {module}
    return graph


def import_cycle(graph: dict) -> list | None:
    """One cycle of the import ``graph`` as the modules along it, first
    repeated last; None when the imports form no cycle."""
    try:
        tuple(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        return exc.args[1]
    return None


_CASE_NAMES = frozenset({"I", "II", "III"})


def case_dispatch(source: str) -> list[tuple[str | None, str]]:
    """(enclosing def or class, kind) of each place ``source`` dispatches on
    a hop's case by hand: a loop, comprehensions included, whose iterable
    names `_CASES`, and an == or != comparison with a case-name literal."""
    found = []
    for node, scopes, _ in walk(source):
        if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
            names = {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node.iter)}
            if "_CASES" in names:
                found.append((innermost(scopes), "loop over _CASES"))
        elif isinstance(node, ast.Compare) and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            operands = [node.left, *node.comparators]
            names = [o.value for o in operands if isinstance(o, ast.Constant) and isinstance(o.value, str)]
            if _CASE_NAMES.intersection(names):
                found.append((innermost(scopes), "case-name compare"))
    return found


def case_name_codes(source: str) -> list[tuple[str | None, str]]:
    """(enclosing def or class, call) of each place ``source`` turns a case
    into its name and back: a call of `classify_case`, bare or as an
    attribute, and of `_CASES.index`.  Importing either name is no call."""
    found = []
    for node, scopes, _ in walk(source):
        name = called(node)
        if name == "index" and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            name = f"{getattr(owner, 'id', None) or getattr(owner, 'attr', None)}.index"
        if name in ("classify_case", "_CASES.index"):
            found.append((innermost(scopes), name))
    return found


def unread(names, package, bench) -> list[str]:
    """Those of ``names`` that no source of ``package`` reads and no source
    of ``bench`` reads or spells, in the order of ``names``.  A read is a
    `Name` loaded or an attribute read outside the name's own def; an
    import binds a name and reads none.  A bench source also spells a name
    as an exact string constant, as the tracer's table does."""

    def reads(source: str, strings: bool) -> set:
        found = set()
        for node, scopes, _ in walk(source):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            if ("def", name) not in scopes:
                found.add(name)
        return found

    read = set().union(*(reads(s, False) for s in package), *(reads(s, True) for s in bench))
    return [name for name in names if name not in read]
