"""Rule ``unused-import``: a module-level import must be used.

An import nothing reads is a stale dependency edge: it survives the
refactor that removed its last use, keeps a module loading (and, for the
lazily imported layers, keeps an import cycle alive), and tells a reader
the module relies on something it does not.  Package ``__init__.py``
files are exempt — their imports are the re-exported public surface.
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath
from typing import Dict, Iterator, List, Set, Tuple, Union

from repro.analysis.findings import FileContext, RawFinding
from repro.analysis.registry import register_rule


def _module_imports(
    body: List[ast.stmt],
) -> Iterator[Union[ast.Import, ast.ImportFrom]]:
    """Import statements at module level, including inside top-level
    ``try``/``if`` blocks (optional-dependency and TYPE_CHECKING guards)."""
    for stmt in body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            yield stmt
        elif isinstance(stmt, ast.If):
            yield from _module_imports(stmt.body)
            yield from _module_imports(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            yield from _module_imports(stmt.body)
            for handler in stmt.handlers:
                yield from _module_imports(handler.body)
            yield from _module_imports(stmt.orelse)
            yield from _module_imports(stmt.finalbody)


def _bindings(tree: ast.Module) -> Dict[str, Tuple[int, int, str]]:
    """Bound name → (line, col, imported name) of each module import."""
    out: Dict[str, Tuple[int, int, str]] = {}
    for stmt in _module_imports(tree.body):
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        for alias in stmt.names:
            if alias.name == "*":
                continue
            if alias.asname is not None:
                bound = alias.asname
            elif isinstance(stmt, ast.Import):
                bound = alias.name.split(".")[0]
            else:
                bound = alias.name
            out[bound] = (alias.lineno, alias.col_offset, alias.name)
    return out


def _annotation_names(node: ast.AST) -> Iterator[str]:
    """Names inside string (forward-reference) annotations."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            for name in ast.walk(parsed):
                if isinstance(name, ast.Name):
                    yield name.id


def _exported(tree: ast.Module) -> Set[str]:
    """String entries of a module-level ``__all__``."""
    out: Set[str] = set()
    for stmt in tree.body:
        targets: List[ast.expr]
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        else:
            continue
        if stmt.value is None or not any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in targets
        ):
            continue
        for sub in ast.walk(stmt.value):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                out.add(sub.value)
    return out


def _used_names(tree: ast.Module) -> Set[str]:
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used.update(_annotation_names(node.annotation))
        elif isinstance(node, ast.AnnAssign):
            used.update(_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                used.update(_annotation_names(node.returns))
    return used | _exported(tree)


@register_rule(
    "unused-import",
    severity="warning",
    scope=(),
    summary="Module-level imports must be referenced (package "
    "__init__.py re-exports exempt)",
    rationale=(
        "An import nothing reads is a dependency edge that outlived its "
        "last use. It keeps a module loading on every import of its "
        "parent, can keep an import cycle alive that the lazy imports "
        "of the api/engine layers were written to break, and misleads "
        "a reader about what the module relies on. No CI step caught "
        "them before this rule: an AST scan found six, each left behind "
        "by a refactor. Names listed in `__all__` and names used only "
        "in string annotations count as used; `__init__.py` files are "
        "exempt because their imports are the public re-exports."
    ),
    example=(
        "from typing import Dict, List\n"
        "\n"
        "\n"
        "def degrees(edges) -> Dict[int, int]:\n"
        "    out: Dict[int, int] = {}\n"
        "    for u, v in edges:\n"
        "        out[u] = out.get(u, 0) + 1\n"
        "        out[v] = out.get(v, 0) + 1\n"
        "    return out\n"
    ),
    example_path="graph/example.py",
    fix=(
        "Delete the import. An import kept for its side effect (rule or "
        "method registration) belongs in a package `__init__.py`, or "
        "carries `# repro-lint: disable=unused-import` with the reason."
    ),
)
def check_unused_imports(ctx: FileContext) -> List[RawFinding]:
    if PurePosixPath(ctx.relpath).name == "__init__.py":
        return []
    bindings = _bindings(ctx.tree)
    if not bindings:
        return []
    used = _used_names(ctx.tree)
    return [
        (line, col, f"{imported!r} is imported but never used")
        for bound, (line, col, imported) in sorted(
            bindings.items(), key=lambda item: item[1]
        )
        if bound not in used
    ]
