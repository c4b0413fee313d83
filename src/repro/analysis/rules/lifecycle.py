"""Rule ``shm-lifecycle``: every created shared-memory segment is owned.

``SharedMemory(create=True)`` allocates a kernel object that outlives
the process unless someone calls ``unlink()``.  A creation site outside
a lifecycle-bearing class (one that also defines ``close`` and
``unlink``) or a ``try/finally`` that unlinks leaks segments on every
exception path — exactly the failure mode the replication fan-out's
context manager exists to prevent.
"""

from __future__ import annotations

import ast
from typing import List

from repro.analysis.astutil import (
    collect_imports,
    parent_map,
    resolve_call_target,
)
from repro.analysis.findings import FileContext, RawFinding
from repro.analysis.registry import register_rule


def _is_create_true(node: ast.Call) -> bool:
    for kw in node.keywords:
        if kw.arg == "create":
            return isinstance(kw.value, ast.Constant) and kw.value.value is True
    return False


def _finally_unlinks(try_node: ast.Try) -> bool:
    for stmt in try_node.finalbody:
        for sub in ast.walk(stmt):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "unlink"
            ):
                return True
    return False


@register_rule(
    "shm-lifecycle",
    severity="error",
    scope=(),
    summary="SharedMemory(create=True) must live in a close+unlink class "
    "or a try/finally that unlinks",
    rationale=(
        "A created segment is a named kernel object; nothing reclaims "
        "it when the creating process dies mid-run. The repo's "
        "publishing side therefore pairs every creation with an owner "
        "exposing `close` and `unlink` (driven by a context manager "
        "that unlinks on success, failure and KeyboardInterrupt alike). "
        "A bare creation, or one whose cleanup lives on the happy path "
        "only, leaks segments under every exception — invisible in "
        "tests, fatal on a long-lived host."
    ),
    example=(
        "from multiprocessing import shared_memory\n"
        "\n"
        "\n"
        "def publish(payload):\n"
        "    shm = shared_memory.SharedMemory(create=True, size=len(payload))\n"
        "    shm.buf[: len(payload)] = payload\n"
        "    return shm.name\n"
    ),
    example_path="engine/example.py",
    fix=(
        "Create the segment inside a class that also defines `close` "
        "and `unlink` (and drive it through a context manager), or "
        "wrap the creation in `try/finally` whose `finally` calls "
        "`.unlink()`."
    ),
)
def check_shm_lifecycle(ctx: FileContext) -> List[RawFinding]:
    imports = collect_imports(ctx.tree)
    parents = parent_map(ctx.tree)
    out: List[RawFinding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        target = resolve_call_target(node.func, imports)
        named_shared_memory = (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "SharedMemory"
        ) or (
            target is not None and target.endswith(".SharedMemory")
        )
        if not named_shared_memory or not _is_create_true(node):
            continue
        owned = False
        ancestor = parents.get(node)
        while ancestor is not None:
            if isinstance(ancestor, ast.Try) and _finally_unlinks(ancestor):
                owned = True
                break
            if isinstance(ancestor, ast.ClassDef):
                methods = {
                    stmt.name
                    for stmt in ancestor.body
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                }
                if {"close", "unlink"} <= methods:
                    owned = True
                break
            ancestor = parents.get(ancestor)
        if not owned:
            out.append(
                (
                    node.lineno,
                    node.col_offset,
                    "SharedMemory(create=True) outside a close+unlink "
                    "owner class or an unlinking try/finally leaks the "
                    "segment on exception paths",
                )
            )
    return out
