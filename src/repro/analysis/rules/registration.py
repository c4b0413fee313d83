"""Rule ``registry-flags``: method registrations declare label safety.

The interned pool fan-out and the chunked pipeline both dispatch on
:attr:`MethodSpec.reads_labels` — a method that observes node labels
must keep original labels (label-preserving populations, scalar
pipeline); one that
is label-free licenses the interned ``int32`` fast paths.  The default
(``False``) opts registrations into the fast paths silently, so a
label-reading method registered without the flag returns *wrong
per-label results* in pools with no error anywhere.  Requiring the
keyword makes every registration an explicit, reviewable claim.
"""

from __future__ import annotations

import ast
from typing import List

from repro.analysis.astutil import keyword_names
from repro.analysis.findings import FileContext, RawFinding
from repro.analysis.registry import register_rule


@register_rule(
    "registry-flags",
    severity="error",
    scope=(),
    summary="register_method(...) must pass reads_labels= explicitly",
    rationale=(
        "`reads_labels` is the label-safety flag the replication/sweep "
        "pools and the chunked gate read: `False` licenses interned "
        "int32 populations and columnar blocks, `True` forces "
        "original-label populations. Defaulting it means a label-reading "
        "method silently rides the interned fast path and reports "
        "statistics about the *wrong labels* — no exception, no failing "
        "assertion, just wrong numbers in pooled runs. (Weight "
        "functions carry the equivalent claim as `is_label_free`, "
        "probed at dispatch time, so `register_weight` needs no flag.)"
    ),
    example=(
        "from repro.api.registry import register_method\n"
        "\n"
        "\n"
        "@register_method('my-method', description='forgot the flag')\n"
        "def _make(budget, stream_length, seed):\n"
        "    return object()\n"
    ),
    example_path="plugins/example.py",
    fix=(
        "State the claim: `@register_method(name, ..., "
        "reads_labels=False)` for label-free methods, "
        "`reads_labels=True` for methods whose counters or extractors "
        "observe node labels."
    ),
)
def check_registry_flags(ctx: FileContext) -> List[RawFinding]:
    out: List[RawFinding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else ""
        )
        if name != "register_method":
            continue
        keywords = keyword_names(node)
        if "reads_labels" in keywords or "**" in keywords:
            continue
        out.append(
            (
                node.lineno,
                node.col_offset,
                "register_method(...) without an explicit reads_labels= "
                "silently opts the method into interned-label fast "
                "paths; declare the label-safety claim",
            )
        )
    return out
