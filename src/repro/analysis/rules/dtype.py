"""Rule ``dtype-explicit``: the columnar pipeline stays int32 end to end.

The chunked admission gate, the pools' columnar populations and the
interner all traffic in dense ``int32`` columns; numpy's *default* dtypes are
platform- and input-dependent (``int64``/``float64`` on Linux,
``int32`` on Windows for some creators), so a dtype-less array creation
in that path is a latent cross-platform bit-drift — and a silent 2×
memory regression when an int64 sneaks into a column.
"""

from __future__ import annotations

import ast
from typing import List

from repro.analysis.astutil import collect_imports, keyword_names
from repro.analysis.findings import FileContext, RawFinding
from repro.analysis.registry import register_rule

#: numpy creators whose result dtype is an implicit default unless
#: pinned.  Conversions that *preserve* their input's dtype by design
#: (``asarray``, ``ascontiguousarray``, ``*_like``) are exempt.
_CREATORS = frozenset(
    {
        "array",
        "empty",
        "zeros",
        "ones",
        "full",
        "arange",
        "fromiter",
        "frombuffer",
    }
)


@register_rule(
    "dtype-explicit",
    severity="error",
    scope=("core", "baselines", "streams", "engine", "shard"),
    summary="numpy array creation in the chunk path must pin dtype= "
    "explicitly",
    rationale=(
        "The chunked pipeline's contract is int32 columns end to end "
        "(`repro.streams.chunks`, `process_chunk`, the pools' columnar "
        "populations); its float side is explicit float64 so chunked and "
        "scalar passes share every bit. numpy creators without `dtype=` "
        "fall back to defaults that vary by platform and input "
        "(`np.array([1, 2])` is int64 on Linux, int32 on Windows), so "
        "one dtype-less `np.zeros`/`np.array` can flip the whole "
        "equivalence matrix on another machine, or double a column's "
        "memory without any test failing here."
    ),
    example=(
        "import numpy as np\n"
        "\n"
        "\n"
        "def make_columns(n):\n"
        "    return np.zeros(n), np.array([1, 2, 3])\n"
    ),
    example_path="streams/example.py",
    fix=(
        "Pass the intended dtype as a keyword: `np.zeros(n, "
        "dtype=np.int32)`, `np.array(values, dtype=np.float64)`. If "
        "the input's dtype should be preserved, use `np.asarray`/"
        "`np.ascontiguousarray`, which the rule exempts."
    ),
)
def check_dtype_explicit(ctx: FileContext) -> List[RawFinding]:
    imports = collect_imports(ctx.tree)
    out: List[RawFinding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name: str = ""
        func = node.func
        if isinstance(func, ast.Attribute):
            base = func.value
            if (
                isinstance(base, ast.Name)
                and imports.get(base.id) == "numpy"
                and func.attr in _CREATORS
            ):
                name = func.attr
        elif isinstance(func, ast.Name):
            origin = imports.get(func.id, "")
            if origin.startswith("numpy.") and origin.rsplit(".", 1)[1] in _CREATORS:
                name = origin.rsplit(".", 1)[1]
        if not name:
            continue
        keywords = keyword_names(node)
        if "dtype" in keywords or "**" in keywords:
            continue
        out.append(
            (
                node.lineno,
                node.col_offset,
                f"numpy.{name}(...) without an explicit dtype= keyword "
                "inherits a platform-dependent default; pin the dtype",
            )
        )
    return out
