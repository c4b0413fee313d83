"""Fixture-driven tests for the invariant analyzer (``repro lint``).

Every rule's catalog example (the snippet shipped in
``docs/invariants.md``) is written to its declared ``example_path``
under a tmp directory and must fire exactly that rule — the catalog
never documents a non-firing example.  Conforming counterparts must
lint clean under the *full* rule set.  The CLI contract (exit codes,
``--select``/``--ignore``, ``--format json``, ``--markdown``) and the
suppression mechanics are exercised end to end through
:func:`repro.cli.main`.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    SYNTAX_ERROR_RULE,
    Finding,
    lint_paths,
    rule_names,
    rule_specs,
    rules_markdown,
)
from repro.cli import main


def _write(tmp_path: Path, relpath: str, source: str) -> Path:
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source, encoding="utf-8")
    return target


def _rules(result):
    return {finding.rule for finding in result.findings}


# ----------------------------------------------------------------------
# Catalog examples: each must fire its own rule at its example_path.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec", rule_specs(), ids=lambda s: s.name)
def test_catalog_example_fires_its_rule(spec, tmp_path):
    _write(tmp_path, spec.example_path, spec.example)
    result = lint_paths([tmp_path], select=[spec.name])
    assert result.findings, f"catalog example for {spec.name} never fires"
    assert _rules(result) == {spec.name}
    assert all(f.severity == spec.severity for f in result.findings)
    assert all(f.path.endswith(spec.example_path) for f in result.findings)


@pytest.mark.parametrize("spec", rule_specs(), ids=lambda s: s.name)
def test_cli_exits_nonzero_on_each_example(spec, tmp_path, capsys):
    _write(tmp_path, spec.example_path, spec.example)
    # Full rule set: a finding of ANY severity makes the run fail
    # (severity is reporting metadata, not an exit-code switch).
    assert main(["lint", str(tmp_path)]) == 1
    assert spec.name in capsys.readouterr().out


# ----------------------------------------------------------------------
# Conforming counterparts: clean under the FULL rule set.
# ----------------------------------------------------------------------
CONFORMING = {
    "rng-discipline": (
        "core/sampler.py",
        "import random\n"
        "\n"
        "\n"
        "class Sampler:\n"
        "    def __init__(self, seed):\n"
        "        self._rng = random.Random(seed)\n"
        "\n"
        "    def reset(self, seed):\n"
        "        self._rng.seed(seed)\n"
        "\n"
        "    def admit(self):\n"
        "        return self._rng.random()\n"
        "\n"
        "\n"
        "def permute(edges, seed):\n"
        "    rng = random.Random(seed)\n"
        "    rng.shuffle(edges)\n"
        "    return edges\n",
    ),
    "dtype-explicit": (
        "streams/columns.py",
        "import numpy as np\n"
        "\n"
        "\n"
        "def columns(pairs):\n"
        "    u = np.array([p[0] for p in pairs], dtype=np.int32)\n"
        "    caps = np.zeros(len(u), dtype=np.float64)\n"
        "    view = np.asarray(u)\n"
        "    return u, caps, view\n",
    ),
    "shm-lifecycle": (
        "engine/arena.py",
        "from multiprocessing import shared_memory\n"
        "\n"
        "\n"
        "class EdgeArena:\n"
        "    def __init__(self, nbytes):\n"
        "        self._shm = shared_memory.SharedMemory(\n"
        "            create=True, size=nbytes\n"
        "        )\n"
        "\n"
        "    def close(self):\n"
        "        self._shm.close()\n"
        "\n"
        "    def unlink(self):\n"
        "        self._shm.unlink()\n"
        "\n"
        "\n"
        "def one_shot(payload):\n"
        "    try:\n"
        "        shm = shared_memory.SharedMemory(\n"
        "            create=True, size=len(payload)\n"
        "        )\n"
        "        shm.buf[: len(payload)] = payload\n"
        "        return shm.name\n"
        "    finally:\n"
        "        shm.close()\n"
        "        shm.unlink()\n",
    ),
    "nondet-ban": (
        "core/covariance.py",
        "def covariance(first, second):\n"
        "    shared = first.keys() & second.keys()\n"
        "    if not shared:\n"
        "        return 0.0\n"
        "    value = 1.0\n"
        "    for key, p in first.items():\n"
        "        if key in second:\n"
        "            value *= 1.0 / p\n"
        "    return value\n"
        "\n"
        "\n"
        "def ordered_nodes(records):\n"
        "    nodes = {r.u for r in records} | {r.v for r in records}\n"
        "    return sorted(nodes, key=repr)\n",
    ),
    "frozen-spec": (
        "api/spec.py",
        "from dataclasses import dataclass\n"
        "\n"
        "\n"
        "@dataclass(frozen=True)\n"
        "class DemoSpec:\n"
        "    budget: int\n"
        "\n"
        "    def to_dict(self):\n"
        "        return {'budget': self.budget}\n"
        "\n"
        "    @classmethod\n"
        "    def from_dict(cls, data):\n"
        "        return cls(**data)\n",
    ),
    "registry-flags": (
        "plugins/demo.py",
        "from repro.api.registry import register_method\n"
        "\n"
        "\n"
        "@register_method(\n"
        "    'demo',\n"
        "    summary='demo method',\n"
        "    reads_labels=False,\n"
        ")\n"
        "def build_demo(spec):\n"
        "    return None\n",
    ),
    "exception-discipline": (
        "serve/pump.py",
        "class Pump:\n"
        "    def __init__(self):\n"
        "        self._errors = []\n"
        "\n"
        "    def run(self, source, sink):\n"
        "        try:\n"
        "            for block in source:\n"
        "                sink.append(block)\n"
        "        except Exception as exc:\n"
        "            self._errors.append(f'pump: {exc!r}')\n",
    ),
    "api-doctest": (
        "api/facade.py",
        "def wedge_count(n):\n"
        "    '''Identity stand-in.\n"
        "\n"
        "    Example\n"
        "    -------\n"
        "    >>> wedge_count(3)\n"
        "    3\n"
        "    '''\n"
        "    return n\n"
        "\n"
        "\n"
        "def _helper(n):\n"
        "    return n + 1\n",
    ),
    "unused-import": (
        "graph/degrees.py",
        "from typing import TYPE_CHECKING, Dict\n"
        "\n"
        "from collections import Counter as Tally\n"
        "import os.path\n"
        "\n"
        "try:\n"
        "    import numpy as _np\n"
        "except ImportError:\n"
        "    _np = None\n"
        "\n"
        "if TYPE_CHECKING:\n"
        "    from repro.graph.adjacency import AdjacencyGraph\n"
        "\n"
        "from repro.graph.edge import Node\n"
        "\n"
        "__all__ = ['Node', 'degrees']\n"
        "\n"
        "\n"
        "def degrees(graph: \"AdjacencyGraph\") -> Dict[int, int]:\n"
        "    tally = Tally(u for edge in graph.edges() for u in edge)\n"
        "    return dict(tally) if _np is not None else {}\n"
        "\n"
        "\n"
        "def exists(path):\n"
        "    return os.path.exists(path)\n",
    ),
}


def test_conforming_snippets_cover_every_rule():
    assert set(CONFORMING) == set(rule_names())


@pytest.mark.parametrize("rule", sorted(CONFORMING))
def test_conforming_snippet_is_clean(rule, tmp_path):
    relpath, source = CONFORMING[rule]
    _write(tmp_path, relpath, source)
    result = lint_paths([tmp_path])
    details = "\n".join(
        f"{f.path}:{f.line}: {f.rule} {f.message}" for f in result.findings
    )
    assert result.clean, details
    assert result.suppressed == 0
    assert result.files_checked == 1


# ----------------------------------------------------------------------
# Scope: the same violating source outside a rule's scope is ignored.
# ----------------------------------------------------------------------
def test_scoped_rules_ignore_out_of_scope_files(tmp_path):
    # graph/ is outside rng-discipline's scope (core/baselines/streams/
    # engine) and outside nondet-ban's (core/stats).
    _write(tmp_path, "graph/io.py", "import random\nx = random.random()\n")
    assert lint_paths([tmp_path]).clean


def test_unused_import_names_each_unread_binding(tmp_path):
    _write(
        tmp_path,
        "graph/mixed.py",
        "import os, sys\n"
        "from typing import (\n"
        "    Dict,\n"
        "    List,\n"
        ")\n"
        "\n"
        "\n"
        "def f() -> Dict[str, str]:\n"
        "    return dict(os.environ)\n",
    )
    findings = lint_paths([tmp_path], select=["unused-import"]).findings
    assert [(f.line, f.message) for f in findings] == [
        (1, "'sys' is imported but never used"),
        (4, "'List' is imported but never used"),
    ]


def test_unused_import_exempts_package_init(tmp_path):
    _write(tmp_path, "graph/__init__.py", "from os import path\n")
    assert lint_paths([tmp_path]).clean


def test_global_rules_apply_everywhere(tmp_path):
    source = (
        "from multiprocessing import shared_memory\n"
        "shm = shared_memory.SharedMemory(create=True, size=8)\n"
    )
    _write(tmp_path, "anywhere/leak.py", source)
    assert _rules(lint_paths([tmp_path])) == {"shm-lifecycle"}


# ----------------------------------------------------------------------
# Suppressions.
# ----------------------------------------------------------------------
def test_suppression_silences_and_is_counted(tmp_path):
    _write(
        tmp_path,
        "core/bad.py",
        "import random\n"
        "x = random.random()  # repro-lint: disable=rng-discipline fixture\n",
    )
    result = lint_paths([tmp_path])
    assert result.clean
    assert result.suppressed == 1


def test_suppression_comma_list(tmp_path):
    _write(
        tmp_path,
        "streams/bad.py",
        "import numpy as np\n"
        "xs = np.empty(4)  # repro-lint: disable=dtype-explicit,rng-discipline\n",
    )
    result = lint_paths([tmp_path])
    assert result.clean
    assert result.suppressed == 1


def test_suppression_is_rule_specific(tmp_path):
    _write(
        tmp_path,
        "core/bad.py",
        "import random\n"
        "x = random.random()  # repro-lint: disable=dtype-explicit\n",
    )
    result = lint_paths([tmp_path])
    assert [f.rule for f in result.findings] == ["rng-discipline"]
    assert result.suppressed == 0


def test_suppression_is_line_scoped(tmp_path):
    _write(
        tmp_path,
        "core/bad.py",
        "import random  # repro-lint: disable=rng-discipline\n"
        "x = random.random()\n",
    )
    result = lint_paths([tmp_path])
    assert [f.rule for f in result.findings] == ["rng-discipline"]


# ----------------------------------------------------------------------
# Selection, unknown ids, missing paths.
# ----------------------------------------------------------------------
def _mixed_tree(tmp_path):
    _write(tmp_path, "core/r.py", "import random\nx = random.random()\n")
    _write(tmp_path, "streams/d.py", "import numpy as np\nxs = np.zeros(4)\n")


def test_select_restricts_rules(tmp_path):
    _mixed_tree(tmp_path)
    result = lint_paths([tmp_path], select=["rng-discipline"])
    assert _rules(result) == {"rng-discipline"}


def test_ignore_drops_rules(tmp_path):
    _mixed_tree(tmp_path)
    result = lint_paths([tmp_path], ignore=["rng-discipline"])
    assert _rules(result) == {"dtype-explicit"}


def test_unknown_rule_id_raises(tmp_path):
    _mixed_tree(tmp_path)
    with pytest.raises(ValueError, match="unknown rule id"):
        lint_paths([tmp_path], select=["no-such-rule"])
    with pytest.raises(ValueError, match="no-such-rule"):
        lint_paths([tmp_path], ignore=["no-such-rule"])


def test_missing_path_raises(tmp_path):
    with pytest.raises(ValueError, match="no such file"):
        lint_paths([tmp_path / "nowhere"])


def test_findings_are_sorted_deterministically(tmp_path):
    _mixed_tree(tmp_path)
    result = lint_paths([tmp_path])
    keys = [f.sort_key() for f in result.findings]
    assert keys == sorted(keys)
    assert result.files_checked == 2


# ----------------------------------------------------------------------
# Syntax errors: unsuppressible, immune to --select/--ignore.
# ----------------------------------------------------------------------
def test_syntax_error_is_always_reported(tmp_path):
    _write(
        tmp_path,
        "core/broken.py",
        "def broken(:  # repro-lint: disable=syntax-error\n",
    )
    for kwargs in (
        {},
        {"select": ["dtype-explicit"]},
        {"ignore": ["rng-discipline"]},
    ):
        result = lint_paths([tmp_path], **kwargs)
        assert _rules(result) == {SYNTAX_ERROR_RULE}
        assert result.suppressed == 0


# ----------------------------------------------------------------------
# CLI round trips.
# ----------------------------------------------------------------------
def test_cli_clean_run_exits_zero(tmp_path, capsys):
    _write(tmp_path, "core/ok.py", "ANSWER = 42\n")
    assert main(["lint", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "1 file checked: clean" in out


def test_cli_text_report_shape(tmp_path, capsys):
    _write(tmp_path, "core/bad.py", "import random\nx = random.random()\n")
    assert main(["lint", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    [line, summary] = [l for l in out.splitlines() if l]
    assert line.endswith(
        "core/bad.py:2:4: rng-discipline [error] module-level draw "
        "`random.random` uses process-global RNG state; draw from the "
        "injected self._rng"
    )
    assert "1 finding" in summary


def test_cli_json_round_trip(tmp_path, capsys):
    _write(tmp_path, "core/bad.py", "import random\nx = random.random()\n")
    assert main(["lint", str(tmp_path), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 1
    assert payload["files_checked"] == 1
    assert payload["suppressed"] == 0
    [finding] = payload["findings"]
    assert finding["rule"] == "rng-discipline"
    assert finding["severity"] == "error"
    assert finding["line"] == 2
    assert finding["path"].endswith("core/bad.py")
    # The JSON cell shape is exactly Finding.to_dict.
    assert set(finding) == set(
        Finding(
            rule="r", severity="error", path="p", line=1, col=0, message="m"
        ).to_dict()
    )


def test_cli_select_accepts_comma_lists(tmp_path, capsys):
    _mixed_tree(tmp_path)
    code = main(
        ["lint", str(tmp_path), "--select", "rng-discipline,dtype-explicit"]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "rng-discipline" in out
    assert "dtype-explicit" in out


def test_cli_ignore_filters(tmp_path, capsys):
    _mixed_tree(tmp_path)
    assert main(["lint", str(tmp_path), "--ignore", "rng-discipline"]) == 1
    out = capsys.readouterr().out
    assert "rng-discipline" not in out
    assert "dtype-explicit" in out


def test_cli_unknown_rule_is_a_usage_error(tmp_path, capsys):
    _mixed_tree(tmp_path)
    assert main(["lint", str(tmp_path), "--select", "no-such-rule"]) == 2
    err = capsys.readouterr().err
    assert "no-such-rule" in err
    assert "known rules" in err


def test_cli_missing_path_is_a_usage_error(tmp_path, capsys):
    assert main(["lint", str(tmp_path / "nowhere")]) == 2
    assert "no such file" in capsys.readouterr().err


def test_cli_markdown_emits_the_catalog(capsys):
    assert main(["lint", "--markdown"]) == 0
    assert capsys.readouterr().out == rules_markdown()
