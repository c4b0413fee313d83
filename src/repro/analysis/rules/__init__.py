"""Built-in invariant rules; importing this package registers them all.

Each module encodes one real repo invariant (see the module docstrings
and ``docs/invariants.md``, which is generated from the registrations):

* :mod:`~repro.analysis.rules.rng` — rng-discipline
* :mod:`~repro.analysis.rules.dtype` — dtype-explicit
* :mod:`~repro.analysis.rules.lifecycle` — shm-lifecycle
* :mod:`~repro.analysis.rules.determinism` — nondet-ban
* :mod:`~repro.analysis.rules.spec` — frozen-spec
* :mod:`~repro.analysis.rules.registration` — registry-flags
* :mod:`~repro.analysis.rules.docs` — api-doctest
* :mod:`~repro.analysis.rules.exceptions` — exception-discipline
* :mod:`~repro.analysis.rules.imports` — unused-import
"""

from __future__ import annotations

from repro.analysis.rules import (  # noqa: F401  (imported for registration)
    determinism,
    docs,
    dtype,
    exceptions,
    imports,
    lifecycle,
    registration,
    rng,
    spec,
)

__all__ = [
    "determinism",
    "docs",
    "dtype",
    "exceptions",
    "imports",
    "lifecycle",
    "registration",
    "rng",
    "spec",
]
