"""Every seam the traced benchmark wraps still exists where its tracer looks.

``perfbench/spans.py`` times layers by replacing the functions its ``WRAPS``
table names for the length of one traced batch.  A seam that is renamed,
deleted or moved into a base class or mixin would otherwise show only as an
``absent`` metric of a traced benchmark run.  This test reads ``WRAPS`` from
that file's source, without importing it (so nothing is written beside it),
and makes the tracer's own lookup: every attribute must be in its owner's
``__dict__``.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def read_wraps():
    """The ``WRAPS`` tuple of ``perfbench/spans.py``, evaluated as a literal."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(target, ast.Name) and target.id == "WRAPS" for target in targets):
                return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} defines no WRAPS table")


WRAPS = read_wraps()


def test_topology_seams_are_listed():
    owners = {(module, owner) for _wrap_id, module, owner, _attribute in WRAPS}
    assert ("repro.noc.topology", "Topology") in owners


@pytest.mark.parametrize("wrap", WRAPS, ids=[wrap[0] for wrap in WRAPS])
def test_seam_resolves_in_its_owners_dict(wrap):
    wrap_id, module_name, owner_name, attribute = wrap
    owner = importlib.import_module(module_name)
    if owner_name is not None:
        owner = getattr(owner, owner_name)
    assert attribute in vars(owner), (
        f"{wrap_id}: {module_name}.{owner_name or ''} has no {attribute!r} of its own; "
        "the traced benchmark would report it absent"
    )
