"""Every function the benchmark traces must still exist.

``perfbench/tracing.py`` wraps the functions named in its ``TARGETS`` and
raises when one is missing, so deleting or renaming a traced function breaks
the benchmark run.  This test resolves every name with the benchmark's own
``_resolve`` in the fast test set.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its slotted dataclass looks itself up
    spec.loader.exec_module(module)
    return module


_tracing = _tracing_module()


@pytest.mark.parametrize("spec", sorted({spec for _layer, _key, spec in _tracing.TARGETS}))
def test_traced_target_resolves(spec):
    owner, attribute = _tracing._resolve(spec)
    assert callable(vars(owner)[attribute])
