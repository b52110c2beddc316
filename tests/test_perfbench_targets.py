"""Every name perfbench's tracer wraps still resolves in the program.

``perfbench/run.py --trace 1`` patches functions at the names listed in
``perfbench/tracer.py``; a deleted or renamed target would make it fail at
install time.  The module is loaded by path so this check runs with the
program's own tests, independently of perfbench's suite.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", _TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACER = _tracer_module()


@pytest.mark.parametrize(
    "module_name, owner_name, attr",
    [target[:3] for target in _TRACER.SPAN_TARGETS + _TRACER.SERVER_TARGETS],
)
def test_tracer_target_resolves(module_name, owner_name, attr):
    owner = importlib.import_module(module_name)
    if owner_name is not None:
        owner = getattr(owner, owner_name)
    assert callable(getattr(owner, attr, None))
