"""The bench tracer's targets name attributes that exist in linhyp.

bench/tracer.py's install() skips a target it cannot find, so a renamed
or deleted entry point would only show as a zero timing in a traced
bench run.  This reads the tracer's target lists as they are and checks
each one against the package.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owner_and_leaf(module: str, attr: str):
    owner = importlib.import_module(f"linhyp.{module}")
    *path, leaf = attr.split(".")
    for name in path:
        owner = getattr(owner, name)
    return owner, leaf


def test_every_traced_entry_point_exists():
    tracer = _tracer()
    assert tracer.TARGETS and tracer.LAZY_TARGETS
    for module, attr, _ in tracer.TARGETS:
        owner, leaf = _owner_and_leaf(module, attr)
        assert callable(vars(owner).get(leaf)), f"{module}.{attr}"
    for module, attr, _, _ in tracer.LAZY_TARGETS:
        owner, leaf = _owner_and_leaf(module, attr)
        assert isinstance(vars(owner).get(leaf), property), f"{module}.{attr}"
