"""The benchmark's per-layer tracer wraps names in the package by string.

Renaming or removing one of those names breaks only a traced benchmark run,
so this test resolves every entry of ``perfbench/tracing.py`` ``TARGETS``.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for owner_path, attr, *_ in tracing.TARGETS:
        module_name, _, cls = owner_path.partition(":")
        owner = importlib.import_module(module_name)
        if cls:
            # the tracer replaces the class attribute itself, so it must be
            # defined on the class, not inherited
            found = attr in vars(getattr(owner, cls, object))
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(f"{owner_path}.{attr}")
    assert not missing, f"tracer targets that no longer resolve: {missing}"
