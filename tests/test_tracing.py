"""Guard for the benchmark's trace mode (``perfbench/run.py --trace 1``).

The tracer wraps detourkit's call sites by name, so renaming or deleting a
traced function breaks the trace mode.  Installing and restoring it here
makes such a change fail the test suite instead.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402

#: wrappers ``tracing.install`` puts in place: one per (owner, name) pair
TRACED_CALL_SITES = 53


def test_install_and_restore():
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        patches = list(tracer._patches)
        assert len(patches) == TRACED_CALL_SITES
        assert all(tracing._get(owner, attr) is not original
                   for owner, attr, original in patches)
    finally:
        tracer.restore()
    assert all(tracing._get(owner, attr) is original
               for owner, attr, original in patches)
