"""Kernel-backend helpers shared by the test modules.

Importable from any test module (pytest puts ``tests/`` on ``sys.path``).
"""

from __future__ import annotations

import pytest

from repro.kernel.native import availability

#: Reasons :func:`repro.kernel.native.availability` gives for a kernel that
#: was compiled and loaded and then misbehaved.
_BUILT_BUT_BROKEN = ("self-test", "unexpected native-kernel failure")


def require_native_kernel() -> None:
    """Return when the native kernel backend serves here, else end the test.

    A host that cannot build or load the kernel (no compiler, say) skips
    the test.  A kernel that was built and then refused by its load-time
    self-test, or that raised there, fails it: the compiled pass disagrees
    with its NumPy oracle, which a skip would hide.
    """
    available, reason = availability()
    if available:
        return
    if str(reason).startswith(_BUILT_BUT_BROKEN):
        pytest.fail(f"native kernel failed its self-test: {reason}")
    pytest.skip(f"native kernel backend unavailable: {reason}")
