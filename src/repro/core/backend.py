"""Backend selection for the compiled hot-path kernels.

One switch -- ``backend="numpy" | "numba" | "auto"`` -- controls every
accelerated code path in the library: the fleet's shard kernel
(``fleet_step`` in :mod:`repro.simulation.kernels`, behind
:func:`repro.simulation.fleet.run_fleet`) and the large-``d_max``
banded steady-state solver of :mod:`repro.core.batch`:

* ``"numpy"`` -- the reference implementation: the fleet's NumPy
  counter-RNG chain, and for the analytic solvers the dense triangular
  recursion.
* ``"numba"`` -- request the jit-compiled kernel.  When numba is not
  importable the request *degrades gracefully*: a single
  :class:`RuntimeWarning` is emitted (once per process, not per
  engine) and the NumPy chain runs instead.
* ``"auto"`` -- use numba when available, silently fall back otherwise.

The vectorized engine has no backend: it always steps the NumPy
counter-RNG chain the fleet shares.  On the CLI, ``simulate --backend``
therefore only picks the engine -- ``numpy`` the per-cell reference,
``numba``/``auto`` the vectorized engine.

Determinism contract
--------------------

The fleet draws from the stateless SplitMix64 counter RNG whatever the
backend, and ``fleet_step`` is a port of the NumPy chain -- integer
event totals are bit-identical per terminal-slot.  Results therefore
never depend on whether numba happens to be installed; only wall-clock
time does.  The conformance suite pins this
(``fleet-backend-vs-fallback``).

``numba_available`` goes through :data:`_import_numba` so tests can
monkeypatch a missing (or broken) numba without uninstalling anything;
:func:`reset_backend_state` clears the memoized probe and the
warn-once latch between tests.
"""

from __future__ import annotations

import importlib
import warnings
from contextlib import contextmanager
from typing import Iterator, Optional

from ..exceptions import ParameterError

__all__ = [
    "BACKENDS",
    "backend_info",
    "numba_available",
    "reset_backend_state",
    "resolve_backend",
    "use_numpy_fallback",
    "validate_backend",
]

#: The backend names every ``backend=`` parameter and ``--backend``
#: flag accepts.
BACKENDS = ("numpy", "numba", "auto")

#: Memoized probe result (None = not probed yet).
_NUMBA_STATE: Optional[bool] = None

#: Warn-once latch for an explicit ``backend="numba"`` request that had
#: to fall back.
_FALLBACK_WARNED = False

#: When True (via :func:`use_numpy_fallback`), resolution never returns
#: ``"numba"`` -- the conformance oracles use this to force the NumPy
#: port of a kernel even on hosts where numba is importable.
_FORCE_NUMPY = False


def _import_numba():
    """Import hook for the capability probe (monkeypatched in tests)."""
    return importlib.import_module("numba")


def numba_available() -> bool:
    """True when numba imports cleanly (memoized after the first probe)."""
    global _NUMBA_STATE
    if _NUMBA_STATE is None:
        try:
            _import_numba()
        except Exception:
            _NUMBA_STATE = False
        else:
            _NUMBA_STATE = True
    return _NUMBA_STATE


def validate_backend(backend: str) -> str:
    """Validate a requested backend name, returning it unchanged."""
    if backend not in BACKENDS:
        raise ParameterError(
            f"backend must be one of {BACKENDS}, got {backend!r}"
        )
    return backend


def resolve_backend(backend: str = "auto") -> str:
    """Map a requested backend to the one that will actually execute.

    Returns ``"numpy"`` or ``"numba"``.  An explicit ``"numba"`` request
    on a host without numba warns once per process and falls back;
    ``"auto"`` falls back silently.  The fallback runs the NumPy chain
    the compiled kernel ports, so results are unchanged either way.
    """
    global _FALLBACK_WARNED
    validate_backend(backend)
    if backend == "numpy":
        return "numpy"
    if _FORCE_NUMPY or not numba_available():
        if backend == "numba" and not _FORCE_NUMPY and not _FALLBACK_WARNED:
            _FALLBACK_WARNED = True
            warnings.warn(
                "backend='numba' was requested but numba is not importable; "
                "falling back to the bit-identical NumPy kernel (install "
                "the optional extra: pip install 'repro[numba]')",
                RuntimeWarning,
                stacklevel=2,
            )
        return "numpy"
    return "numba"


@contextmanager
def use_numpy_fallback() -> Iterator[None]:
    """Force ``resolve_backend`` to the NumPy kernel inside the block.

    The conformance oracles run one engine normally and one inside this
    context: on a numba host that compares compiled against interpreted
    executions of the same kernel; without numba both runs take the
    fallback and the comparison degenerates to a (documented) identity.
    """
    global _FORCE_NUMPY
    previous = _FORCE_NUMPY
    _FORCE_NUMPY = True
    try:
        yield
    finally:
        _FORCE_NUMPY = previous


def reset_backend_state() -> None:
    """Clear the probe memo and warn-once latch (test isolation hook)."""
    global _NUMBA_STATE, _FALLBACK_WARNED
    _NUMBA_STATE = None
    _FALLBACK_WARNED = False


def backend_info(backend: str = "auto") -> dict:
    """JSON-ready description of how ``backend`` resolves on this host."""
    resolved = resolve_backend(validate_backend(backend))
    version = None
    if numba_available():
        try:
            version = getattr(_import_numba(), "__version__", None)
        except Exception:  # pragma: no cover - probe said available
            version = None
    return {
        "requested": backend,
        "resolved": resolved,
        "numba_available": numba_available(),
        "numba_version": version,
    }
