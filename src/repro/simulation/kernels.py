"""Shared counter-RNG primitives and the optional numba step kernels.

This module is the single home of the stateless SplitMix64 counter
randomness both batched engines draw from (it moved here from
:mod:`repro.simulation.fleet`, which re-exports the old names), plus
the jit-compiled ports of the two hot step loops:

* the **homogeneous** kernel -- one ``(d, m, q, c, U, V)`` point,
  per-terminal meters -- behind
  :class:`~repro.simulation.vectorized.VectorizedDistanceEngine` with
  ``backend != "numpy"``;
* the **fleet** kernel -- per-terminal parameter arrays, shard-level
  scalar cost accumulators -- behind
  :class:`~repro.simulation.fleet.FleetShardEngine`.

Bit-identity contract
---------------------

The NumPy counter-mode steps are *event-sparse*: per slot they hash
every terminal once (:func:`counter_below`, in cache-sized chunks),
keep the ascending indices whose 53-bit draw falls below an integer
:func:`unit_bound` -- exactly the terminals with ``u < p`` -- and touch
only those callers and movers.  Each compiled kernel visits every
terminal instead, but evaluates the same predicates: the same hash per
``(seed, stream, slot, global terminal index)``, the same within-slot
order (calls before moves), and the same per-terminal float arithmetic
(``V * polled`` then ``+ U``; an idle terminal adds an exact ``0.0``).
Integer meters (moves, updates, calls, polled cells, delay histograms)
and the per-terminal cost accumulators of the homogeneous kernel are
therefore **bit-identical** between the compiled and NumPy executions.
The one documented exception: the fleet kernel accumulates its
*shard-level* per-slot cost scalars terminal-by-terminal, while the
NumPy path uses dot products over the ascending callers and updaters --
summation order differs, so those two floats (and nothing else --
snapshot cost totals are recomputed from the integer counters) agree
to ~1e-12 relative rather than exactly.

numba is optional.  Importing this module never imports numba; the
compiled kernels are built lazily on first request (one ``kernel
.compile`` tracer span when observability is on) and memoized for the
process.  When numba is absent the engines simply keep their NumPy
counter paths -- same results, see :mod:`repro.core.backend`.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

import numpy as np

from ..core.backend import numba_available
from ..exceptions import ParameterError
from ..geometry.hex import HexTopology
from ..geometry.line import LineTopology
from ..geometry.square import SquareTopology
from ..geometry.topology import CellTopology
from ..observability.context import current as _observability

__all__ = [
    "STREAM_CALL",
    "STREAM_DIRECTION",
    "STREAM_EVENT",
    "STREAM_RESIDENCE",
    "STREAM_RESIDENCE_BRANCH",
    "COUNTER_CHUNK",
    "compiled_kernels",
    "counter_below",
    "counter_uniforms",
    "drifted_directions",
    "kernel_compile_info",
    "mix64",
    "slot_key",
    "terminal_keys",
    "topology_code",
    "unit_bound",
]

# -- stateless counter-based randomness --------------------------------

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_SLOT_SALT = 0xD1B54A32D192ED03
_STREAM_SALT = 0x8BB84B93962EACC9
_KEY_OFFSET = 0x632BE59BD9B4E019
_GOLDEN_U64 = np.uint64(_GOLDEN)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)
_S11 = np.uint64(11)
_INV53 = 2.0**-53

#: Independent hash streams: slot-event classification, movement
#: direction, and the independent-mode call draw.
STREAM_EVENT, STREAM_DIRECTION, STREAM_CALL = 0, 1, 2

#: CTRW streams: residence-time inverse-CDF draw and the mixture-branch
#: pick (hyperexponential components).  Initial residences hash slot -1
#: on the same streams, which no in-run slot index ever reuses.
STREAM_RESIDENCE, STREAM_RESIDENCE_BRANCH = 3, 4


def mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, vectorized over uint64 (wrapping) arrays."""
    x = (x ^ (x >> _S30)) * _MIX_A
    x = (x ^ (x >> _S27)) * _MIX_B
    return x ^ (x >> _S31)


def slot_key(seed: int, stream: int, slot: int) -> np.uint64:
    """One 64-bit key per ``(seed, stream, slot)``.

    Computed in Python integers (NumPy *scalar* uint64 arithmetic warns
    on wraparound; arrays do not) and finalized with the same SplitMix64
    mix as the vector side.
    """
    x = (
        seed * _GOLDEN + stream * _STREAM_SALT + slot * _SLOT_SALT
        + _KEY_OFFSET
    ) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return np.uint64((x ^ (x >> 31)) & _M64)


def terminal_keys(offset: int, count: int) -> np.ndarray:
    """Hash keys of the global terminal indices ``offset .. offset+count``."""
    return mix64(
        (np.arange(offset, offset + count, dtype=np.uint64) + np.uint64(1))
        * _GOLDEN_U64
    )


def counter_uniforms(
    idx_keys: np.ndarray, seed: int, stream: int, slot: int
) -> np.ndarray:
    """One U(0,1) per terminal for ``(stream, slot)``, layout-free."""
    h = mix64(idx_keys ^ slot_key(seed, stream, slot))
    return (h >> _S11).astype(np.float64) * _INV53


#: Terminals hashed per pass of :func:`counter_below`: two uint64
#: buffers and a mask of this length (544 KiB) stay cache-resident
#: while the hash runs in place over them.
COUNTER_CHUNK = 32768


def unit_bound(p) -> np.ndarray:
    """Integer threshold on 53-bit draws equivalent to ``u < p``.

    A counter uniform is ``u = (h >> 11) * 2**-53`` -- an exact float --
    and scaling ``p`` by ``2**53`` is exact too, so for every 53-bit
    ``x``: ``x * 2**-53 < p`` holds exactly when ``x < ceil(p * 2**53)``.
    ``p`` is clipped to ``[0, 1]``, so the bound fits in ``[0, 2**53]``.
    """
    return np.ceil(np.clip(p, 0.0, 1.0) * 2.0**53).astype(np.uint64)


def counter_below(
    idx_keys: np.ndarray, seed: int, stream: int, slot: int, bound
) -> Tuple[np.ndarray, np.ndarray]:
    """Terminals whose ``(stream, slot)`` draw falls below ``bound``.

    ``bound`` is a :func:`unit_bound` scalar or one per key.  Hashes
    ``COUNTER_CHUNK`` keys at a time into reused buffers and returns
    the ascending indices with their 53-bit draws ``h >> 11``: the
    terminals with ``counter_uniforms(...) < p``, and their uniforms
    times ``2**53``.
    """
    K = idx_keys.shape[0]
    key = slot_key(seed, stream, slot)
    per_key = np.ndim(bound) > 0
    n = min(K, COUNTER_CHUNK)
    h = np.empty(n, dtype=np.uint64)
    tmp = np.empty(n, dtype=np.uint64)
    hit = np.empty(n, dtype=bool)
    indices: list = []
    draws: list = []
    for lo in range(0, K, COUNTER_CHUNK):
        hi = min(lo + COUNTER_CHUNK, K)
        x, t, m = h[: hi - lo], tmp[: hi - lo], hit[: hi - lo]
        np.bitwise_xor(idx_keys[lo:hi], key, out=x)
        for shift, mult in ((_S30, _MIX_A), (_S27, _MIX_B)):
            np.right_shift(x, shift, out=t)
            x ^= t
            x *= mult
        np.right_shift(x, _S31, out=t)
        x ^= t
        x >>= _S11
        np.less(x, bound[lo:hi] if per_key else bound, out=m)
        rows = np.flatnonzero(m)
        draws.append(x[rows])
        rows += lo
        indices.append(rows)
    return np.concatenate(indices), np.concatenate(draws)


def drifted_directions(
    u: np.ndarray,
    degree: int,
    drift: float,
    drift_direction: int,
    persistence: float,
    last_directions: np.ndarray,
) -> np.ndarray:
    """Direction indices composing drift, persistence, and uniform choice.

    One uniform per mover decides the whole composition: ``u < drift``
    takes the preferred lattice direction, the next ``persistence``
    band repeats the mover's previous direction (movers without one --
    ``last_directions < 0`` -- fall back to a uniform pick over their
    band), and the remaining mass is rescaled to a uniform direction.
    Rescaling a conditioned uniform is again uniform, so the
    distribution matches the per-cell walker's two-draw composition in
    :meth:`repro.mobility.ctrw.CTRWWalk.move` exactly.
    """
    u = np.asarray(u, dtype=np.float64)
    explore = drift + persistence
    scaled = (u - explore) / (1.0 - explore)
    out = np.minimum(
        (scaled * degree).astype(np.int64), degree - 1
    )
    if persistence > 0.0:
        in_persist = (u >= drift) & (u < explore)
        has_last = last_directions >= 0
        repeat = in_persist & has_last
        out[repeat] = last_directions[repeat]
        fresh = in_persist & ~has_last
        if fresh.any():
            band = (u[fresh] - drift) / persistence
            out[fresh] = np.minimum(
                (band * degree).astype(np.int64), degree - 1
            )
    if drift > 0.0:
        out[u < drift] = drift_direction
    return out


def topology_code(topology: CellTopology) -> int:
    """Integer lattice code the kernels branch on (0/1/2 = line/hex/square)."""
    if isinstance(topology, LineTopology):
        return 0
    if isinstance(topology, HexTopology):
        return 1
    if isinstance(topology, SquareTopology):
        return 2
    raise ParameterError(
        f"compiled kernels support LineTopology, HexTopology, and "
        f"SquareTopology; got {topology!r}"
    )


# -- lazily compiled numba kernels --------------------------------------

_COMPILED: Optional[Tuple] = None
_COMPILE_SECONDS: Optional[float] = None


def kernel_compile_info() -> dict:
    """Whether the jit kernels compiled this process, and how long it took."""
    return {
        "numba_available": numba_available(),
        "compiled": _COMPILED is not None,
        "compile_seconds": _COMPILE_SECONDS,
    }


def _build_compiled():  # pragma: no cover - requires numba
    """Compile the two step kernels (called once, behind the memo)."""
    import numba

    u64 = np.uint64
    i64 = np.int64
    f64 = np.float64
    MIX_A, MIX_B = _MIX_A, _MIX_B
    S30, S27, S31, S11 = _S30, _S27, _S31, _S11
    GOLDEN = u64(_GOLDEN)
    SLOT_SALT = u64(_SLOT_SALT)
    STREAM_SALT = u64(_STREAM_SALT)
    KEY_OFFSET = u64(_KEY_OFFSET)
    INV53 = _INV53

    @numba.njit(cache=False, inline="always")
    def _mix(x):
        x = (x ^ (x >> S30)) * MIX_A
        x = (x ^ (x >> S27)) * MIX_B
        return x ^ (x >> S31)

    @numba.njit(cache=False, inline="always")
    def _key(seed, stream, slot):
        x = seed * GOLDEN + stream * STREAM_SALT + u64(slot) * SLOT_SALT
        return _mix(x + KEY_OFFSET)

    @numba.njit(cache=False, inline="always")
    def _unit(h):
        return f64(h >> S11) * INV53

    @numba.njit(cache=False, inline="always")
    def _ring(pos, k, topo):
        if topo == 0:
            return abs(pos[k, 0])
        if topo == 1:
            a = pos[k, 0]
            b = pos[k, 1]
            return (abs(a) + abs(b) + abs(a + b)) // 2
        return abs(pos[k, 0]) + abs(pos[k, 1])

    @numba.njit(cache=False, nogil=True)
    def homogeneous_step(
        pos, dirs, topo, event_mode, seed, idx_keys, slot0, slots,
        q, c, threshold, update_cost, poll_cost,
        ring_to_cycle, cum_polled,
        moves, updates, calls, polled, delay_counts,
        cost_sum, cost_sq_sum,
    ):
        K = idx_keys.shape[0]
        dims = pos.shape[1]
        degree = f64(dirs.shape[0])
        cqc = c + q
        stream_event = u64(0)
        stream_direction = u64(1)
        stream_call = u64(2)
        for t in range(slot0, slot0 + slots):
            ek = _key(seed, stream_event, t)
            dk = _key(seed, stream_direction, t)
            ck = _key(seed, stream_call, t)
            for k in range(K):
                u = _unit(_mix(idx_keys[k] ^ ek))
                if event_mode == 0:
                    call_k = u < c
                    move_k = (not call_k) and (u < cqc)
                else:
                    move_k = u < q
                    call_k = _unit(_mix(idx_keys[k] ^ ck)) < c
                slot_cost = 0.0
                if call_k:
                    cycle = ring_to_cycle[_ring(pos, k, topo)]
                    w = cum_polled[cycle]
                    calls[k] += 1
                    polled[k] += w
                    delay_counts[k, cycle] += 1
                    slot_cost = poll_cost * w
                    for j in range(dims):
                        pos[k, j] = 0
                if move_k:
                    h = _mix(idx_keys[k] ^ dk)
                    direction = i64(_unit(h) * degree)
                    for j in range(dims):
                        pos[k, j] += dirs[direction, j]
                    moves[k] += 1
                    if _ring(pos, k, topo) > threshold:
                        updates[k] += 1
                        slot_cost += update_cost
                        for j in range(dims):
                            pos[k, j] = 0
                cost_sum[k] += slot_cost
                cost_sq_sum[k] += slot_cost * slot_cost

    @numba.njit(cache=False, nogil=True)
    def fleet_step(
        pos, dirs, topo, event_mode, seed, idx_keys, slot0, slots,
        q, c, qc, threshold, update_cost, poll_cost, class_idx,
        ring_to_cycle, cum_polled,
        moves, updates, calls, polled, delay_counts,
    ):
        K = idx_keys.shape[0]
        dims = pos.shape[1]
        degree = f64(dirs.shape[0])
        stream_event = u64(0)
        stream_direction = u64(1)
        stream_call = u64(2)
        cost_sum = 0.0
        cost_sq_sum = 0.0
        for t in range(slot0, slot0 + slots):
            ek = _key(seed, stream_event, t)
            dk = _key(seed, stream_direction, t)
            ck = _key(seed, stream_call, t)
            slot_cost = 0.0
            # Calls for the whole shard first, then moves -- the same
            # within-slot order as the NumPy path.
            for k in range(K):
                u = _unit(_mix(idx_keys[k] ^ ek))
                if event_mode == 0:
                    call_k = u < c[k]
                else:
                    call_k = _unit(_mix(idx_keys[k] ^ ck)) < c[k]
                if call_k:
                    row = class_idx[k]
                    cycle = ring_to_cycle[row, _ring(pos, k, topo)]
                    w = cum_polled[row, cycle]
                    calls[k] += 1
                    polled[k] += w
                    delay_counts[cycle] += 1
                    slot_cost += poll_cost[k] * w
                    for j in range(dims):
                        pos[k, j] = 0
            for k in range(K):
                u = _unit(_mix(idx_keys[k] ^ ek))
                if event_mode == 0:
                    move_k = (not (u < c[k])) and (u < qc[k])
                else:
                    move_k = u < q[k]
                if move_k:
                    h = _mix(idx_keys[k] ^ dk)
                    direction = i64(_unit(h) * degree)
                    for j in range(dims):
                        pos[k, j] += dirs[direction, j]
                    moves[k] += 1
                    if _ring(pos, k, topo) > threshold[k]:
                        updates[k] += 1
                        slot_cost += update_cost[k]
                        for j in range(dims):
                            pos[k, j] = 0
            cost_sum += slot_cost
            cost_sq_sum += slot_cost * slot_cost
        return cost_sum, cost_sq_sum

    return homogeneous_step, fleet_step


def compiled_kernels():
    """The ``(homogeneous_step, fleet_step)`` jit pair, compiled lazily.

    Raises :class:`ParameterError` when numba is unavailable -- callers
    are expected to have resolved the backend first and only land here
    when :func:`repro.core.backend.resolve_backend` said ``"numba"``.
    """
    global _COMPILED, _COMPILE_SECONDS
    if _COMPILED is None:
        if not numba_available():
            raise ParameterError(
                "the compiled kernels need numba, which is not importable; "
                "resolve the backend through repro.core.backend first"
            )
        obs = _observability()
        tic = time.perf_counter()
        if obs.enabled:
            with obs.tracer.span("kernel.compile", backend="numba"):
                _COMPILED = _build_compiled()
        else:
            _COMPILED = _build_compiled()
        _COMPILE_SECONDS = time.perf_counter() - tic
    return _COMPILED
