"""The ring-distance chain of both batched engines, and its compiled twin.

This module is the single home of the batched simulation chain:

* the stateless SplitMix64 **counter randomness** both engines draw
  from -- one hash per ``(seed, stream, slot, global terminal index)``,
  so a terminal's trajectory does not depend on the batch it runs in;
* the **chain itself**, :class:`_RingChain`: center-relative lattice
  positions, integer event bounds and the ``(d, m)`` paging tables,
  stepped by three operations -- the event draw, :meth:`_RingChain._page`
  and :meth:`_RingChain._move`.
  :class:`~repro.simulation.vectorized.VectorizedDistanceEngine` (one
  class, per-terminal meters) and
  :class:`~repro.simulation.fleet.FleetShardEngine` (per-terminal
  parameter columns, shard-level cost scalars) both derive from it and
  keep only their own accounting;
* the one jit-compiled port, ``fleet_step``, behind
  :class:`~repro.simulation.fleet.FleetShardEngine` with
  ``backend != "numpy"``.

Event-sparse slots
------------------

Per slot the chain hashes every terminal once (:func:`counter_below`,
in cache-sized chunks), keeps the ascending indices whose 53-bit draw
falls below an integer :func:`unit_bound` -- exactly the terminals with
``u < p`` -- and touches only those callers and movers, calls before
moves.  ``fleet_step`` visits every terminal instead but evaluates the
same predicates in the same order, so its integer meters (moves,
updates, calls, polled cells, delay histogram) are **bit-identical** to
the NumPy chain's.  The one documented exception is its shard-level
per-slot cost scalars: it accumulates them terminal by terminal while
the NumPy path uses dot products over the ascending callers and
updaters, so those two floats (and nothing else -- snapshot cost totals
are recomputed from the integer counters) agree to ~1e-12 relative.

numba is optional.  Importing this module never imports numba; the
compiled kernel is built lazily on first request (one ``kernel
.compile`` tracer span when observability is on) and memoized for the
process.  When numba is absent the fleet keeps its NumPy chain -- same
results, see :mod:`repro.core.backend`.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ..core.backend import numba_available
from ..exceptions import ParameterError
from ..geometry.hex import AXIAL_DIRECTIONS, HexTopology
from ..geometry.line import LineTopology
from ..geometry.square import SQUARE_DIRECTIONS, SquareTopology
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


# -- the shared ring-distance chain -------------------------------------

#: Slot semantics of the chain: ``"exclusive"`` (one event per slot, the
#: paper's Markov chain) or ``"independent"`` (call and move drawn on
#: separate streams, calls processed first).
_EVENT_MODES = ("exclusive", "independent")


def _lattice_kernel(topology: CellTopology) -> Tuple[np.ndarray, Callable]:
    """Direction vectors and a vectorized ring-distance function.

    Returns ``(directions, distance)`` where ``directions`` has shape
    ``(degree, dims)`` and ``distance`` maps center-relative coordinate
    *columns* -- a ``(dims, K)`` array such as ``pos.T``, or a sequence
    of ``dims`` length-``K`` arrays -- to ``(K,)`` ring distances.
    """
    if isinstance(topology, LineTopology):
        dirs = np.array([[-1], [1]], dtype=np.int64)
        return dirs, lambda cols: np.abs(cols[0])
    if isinstance(topology, HexTopology):
        dirs = np.array(AXIAL_DIRECTIONS, dtype=np.int64)

        def hex_distance(cols) -> np.ndarray:
            q, r = cols[0], cols[1]
            return (np.abs(q) + np.abs(r) + np.abs(q + r)) // 2

        return dirs, hex_distance
    if isinstance(topology, SquareTopology):
        dirs = np.array(SQUARE_DIRECTIONS, dtype=np.int64)
        return dirs, lambda cols: np.abs(cols[0]) + np.abs(cols[1])
    raise ParameterError(
        f"the batched engines support LineTopology, HexTopology, and "
        f"SquareTopology; got {topology!r} -- use SimulationEngine for "
        "other geometries"
    )


def _paging_tables(
    plans: Sequence, topology: CellTopology
) -> Tuple[np.ndarray, np.ndarray]:
    """Paging lookups, one row per ``(d, m)`` class.

    ``ring_to_cycle[i, ring]`` is the 0-based polling cycle that finds a
    class-``i`` terminal at ``ring``, and ``cum_polled[i, cycle]`` the
    cells polled by then (``w_j`` of eqn (64)).  Rows are padded to the
    widest class; a class never reads past its own threshold or delay
    bound, and its cumulative tail is kept monotone anyway.
    """
    max_d = max(plan.threshold for plan in plans)
    cycles = max(plan.delay_bound for plan in plans)
    ring_to_cycle = np.zeros((len(plans), max_d + 1), dtype=np.int64)
    cum_polled = np.zeros((len(plans), cycles), dtype=np.int64)
    for row, plan in enumerate(plans):
        for cycle, group in enumerate(plan.subareas):
            ring_to_cycle[row, list(group)] = cycle
        cumulative = plan.cumulative_polled(topology)
        cum_polled[row, : len(cumulative)] = cumulative
        cum_polled[row, len(cumulative):] = cumulative[-1]
    return ring_to_cycle, cum_polled


class _RingChain:
    """Batched ring-distance chain: positions, event bounds, paging tables.

    Terminals are tracked by lattice coordinates relative to their
    current center cell (the cell of the last update or page hit), so
    ring distances, update triggers and paging costs come from the same
    geometry the per-cell engine walks.  ``q`` and ``c`` are scalars or
    one per terminal; ``plans`` holds one paging plan per ``(d, m)``
    class, and ``class_idx`` maps each terminal to its row (``None``: a
    single class, whose tables are then plain 1-D lookups).  Every
    operation takes and returns ascending terminal indices.
    """

    def __init__(
        self,
        topology: CellTopology,
        keys: np.ndarray,
        seed: int,
        event_mode: str,
        q,
        c,
        plans: Sequence,
        class_idx: Optional[np.ndarray] = None,
    ) -> None:
        if event_mode not in _EVENT_MODES:
            raise ParameterError(
                f"event_mode must be one of {_EVENT_MODES}, got {event_mode!r}"
            )
        self.topology = topology
        self.event_mode = event_mode
        self._seed = seed
        self._idx_keys = keys
        # Integer event bounds (see unit_bound): exclusive mode draws one
        # event stream against q + c and splits it at c; independent
        # mode draws moves against q and calls against c.
        self._call_bound = unit_bound(c)
        self._event_bound = unit_bound(q + c if event_mode == "exclusive" else q)
        self._dirs, self._distance = _lattice_kernel(topology)
        self._pos = np.zeros((keys.shape[0], self._dirs.shape[1]), dtype=np.int64)
        self._cols = tuple(self._pos.T)
        ring_to_cycle, cum_polled = _paging_tables(plans, topology)
        if class_idx is None:
            ring_to_cycle, cum_polled = ring_to_cycle[0], cum_polled[0]
        self._class_idx = class_idx
        self._ring_to_cycle = ring_to_cycle
        self._cum_polled = cum_polled
        self.slot = 0

    def _draw_events(self, slot: int) -> Tuple[np.ndarray, np.ndarray]:
        """The slot's ``(callers, movers)``, one hash per terminal and stream."""
        events, draws = counter_below(
            self._idx_keys, self._seed, STREAM_EVENT, slot, self._event_bound
        )
        if self.event_mode == "independent":
            callers, _ = counter_below(
                self._idx_keys, self._seed, STREAM_CALL, slot, self._call_bound
            )
            return callers, events
        bound = self._call_bound
        call = draws < (bound[events] if np.ndim(bound) else bound)
        return events[call], events[~call]

    def _page(self, callers: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Page ``callers``: their ``(rings, cycles, polled cells)``.

        Cycles are 0-based.  The network pinpointed the callers, so their
        cells become the new centers: positions reset to the origin.
        """
        rings = self._distance([col[callers] for col in self._cols])
        if self._class_idx is None:
            cycles = self._ring_to_cycle[rings]
            polled = self._cum_polled[cycles]
        else:
            classes = self._class_idx[callers]
            cycles = self._ring_to_cycle[classes, rings]
            polled = self._cum_polled[classes, cycles]
        for col in self._cols:
            col[callers] = 0
        return rings, cycles, polled

    def _move(
        self,
        movers: np.ndarray,
        slot: int,
        threshold,
        directions: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Step ``movers`` one cell; return the updaters among them.

        ``directions`` indexes the lattice directions per mover; by
        default it is ``floor(u * degree)`` of each mover's
        ``STREAM_DIRECTION`` uniform.  Movers past ``threshold`` (scalar
        or one per mover) update, and their positions re-center.
        """
        if directions is None:
            unit = counter_uniforms(
                self._idx_keys[movers], self._seed, STREAM_DIRECTION, slot
            )
            directions = (unit * float(self._dirs.shape[0])).astype(np.int64)
        cols = self._cols
        moved = [
            col[movers] + step[directions] for col, step in zip(cols, self._dirs.T)
        ]
        over = self._distance(moved) > threshold
        for col, coord in zip(cols, moved):
            coord[over] = 0
            col[movers] = coord
        return movers[over]


# -- lazily compiled numba kernels --------------------------------------

_COMPILED: Optional[Callable] = None
_COMPILE_SECONDS: Optional[float] = None


def kernel_compile_info() -> dict:
    """Whether the jit kernel compiled this process, and how long it took."""
    return {
        "numba_available": numba_available(),
        "compiled": _COMPILED is not None,
        "compile_seconds": _COMPILE_SECONDS,
    }


def _build_compiled():  # pragma: no cover - requires numba
    """Compile the fleet step kernel (called once, behind the memo)."""
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

    return fleet_step


def compiled_kernels():
    """The jit-compiled ``fleet_step``, compiled lazily.

    Raises :class:`ParameterError` when numba is unavailable -- callers
    are expected to have resolved the backend first and only land here
    when :func:`repro.core.backend.resolve_backend` said ``"numba"``.
    """
    global _COMPILED, _COMPILE_SECONDS
    if _COMPILED is None:
        if not numba_available():
            raise ParameterError(
                "the compiled kernel needs numba, which is not importable; "
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
