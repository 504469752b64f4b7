"""Generic parameter sweeps over the analytical model.

The figure/table modules cover the paper's published experiments; this
module provides the free-form sweeps used by the ablation benches and
by downstream users exploring their own parameter regions.

Two entry points:

* :func:`sweep` -- one varied parameter, the rest fixed (the original
  API, kept verbatim for the figure benches);
* :func:`grid_sweep` -- the Cartesian product of any combination of
  ``(q, c, U, V, m)`` axes, solved point-by-point with the batched
  surface solver, optionally fanned out over a process pool
  (``workers=N``) and memoized in an on-disk content-addressed cache.

Every grid point is an independent analytic solve, so the pool needs no
coordination: results are keyed by row-major index and reassembled in
order, making ``workers=N`` output identical to a serial sweep for any
``N`` (the same guarantee, by the same construction, as
:func:`repro.simulation.runner.run_replicated`).

The cache is a :mod:`repro.persist` store, content-addressed: the file
name is the SHA-256 of the sweep's fingerprint (model, axes, fixed
values, ``d_max``, convention) without its schema version, so distinct
sweeps never collide and a stale-format file for the same sweep is
*found* and refused rather than silently recomputed.  Sweeps with a
custom ``plan_factory`` bypass the cache: callables have no stable
fingerprint.
"""

from __future__ import annotations

import hashlib
import json
import math
import pickle
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.costs import PlanFactory
from ..core.models import (
    MobilityModel,
    OneDimensionalModel,
    SquareGridApproximateModel,
    SquareGridModel,
    TwoDimensionalApproximateModel,
    TwoDimensionalModel,
)
from ..core.parameters import CostParams, MobilityParams, validate_delay
from ..core.threshold import find_optimal_threshold
from ..exceptions import ParameterError, SweepPointError
from ..observability.context import current as _observability
from ..persist import json_restore, json_safe, read_state, write_state
from ..simulation.runner import _resolve_workers, fan_out

__all__ = [
    "SweepPoint",
    "SweepResult",
    "GridSweepResult",
    "sweep",
    "grid_sweep",
    "MODEL_CLASSES",
]

MODEL_CLASSES: Dict[str, type] = {
    "1d": OneDimensionalModel,
    "2d-exact": TwoDimensionalModel,
    "2d-approx": TwoDimensionalApproximateModel,
    "square-exact": SquareGridModel,
    "square-approx": SquareGridApproximateModel,
}

#: Canonical axis order.  Axes may be supplied in any order; the grid
#: is always enumerated row-major in *this* order so that point layout
#: (and the cache fingerprint) is independent of call-site spelling.
_GRID_PARAMS: Tuple[str, ...] = ("q", "c", "U", "V", "m")

#: Bump when the cached payload layout changes incompatibly.
_CACHE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SweepPoint:
    """One solved grid point of a sweep."""

    q: float
    c: float
    update_cost: float
    poll_cost: float
    max_delay: float
    optimal_d: int
    total_cost: float
    update_component: float
    paging_component: float
    expected_delay: float


@dataclass(frozen=True)
class SweepResult:
    """All solved points plus the sweep's metadata."""

    model_name: str
    varied: str
    points: List[SweepPoint]

    def series(self, attribute: str) -> List[float]:
        """Extract one attribute across points (e.g. ``"total_cost"``)."""
        return [getattr(p, attribute) for p in self.points]


@dataclass(frozen=True)
class GridSweepResult:
    """A solved multi-axis sweep.

    ``axes`` lists the varied parameters in canonical ``(q, c, U, V,
    m)`` order with their value grids; ``points`` holds one
    :class:`SweepPoint` per Cartesian grid point, row-major in that
    same order (the last axis varies fastest).
    """

    model_name: str
    axes: Tuple[Tuple[str, Tuple[float, ...]], ...]
    points: Tuple[SweepPoint, ...]
    d_max: int
    convention: str
    #: True when the points were served from the on-disk cache.
    from_cache: bool = False

    @property
    def shape(self) -> Tuple[int, ...]:
        """Grid extent per axis, in axis order."""
        return tuple(len(values) for _, values in self.axes)

    def axis_values(self, param: str) -> Tuple[float, ...]:
        """The value grid of one varied parameter."""
        for name, values in self.axes:
            if name == param:
                return values
        raise ParameterError(
            f"parameter {param!r} is not varied in this sweep; "
            f"axes: {[name for name, _ in self.axes]}"
        )

    def series(self, attribute: str) -> List[float]:
        """Extract one attribute across points (e.g. ``"total_cost"``)."""
        return [getattr(p, attribute) for p in self.points]


def _coerce_axis_value(param: str, value) -> float:
    """Validate and normalize one axis value."""
    if param == "m":
        return validate_delay(value)
    value = float(value)
    if not math.isfinite(value):
        raise ParameterError(f"axis {param!r} values must be finite, got {value}")
    return value


def _canonical_axes(
    axes: Dict[str, Sequence[float]],
) -> Tuple[Tuple[str, Tuple[float, ...]], ...]:
    """Validate the axes mapping and order it canonically."""
    if not axes:
        raise ParameterError("grid_sweep needs at least one axis to vary")
    unknown = sorted(set(axes) - set(_GRID_PARAMS))
    if unknown:
        raise ParameterError(
            f"unknown sweep parameter(s) {unknown}; "
            f"expected a subset of {list(_GRID_PARAMS)}"
        )
    ordered = []
    for param in _GRID_PARAMS:
        if param not in axes:
            continue
        values = tuple(_coerce_axis_value(param, v) for v in axes[param])
        if not values:
            raise ParameterError(f"axis {param!r} has no values")
        ordered.append((param, values))
    return tuple(ordered)


def _solve_grid_point(
    index: int,
    model_name: str,
    q: float,
    c: float,
    update_cost: float,
    poll_cost: float,
    max_delay,
    d_max: int,
    convention: str,
    plan_factory: Optional[PlanFactory],
) -> Tuple[int, SweepPoint]:
    """Solve one grid point for its optimal threshold.

    Module-level so worker processes can pickle and run it; both the
    serial and the pooled path go through this exact function, which is
    what makes ``workers=N`` output identical to a serial sweep.

    Any failure is re-raised as a :class:`SweepPointError` carrying the
    point's parameters: under a process pool, ``future.result()`` would
    otherwise surface the bare original exception with no way to tell
    which of the grid's points (or whose ``plan_factory`` call) was
    responsible.
    """
    point_params = {
        "index": index, "model": model_name, "q": q, "c": c,
        "U": update_cost, "V": poll_cost, "m": max_delay,
    }
    try:
        model_cls = MODEL_CLASSES[model_name]
        model: MobilityModel = model_cls(
            MobilityParams(move_probability=q, call_probability=c)
        )
        costs = CostParams(update_cost=update_cost, poll_cost=poll_cost)
        solution = find_optimal_threshold(
            model,
            costs,
            max_delay,
            d_max=d_max,
            plan_factory=plan_factory,
            convention=convention,
        )
    except SweepPointError:
        raise
    except Exception as exc:
        raise SweepPointError(
            f"grid point {point_params} failed to solve: {exc!r}",
            point_params,
        ) from exc
    return index, SweepPoint(
        q=q,
        c=c,
        update_cost=update_cost,
        poll_cost=poll_cost,
        max_delay=max_delay if max_delay == math.inf else float(max_delay),
        optimal_d=solution.threshold,
        total_cost=solution.total_cost,
        update_component=solution.update_cost,
        paging_component=solution.paging_cost,
        expected_delay=solution.breakdown.expected_delay,
    )


# ----------------------------------------------------------------------
# On-disk result cache


def _grid_fingerprint(
    model_name: str,
    axes: Tuple[Tuple[str, Tuple[float, ...]], ...],
    fixed: Dict[str, float],
    d_max: int,
    convention: str,
) -> dict:
    """Everything that determines a grid sweep's output.

    ``workers`` is deliberately absent -- it never changes what a grid
    point computes.  The schema version is stored alongside (not used
    in the digest) so a format change on the *same* sweep is detected
    and refused rather than silently shadowed under a new file name.
    """
    return {
        "version": _CACHE_SCHEMA_VERSION,
        "model": model_name,
        "axes": [
            [param, [json_safe(v) for v in values]] for param, values in axes
        ],
        "fixed": {key: json_safe(value) for key, value in sorted(fixed.items())},
        "d_max": d_max,
        "convention": convention,
    }


def _cache_path(cache_dir: Path, fingerprint: dict) -> Path:
    """Content-addressed cache file for one sweep fingerprint."""
    addressed = {k: v for k, v in fingerprint.items() if k != "version"}
    digest = hashlib.sha256(
        json.dumps(addressed, sort_keys=True).encode("utf-8")
    ).hexdigest()
    return cache_dir / f"grid-{digest[:32]}.json"


def _load_cached_points(
    path: Path, fingerprint: dict, count: int
) -> Optional[Tuple[SweepPoint, ...]]:
    """The ``count`` cached points of this sweep; None if not cached."""
    remedy = "delete the file or rerun with the cache disabled (--no-cache)"
    payload = read_state(
        path, fingerprint, "sweep cache entry",
        "sweep (model/axes/fixed parameters/d_max/convention differ)", remedy,
    )
    if payload is None:
        return None
    try:
        points = tuple(
            SweepPoint(**dict(
                point,
                max_delay=json_restore(point["max_delay"]),
                optimal_d=int(point["optimal_d"]),
            ))
            for point in payload["points"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParameterError(
            f"sweep cache entry {path} holds a malformed point ({exc!r}); {remedy}"
        ) from exc
    if len(points) != count:
        raise ParameterError(
            f"sweep cache entry {path} holds {len(points)} points, but this "
            f"sweep has {count}; {remedy}"
        )
    return points


# ----------------------------------------------------------------------


def grid_sweep(
    model_name: str,
    axes: Dict[str, Sequence[float]],
    q: float = 0.05,
    c: float = 0.01,
    update_cost: float = 100.0,
    poll_cost: float = 10.0,
    max_delay=1,
    d_max: int = 100,
    convention: str = "paper",
    plan_factory: Optional[PlanFactory] = None,
    workers: Optional[Union[int, str]] = None,
    cache_dir: Optional[Union[str, Path]] = None,
) -> GridSweepResult:
    """Solve the optimal threshold over a Cartesian parameter grid.

    Parameters
    ----------
    model_name:
        One of :data:`MODEL_CLASSES` (``"1d"``, ``"2d-exact"``, ...).
    axes:
        Mapping from parameter name (any subset of ``q``, ``c``,
        ``U``, ``V``, ``m``) to its value grid.  The grid is the
        Cartesian product, enumerated row-major in canonical
        ``(q, c, U, V, m)`` order regardless of mapping order.
    q, c, update_cost, poll_cost, max_delay:
        Values for the parameters *not* varied.
    workers:
        ``None``, ``1``, or ``"serial"`` solve in-process; an int > 1
        dispatches grid points to that many worker processes.  Points
        are reassembled by index, so the result is identical for any
        worker count.
    cache_dir:
        Directory for the on-disk result cache; ``None`` (default)
        disables caching.  A repeated sweep with the same parameters
        is served from disk (``from_cache=True``).  Ignored when
        ``plan_factory`` is given -- callables have no stable
        fingerprint, so such sweeps are always recomputed.
    """
    if model_name not in MODEL_CLASSES:
        raise ParameterError(
            f"unknown model {model_name!r}; known: {sorted(MODEL_CLASSES)}"
        )
    canonical = _canonical_axes(axes)
    pool_size = _resolve_workers(workers)
    fixed = {
        "q": q,
        "c": c,
        "U": update_cost,
        "V": poll_cost,
        "m": validate_delay(max_delay),
    }

    # Row-major enumeration of the grid (last axis fastest).
    combos: List[Dict[str, float]] = [fixed]
    for param, values in canonical:
        combos = [dict(combo, **{param: v}) for combo in combos for v in values]

    obs = _observability()
    cache_file: Optional[Path] = None
    fingerprint: Optional[dict] = None
    if cache_dir is not None and plan_factory is None:
        fingerprint = _grid_fingerprint(model_name, canonical, fixed, d_max, convention)
        cache_file = _cache_path(Path(cache_dir), fingerprint)
        cached = _load_cached_points(cache_file, fingerprint, len(combos))
        if cached is not None:
            obs.registry.counter(
                "sweep_cache_hits_total", model=model_name
            ).inc()
            return GridSweepResult(
                model_name=model_name,
                axes=canonical,
                points=cached,
                d_max=d_max,
                convention=convention,
                from_cache=True,
            )
        obs.registry.counter(
            "sweep_cache_misses_total", model=model_name
        ).inc()

    solved: Dict[int, SweepPoint] = {}
    with obs.tracer.span(
        "analysis.grid_sweep",
        model=model_name,
        points=len(combos),
        workers=pool_size or 1,
        d_max=d_max,
    ):
        if pool_size is not None:
            try:
                pickle.dumps(plan_factory)
            except Exception as exc:
                raise ParameterError(
                    f"workers={workers!r} solves grid points in worker "
                    "processes, which requires a picklable plan_factory; pass "
                    "a module-level function rather than a lambda "
                    f"({exc})"
                ) from exc
        fan_out(
            _solve_grid_point,
            [
                (index, model_name, *(combo[k] for k in _GRID_PARAMS), d_max,
                 convention, plan_factory)
                for index, combo in enumerate(combos)
            ],
            pool_size, solved.__setitem__,
        )

    points = tuple(solved[i] for i in range(len(combos)))
    if cache_file is not None and fingerprint is not None:
        write_state(cache_file, fingerprint, points=[
            dict(asdict(p), max_delay=json_safe(p.max_delay)) for p in points
        ])
    return GridSweepResult(
        model_name=model_name,
        axes=canonical,
        points=points,
        d_max=d_max,
        convention=convention,
        from_cache=False,
    )


def sweep(
    model_name: str,
    varied: str,
    values: Sequence[float],
    q: float = 0.05,
    c: float = 0.01,
    update_cost: float = 100.0,
    poll_cost: float = 10.0,
    max_delay=1,
    d_max: int = 100,
    plan_factory: Optional[PlanFactory] = None,
) -> SweepResult:
    """Solve the optimal threshold along one varied parameter.

    A single-axis :func:`grid_sweep` with the original return type;
    kept as the stable API for the figure benches.

    Parameters
    ----------
    model_name:
        One of ``"1d"``, ``"2d-exact"``, ``"2d-approx"``.
    varied:
        Which parameter the ``values`` list replaces: ``"q"``, ``"c"``,
        ``"U"``, ``"V"``, or ``"m"``.
    values:
        The grid for the varied parameter.
    """
    if varied not in _GRID_PARAMS:
        raise ParameterError(f"varied must be one of q/c/U/V/m, got {varied!r}")
    grid = grid_sweep(
        model_name,
        {varied: values},
        q=q,
        c=c,
        update_cost=update_cost,
        poll_cost=poll_cost,
        max_delay=max_delay,
        d_max=d_max,
        plan_factory=plan_factory,
    )
    return SweepResult(
        model_name=model_name, varied=varied, points=list(grid.points)
    )
