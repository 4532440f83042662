"""Grid expansion and unified result frames for declarative studies.

The paper's entire evaluation is one recurring shape: cross a grid of knobs
(protocol, bandwidth, threshold, processor count, think time, workload, seed)
and compare the resulting curves.  This module provides the two halves of
that shape the scenario engine is built on:

* :class:`StudyGrid` expands a scenario's axis definitions into the full
  cross-product of :class:`~repro.experiments.parallel.PointSpec`\\ s and
  executes them through :func:`~repro.experiments.parallel.run_sweep` — so
  batching, on-disk caching and process-pool workers all come for free — and
* :class:`ResultFrame` collects the completed points into a tidy
  column-oriented table carrying both the grid coordinates and the per-point
  metrics, with derived-metric helpers (normalisation against a baseline
  protocol, aggregation, speedup columns) and a loss-free JSON round trip.

Axis names that match :class:`PointSpec` fields (``protocol``, ``bandwidth``,
``num_processors``, ``threshold``, ``broadcast_cost_factor``,
``cache_capacity_blocks``) map onto the spec directly; any other axis
(``think_time``, ``workload``, ...) is *virtual* — it reaches the scenario's
workload factory and, when it is the x-axis, the point's x coordinate, but
never the spec itself.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..common.config import ProtocolName
from ..errors import ReproError
from .parallel import PointSpec, run_sweep
from .runner import ExperimentScale, SweepPoint

#: PointSpec fields an axis (or fixed value) may feed directly.
SPEC_FIELDS = (
    "protocol",
    "bandwidth",
    "num_processors",
    "threshold",
    "broadcast_cost_factor",
    "cache_capacity_blocks",
)


class StudyError(ReproError):
    """A scenario or study grid was declared or driven incorrectly."""


def to_jsonable(obj):
    """Recursively convert figure/scenario output to plain JSON structures.

    ``SweepPoint``\\ s become their full serialised form (including per-seed
    ``RunResult``\\ s), enums become their string values, and mapping keys are
    stringified — the canonical form used by the CLI ``--json`` export and
    the frozen figure snapshots.
    """
    from .parallel import _point_to_json

    if isinstance(obj, SweepPoint):
        return _point_to_json(obj)
    if isinstance(obj, Enum):
        return str(obj)
    if isinstance(obj, Mapping):
        return {str(key): to_jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(value) for value in obj]
    if hasattr(obj, "to_json"):
        return obj.to_json()
    return obj


# ---------------------------------------------------------------------- axes


@dataclass(frozen=True)
class Axis:
    """One dimension of a study grid.

    ``values`` fixes the grid explicitly; ``scale_attr`` pulls the default
    from the :class:`ExperimentScale` being run (so QUICK and PAPER runs of
    the same scenario sweep their own grids), and a callable ``values``
    receives the scale.  Exactly one source must resolve.
    """

    name: str
    values: Optional[object] = None  # sequence, or callable(scale) -> sequence
    scale_attr: Optional[str] = None

    def resolve(self, scale: ExperimentScale, override=None) -> Tuple:
        """The axis grid for ``scale``, honouring an explicit override."""
        if override is not None:
            return tuple(override)
        if self.values is not None:
            values = self.values(scale) if callable(self.values) else self.values
            return tuple(values)
        if self.scale_attr is not None:
            return tuple(getattr(scale, self.scale_attr))
        raise StudyError(f"axis {self.name!r} has no values and no scale_attr")


def _resolve_fixed(value, scale: ExperimentScale, coords: Mapping) -> object:
    """Fixed values may be constants or callables of (scale, coords)."""
    return value(scale, coords) if callable(value) else value


def _coerce_protocol(value) -> ProtocolName:
    """Canonicalise a protocol axis/fixed value, failing with a clear error."""
    try:
        return ProtocolName(value)
    except ValueError:
        raise StudyError(
            f"invalid protocol {value!r}; choose from "
            f"{[str(p) for p in ProtocolName]}"
        ) from None


# ----------------------------------------------------------------- the grid


class StudyGrid:
    """The expanded cross-product of a scenario's axes at one scale.

    Expansion is row-major in axis order: the *last* axis varies fastest,
    matching the nested ``for`` loops of the hand-rolled figure drivers it
    replaces (so sweep results, cache keys and curve ordering are identical).
    """

    def __init__(
        self,
        scale: ExperimentScale,
        axes: Sequence[Axis],
        workload: Callable[[ExperimentScale, Mapping], object],
        x_axis: str = "bandwidth",
        fixed: Optional[Mapping[str, object]] = None,
        axis_overrides: Optional[Mapping[str, Iterable]] = None,
    ) -> None:
        self.scale = scale
        self.axes = tuple(axes)
        self.workload = workload
        self.x_axis = x_axis
        self.fixed = dict(fixed or {})
        overrides = dict(axis_overrides or {})
        self.axis_values: Dict[str, Tuple] = {}
        for axis in self.axes:
            values = axis.resolve(scale, overrides.pop(axis.name, None))
            if axis.name == "protocol":
                # Canonicalise so CLI string overrides and ProtocolName
                # values produce identical frames (and cache keys).
                values = tuple(_coerce_protocol(value) for value in values)
            self.axis_values[axis.name] = values
        if overrides:
            raise StudyError(
                f"unknown axis override(s) {sorted(overrides)}; "
                f"this grid's axes are {list(self.axis_values)}"
            )
        collisions = sorted(set(self.fixed) & set(self.axis_values))
        if collisions:
            # Axis coordinates always win over fixed values, so a colliding
            # fixed entry would be silently dead — the caller meant to
            # override the axis grid instead.
            raise StudyError(
                f"fixed value(s) {collisions} collide with axes of the same "
                f"name; narrow the grid with an axis override instead "
                f"(axes={{{collisions[0]!r}: (...,)}})"
            )
        axis_names = set(self.axis_values)
        if x_axis not in axis_names and x_axis not in self.fixed and x_axis != "bandwidth":
            raise StudyError(
                f"x_axis {x_axis!r} is neither an axis nor a fixed value"
            )

    @property
    def axis_names(self) -> Tuple[str, ...]:
        return tuple(self.axis_values)

    def __len__(self) -> int:
        total = 1
        for values in self.axis_values.values():
            total *= len(values)
        return total

    def coords(self) -> List[Dict[str, object]]:
        """Every grid point as an {axis: value} mapping, row-major."""
        points: List[Dict[str, object]] = [{}]
        for name, values in self.axis_values.items():
            points = [
                {**point, name: value} for point in points for value in values
            ]
        return points

    def build_spec(self, coords: Mapping[str, object]) -> PointSpec:
        """Assemble the :class:`PointSpec` for one grid point."""
        merged = {
            name: _resolve_fixed(value, self.scale, coords)
            for name, value in self.fixed.items()
        }
        merged.update(coords)
        if "protocol" not in merged:
            raise StudyError(
                "a grid needs a 'protocol' axis or fixed value to build specs"
            )
        scale = self.scale
        if "seed" in merged:
            # A seed axis pins each point to one seed (instead of averaging
            # over scale.seeds), enabling per-seed frames and aggregation.
            scale = dataclasses.replace(scale, seeds=(merged["seed"],))
        spec_kwargs = {
            name: merged[name] for name in SPEC_FIELDS if name in merged
        }
        spec_kwargs["protocol"] = _coerce_protocol(spec_kwargs["protocol"])
        spec_kwargs.setdefault("bandwidth", 1600.0)
        # Canonicalise numeric field types: a CLI override like
        # `--axis bandwidth=1600` parses as int while the scales carry
        # floats, and the on-disk cache key serialises 1600 and 1600.0
        # differently — identical points must share one key.
        for name in ("bandwidth", "threshold", "broadcast_cost_factor"):
            if name in spec_kwargs:
                spec_kwargs[name] = float(spec_kwargs[name])
        for name in ("num_processors", "cache_capacity_blocks"):
            value = spec_kwargs.get(name)
            if value is not None:
                if int(value) != value:
                    raise StudyError(
                        f"{name} must be a whole number, got {value!r}"
                    )
                spec_kwargs[name] = int(value)
        if self.x_axis != "bandwidth":
            spec_kwargs["x_value"] = merged[self.x_axis]
        return PointSpec(
            scale=scale,
            workload=self.workload(scale, merged),
            **spec_kwargs,
        )

    def specs(self) -> List[PointSpec]:
        """The full cross-product as executable sweep points."""
        return [self.build_spec(coords) for coords in self.coords()]

    def run(
        self,
        workers: Optional[int] = None,
        cache_dir=None,
        service=None,
    ) -> "ResultFrame":
        """Execute the grid through the batched sweep executor.

        ``service`` (a store directory, JobStore, or ServiceConfig) routes
        the sweep through the fault-tolerant campaign service — durable
        leased work units with retry, resume, and straggler re-dispatch —
        instead of the in-process pool; results are identical either way.
        """
        coords = self.coords()
        specs = [self.build_spec(point) for point in coords]
        points = run_sweep(
            specs,
            workers=workers,
            cache_dir=cache_dir,
            service=service,
        )
        return ResultFrame.from_grid(
            self.axis_names, coords, points, domains=self.axis_values
        )


# -------------------------------------------------------------- result frame


class ResultFrame:
    """Tidy column-oriented table of completed sweep points.

    Every row is one grid point; the columns are the grid coordinates, the
    standard :class:`SweepPoint` metrics, and any derived columns added by
    :meth:`with_column` / :meth:`normalized`.  The underlying
    :class:`SweepPoint` objects (with their per-seed ``RunResult``\\ s) ride
    along so legacy curve consumers lose nothing.
    """

    #: Metric columns extracted from every SweepPoint.
    METRICS = (
        "x",
        "performance",
        "performance_per_processor",
        "mean_miss_latency",
        "link_utilization",
        "broadcast_fraction",
        "retries",
    )

    def __init__(
        self,
        axis_names: Sequence[str],
        columns: Mapping[str, Sequence],
        points: Optional[Sequence[SweepPoint]] = None,
        domains: Optional[Mapping[str, Sequence]] = None,
    ) -> None:
        self.axis_names = tuple(axis_names)
        self.columns: Dict[str, List] = {
            name: list(values) for name, values in columns.items()
        }
        self.points: List[SweepPoint] = list(points or [])
        #: The full axis domains of the grid that produced this frame (kept
        #: through filtering), so an *empty* frame still knows its intended
        #: curve keys — e.g. a zero-point sweep yields {protocol: []} curves
        #: like the legacy drivers did, not {}.
        self.domains: Dict[str, List] = {
            name: list(values) for name, values in (domains or {}).items()
        }
        if self.points:
            for metric in self.METRICS:
                self.columns.setdefault(
                    metric, [getattr(point, metric) for point in self.points]
                )
            self.columns.setdefault(
                "num_seeds", [len(point.results) for point in self.points]
            )
        lengths = {len(values) for values in self.columns.values()}
        if len(lengths) > 1:
            raise StudyError(f"ragged result frame: column lengths {sorted(lengths)}")
        if self.points and len(self.points) != len(self):
            raise StudyError(
                f"{len(self.points)} points do not match {len(self)} rows"
            )

    @classmethod
    def from_grid(
        cls,
        axis_names: Sequence[str],
        coords: Sequence[Mapping[str, object]],
        points: Sequence[SweepPoint],
        domains: Optional[Mapping[str, Sequence]] = None,
    ) -> "ResultFrame":
        columns = {
            name: [point[name] for point in coords] for name in axis_names
        }
        return cls(axis_names, columns, points, domains=domains)

    # ----------------------------------------------------------- inspection

    def __len__(self) -> int:
        if not self.columns:
            return 0
        return len(next(iter(self.columns.values())))

    def column(self, name: str) -> List:
        if name not in self.columns:
            raise KeyError(
                f"no column {name!r}; available: {sorted(self.columns)}"
            )
        return self.columns[name]

    def unique(self, name: str) -> List:
        """Distinct values of a column, in first-appearance order."""
        seen: Dict[object, None] = {}
        for value in self.column(name):
            seen.setdefault(value, None)
        return list(seen)

    def rows(self) -> List[Dict[str, object]]:
        names = list(self.columns)
        return [
            {name: self.columns[name][index] for name in names}
            for index in range(len(self))
        ]

    # ------------------------------------------------------------ reshaping

    def _take(self, indices: Sequence[int]) -> "ResultFrame":
        columns = {
            name: [values[i] for i in indices]
            for name, values in self.columns.items()
        }
        points = [self.points[i] for i in indices] if self.points else []
        return ResultFrame(self.axis_names, columns, points, domains=self.domains)

    def filter(self, **equals) -> "ResultFrame":
        """Rows whose columns equal every given value."""
        for name in equals:
            self.column(name)  # raise early on unknown columns
        indices = [
            index
            for index in range(len(self))
            if all(self.columns[name][index] == value for name, value in equals.items())
        ]
        return self._take(indices)

    def with_column(self, name: str, values) -> "ResultFrame":
        """A copy with one extra column (a list, or a callable of the row)."""
        if callable(values):
            values = [values(row) for row in self.rows()]
        values = list(values)
        if len(values) != len(self):
            raise StudyError(
                f"column {name!r} has {len(values)} values for {len(self)} rows"
            )
        columns = dict(self.columns)
        columns[name] = values
        return ResultFrame(self.axis_names, columns, self.points, domains=self.domains)

    def normalized(
        self,
        value: str = "performance",
        baseline: Optional[Mapping[str, object]] = None,
        name: Optional[str] = None,
    ) -> "ResultFrame":
        """Add a column normalising ``value`` against a baseline slice.

        ``baseline`` picks the reference rows (default: the BASH protocol);
        every row is matched to the baseline row agreeing on all *other*
        axis columns.  Rows with no baseline counterpart, or a zero baseline
        value, normalise to 0.0 — mirroring ``runner.normalize_to`` — but a
        baseline slice that matches nothing at all raises ``KeyError``.
        """
        baseline = dict(baseline or {"protocol": ProtocolName.BASH})
        match_columns = [c for c in self.axis_names if c not in baseline]
        reference: Dict[Tuple, float] = {}
        found = False
        for index in range(len(self)):
            if all(self.columns[c][index] == v for c, v in baseline.items()):
                found = True
                key = tuple(self.columns[c][index] for c in match_columns)
                reference[key] = self.column(value)[index]
        if not found:
            raise KeyError(
                f"baseline {baseline} matches no rows of this frame"
            )
        if name is None:
            tag = "_".join(str(v) for v in baseline.values())
            name = f"{value}_vs_{tag}"
        values = self.column(value)
        normalised = []
        for index in range(len(self)):
            key = tuple(self.columns[c][index] for c in match_columns)
            base = reference.get(key, 0.0)
            normalised.append(values[index] / base if base else 0.0)
        return self.with_column(name, normalised)

    def speedup(
        self, baseline: Optional[Mapping[str, object]] = None
    ) -> "ResultFrame":
        """Shorthand: a ``speedup`` column of performance vs a baseline."""
        return self.normalized("performance", baseline=baseline, name="speedup")

    def aggregate(
        self, by: Sequence[str], metrics: Optional[Sequence[str]] = None
    ) -> "ResultFrame":
        """Mean-aggregate numeric columns over groups of ``by`` columns.

        The usual use is collapsing a ``seed`` axis: ``aggregate(by=[c for c
        in frame.axis_names if c != "seed"])``.  The result carries a
        ``rows`` count column and no per-point payloads.
        """
        by = list(by)
        for name in by:
            self.column(name)
        if metrics is None:
            metrics = [
                name
                for name, values in self.columns.items()
                if name not in by
                and values
                and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values)
            ]
        groups: Dict[Tuple, List[int]] = {}
        for index in range(len(self)):
            key = tuple(self.columns[name][index] for name in by)
            groups.setdefault(key, []).append(index)
        columns: Dict[str, List] = {name: [] for name in by}
        for metric in metrics:
            columns[metric] = []
        columns["rows"] = []
        for key, indices in groups.items():
            for name, part in zip(by, key):
                columns[name].append(part)
            for metric in metrics:
                values = [self.columns[metric][i] for i in indices]
                columns[metric].append(sum(values) / len(values))
            columns["rows"].append(len(indices))
        axis_names = tuple(name for name in self.axis_names if name in by)
        return ResultFrame(axis_names, columns, domains=self.domains)

    # --------------------------------------------------------------- curves

    def curves(
        self, by: str = "protocol", order: Optional[Sequence] = None
    ) -> Dict[object, List[SweepPoint]]:
        """Group the underlying points into per-``by``-value curve lists.

        This is the bridge to the legacy figure-driver output shape
        (``Dict[ProtocolName, List[SweepPoint]]``); row order within each
        curve is preserved, so the x grid follows the sweep's axis order.
        """
        if not self.points:
            if len(self):
                raise StudyError(
                    "this frame carries no SweepPoints (aggregated frames "
                    "cannot be regrouped into curves)"
                )
            # A zero-point sweep (empty axis): keyed empty curves, matching
            # the legacy drivers' output shape.
            keys = list(order) if order is not None else list(self.domains.get(by, []))
            return {key: [] for key in keys}
        keys = list(order) if order is not None else self.unique(by)
        curves: Dict[object, List[SweepPoint]] = {key: [] for key in keys}
        for value, point in zip(self.column(by), self.points):
            if value in curves:
                curves[value].append(point)
        return curves

    # ----------------------------------------------------------------- JSON

    def to_json(self) -> Dict:
        """Loss-free JSON form (coordinates, derived columns and points)."""
        from .parallel import _point_to_json

        return {
            "axes": list(self.axis_names),
            "columns": {
                name: [to_jsonable(value) for value in values]
                for name, values in self.columns.items()
            },
            "domains": {
                name: [to_jsonable(value) for value in values]
                for name, values in self.domains.items()
            },
            "points": [_point_to_json(point) for point in self.points],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "ResultFrame":
        from .parallel import _point_from_json

        columns = {name: list(values) for name, values in data["columns"].items()}
        if "protocol" in columns:
            columns["protocol"] = [ProtocolName(v) for v in columns["protocol"]]
        domains = {
            name: list(values) for name, values in data.get("domains", {}).items()
        }
        if "protocol" in domains:
            domains["protocol"] = [ProtocolName(v) for v in domains["protocol"]]
        points = [_point_from_json(point) for point in data.get("points", [])]
        return cls(tuple(data["axes"]), columns, points, domains=domains)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResultFrame(rows={len(self)}, axes={list(self.axis_names)}, "
            f"columns={list(self.columns)})"
        )
