"""Experiment framework: uniform result type and registry.

Each experiment module exposes ``run(dataset, **params) ->
ExperimentResult``; the registry maps experiment IDs (``e01`` ...
``e16``) to those functions so the CLI and the benchmark harness can
drive them generically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.table import Table

__all__ = [
    "ExperimentResult",
    "register",
    "get_experiment",
    "experiment_entry",
    "all_experiments",
    "missing_sources",
    "SynthesisInput",
]


@dataclass(frozen=True)
class ExperimentResult:
    """Output of one experiment run.

    ``tables`` holds the data series a figure would plot (or a table's
    rows); ``metrics`` holds headline scalars; ``notes`` carries the
    comparison against the paper's claim.
    """

    experiment_id: str
    title: str
    tables: Mapping[str, Table]
    metrics: Mapping[str, float]
    notes: str = ""
    #: True when a required data source was missing/empty and the
    #: experiment returned an explanatory stub instead of running.
    degraded: bool = False

    def to_text(self, max_rows: int = 25) -> str:
        """Render the result for terminal output."""
        marker = " [DEGRADED]" if self.degraded else ""
        lines = [f"== {self.experiment_id.upper()}: {self.title} =={marker}"]
        if self.notes:
            lines.append(self.notes)
        if self.metrics:
            lines.append("-- metrics --")
            for key, value in self.metrics.items():
                if isinstance(value, float):
                    lines.append(f"  {key}: {value:.6g}")
                else:
                    lines.append(f"  {key}: {value}")
        for name, table in self.tables.items():
            lines.append(f"-- {name} ({table.n_rows} rows) --")
            lines.append(table.to_text(max_rows=max_rows))
        return "\n".join(lines)


#: A synthesis an experiment reads: ``(backend, n_days, seed)``.
SynthesisInput = tuple[str, float, int]
#: ``inputs(dataset)``: the syntheses an experiment's run function makes.
InputsFunction = Callable[..., Sequence[SynthesisInput]]

_REGISTRY: dict[
    str, tuple[str, Callable, tuple[str, ...], InputsFunction | None]
] = {}


def register(
    experiment_id: str,
    title: str,
    requires: tuple[str, ...] = (),
    inputs: InputsFunction | None = None,
):
    """Decorator registering an experiment ``run`` function.

    ``requires`` names the dataset sources (``"ras"``, ``"tasks"``,
    ``"io"``) the experiment cannot run without; when one is empty the
    runner returns a degraded stub result instead of calling ``func``.
    The job log is implicit — every experiment needs it.

    ``inputs(dataset)`` lists the ``(backend, n_days, seed)`` syntheses
    ``func`` makes with :meth:`~repro.dataset.MiraDataset.synthesize`.
    A parallel suite synthesizes them ahead of the experiment on idle
    workers, so ``func`` finds them in the cache; the cache is the only
    hand-off, so a missing input costs time, never correctness.
    """

    def decorator(func: Callable):
        if experiment_id in _REGISTRY:
            raise ValueError(f"duplicate experiment id {experiment_id}")
        _REGISTRY[experiment_id] = (title, func, tuple(requires), inputs)
        return func

    return decorator


def experiment_entry(
    experiment_id: str,
) -> tuple[str, Callable, tuple[str, ...], InputsFunction | None]:
    """Look up an experiment's (title, run function, required sources,
    inputs function)."""
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(_REGISTRY)}"
        ) from None


def missing_sources(dataset, requires: tuple[str, ...]) -> list[str]:
    """The ``requires`` sources ``dataset`` lacks or holds empty."""
    return [
        source
        for source in requires
        if getattr(dataset, source, None) is None
        or getattr(dataset, source).n_rows == 0
    ]


def get_experiment(experiment_id: str) -> Callable:
    """Look up an experiment's run function by ID."""
    return experiment_entry(experiment_id)[1]


def all_experiments() -> dict[str, str]:
    """Mapping of experiment ID to title."""
    return {eid: entry[0] for eid, entry in sorted(_REGISTRY.items())}
