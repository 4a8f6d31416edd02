"""The joint four-log Mira dataset.

:class:`MiraDataset` bundles the four data sources the paper joins —
RAS log, job-scheduling log, task log, I/O log — plus the synthesis
ground truth (the incident list), and handles synthesis, persistence,
and summary statistics.  Every analysis and experiment in the toolkit
takes a ``MiraDataset`` as input, so a real exported Mira trace can be
loaded from CSVs in place of a synthetic one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.bgq.machine import MIRA, MachineSpec
from repro.darshan import (
    IO_SCHEMA,
    DarshanGenerator,
    DarshanParams,
    io_to_table,
    validate_io_table,
)
from repro.errors import (
    BackendError,
    DatasetError,
    ParseError,
    QuarantineOverflowError,
)
from repro.ingest import ParseReport
from repro.obs.trace import add as trace_add
from repro.obs.trace import span as trace_span
from repro.ras import (
    RAS_SCHEMA,
    Incident,
    RasGenerator,
    RasGeneratorParams,
    default_catalog,
    validate_ras_table,
)
from repro.scheduler import (
    JOB_SCHEMA,
    CobaltScheduler,
    SchedulerParams,
    WorkloadModel,
    WorkloadParams,
    jobs_to_table,
    validate_job_table,
)
from repro.table import Table, read_csv, read_jsonl, write_csv, write_jsonl
from repro.tasks import (
    TASK_SCHEMA,
    TaskLogGenerator,
    TaskLogParams,
    tasks_to_table,
    validate_task_table,
)

from . import cache as _cache

__all__ = ["MiraDataset"]

_LOG_FILES = {
    "ras": "ras.csv",
    "jobs": "jobs.csv",
    "tasks": "tasks.csv",
    "io": "io.csv",
}

_LOG_SCHEMAS = {
    "ras": RAS_SCHEMA,
    "jobs": JOB_SCHEMA,
    "tasks": TASK_SCHEMA,
    "io": IO_SCHEMA,
}

SECONDS_PER_DAY = 86_400.0


def _fleet_spec(spec: MachineSpec, k: int) -> MachineSpec:
    """``k`` identical systems modeled as one row-wise widened machine.

    Replication extends the rack grid row-wise so every location keeps
    the standard three-character rack name; BG/Q hex naming caps the
    grid at 16 rows, which bounds the factor (5× for Mira's 3 rows).
    """
    rows = spec.rack_rows * k
    if rows > 16:
        raise ValueError(
            f"scale={k} needs {rows} rack rows; BG/Q rack naming allows "
            f"at most 16 (max scale for {spec.name}: {16 // spec.rack_rows})"
        )
    return replace(spec, name=f"{spec.name}x{k}", rack_rows=rows)


_SPEC_META_FIELDS = (
    "spec_name",
    "rack_rows",
    "rack_columns",
    "midplanes_per_rack",
    "node_boards_per_midplane",
    "nodes_per_node_board",
    "cores_per_node",
)


def _spec_from_meta(meta: dict) -> MachineSpec:
    """Rebuild the machine spec from a ``meta.jsonl`` record.

    Raises
    ------
    DatasetError
        When the record lacks machine-spec fields.  Guessing a geometry
        here would silently run every location/attribution kernel
        against the wrong machine — callers that *want* a fallback must
        opt in explicitly (``assume_mira``).
    """
    missing = [f for f in _SPEC_META_FIELDS if f not in meta]
    if missing:
        raise DatasetError(
            f"meta.jsonl lacks machine-spec fields {missing}; re-export "
            "the dataset, or load leniently with assume_mira=True "
            "(--assume-mira) to force Mira geometry"
        )
    return MachineSpec(
        name=meta["spec_name"],
        rack_rows=meta["rack_rows"],
        rack_columns=meta["rack_columns"],
        midplanes_per_rack=meta["midplanes_per_rack"],
        node_boards_per_midplane=meta["node_boards_per_midplane"],
        nodes_per_node_board=meta["nodes_per_node_board"],
        cores_per_node=meta["cores_per_node"],
    )


def _read_incidents(directory: Path) -> list[Incident]:
    """Read the synthesis ground truth, absent for real traces."""
    path = directory / "incidents.jsonl"
    if not path.exists():
        return []
    return [
        Incident(
            incident_id=row["incident_id"],
            timestamp=row["timestamp"],
            msg_id=row["msg_id"],
            midplane_index=row["midplane_index"],
            n_events=row["n_events"],
            had_precursor=row.get("had_precursor", False),
        )
        for row in read_jsonl(path)
    ]


@dataclass
class MiraDataset:
    """The four logs plus synthesis metadata."""

    spec: MachineSpec
    n_days: float
    seed: int
    ras: Table
    jobs: Table
    tasks: Table
    io: Table
    incidents: list[Incident] = field(default_factory=list)
    #: Lenient-load quarantine/degradation record; ``None`` after a
    #: strict load or synthesis.
    ingestion: ParseReport | None = None
    #: Trace backend this dataset came from (see :mod:`repro.adapters`);
    #: drives schema/catalog validation and cross-system experiments.
    backend: str = "mira"

    # ------------------------------------------------------------------
    # synthesis
    # ------------------------------------------------------------------

    @classmethod
    def synthesize(
        cls,
        n_days: float,
        seed: int = 0,
        spec: MachineSpec = MIRA,
        workload_params: WorkloadParams | None = None,
        ras_params: RasGeneratorParams | None = None,
        scheduler_params: SchedulerParams | None = None,
        task_params: TaskLogParams | None = None,
        darshan_params: DarshanParams | None = None,
        cache: bool = True,
        refresh_cache: bool = False,
        mode: str = "ram",
        scale: float = 1.0,
        backend: str = "mira",
    ) -> "MiraDataset":
        """Generate a complete, internally consistent synthetic dataset.

        Pipeline: RAS stream (with ground-truth incidents) → workload
        intents → scheduler simulation (incidents kill overlapping
        jobs) → task log → I/O log → RAS block annotation via the
        event→job join.

        Parameter-free syntheses (all ``*_params`` left ``None``) are
        served from and stored to the columnar cache under
        ``$REPRO_CACHE_DIR`` (see :mod:`repro.dataset.cache`), keyed by
        ``(spec, n_days, seed)`` and the toolkit version.  ``cache=False``
        bypasses it; ``refresh_cache=True`` regenerates and overwrites.

        ``scale`` models a fleet of ``scale`` identical systems sharing
        one trace: the rack grid is replicated row-wise, and workload
        arrival, scheduler capacity, and incident rates all grow with
        it (combined with a multi-year ``n_days``, row counts reach the
        ~10⁷ range).  ``scale=1`` is the exact pre-knob pipeline, bit
        for bit — the default RNG streams are untouched.  Explicit
        ``workload_params`` are used as given, not auto-rescaled.

        ``backend`` selects the trace backend (:mod:`repro.adapters`):
        a non-``mira`` backend supplies its own machine spec, RAS
        catalog, and calibrated generator parameters — ``spec`` and
        ``scale`` cannot be combined with it, while explicit ``*_params``
        still win over the backend calibration (and disable caching, as
        always).  ``backend="mira"`` is the exact historical pipeline,
        bit for bit.

        ``mode="mmap"`` additionally materializes the cached bundle as
        a page-aligned columnar arena (:mod:`repro.table.arena`) and
        returns tables backed by read-only memory maps: loading is
        O(1) RAM until columns are touched, and worker processes
        attach the same mapping instead of receiving a pickled copy.
        It requires a cacheable synthesis (``cache=True`` and no custom
        ``*_params``), since the arena lives in the cache directory.
        """
        if mode not in ("ram", "mmap"):
            raise ValueError(f"mode must be 'ram' or 'mmap', got {mode!r}")
        if scale != int(scale) or scale < 1:
            raise ValueError(
                "scale must be a positive integer (fleet replication "
                f"factor), got {scale!r}"
            )
        backend_obj = None
        if backend != "mira":
            from repro.adapters import get_backend

            backend_obj = get_backend(backend)  # raises BackendError
            if spec is not MIRA:
                raise ValueError(
                    f"backend {backend!r} supplies its own machine spec; "
                    "pass spec only with backend='mira'"
                )
            if scale != 1.0:
                raise ValueError(
                    "the scale (fleet replication) knob supports only "
                    f"the mira backend, got backend={backend!r}"
                )
            spec = backend_obj.spec
        with trace_span("dataset.synthesize", n_days=n_days, seed=seed):
            # Cacheability is decided *before* the scale knob rewrites
            # workload_params: a scaled parameter-free synthesis is still
            # parameter-free as far as the fingerprint is concerned
            # (scale is hashed separately by fingerprint_synthesis).
            cacheable = cache and all(
                p is None
                for p in (
                    workload_params,
                    ras_params,
                    scheduler_params,
                    task_params,
                    darshan_params,
                )
            )
            if mode == "mmap" and not cacheable:
                raise ValueError(
                    "mode='mmap' requires a cacheable synthesis "
                    "(cache=True and no custom *_params): the arena is "
                    "materialized in the synthesis cache directory"
                )
            cache_path = arena_path = None
            if cacheable:
                fingerprint = _cache.fingerprint_synthesis(
                    spec, n_days, seed, scale, backend
                )
                cache_path = _cache.synthesis_cache_path(fingerprint)
                if mode == "mmap":
                    arena_path = _cache.synthesis_arena_path(fingerprint)
                if refresh_cache:
                    trace_add("cache.refresh")
                else:
                    if arena_path is not None:
                        bundle = _cache.load_arena(arena_path, fingerprint)
                        if bundle is not None:
                            return cls._from_bundle(*bundle)
                    bundle = _cache.load_cached_bundle(cache_path)
                    if bundle is not None:
                        if arena_path is not None:
                            return cls._via_arena(
                                arena_path, fingerprint, *bundle
                            )
                        return cls._from_bundle(*bundle)
            if scale != 1.0:
                k = int(scale)
                spec = _fleet_spec(spec, k)
                # The workload model auto-rescales to the widened spec
                # (WorkloadParams.scaled_to); RAS rates and the backfill
                # window are per-machine constants, so a fleet of k
                # systems needs them multiplied explicitly.  Derived
                # params stay out of the fingerprint: (spec, n_days,
                # seed, scale) determines them completely.
                if ras_params is None:
                    base_ras = RasGeneratorParams()
                    ras_params = replace(
                        base_ras,
                        info_rate_per_day=base_ras.info_rate_per_day * k,
                        warn_rate_per_day=base_ras.warn_rate_per_day * k,
                        incident_rate_per_day=base_ras.incident_rate_per_day * k,
                    )
                if scheduler_params is None:
                    base_sched = SchedulerParams()
                    scheduler_params = replace(
                        base_sched,
                        backfill_depth=base_sched.backfill_depth * k,
                    )
            catalog = None
            if backend_obj is not None:
                # Backend calibration fills whatever the caller left to
                # defaults; explicit *_params still win (and are already
                # uncacheable, so the fingerprint stays backend-pure).
                if workload_params is None:
                    workload_params = backend_obj.workload_params()
                if ras_params is None:
                    ras_params = backend_obj.ras_params()
                catalog = backend_obj.catalog()
            with trace_span("synth.ras"):
                ras_table, incidents = RasGenerator(
                    spec=spec, catalog=catalog, params=ras_params, seed=seed
                ).generate(n_days)
            with trace_span("synth.workload"):
                intents = WorkloadModel(
                    spec=spec, params=workload_params, seed=seed + 1
                ).generate(n_days)
            with trace_span("synth.scheduler"):
                result = CobaltScheduler(spec=spec, params=scheduler_params).run(
                    intents, incidents, horizon_days=n_days
                )
                jobs_table = jobs_to_table(result.jobs)
            with trace_span("synth.tasks"):
                task_records = TaskLogGenerator(
                    params=task_params, seed=seed + 2
                ).generate(result.jobs)
                tasks_table = tasks_to_table(task_records)
            with trace_span("synth.io"):
                io_records = DarshanGenerator(
                    params=darshan_params, seed=seed + 3
                ).generate(result.jobs)
                io_table = io_to_table(io_records)
            with trace_span("synth.annotate"):
                ras_table = cls._annotate_blocks(ras_table, jobs_table, spec)
            dataset = cls(
                spec=spec,
                n_days=n_days,
                seed=seed,
                ras=ras_table,
                jobs=jobs_table,
                tasks=tasks_table,
                io=io_table,
                incidents=incidents,
                backend=backend,
            )
            if cache_path is not None:
                _cache.store_bundle(
                    cache_path, dataset._tables(), dataset._bundle_meta()
                )
                if arena_path is not None:
                    return cls._via_arena(
                        arena_path,
                        fingerprint,
                        dataset._tables(),
                        dataset._bundle_meta(),
                    )
            return dataset

    @staticmethod
    def _annotate_blocks(ras: Table, jobs: Table, spec: MachineSpec) -> Table:
        """Fill the RAS ``block`` column from the event→job join."""
        from repro.core.attribution import NO_JOB, map_events_to_jobs

        if jobs.n_rows == 0:
            return ras
        mapped = map_events_to_jobs(ras, jobs, spec)
        block_of_job = dict(zip(jobs["job_id"].tolist(), jobs["block"].tolist()))
        blocks = np.array(
            ["" if j == NO_JOB else block_of_job[int(j)] for j in mapped],
            dtype=object,
        )
        return ras.with_column("block", blocks)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def _tables(self) -> dict[str, Table]:
        """The four log tables keyed by attribute name."""
        return {attr: getattr(self, attr) for attr in _LOG_FILES}

    def _meta_record(self) -> dict:
        """The ``meta.jsonl`` record: spec fields plus span and seed."""
        return {
            "spec_name": self.spec.name,
            "rack_rows": self.spec.rack_rows,
            "rack_columns": self.spec.rack_columns,
            "midplanes_per_rack": self.spec.midplanes_per_rack,
            "node_boards_per_midplane": self.spec.node_boards_per_midplane,
            "nodes_per_node_board": self.spec.nodes_per_node_board,
            "cores_per_node": self.spec.cores_per_node,
            "n_days": self.n_days,
            "seed": self.seed,
            "backend": self.backend,
        }

    def _incident_rows(self) -> list[dict]:
        return [
            {
                "incident_id": i.incident_id,
                "timestamp": i.timestamp,
                "msg_id": i.msg_id,
                "midplane_index": i.midplane_index,
                "n_events": i.n_events,
                "had_precursor": i.had_precursor,
            }
            for i in self.incidents
        ]

    def _bundle_meta(self) -> dict:
        """Metadata stored alongside the tables in a cache bundle."""
        meta = self._meta_record()
        meta["incidents"] = self._incident_rows()
        return meta

    @classmethod
    def _via_arena(
        cls,
        arena_path: Path,
        fingerprint: str,
        tables: dict[str, Table],
        meta: dict,
        *,
        lenient: bool = False,
        prune: bool = False,
    ) -> "MiraDataset":
        """Materialize ``tables`` as an arena and return the attached view.

        Best-effort, like every cache write: when the filesystem refuses
        the arena (or a concurrent writer races us and leaves something
        unattachable), the in-RAM tables are returned unchanged instead
        of failing the load.
        """
        stored = _cache.store_arena(
            arena_path, tables, meta, fingerprint, prune_siblings=prune
        )
        if stored:
            bundle = _cache.load_arena(arena_path, fingerprint)
            if bundle is not None:
                return cls._from_bundle(*bundle, lenient=lenient)
        return cls._from_bundle(tables, meta, lenient=lenient)

    @classmethod
    def _from_bundle(
        cls, tables: dict[str, Table], meta: dict, *, lenient: bool = False
    ) -> "MiraDataset":
        """Rebuild a dataset from a cache bundle (no parsing, no checks —
        bundles are only ever written after a fully validated load)."""
        incidents = [
            Incident(
                incident_id=row["incident_id"],
                timestamp=row["timestamp"],
                msg_id=row["msg_id"],
                midplane_index=row["midplane_index"],
                n_events=row["n_events"],
                had_precursor=row.get("had_precursor", False),
            )
            for row in meta.get("incidents", [])
        ]
        return cls(
            spec=_spec_from_meta(meta),
            n_days=float(meta["n_days"]),
            seed=int(meta["seed"]),
            backend=str(meta.get("backend", "mira")),
            incidents=incidents,
            # Lenient loads always carry a report; a cache hit means the
            # sources were clean, so the report is empty.
            ingestion=ParseReport() if lenient else None,
            **{attr: tables[attr] for attr in _LOG_FILES},
        )

    def save(self, directory: str | Path) -> None:
        """Write the dataset as CSVs plus a JSONL metadata file."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for attr, filename in _LOG_FILES.items():
            write_csv(getattr(self, attr), directory / filename)
        write_jsonl([self._meta_record()], directory / "meta.jsonl")
        write_jsonl(self._incident_rows(), directory / "incidents.jsonl")

    @classmethod
    def load(
        cls,
        directory: str | Path,
        *,
        lenient: bool = False,
        max_bad_rows: int | None = None,
        assume_mira: bool = False,
        cache: bool = True,
        refresh_cache: bool = False,
        mode: str = "ram",
    ) -> "MiraDataset":
        """Load a dataset previously written by :meth:`save`.

        Strict mode (default) raises on the first problem.  Lenient mode
        quarantines bad rows, substitutes empty tables for missing or
        unsalvageable sources, and records everything it dropped in the
        returned dataset's ``ingestion`` report; ``max_bad_rows`` bounds
        the total quarantine size (exceeding it raises
        :class:`~repro.errors.QuarantineOverflowError`).

        A missing or unreadable ``meta.jsonl`` is *never* silently
        papered over, even leniently: the machine spec drives every
        location and attribution kernel, so guessing it wrong corrupts
        results instead of degrading them.  ``assume_mira=True``
        (``--assume-mira``) is the explicit opt-in that restores the old
        assume-Mira behavior for lenient loads, recorded as a
        degradation in the ingestion report.

        Loads are served from a columnar ``.npz`` cache under
        ``<directory>/.repro-cache`` when the source files' content
        fingerprint matches a stored entry (see
        :mod:`repro.dataset.cache`); any edit to any source file misses.
        Entries are only ever written after a fully clean load — a
        lenient load that quarantined rows or degraded a source is never
        cached.  ``cache=False`` bypasses the cache; ``refresh_cache=True``
        reloads from the CSVs and overwrites the entry.

        ``mode="mmap"`` serves the dataset from a page-aligned columnar
        arena beside the ``.npz`` entry (same content fingerprint, so
        editing any source file invalidates both): tables come back as
        read-only memory-mapped views, the load is O(1) RAM until
        columns are touched, and worker processes attach the mapping by
        descriptor instead of receiving a pickled copy.  The arena is
        materialized from the bundle on first ``mmap`` use.  Requires
        ``cache=True``; a lenient load that quarantined or degraded
        anything falls back to in-RAM tables (dirty data is never
        persisted, in either format).

        Raises
        ------
        DatasetError
            When a log file or the metadata is missing (strict), or when
            the directory holds no dataset files at all (both modes).
        ParseError
            When a log violates its schema (strict), or when lenient
            parsing quarantines more than ``max_bad_rows`` rows.
        """
        if mode not in ("ram", "mmap"):
            raise ValueError(f"mode must be 'ram' or 'mmap', got {mode!r}")
        if mode == "mmap" and not cache:
            raise ValueError(
                "mode='mmap' requires cache=True: the arena lives in the "
                "dataset's cache directory"
            )
        directory = Path(directory)
        with trace_span("dataset.load", directory=directory.name, lenient=lenient):
            cache_path = arena_path = None
            if cache and directory.is_dir():
                fingerprint = _cache.fingerprint_directory(directory)
                cache_path = _cache.dataset_cache_path(directory, fingerprint)
                if mode == "mmap":
                    arena_path = _cache.dataset_arena_path(directory, fingerprint)
                if refresh_cache:
                    trace_add("cache.refresh")
                else:
                    if arena_path is not None:
                        bundle = _cache.load_arena(arena_path, fingerprint)
                        if bundle is not None:
                            return cls._from_bundle(*bundle, lenient=lenient)
                    bundle = _cache.load_cached_bundle(cache_path)
                    if bundle is not None:
                        if arena_path is not None:
                            return cls._via_arena(
                                arena_path,
                                fingerprint,
                                *bundle,
                                lenient=lenient,
                                prune=True,
                            )
                        return cls._from_bundle(*bundle, lenient=lenient)
            if lenient:
                dataset = cls._load_lenient(directory, max_bad_rows, assume_mira)
            else:
                dataset = cls._load_strict(directory)
            if cache_path is not None and not dataset.ingestion:
                _cache.store_bundle(
                    cache_path,
                    dataset._tables(),
                    dataset._bundle_meta(),
                    prune_siblings=True,
                )
                if arena_path is not None:
                    return cls._via_arena(
                        arena_path,
                        fingerprint,
                        dataset._tables(),
                        dataset._bundle_meta(),
                        lenient=lenient,
                        prune=True,
                    )
            return dataset

    @classmethod
    def _load_strict(cls, directory: Path) -> "MiraDataset":
        """Parse and validate all sources, raising on the first problem."""
        missing = [
            f for f in list(_LOG_FILES.values()) + ["meta.jsonl"]
            if not (directory / f).exists()
        ]
        if missing:
            raise DatasetError(f"{directory}: missing dataset files {missing}")
        meta = read_jsonl(directory / "meta.jsonl")[0]
        spec = _spec_from_meta(meta)
        incidents = _read_incidents(directory)
        tables = {
            attr: read_csv(directory / filename)
            for attr, filename in _LOG_FILES.items()
        }
        validate_ras_table(tables["ras"])
        validate_job_table(tables["jobs"])
        validate_task_table(tables["tasks"])
        validate_io_table(tables["io"])
        return cls(
            spec=spec,
            n_days=meta["n_days"],
            seed=meta["seed"],
            backend=str(meta.get("backend", "mira")),
            incidents=incidents,
            **tables,
        )

    @classmethod
    def _load_lenient(
        cls, directory: Path, max_bad_rows: int | None, assume_mira: bool = False
    ) -> "MiraDataset":
        """Best-effort load: quarantine rows, degrade missing sources."""
        if not directory.is_dir():
            raise DatasetError(f"{directory}: not a dataset directory")
        expected = list(_LOG_FILES.values()) + ["meta.jsonl"]
        if not any((directory / f).exists() for f in expected):
            raise DatasetError(f"{directory}: no dataset files found")
        report = ParseReport(max_bad_rows=max_bad_rows)

        spec, n_days, seed, backend = MIRA, None, -1, "mira"
        problem = None
        meta_path = directory / "meta.jsonl"
        if meta_path.exists():
            try:
                meta = read_jsonl(meta_path)[0]
                spec = _spec_from_meta(meta)
                n_days = float(meta["n_days"])
                seed = int(meta["seed"])
                backend = str(meta.get("backend", "mira"))
            except Exception as error:
                problem = f"unreadable meta.jsonl ({error})"
                spec, n_days, seed, backend = MIRA, None, -1, "mira"
        else:
            problem = "missing meta.jsonl"
        if problem is not None:
            if not assume_mira:
                raise DatasetError(
                    f"{directory}: {problem}; refusing to guess the "
                    "machine geometry — pass assume_mira=True "
                    "(--assume-mira) to load with Mira geometry"
                )
            report.degrade(
                "meta", f"{problem}; assuming Mira spec (--assume-mira)"
            )

        incidents: list[Incident] = []
        if (directory / "incidents.jsonl").exists():
            try:
                incidents = _read_incidents(directory)
            except Exception as error:
                report.degrade("incidents", f"unreadable incidents.jsonl ({error})")

        catalog = default_catalog()
        if backend != "mira":
            try:
                from repro.adapters import get_backend

                catalog = get_backend(backend).catalog()
            except BackendError as error:
                report.degrade(
                    "meta",
                    f"unknown backend {backend!r} ({error}); validating "
                    "RAS against the Mira catalog",
                )
        validators = {
            "ras": lambda t: validate_ras_table(t, catalog, report=report),
            "jobs": lambda t: validate_job_table(t, report=report),
            "tasks": lambda t: validate_task_table(t, report=report),
            "io": lambda t: validate_io_table(t, report=report),
        }
        tables: dict[str, Table] = {}
        for attr, filename in _LOG_FILES.items():
            path = directory / filename
            if not path.exists():
                report.degrade(attr, f"missing {filename}")
                tables[attr] = Table.empty(_LOG_SCHEMAS[attr])
                continue
            try:
                tables[attr] = validators[attr](
                    read_csv(path, report=report, source=attr)
                )
            except QuarantineOverflowError:
                raise  # mostly-garbage data must not load as near-empty
            except (ParseError, OSError) as error:
                report.degrade(attr, str(error))
                tables[attr] = Table.empty(_LOG_SCHEMAS[attr])

        if n_days is None:
            last = 0.0
            if tables["jobs"].n_rows:
                last = max(last, float(tables["jobs"]["end_time"].max()))
            if tables["ras"].n_rows:
                last = max(last, float(tables["ras"]["timestamp"].max()))
            n_days = last / SECONDS_PER_DAY
            report.note(f"meta: estimated span {n_days:.2f} days from log extents")
        return cls(
            spec=spec,
            n_days=n_days,
            seed=seed,
            backend=backend,
            incidents=incidents,
            ingestion=report,
            **tables,
        )

    # ------------------------------------------------------------------
    # summary
    # ------------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Headline totals (the E01 overview row)."""
        jobs = self.jobs
        n_failed = int((jobs["exit_status"] != 0).sum()) if jobs.n_rows else 0
        severity_counts = (
            {
                row["severity"]: row["count"]
                for row in self.ras.value_counts("severity").to_rows()
            }
            if self.ras.n_rows
            else {}
        )
        return {
            "n_days": self.n_days,
            "n_jobs": jobs.n_rows,
            "n_failed_jobs": n_failed,
            "failure_rate": n_failed / jobs.n_rows if jobs.n_rows else float("nan"),
            "n_users": len(set(jobs["user"].tolist())) if jobs.n_rows else 0,
            "n_projects": len(set(jobs["project"].tolist())) if jobs.n_rows else 0,
            "total_core_hours": float(jobs["core_hours"].sum()) if jobs.n_rows else 0.0,
            "n_tasks": self.tasks.n_rows,
            "n_io_profiles": self.io.n_rows,
            "n_ras_events": self.ras.n_rows,
            "n_ras_info": severity_counts.get("INFO", 0),
            "n_ras_warn": severity_counts.get("WARN", 0),
            "n_ras_fatal": severity_counts.get("FATAL", 0),
            "n_incidents": len(self.incidents),
        }

    def fatal_events(self) -> Table:
        """The FATAL-severity slice of the RAS log."""
        return self.ras.filter(self.ras["severity"] == "FATAL")

    def failed_jobs(self) -> Table:
        """The failed-job slice of the job log."""
        return self.jobs.filter(self.jobs["exit_status"] != 0)
