"""The one per-cell loop, the process-pool matrix runner and its merge.

:func:`run_cells` is the one loop that executes matrix cells: cache lookup,
shared-network checkout, cache warm-up,
:func:`~repro.workload.matrix.run_cell`, cache record, then the cell's
obs export, trace file and kept result.  The sequential engine
(:func:`~repro.workload.matrix.run_matrix`) calls it in-process and
collects each finished cell into a list.  Each parallel shard calls it
through :func:`_run_shard`, which streams each finished cell into the
shard's JSONL spool; a plan with one shard and no warm pool runs that
same :func:`_run_shard` in-process.  The parent polls the spools while
the pool drains (that is the progress/ETA feed) and then merges all spool
records by grid position into a :class:`~repro.workload.matrix.MatrixReport`
whose canonical JSON is byte-identical to the sequential run's.

Payloads crossing the process boundary are plain picklable data: a
:class:`ShardJob` outbound, and — only when callers ask to keep full
results — ``WorkloadResult`` objects inbound, which pickle cleanly
because results never reference a live ``Network`` or planner.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import ExitStack
from dataclasses import dataclass
from itertools import count
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from ..network.simulator import Network
from ..obs import export as _obs_export
from ..obs.profile import CELL_RUN, SPOOL_MERGE, PhaseProfile, phase, profiling
from ..obs.spans import SpanRecorder
from ..workload.driver import WorkloadResult
from ..workload.matrix import (
    CellResult,
    MatrixCell,
    MatrixReport,
    MatrixSpec,
    run_cell,
    write_cell_trace,
)
from .cache import (
    CellCache,
    IncrementalRunner,
    canonical_cell_payload,
    merge_cache_stats,
)
from .plan import ExecutionPlan
from .pool import WarmPool, checkout_network
from .spool import SpoolCursor, SpoolError, dump_spool_line, load_spool, \
    shard_spool_path

#: How often the parent polls spool files for progress while workers run.
POLL_SECONDS = 0.2


@dataclass(frozen=True)
class ShardJob:
    """One pass of :func:`run_cells`: everything it needs, all picklable.

    The sequential engine runs the whole grid as shard 0 with no spool.
    """

    index: int
    #: ``(grid position, cell)`` pairs, in execution order.
    cells: Tuple[Tuple[int, MatrixCell], ...]
    share_networks: bool
    keep_results: bool
    trace_dir: Optional[str]
    obs_dir: Optional[str]
    profile: bool
    cache_dir: Optional[str]
    spool: Optional[str] = None
    #: The warm-pool generation, or ``None`` when no pool is in play.
    generation: Optional[int] = None


def _shard_metrics_path(obs_path: Path, shard_index: int) -> Path:
    """The worker-private metrics part file the parent merges and removes.

    Workers must never append to the shared ``metrics.jsonl`` concurrently;
    each writes its own part, exactly like the result spools.
    """
    return obs_path / f"metrics-shard-{shard_index:03d}.jsonl"


def run_cells(
    job: ShardJob,
    emit: Callable[[int, CellResult], None],
    metrics_path: Optional[Path],
    label: str,
) -> Tuple[
    List[Tuple[int, WorkloadResult]], Optional[PhaseProfile], Dict[str, int]
]:
    """Run ``job``'s cells in order, handing each finished one to ``emit``.

    Cells share one network per topology, so a shard replays exactly the
    warm-up sequence the sequential engine gives its cells; cache hits are
    chain-keyed so they agree too (see :mod:`repro.exec.cache`).  With an
    obs dir, cell files are keyed on grid position and metrics lines go to
    ``metrics_path``.  A cell that raises is re-raised as a
    ``RuntimeError`` naming its grid position and coordinates.

    Returns the kept ``(position, result)`` pairs, the phase profile named
    ``label`` (``None`` unless ``job.profile``), and the cache and
    warm-pool counters.
    """
    obs_path = Path(job.obs_dir) if job.obs_dir is not None else None
    shard_tracer = SpanRecorder() if obs_path is not None else None
    run_profile = PhaseProfile(label) if job.profile else None
    networks: Dict[str, Network] = {}
    kept: List[Tuple[int, WorkloadResult]] = []
    stats: Dict[str, int] = {}
    runner = None
    if job.cache_dir is not None:
        runner = IncrementalRunner(
            CellCache(job.cache_dir),
            share_networks=job.share_networks,
            reads=not (
                job.keep_results or job.trace_dir is not None
                or obs_path is not None
            ),
        )
    with ExitStack() as stack, profiling(run_profile):
        metrics_fp = None
        if metrics_path is not None:
            metrics_fp = stack.enter_context(
                open(metrics_path, "w", encoding="utf-8")
            )
        shard_span = None
        if shard_tracer is not None:
            shard_span = shard_tracer.begin(
                "shard", shard=job.index, cells=len(job.cells)
            )
        for position, cell in job.cells:
            if runner is not None:
                cached = runner.lookup(cell)
                if cached is not None:
                    emit(position, cached)
                    continue
            network: Optional[Network] = None
            if job.share_networks:
                network = checkout_network(
                    networks, cell.spec, job.generation, stats
                )
                if runner is not None:
                    runner.warmup(cell, network)
            cell_tracer = SpanRecorder() if obs_path is not None else None
            try:
                with phase(CELL_RUN):
                    cell_result, result = run_cell(
                        cell, network=network, tracer=cell_tracer
                    )
            except Exception as exc:
                raise RuntimeError(
                    f"matrix cell {position} (topology {cell.topology}, "
                    f"strategy {cell.strategy}, regime {cell.regime}) "
                    f"failed: {type(exc).__name__}: {exc}"
                ) from exc
            if runner is not None:
                runner.record(cell_result)
            emit(position, cell_result)
            if obs_path is not None:
                cell_tracer.to_path(
                    _obs_export.cell_span_path(obs_path, position)
                )
                metrics_fp.write(_obs_export.dump_metrics_line(
                    position,
                    {
                        "name": cell.spec.name,
                        "topology": cell.topology,
                        "strategy": cell.strategy,
                        "regime": cell.regime,
                    },
                    result.metrics.registry,
                ))
                if result.exemplars:
                    _obs_export.write_timelines(
                        _obs_export.timeline_path(obs_path, position),
                        result.exemplars,
                    )
                shard_tracer.set_clock(float(position))
                shard_tracer.event(
                    "cell-run", position=position, cell=cell.spec.name
                )
            if job.trace_dir is not None:
                write_cell_trace(job.trace_dir, position, result)
            if job.keep_results:
                kept.append((position, result))
        if shard_tracer is not None:
            shard_tracer.end(shard_span, cells=len(job.cells))
            shard_tracer.to_path(
                _obs_export.shard_span_path(obs_path, job.index)
            )
    if runner is not None:
        merge_cache_stats(stats, runner.cache.stats())
    return kept, run_profile, stats


def _run_shard(
    job: ShardJob,
    progress: Optional[Callable[[int, int], None]] = None,
) -> Tuple[
    int, List[Tuple[int, WorkloadResult]], Optional[PhaseProfile],
    Dict[str, int],
]:
    """Worker entry point: :func:`run_cells` streaming into the job's spool.

    Top-level (not a closure) so it pickles under the ``spawn`` start
    method as well as ``fork``.  Metrics go to a private part file the
    parent folds into ``metrics.jsonl``.  ``progress`` is only given when
    the shard runs in the parent's process, where no spool poll can see
    it.
    """
    assert job.spool is not None  # only the sequential pass has no spool
    done = count(1)
    with open(job.spool, "w", encoding="utf-8") as fp:

        def emit(position: int, cell_result: CellResult) -> None:
            fp.write(dump_spool_line(position, cell_result))
            fp.flush()  # stream: the parent polls for progress
            if progress is not None:
                progress(next(done), len(job.cells))

        metrics_path = (
            _shard_metrics_path(Path(job.obs_dir), job.index)
            if job.obs_dir is not None else None
        )
        return (job.index,) + run_cells(
            job, emit, metrics_path, f"shard-{job.index}"
        )


def run_matrix_parallel(
    matrix: MatrixSpec,
    workers: Optional[int] = None,
    share_networks: bool = True,
    keep_results: bool = False,
    progress: Optional[Callable[[int, int], None]] = None,
    trace_dir=None,
    spool_dir=None,
    obs_dir=None,
    profile: bool = False,
    cache_dir=None,
    pool: Optional[WarmPool] = None,
) -> Tuple[MatrixReport, List[WorkloadResult]]:
    """Run ``matrix`` across worker processes; merge deterministically.

    The report is byte-identical (:meth:`MatrixReport.digest`) to
    ``run_matrix(matrix, share_networks=share_networks)`` at any worker
    count.  ``workers=0``/``None`` means one per CPU; without a ``pool``,
    a grid that plans to a single shard runs it in this process (no pool
    overhead) through the same spool and merge.  Pass ``spool_dir`` to
    keep the JSONL spool files; by default they live in a temporary
    directory removed after the merge.

    ``obs_dir``/``profile`` mirror :func:`~repro.workload.matrix.run_matrix`:
    workers write per-cell span and metrics files keyed on grid position
    (the same file set a sequential run produces), the parent stitches the
    per-shard metrics parts into one position-sorted ``metrics.jsonl``,
    records its own ``merge`` span, and the report gains a per-worker
    ``profile`` section that never enters the digest.

    ``cache_dir`` names a content-addressed cell cache
    (:class:`~repro.exec.cache.CellCache`): unchanged cells are served
    from it instead of executed, and every executed cell is stored.
    ``pool`` is a live :class:`~repro.exec.pool.WarmPool` whose worker
    processes (and their per-topology networks) persist across calls; it
    overrides ``workers`` and is not shut down here.  Both are
    digest-neutral; their counters land in the report's digest-excluded
    ``cache`` section.
    """
    if pool is not None:
        workers = pool.workers
    plan = ExecutionPlan.from_matrix(matrix, workers or 0)
    own_spool = spool_dir is None
    spool_root = Path(
        tempfile.mkdtemp(prefix="repro-spool-") if own_spool else spool_dir
    )
    spool_root.mkdir(parents=True, exist_ok=True)
    spool_paths = [
        shard_spool_path(spool_root, shard.index) for shard in plan.shards
    ]
    obs_path = (
        _obs_export.export_dir(obs_dir) if obs_dir is not None else None
    )
    parent_profile = PhaseProfile("parent") if profile else None
    generation = pool.generation if pool is not None and share_networks \
        else None
    jobs = [
        ShardJob(
            index=shard.index,
            cells=tuple(
                (indexed.position, indexed.cell) for indexed in shard.cells
            ),
            share_networks=share_networks,
            keep_results=keep_results,
            trace_dir=str(trace_dir) if trace_dir is not None else None,
            obs_dir=str(obs_path) if obs_path is not None else None,
            profile=profile,
            cache_dir=str(cache_dir) if cache_dir is not None else None,
            spool=str(spool_path),
            generation=generation,
        )
        for shard, spool_path in zip(plan.shards, spool_paths)
    ]
    total = plan.cell_count
    try:
        if pool is None and len(jobs) <= 1:
            outcomes = [_run_shard(job, progress) for job in jobs]
        else:
            outcomes = []
            executor = ProcessPoolExecutor(max_workers=len(jobs)) \
                if pool is None else pool.executor
            try:
                pending = {executor.submit(_run_shard, job) for job in jobs}
                cursor = SpoolCursor(spool_paths)
                while pending:
                    done, pending = wait(
                        pending, timeout=POLL_SECONDS,
                        return_when=FIRST_COMPLETED,
                    )
                    if progress is not None:
                        progress(min(cursor.count(), total), total)
                    # Reraises worker errors here.  A running shard cannot
                    # be stopped, so an error surfaces once the others end.
                    outcomes.extend(future.result() for future in done)
            finally:
                if pool is None:
                    executor.shutdown(wait=True)
            if progress is not None:
                progress(total, total)
        kept: Dict[int, WorkloadResult] = {}
        shard_profiles: Dict[int, PhaseProfile] = {}
        exec_stats: Dict[str, int] = {}
        for shard_index, shard_kept, shard_profile, shard_stats in outcomes:
            kept.update(shard_kept)
            if shard_profile is not None:
                shard_profiles[shard_index] = shard_profile
            merge_cache_stats(exec_stats, shard_stats)
        merge_tracer = SpanRecorder() if obs_path is not None else None
        merge_span = None
        if merge_tracer is not None:
            merge_span = merge_tracer.begin(
                "merge", shards=len(plan.shards), cells=total
            )
        merged: Dict[int, CellResult] = {}
        sources: Dict[int, str] = {}
        with profiling(parent_profile), phase(SPOOL_MERGE):
            for path in spool_paths:
                for position, cell_result in load_spool(path):
                    existing = merged.get(position)
                    if existing is None:
                        merged[position] = cell_result
                        sources[position] = str(path)
                        continue
                    # Duplicates are legal only when byte-equal (an
                    # idempotent re-spool); disagreeing records mean two
                    # different cells claimed one grid position — the
                    # old silent last-write-wins masked exactly that.
                    if canonical_cell_payload(existing) != \
                            canonical_cell_payload(cell_result):
                        raise SpoolError(
                            f"conflicting spool records for cell "
                            f"{position}: {sources[position]} and {path} "
                            f"disagree"
                        )
            if sorted(merged) != list(range(total)):
                missing = sorted(set(range(total)) - set(merged))
                raise RuntimeError(
                    f"parallel merge incomplete: spool is missing cells "
                    f"{missing}"
                )
            cells = [merged[position] for position in range(total)]
            if obs_path is not None:
                _merge_shard_metrics(obs_path, plan)
        if merge_tracer is not None:
            merge_tracer.end(merge_span)
            merge_tracer.to_path(obs_path / _obs_export.MERGE_SPANS_FILE)
    finally:
        if own_spool:
            shutil.rmtree(spool_root, ignore_errors=True)
    results = [kept[position] for position in sorted(kept)]
    report = MatrixReport(matrix.to_dict(), cells, plan.skipped)
    if cache_dir is not None:
        # Every counter appears even when zero, so cold and warm runs
        # report the same key set.
        merge_cache_stats(exec_stats, CellCache(cache_dir).stats())
    profiles: List[PhaseProfile] = []
    if parent_profile is not None:
        profiles = [parent_profile] + [
            shard_profiles[index] for index in sorted(shard_profiles)
        ]
    _attach_run_sections(
        report, obs_path,
        exec_stats if cache_dir is not None or pool is not None else None,
        profiles,
    )
    return report, results


def _attach_run_sections(
    report: MatrixReport,
    obs_path: Optional[Path],
    stats: Optional[Dict[str, int]],
    profiles: List[PhaseProfile],
) -> None:
    """Install a run's digest-excluded ``cache`` and ``profile`` sections,
    and write their obs export files when ``obs_path`` is set."""
    if stats is not None:
        report.attach_cache_stats(stats)
        if obs_path is not None:
            _obs_export.write_cache_stats(
                _obs_export.cache_stats_path(obs_path), stats
            )
    if profiles:
        if obs_path is not None:
            _obs_export.write_profiles(
                _obs_export.profile_path(obs_path), profiles
            )
        report.attach_profile(_obs_export.profiles_dict(profiles))


def _merge_shard_metrics(obs_path: Path, plan: ExecutionPlan) -> None:
    """Fold the workers' metrics part files into one position-sorted
    ``metrics.jsonl`` — byte-identical to the file a sequential run writes —
    then delete the parts.

    The parts are the only copy of the workers' metrics, so the merge must
    not destroy them before the merged file exists: everything is read and
    sorted first (a parse error here leaves every part intact on disk),
    the merged file lands via a temp file + atomic rename, and only then
    are the parts removed.
    """
    lines: List[Tuple[int, str]] = []
    parts: List[Path] = []
    for shard in plan.shards:
        part = _shard_metrics_path(obs_path, shard.index)
        if not part.exists():
            continue
        with open(part, "r", encoding="utf-8") as fp:
            for line in fp:
                if line.strip():
                    lines.append((int(json.loads(line)["position"]), line))
        parts.append(part)
    lines.sort(key=lambda pair: pair[0])
    target = _obs_export.metrics_path(obs_path)
    tmp = target.parent / f"{target.name}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fp:
        for _, line in lines:
            fp.write(line)
    os.replace(tmp, target)
    for part in parts:
        part.unlink()
