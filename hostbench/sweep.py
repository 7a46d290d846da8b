"""Measuring the ``sweep`` workload: the exec layer and the cell cache.

A *pass* expands the grid, plans its shards and starts a fresh 2-worker
:class:`~repro.exec.WarmPool` (the set-up), runs the grid cold into an
empty cell-cache directory, then runs it warm against the same directory.
A first pass is an unmeasured warm-up; every measured pass must
reproduce its digest, and every warm pass must serve each cell from the
cache.  After the measured passes that digest is checked against the
pinned one, or, for a seed with no pin, against a sequential in-process
run of the same grid.  Each measured pass is calibrated by probes run in
all the workers at once, since the cold pass keeps every worker busy.
"""

from __future__ import annotations

import gc
import os
import shutil
import statistics
import traceback
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

from repro.exec import ExecutionPlan, WarmPool
from repro.workload import MatrixReport, MatrixSpec, run_matrix

from calibrate import REFERENCE_S, probe_seconds, reference_scale
from scenario import Outcome, host_outputs, keep_going, peak_rss_mb


def _exec_metrics(
    plan: ExecutionPlan, cold: MatrixReport, cold_s: float, workers: int
) -> Dict[str, float]:
    """Parent-side exec metrics of one cold pass."""
    walls = [cell.wall_seconds for cell in cold.cells]
    sizes = [len(shard) for shard in plan.shards]
    busiest = max(
        sum(walls[indexed.position] for indexed in shard.cells)
        for shard in plan.shards
    )
    return {
        "exec.shards": float(len(plan.shards)),
        "exec.shard_imbalance": max(sizes) / statistics.mean(sizes),
        "exec.worker_utilization": sum(walls) / (cold_s * workers),
        "exec.dispatch_overhead_s": cold_s - busiest,
    }


def _probe_workers(pool: WarmPool, workers: int) -> float:
    """The calibration probe run in every worker at once, as the cold pass
    keeps them all busy: the mean of their probe times."""
    futures = [pool.executor.submit(probe_seconds) for _ in range(workers)]
    return statistics.mean(future.result() for future in futures)


def _one_pass(
    matrix: MatrixSpec, workers: int, cache_dir: Path, outcome: Outcome,
    digest: Optional[str], probe: bool = True,
) -> Optional[Dict[str, object]]:
    """Set up, run cold, run warm; ``None`` when the pass raised.  Without
    ``probe`` the pass is not calibrated (its scale is 1)."""
    gc.collect()
    try:
        started = pass_started = perf_counter()
        cells, _ = matrix.expand()
        plan = ExecutionPlan.from_matrix(matrix, workers)
        with WarmPool(workers=workers) as pool:
            # The first submit forks every worker; waiting on a trivial
            # task per worker makes worker start part of the set-up.
            for future in [pool.executor.submit(os.getpid) for _ in range(workers)]:
                future.result()
            setup_s = perf_counter() - started
            before = _probe_workers(pool, workers) if probe else REFERENCE_S
            try:
                started = perf_counter()
                cold, _ = run_matrix(matrix, pool=pool, cache_dir=cache_dir)
                cold_s = perf_counter() - started
                started = perf_counter()
                warm, _ = run_matrix(matrix, pool=pool, cache_dir=cache_dir)
                warm_s = perf_counter() - started
            finally:
                shutil.rmtree(cache_dir, ignore_errors=True)
            after = _probe_workers(pool, workers) if probe else REFERENCE_S
            scale = reference_scale(before, after)
    except Exception:
        outcome.count(
            matrix.cell_count * matrix.base.operations,
            "sweep pass raised:\n" + traceback.format_exc(),
        )
        return None
    pass_s = perf_counter() - pass_started
    requests = sum(int(cell.summary["requests"]) for cell in cold.cells)
    stats = warm.cache_stats or {}
    problems = []
    if digest is not None and cold.digest() != digest:
        problems.append(f"cold digest {cold.digest()} differs from {digest}")
    if warm.digest() != cold.digest():
        problems.append(f"warm digest {warm.digest()} differs from cold {cold.digest()}")
    if stats.get("hits") != len(cells) or stats.get("misses") != 0:
        problems.append(f"warm pass served {stats} for {len(cells)} cells")
    outcome.count(requests, "; ".join(problems) or None)
    return {
        "digest": cold.digest(),
        "requests_per_s": requests / (cold_s * scale),
        "raw_requests_per_s": requests / cold_s,
        "scale": scale,
        "setup_s": setup_s * scale,
        "cells": len(cells),
        "cache": stats,
        "warm_s": warm_s,
        "pass_s": pass_s,
        **_exec_metrics(plan, cold, cold_s, workers),
    }


def measure(
    matrix: MatrixSpec,
    pinned: Optional[str],
    seconds: float,
    traced: bool,
    work_dir: Path,
    workers: int,
) -> Outcome:
    """Run the sweep passes for ``seconds`` and collect its metrics."""
    outcome = Outcome()
    cache_dir = work_dir / f"sweep-cache-{os.getpid()}"
    # An unmeasured warm-up pass without probes.  The probes run in the
    # workers, so the workers' peak RSS is read now, before any probe; the
    # parent runs none and its peak is read after the measured passes.
    warm_up = _one_pass(matrix, workers, cache_dir, outcome, None, probe=False)
    if warm_up is None:
        return outcome
    workers_rss_mb = peak_rss_mb(children=True)
    digest = str(warm_up["digest"])
    passes: List[Dict[str, object]] = []
    deadline = perf_counter() + seconds
    while keep_going(deadline, [float(p["pass_s"]) for p in passes]):
        measured = _one_pass(matrix, workers, cache_dir, outcome, digest)
        if measured is None:
            return outcome
        passes.append(measured)
    rss_mb = max(peak_rss_mb(), workers_rss_mb)

    if pinned is not None:
        expected, how = pinned, "pinned digest"
    else:
        expected, how = run_matrix(matrix)[0].digest(), "sequential run"
    if digest != expected:
        outcome.count(0, f"sweep digest {digest} differs from the {how} {expected}")
        outcome.failed = outcome.attempted
    outcome.outputs["digest"] = digest
    outcome.outputs["checked_against"] = how

    def median(key: str) -> float:
        return statistics.median(float(p[key]) for p in passes)

    if not traced:
        outcome.outputs.update(host_outputs(
            [float(p["raw_requests_per_s"]) for p in passes],
            [float(p["scale"]) for p in passes],
        ))
        outcome.metrics = {
            "requests_per_s": median("requests_per_s"),
            "setup_s": median("setup_s"),
            "peak_rss_mb": rss_mb,
        }
        return outcome
    # The warm pass's cache counters and the cell count are fixed by the
    # check above (hits = cells, no misses), so they are printed outputs.
    cache = passes[0]["cache"]
    outcome.outputs["exec.cells"] = passes[0]["cells"]
    for key in ("hits", "misses", "warmups"):
        outcome.outputs[f"exec.cache.{key}"] = cache.get(key, 0)
    outcome.metrics = {
        key: median(key)
        for key in passes[0] if key.startswith("exec.")
    }
    outcome.metrics["exec.cache.warm_pass_s"] = median("warm_s")
    return outcome
