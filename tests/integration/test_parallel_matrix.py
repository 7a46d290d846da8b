"""The parallel execution engine end to end: exactness across processes.

The engine's one promise is that parallelism changes *nothing* observable:
the merged report is byte-identical to the sequential run at any worker
count, per-cell traces recorded inside worker processes are exactly the
traces a sequential run records, and a worker-recorded trace replays
byte-exact in the parent process.  Picklability of everything that crosses
the process boundary is pinned here too — that is what lets results (with
traces) travel back from workers at all.
"""

import json
import multiprocessing
import pickle

import pytest

from repro.exec.runner import run_matrix_parallel
from repro.workload import (
    ArrivalSpec,
    ChurnSpec,
    FaultRegimeSpec,
    MatrixSpec,
    MatrixReport,
    ScenarioSpec,
    Trace,
    replay_trace,
    run_matrix,
)

BASE = ScenarioSpec(
    operations=90, clients=4, servers=4, ports=2,
    delivery_mode="unicast", seed=23,
    arrival=ArrivalSpec(kind="poisson", rate=400.0),
    churn=ChurnSpec(kind="failover", rate=1.5, downtime=0.2),
)

REGIMES = (
    FaultRegimeSpec(),
    FaultRegimeSpec(kind="waves", events=2, size=1, start=0.1, period=0.2,
                    downtime=0.1),
    FaultRegimeSpec(kind="flaps", events=2, start=0.1, period=0.2,
                    downtime=0.1),
)


def parallel_matrix() -> MatrixSpec:
    return MatrixSpec(
        name="par",
        topologies=("complete:16", "manhattan:4", "hypercube:4"),
        strategies=("checkerboard", "centralized"),
        fault_regimes=REGIMES,
        base=BASE,
    )


@pytest.fixture(scope="module")
def sequential():
    return run_matrix(parallel_matrix(), keep_results=True)


class TestByteIdenticalMerge:
    @pytest.mark.parametrize("workers", [2, 3, 0])
    def test_digest_matches_sequential_at_any_worker_count(
        self, sequential, workers
    ):
        seq_report, _ = sequential
        par_report, _ = run_matrix(parallel_matrix(), workers=workers)
        assert par_report.digest() == seq_report.digest()
        # Digest equality is full canonical equality, not a hash accident.
        assert par_report.canonical_dict() == seq_report.canonical_dict()

    def test_unshared_networks_merge_identically_too(self):
        seq_report, _ = run_matrix(parallel_matrix(), share_networks=False)
        par_report, _ = run_matrix(
            parallel_matrix(), share_networks=False, workers=2
        )
        assert par_report.digest() == seq_report.digest()

    def test_plan_cache_counters_survive_sharding_exactly(self, sequential):
        """The hard case: warm-cache counters depend on same-topology run
        order, which topology affinity preserves per shard."""
        seq_report, _ = sequential
        par_report, _ = run_matrix(parallel_matrix(), workers=3)
        assert [cell.plan_cache for cell in par_report.cells] == \
            [cell.plan_cache for cell in seq_report.cells]

    def test_single_shard_grids_run_inline(self, tmp_path):
        matrix = MatrixSpec(
            name="tiny", topologies=("complete:9",),
            strategies=("checkerboard",), base=BASE,
        )
        seq_report, _ = run_matrix(matrix)
        spool_dir = tmp_path / "spool"
        par_report, _ = run_matrix_parallel(
            matrix, workers=4, spool_dir=spool_dir
        )
        assert par_report.digest() == seq_report.digest()
        # The requested spool artifact exists even on the inline path.
        from repro.exec import load_spool, shard_spool_path
        entries = load_spool(shard_spool_path(spool_dir, 0))
        assert [position for position, _ in entries] == \
            list(range(len(seq_report)))

    def test_all_skipped_grid_yields_empty_report(self):
        matrix = MatrixSpec(
            name="skipped", topologies=("complete:9",),
            strategies=("manhattan",), base=BASE,
        )
        report, results = run_matrix(matrix, workers=2)
        assert len(report) == 0 and results == []
        assert len(report.skipped) == 1


class TestShardedOrderAndTraces:
    def test_sharded_and_sequential_orders_record_identical_traces(
        self, sequential
    ):
        """Satellite regression: seeds come from cell coordinates, so shard
        order and worker count can never change a cell's trace."""
        _, seq_results = sequential
        _, par_results = run_matrix(
            parallel_matrix(), workers=3, keep_results=True
        )
        assert len(par_results) == len(seq_results)
        for seq, par in zip(seq_results, par_results):
            assert par.spec == seq.spec
            assert par.trace.digest() == seq.trace.digest()
            assert par.to_dict() == seq.to_dict()

    def test_trace_spool_files_match_sequential_runs(
        self, sequential, tmp_path
    ):
        seq_dir = tmp_path / "seq"
        par_dir = tmp_path / "par"
        run_matrix(parallel_matrix(), trace_dir=seq_dir)
        run_matrix(parallel_matrix(), trace_dir=par_dir, workers=2)
        seq_files = sorted(path.name for path in seq_dir.iterdir())
        assert seq_files == sorted(path.name for path in par_dir.iterdir())
        assert len(seq_files) == 18
        for name in seq_files:
            assert (seq_dir / name).read_text() == (par_dir / name).read_text()

    def test_worker_recorded_trace_replays_byte_exact_in_parent(
        self, tmp_path
    ):
        """Satellite: cross-process replay.  The trace file was written by a
        worker process; this (parent) process replays it byte-exact."""
        trace_dir = tmp_path / "traces"
        report, results = run_matrix(
            parallel_matrix(), workers=3, keep_results=True,
            trace_dir=trace_dir,
        )
        # Pick a faulted cell so link_down/link_up ops cross the boundary.
        position, faulted = next(
            (i, result) for i, result in enumerate(results)
            if result.spec.faults.kind == "flaps"
            and result.metrics.fault_events
        )
        spooled = Trace.from_path(trace_dir / f"cell-{position:04d}.jsonl")
        assert spooled.digest() == faulted.trace.digest()
        replayed = replay_trace(spooled)
        assert replayed.digest() == faulted.digest()
        assert json.dumps(replayed.to_dict(), sort_keys=True) == \
            json.dumps(faulted.to_dict(), sort_keys=True)


class TestProcessBoundaryPayloads:
    """Satellite: everything crossing the pool boundary pickles cleanly and
    never drags a live Network or planner along."""

    def test_cell_payloads_pickle(self):
        cells, _ = parallel_matrix().expand()
        blob = pickle.dumps(cells)
        assert [cell.spec for cell in pickle.loads(blob)] == \
            [cell.spec for cell in cells]

    def test_workload_result_pickles_without_network_references(
        self, sequential
    ):
        _, results = sequential
        result = results[0]
        blob = pickle.dumps(result)
        # A leaked Network/planner/system reference would name its module
        # here; results must stay within the workload layer and builtins.
        assert b"repro.network" not in blob
        assert b"repro.processes" not in blob
        restored = pickle.loads(blob)
        assert restored.to_dict() == result.to_dict()
        assert restored.metrics.summary() == result.metrics.summary()
        assert restored.trace.digest() == result.trace.digest()

    def test_matrix_report_pickles_round_trip(self, sequential):
        report, _ = sequential
        blob = pickle.dumps(report)
        assert b"repro.network" not in blob
        restored = pickle.loads(blob)
        assert isinstance(restored, MatrixReport)
        assert restored.to_dict() == report.to_dict()
        assert restored.digest() == report.digest()

    def test_progress_reaches_total_monotonically(self):
        seen = []
        run_matrix(
            parallel_matrix(), workers=2,
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen[-1] == (18, 18)
        counts = [done for done, _ in seen]
        assert counts == sorted(counts)


class TestFailingCellIsLabelled:
    """A cell that raises is reported by grid position and coordinates,
    sequentially and from a worker process alike."""

    @pytest.mark.parametrize("workers", [None, 2])
    def test_error_names_the_failing_cell(self, monkeypatch, workers):
        if workers is not None and \
                multiprocessing.get_start_method() != "fork":
            pytest.skip("the patched run_cell reaches workers only by fork")
        import repro.exec.runner as runner_module

        real_run_cell = runner_module.run_cell

        def failing_run_cell(cell, **kwargs):
            if cell.topology == "complete:9" and \
                    cell.strategy == "centralized":
                raise ValueError("boom")
            return real_run_cell(cell, **kwargs)

        monkeypatch.setattr(runner_module, "run_cell", failing_run_cell)
        matrix = MatrixSpec(
            name="failing",
            topologies=("complete:9", "manhattan:3", "ring:8", "hypercube:3"),
            strategies=("checkerboard", "centralized"),
            base=BASE,
        )
        cells, _ = matrix.expand()
        position, cell = next(
            (i, cell) for i, cell in enumerate(cells)
            if cell.topology == "complete:9" and cell.strategy == "centralized"
        )
        with pytest.raises(RuntimeError) as raised:
            run_matrix(matrix, workers=workers)
        message = str(raised.value)
        assert message == (
            f"matrix cell {position} (topology complete:9, strategy "
            f"centralized, regime {cell.regime}) failed: ValueError: boom"
        )
        if workers is None:
            assert isinstance(raised.value.__cause__, ValueError)
        assert str(pickle.loads(pickle.dumps(raised.value))) == message
