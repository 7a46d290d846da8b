"""Observability is digest-neutral — the invariant everything rests on.

Spans carry logical clocks only, metrics lines are derived from the same
deterministic run, and the wall-clock ``profile`` section is excluded from
the canonical report form.  Therefore a matrix run with the full export
enabled (spans + metrics + profile) must produce a report digest
**byte-identical** to an observability-disabled run — sequentially and at
0, 2 and 3 workers — and the cell-level export files themselves must be
byte-identical between sequential and sharded runs, because file names key
on grid position, not on which process executed the cell.
"""

import dataclasses
import json

import pytest

from repro.obs import export
from repro.workload import (
    ArrivalSpec,
    FaultRegimeSpec,
    MatrixReport,
    MatrixSpec,
    ScenarioSpec,
    run_matrix,
)

MATRIX = MatrixSpec(
    name="obs-digest",
    topologies=("complete:9", "manhattan:3", "ring:8"),
    strategies=("checkerboard", "hash-locate"),
    fault_regimes=(
        FaultRegimeSpec(),
        FaultRegimeSpec(kind="flaps", events=2, start=0.1, period=0.2,
                        downtime=0.1),
    ),
    base=ScenarioSpec(
        operations=40, clients=3, servers=3, ports=2,
        delivery_mode="unicast", seed=83,
        arrival=ArrivalSpec(kind="poisson", rate=300.0),
    ),
)


#: One topology: plans to a single shard at any worker count, so the
#: parallel engine runs that shard in-process.
SINGLE = dataclasses.replace(MATRIX, name="obs-single",
                             topologies=("complete:9",))


def run_plain():
    report, _ = run_matrix(MATRIX)
    return report


def run_observed(obs_dir, workers=None):
    report, _ = run_matrix(
        MATRIX, workers=workers, obs_dir=obs_dir, profile=True
    )
    return report


class TestDigestStability:
    def test_observability_never_moves_the_digest(self, tmp_path):
        plain = run_plain()
        assert len(plain) == 12 and plain.skipped == []
        for workers in (None, 0, 2, 3):
            label = "seq" if workers is None else f"w{workers}"
            observed = run_observed(tmp_path / label, workers=workers)
            assert observed.digest() == plain.digest(), (
                f"observability export at workers={workers} changed the "
                f"report digest"
            )
            # Digest equality is not an accident of hashing: the canonical
            # dicts match, and the only extra section is the profile.
            assert observed.canonical_dict() == plain.canonical_dict()
            assert "profile" in observed.to_dict()
            assert "profile" not in observed.canonical_dict()

    def test_profile_round_trips_but_stays_out_of_the_canon(self, tmp_path):
        observed = run_observed(tmp_path / "obs")
        rebuilt = MatrixReport.from_dict(observed.to_dict())
        assert rebuilt.to_dict() == observed.to_dict()
        assert rebuilt.digest() == observed.digest()
        # Serializing the canonical form is reproducible byte-for-byte.
        canonical = json.dumps(observed.canonical_dict(), sort_keys=True)
        assert canonical == json.dumps(run_plain().canonical_dict(),
                                       sort_keys=True)


class TestExportParity:
    """Sequential and sharded runs write the same cell-level artifacts."""

    @pytest.mark.parametrize(
        "matrix, worker_counts",
        [(MATRIX, (2, 3)), (SINGLE, (4,))],
        ids=["three-topologies", "single-topology"],
    )
    def test_cell_files_are_byte_identical_across_worker_counts(
        self, tmp_path, matrix, worker_counts
    ):
        def run(obs_dir, workers=None):
            report, _ = run_matrix(
                matrix, workers=workers, obs_dir=obs_dir, profile=True,
                cache_dir=obs_dir.with_name(obs_dir.name + "-cache"),
            )
            return report

        sequential_dir = tmp_path / "seq"
        sequential = run(sequential_dir)
        cells = len(sequential)
        for workers in worker_counts:
            parallel_dir = tmp_path / f"w{workers}"
            parallel = run(parallel_dir, workers=workers)
            assert parallel.digest() == sequential.digest()
            for counter in ("hits", "stored"):
                assert parallel.cache_stats[counter] == \
                    sequential.cache_stats[counter]
            assert sequential.cache_stats["stored"] == cells
            assert export.metrics_path(parallel_dir).read_bytes() == \
                export.metrics_path(sequential_dir).read_bytes()
            for position in range(cells):
                cell = export.cell_span_path(sequential_dir, position)
                assert cell.exists()
                assert export.cell_span_path(
                    parallel_dir, position
                ).read_bytes() == cell.read_bytes(), (
                    f"cell {position} span stream diverged at "
                    f"workers={workers}"
                )
            # No shard metrics parts left behind after the parent's merge.
            assert not list(parallel_dir.glob("metrics-shard-*.jsonl"))

    def test_profiles_label_every_participant(self, tmp_path):
        sequential_dir = tmp_path / "seq"
        run_observed(sequential_dir)
        labels = [
            p.label
            for p in export.load_profiles(export.profile_path(sequential_dir))
        ]
        assert labels == ["sequential"]
        parallel_dir = tmp_path / "par"
        run_observed(parallel_dir, workers=2)
        labels = [
            p.label
            for p in export.load_profiles(export.profile_path(parallel_dir))
        ]
        assert labels == ["parent", "shard-0", "shard-1"]
        # A one-shard plan runs in-process through the same spool and merge.
        single_dir = tmp_path / "single"
        run_matrix(SINGLE, workers=4, obs_dir=single_dir, profile=True)
        labels = [
            p.label
            for p in export.load_profiles(export.profile_path(single_dir))
        ]
        assert labels == ["parent", "shard-0"]
        assert (single_dir / export.MERGE_SPANS_FILE).exists()

    def test_merged_export_metrics_equal_the_report(self, tmp_path):
        obs_dir = tmp_path / "obs"
        report = run_observed(obs_dir, workers=2)
        merged = export.merged_metrics(export.metrics_path(obs_dir))
        total_requests = sum(
            cell.summary["requests"] for cell in report.cells
        )
        assert merged.counter("requests").value == total_requests
        assert merged.histogram("locate_hops").count == total_requests
