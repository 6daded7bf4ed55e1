"""Golden results, the paper's figures, and the schema-version bump guard.

Three freezes protect downstream consumers of campaign results:

* a byte-for-byte golden JSONL for the shipped mapper-ablation and
  Figure 9/10/11 campaigns (any drift in selection, seeding, simulation
  or serialization shows up here);
* EXPERIMENTS.md's Figure 9/10/11 tables are renderings of those golden
  rows, and the rows keep the paper's shape (who wins, by how much); and
* a fingerprint of the row/summary field sets per schema version —
  changing the shape of a result without bumping ``SCHEMA_VERSION``
  fails loudly instead of silently breaking saved baselines.
"""

import json
import pathlib

import pytest

from repro.apps.em3d import generate_problem, run_em3d_hmpi, run_em3d_mpi
from repro.apps.matmul import run_matmul_hmpi, run_matmul_mpi
from repro.campaign import (
    RESULT_FIELDS,
    SCHEMA_VERSION,
    SUMMARY_FIELDS,
    load_config,
    run_campaign,
)
from repro.cluster import paper_network
from repro.core import GreedyMapper

from ..experiments import assert_table

HERE = pathlib.Path(__file__).parent
CAMPAIGNS = HERE.parent.parent / "examples" / "campaigns"
FIGURES = ("fig09", "fig10", "fig11")


def golden_rows(name: str) -> list[dict]:
    text = (HERE / "golden" / f"{name}.jsonl").read_text()
    return [json.loads(line) for line in text.splitlines()]


def assert_matches_golden(name: str) -> None:
    writer = run_campaign(load_config(CAMPAIGNS / f"{name}.json"))
    assert writer.jsonl() == (HERE / "golden" / f"{name}.jsonl").read_text(), (
        "campaign results drifted from the committed golden file; "
        "if the change is intentional, regenerate it with: "
        f"PYTHONPATH=src python -m repro campaign run "
        f"examples/campaigns/{name}.json --out /tmp/g && "
        f"cp /tmp/g/results.jsonl tests/campaign/golden/{name}.jsonl"
    )


# Frozen field sets per schema version.  If the assertion below fires you
# changed the shape of results: bump SCHEMA_VERSION in
# src/repro/campaign/results.py, add the new fingerprint here, and
# regenerate golden files and committed baselines.
SCHEMA_FINGERPRINTS = {
    1: {
        "row": ("cell", "error", "metrics", "run", "schema", "seed",
                "status"),
        "summary": ("cells", "config_digest", "errors", "name", "ok",
                    "runs", "schema_version"),
    },
}


class TestSchemaGuard:
    def test_current_version_has_a_fingerprint(self):
        assert SCHEMA_VERSION in SCHEMA_FINGERPRINTS, (
            f"results schema version {SCHEMA_VERSION} has no frozen "
            f"fingerprint: record its field sets in SCHEMA_FINGERPRINTS "
            f"and regenerate golden files and committed baselines"
        )

    def test_fields_match_the_frozen_fingerprint(self):
        frozen = SCHEMA_FINGERPRINTS[SCHEMA_VERSION]
        assert (RESULT_FIELDS, SUMMARY_FIELDS) == (
            frozen["row"], frozen["summary"]), (
            f"result/summary fields changed without a schema bump: "
            f"saved baselines and golden files written as schema "
            f"{SCHEMA_VERSION} would silently mismatch.  Bump "
            f"SCHEMA_VERSION in src/repro/campaign/results.py, freeze "
            f"the new fingerprint in SCHEMA_FINGERPRINTS, and "
            f"regenerate the golden files"
        )


class TestGoldenResults:
    def test_mapper_ablation_matches_golden_bytes(self):
        assert_matches_golden("mapper_ablation")

    @pytest.mark.parametrize("name", FIGURES)
    def test_figure_matches_golden_bytes(self, name):
        assert_matches_golden(name)


class TestPaperFigures:
    """EXPERIMENTS.md's Figure 9/10/11 tables are the golden rows, and
    the rows reproduce the paper's shape."""

    def test_tables_and_shape(self):
        rows = {name: [r["metrics"] | r["cell"] for r in golden_rows(name)]
                for name in FIGURES}
        assert all(r["checksum_ok"] for name in FIGURES for r in rows[name])

        fig9 = {(r["total_nodes"], r["procs_per_machine"]): r
                for r in rows["fig09"]}
        totals = sorted({total for total, _ in fig9})
        table = []
        for total in totals:
            one, two = fig9[total, 1], fig9[total, 2]
            assert one["mpi_time"] == two["mpi_time"]
            table.append([total, one["mpi_time"], one["hmpi_time"],
                          two["hmpi_time"], two["predicted_time"],
                          one["speedup"], two["speedup"]])
            # HMPI never loses; with two slots per machine it wins
            # decisively; Timeof tracks the measurement.
            assert one["hmpi_time"] <= one["mpi_time"] * 1.001
            assert two["speedup"] > 1.3
            assert two["predicted_time"] == pytest.approx(
                two["hmpi_time"], rel=0.1)
        assert_table("Figure 9", table)

        fig10 = sorted(rows["fig10"], key=lambda r: r["l"])
        assert_table("Figure 10", [
            [r["l"], r["mpi_time"], r["hmpi_time"], r["predicted_time"]]
            for r in fig10])
        for r in fig10:
            # At l = m the distribution degenerates to block-cyclic.
            if r["l"] == 3:
                assert r["hmpi_time"] == pytest.approx(r["mpi_time"],
                                                       rel=1e-6)
            else:
                assert r["hmpi_time"] < r["mpi_time"]
            assert r["predicted_time"] == pytest.approx(r["hmpi_time"],
                                                        rel=0.1)
        # Figure 8's shortcut: the l that Timeof picks is the l that runs
        # fastest.
        assert min(fig10, key=lambda r: r["predicted_time"])["l"] == \
            min(fig10, key=lambda r: r["hmpi_time"])["l"]

        fig11 = sorted(rows["fig11"], key=lambda r: r["n"])
        assert_table("Figure 11", [
            [r["n"], r["n"] * 9, r["mpi_time"], r["hmpi_time"], r["speedup"]]
            for r in fig11])
        speedups = [r["speedup"] for r in fig11]
        assert all(s > 2.0 for s in speedups)
        assert speedups[-1] >= speedups[0]
        for r in fig11:
            assert r["predicted_time"] == pytest.approx(r["hmpi_time"],
                                                        rel=0.1)

    def test_rows_match_direct_runs_bitwise(self):
        def row(name, **cell):
            return next(r["metrics"] for r in golden_rows(name)
                        if r["cell"] == cell)

        m = row("fig09", total_nodes=9000, procs_per_machine=2)
        problem = generate_problem(p=9, total_nodes=9000, seed=42)
        mpi = run_em3d_mpi(paper_network(), problem, niter=8, k=100)
        hmpi = run_em3d_hmpi(paper_network(), problem, niter=8, k=100,
                             procs_per_machine=2)
        assert mpi.checksum == hmpi.checksum
        assert (m["mpi_time"], m["hmpi_time"], m["predicted_time"],
                m["group_machines"]) == (
            mpi.algorithm_time, hmpi.algorithm_time, hmpi.predicted_time,
            list(hmpi.group_machines))

        for name, cell, shape, l in (
            ("fig10", {"l": 6}, {"n": 24, "r": 8, "seed": 10}, 6),
            ("fig11", {"n": 9}, {"n": 9, "r": 9, "seed": 11}, 9),
        ):
            m = row(name, **cell)
            mpi = run_matmul_mpi(paper_network(), m=3, **shape)
            hmpi = run_matmul_hmpi(paper_network(), m=3, l=l, **shape,
                                   mapper=GreedyMapper())
            assert hmpi.checksum == pytest.approx(mpi.checksum, rel=1e-9)
            assert (m["mpi_time"], m["hmpi_time"], m["predicted_time"],
                    m["group_machines"]) == (
                mpi.algorithm_time, hmpi.algorithm_time,
                hmpi.predicted_time, list(hmpi.group_world_ranks))
