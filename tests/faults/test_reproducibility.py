"""Same-seed fault campaigns must persist byte-identical trial records.

This is the payoff of the seeded-RNG discipline RNG001 enforces: every
random draw in the campaign pipeline (dataset split, weight init,
training shuffles, fault masks, health-probe stimuli) derives from the
campaign seed, so two runs of the same spec are not merely statistically
similar — the JSON written to the store is identical down to the byte.
"""

import hashlib
import os

import pytest

from repro.faults import CampaignSpec, FaultCampaign
from repro.store import ArtifactStore


@pytest.fixture
def spec():
    return CampaignSpec(
        network="mlp-1",
        rates=(0.0, 0.05),
        sigmas=(0.0,),
        ages=(0.0,),
        trials=2,
        seed=0,
        n_samples=300,
        eval_samples=50,
        backend="ideal",
    )


def _record_digests(campaign: FaultCampaign) -> dict:
    """Map trial key -> sha256 of the persisted record bytes."""
    digests = {}
    for rate, sigma, age, trial in campaign.spec.points():
        key = campaign.trial_key(rate, sigma, age, trial)
        path = campaign.store.path_for(key)
        with open(path, "rb") as fh:
            digests[key] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def _run_campaign(spec, tmp_path, label, **run_kwargs):
    store = ArtifactStore(str(tmp_path / label / "records"))
    campaign = FaultCampaign(spec, store=store)
    result = campaign.run(**run_kwargs)
    return campaign, result


class TestSeededCampaignReproducibility:
    def test_same_seed_runs_persist_identical_bytes(
        self, spec, tmp_path, monkeypatch
    ):
        # Separate model caches too: nothing may leak between the runs.
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "models-a"))
        campaign_a, result_a = _run_campaign(spec, tmp_path, "a")
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "models-b"))
        campaign_b, result_b = _run_campaign(spec, tmp_path, "b")

        digests_a = _record_digests(campaign_a)
        digests_b = _record_digests(campaign_b)
        assert digests_a.keys() == digests_b.keys()
        assert digests_a == digests_b

        for rec_a, rec_b in zip(result_a.records, result_b.records):
            assert rec_a == rec_b

    def test_different_seed_changes_faulty_records(
        self, spec, tmp_path, monkeypatch
    ):
        import dataclasses

        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "models"))
        campaign_a, result_a = _run_campaign(spec, tmp_path, "a")
        other = dataclasses.replace(spec, seed=1)
        campaign_b, result_b = _run_campaign(other, tmp_path, "b")

        # Fingerprints differ, so the keys differ; compare record bodies
        # at the faulty grid points, which must reflect the new streams.
        faulty_a = [r for r in result_a.records if r["rate"] > 0]
        faulty_b = [r for r in result_b.records if r["rate"] > 0]
        assert faulty_a != faulty_b

    def test_weight_init_derives_from_campaign_seed(self, tmp_path, monkeypatch):
        """Two fresh caches + same seed -> identical trained weights."""
        import numpy as np

        from repro.experiments.networks import get_benchmark_networks

        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "m1"))
        net_a = get_benchmark_networks(["mlp-1"], n_samples=200, seed=5)[0]
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "m2"))
        net_b = get_benchmark_networks(["mlp-1"], n_samples=200, seed=5)[0]

        params_a = net_a.model.parameters()
        params_b = net_b.model.parameters()
        assert len(params_a) == len(params_b)
        for pa, pb in zip(params_a, params_b):
            assert np.array_equal(pa.value, pb.value)

        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "m3"))
        net_c = get_benchmark_networks(["mlp-1"], n_samples=200, seed=6)[0]
        changed = any(
            not np.array_equal(pa.value, pc.value)
            for pa, pc in zip(params_a, net_c.model.parameters())
        )
        assert changed, "weight init must depend on the master seed"

    def test_trial_batch_persists_identical_bytes(
        self, spec, tmp_path, monkeypatch
    ):
        """Stacked evaluation (trial_batch > 1) is an execution detail:
        the persisted records match the serial run byte for byte."""
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "models"))
        campaign_a, result_a = _run_campaign(spec, tmp_path, "serial")
        campaign_b, result_b = _run_campaign(
            spec, tmp_path, "stacked", trial_batch=8
        )
        assert _record_digests(campaign_a) == _record_digests(campaign_b)
        for rec_a, rec_b in zip(result_a.records, result_b.records):
            assert rec_a == rec_b

    def test_process_parallel_persists_identical_bytes(
        self, spec, tmp_path, monkeypatch
    ):
        """Worker processes are an execution detail too: same bytes at
        workers=2 as serial, and the parallel run resumes from the
        store."""
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "models"))
        campaign_a, result_a = _run_campaign(spec, tmp_path, "serial")
        campaign_b, result_b = _run_campaign(
            spec, tmp_path, "parallel", workers=2, trial_batch=2
        )
        assert _record_digests(campaign_a) == _record_digests(campaign_b)
        for rec_a, rec_b in zip(result_a.records, result_b.records):
            assert rec_a == rec_b
        assert result_b.computed == len(spec.points())

        # Records merged by the parent are resumable: a second parallel
        # run serves everything from the store.
        campaign_c = FaultCampaign(spec, store=campaign_b.store)
        result_c = campaign_c.run(workers=2, trial_batch=2)
        assert result_c.computed == 0
        assert result_c.cached == len(spec.points())
        assert [r for r in result_c.records] == list(result_b.records)

    def test_scheduler_worker_counts_persist_identical_bytes(
        self, spec, tmp_path, monkeypatch
    ):
        """Worker counts 1/2/4 route through the DAG scheduler
        differently (in-process vs pooled waves) yet persist the same
        record bytes."""
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "models"))
        digests = {}
        for workers in (1, 2, 4):
            campaign, _ = _run_campaign(
                spec, tmp_path, f"w{workers}",
                workers=workers, trial_batch=2,
            )
            digests[workers] = _record_digests(campaign)
        assert digests[1] == digests[2]
        assert digests[1] == digests[4]

    def test_store_layout_is_stable(self, spec, tmp_path, monkeypatch):
        """The on-disk file set (names, not just contents) is deterministic."""
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "models"))
        campaign, _ = _run_campaign(spec, tmp_path, "a")
        root = campaign.store.root
        listing = sorted(
            os.path.relpath(os.path.join(dirpath, name), root)
            for dirpath, _, names in os.walk(root)
            for name in names
        )
        expected = sorted(
            os.path.relpath(campaign.store.path_for(
                campaign.trial_key(r, s, a, t)), root)
            for r, s, a, t in spec.points()
        )
        persisted = [
            p for p in listing
            if not p.endswith((".manifest.json", ".lock"))
        ]
        assert persisted == expected
