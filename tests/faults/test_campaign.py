"""Resumable Monte-Carlo fault campaigns."""

import json
import multiprocessing
import os

import pytest

from repro.errors import ConfigurationError
from repro.faults import (
    CampaignSpec,
    FaultCampaign,
    render_campaign,
)
from repro.store import ArtifactStore

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="inheriting the prepared chip needs the fork start method",
)


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


class TestSpec:
    def test_grid_enumeration(self, spec):
        points = spec.points()
        assert len(points) == 4  # 2 rates x 1 sigma x 1 age x 2 trials
        assert points[0] == pytest.approx((0.0, 0.0, 0.0, 0))

    def test_injector_composition(self, spec):
        assert spec.injector_for(0.0, 0.0, 0.0) is None
        solo = spec.injector_for(0.05, 0.0, 0.0)
        assert solo.describe()["type"] == "stuck_at"
        combo = spec.injector_for(0.05, 0.1, 3600.0)
        kinds = [s["type"] for s in combo.describe()["stages"]]
        assert kinds == ["drift", "variation", "stuck_at"]

    def test_stuck_on_fraction_split(self, spec):
        desc = spec.injector_for(0.04, 0.0, 0.0).describe()
        assert desc["stuck_on_rate"] == pytest.approx(0.02)
        assert desc["stuck_off_rate"] == pytest.approx(0.02)

    def test_fingerprint_tracks_spec(self, spec):
        import dataclasses

        other = dataclasses.replace(spec, seed=1)
        assert spec.fingerprint() != other.fingerprint()
        assert spec.fingerprint() == CampaignSpec(**dataclasses.asdict(spec)).fingerprint()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec(rates=())
        with pytest.raises(ConfigurationError):
            CampaignSpec(rates=(1.5,))
        with pytest.raises(ConfigurationError):
            CampaignSpec(trials=0)
        with pytest.raises(ConfigurationError):
            CampaignSpec(backend="quantum")
        with pytest.raises(ConfigurationError):
            CampaignSpec(mode="surreal")
        with pytest.raises(ConfigurationError):
            CampaignSpec(stuck_on_fraction=2.0)

    @pytest.mark.parametrize("field,value", [
        ("spare_fraction", 1.5),
        ("spare_fraction", -0.1),
        ("probe_threshold", 0.0),
        ("probe_threshold", -0.05),
        ("probe_vectors", -1),
        ("max_retries", -1),
    ])
    def test_invalid_remap_settings_rejected(self, field, value):
        """Regression: these used to construct and fingerprint, then
        fail as MappingError only after the chip was trained, inside a
        worker."""
        with pytest.raises(ConfigurationError):
            CampaignSpec(**{field: value})


class TestRun:
    def test_campaign_runs_resumes_and_recovers(self, spec, tmp_path,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "models"))
        store = ArtifactStore(str(tmp_path / "records"))

        # Interrupted run: only one new trial computed.
        partial = FaultCampaign(spec, store=store).run(max_trials=1)
        assert partial.computed == 1 and partial.cached == 0
        assert len(partial.records) == 1

        # Resume finishes the remaining trials without recomputation.
        full = FaultCampaign(spec, store=store).run()
        assert full.computed == 3 and full.cached == 1
        assert len(full.records) == 4

        # A third run is served entirely from the store.
        again = FaultCampaign(spec, store=store).run()
        assert again.computed == 0 and again.cached == 4
        assert again.records == full.records

        # Remap-protected accuracy never trails the unprotected chip at
        # the faulted grid point.
        curve = {p["rate"]: p for p in again.curve()}
        faulty = curve[0.05]
        assert faulty["remapped_mean"] >= faulty["unprotected_mean"]
        assert faulty["mean_flagged"] > 0

        # Pristine point: remap is a no-op.
        clean = curve[0.0]
        assert clean["remapped_mean"] == pytest.approx(
            clean["unprotected_mean"]
        )

        text = render_campaign(again)
        assert "remapped" in text and "mlp-1" in text
        assert "4 trial(s) from store" in text


class TestWorkerState:
    """Group cells reuse the parent's prepared chip — by identity
    in-process and in forked workers — a worker that inherited nothing
    rebuilds it from the spec, and nothing outlives the run."""

    @staticmethod
    def _log_loads(monkeypatch, log):
        """Record the pid of every model load (visible across forks)."""
        from repro.experiments import networks

        original = networks.get_benchmark_networks

        def logged(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return original(*args, **kwargs)

        monkeypatch.setattr(networks, "get_benchmark_networks", logged)

    @staticmethod
    def _sorted(records):
        return sorted(json.dumps(r, sort_keys=True) for r in records)

    def test_in_process_groups_get_the_prepared_chip_by_identity(
        self, spec, tmp_path, monkeypatch
    ):
        from repro.faults import campaign as campaign_mod

        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "models"))
        seen = []
        original = campaign_mod._run_trial_group

        def spy(points, chip):
            seen.append(chip)
            return original(points, chip)

        monkeypatch.setattr(campaign_mod, "_run_trial_group", spy)
        campaign = FaultCampaign(
            spec, store=ArtifactStore(str(tmp_path / "records"))
        )
        campaign.run(max_trials=2)
        assert len(seen) == 2
        assert all(chip is campaign._chips[spec.network] for chip in seen)
        # A second run of the instance prepares nothing again.
        campaign.run()
        assert len(seen) == 4
        assert all(chip is seen[0] for chip in seen)

    @needs_fork
    def test_forked_workers_inherit_and_nothing_outlives_the_run(
        self, spec, tmp_path, monkeypatch
    ):
        from repro.faults import campaign as campaign_mod
        from repro.runtime import scheduler as scheduler_mod

        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "models"))
        log = tmp_path / "loads"
        self._log_loads(monkeypatch, log)
        serial = FaultCampaign(
            spec, store=ArtifactStore(str(tmp_path / "serial"))
        ).run(workers=1)
        pooled = FaultCampaign(
            spec, store=ArtifactStore(str(tmp_path / "pooled"))
        ).run(workers=2)
        assert pooled.computed == len(spec.points())
        assert self._sorted(pooled.records) == self._sorted(serial.records)
        # One load per campaign, both in this process: no worker
        # re-prepared the chip.
        with open(log) as fh:
            assert [int(pid) for pid in fh] == [os.getpid()] * 2
        assert scheduler_mod._RUNNING is None
        for module in (campaign_mod, scheduler_mod):
            for name, value in vars(module).items():
                assert not isinstance(
                    value, (FaultCampaign, campaign_mod._Chip)
                ), f"{module.__name__}.{name}"

    def test_spawned_workers_rebuild_the_same_records(
        self, spec, tmp_path, monkeypatch
    ):
        from repro.runtime import scheduler as scheduler_mod

        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "models"))
        serial = FaultCampaign(
            spec, store=ArtifactStore(str(tmp_path / "serial"))
        ).run(workers=1)
        monkeypatch.setattr(
            scheduler_mod, "_pool_context",
            lambda: multiprocessing.get_context("spawn"),
        )
        spawned = FaultCampaign(
            spec, store=ArtifactStore(str(tmp_path / "spawned"))
        ).run(workers=2, trial_batch=2)
        assert spawned.computed == len(spec.points())
        assert self._sorted(spawned.records) == self._sorted(serial.records)


class TestCampaignTrace:
    def test_campaign_spans_share_one_trace(self, spec, tmp_path,
                                            monkeypatch):
        """campaign.run mints one trace id; scheduler cells and trial
        groups stitch under it."""
        from repro.telemetry import session as telemetry

        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "models"))
        store = ArtifactStore(str(tmp_path / "records"))
        with telemetry.capture() as session:
            FaultCampaign(spec, store=store).run()
        by_name = {}
        for span in session.tracer.spans:
            by_name.setdefault(span.name, []).append(span)
        (run_span,) = by_name["campaign.run"]
        assert run_span.trace_id is not None
        for name in ("scheduler.cell", "campaign.trial_group"):
            assert by_name[name], f"no {name} spans recorded"
            assert all(s.trace_id == run_span.trace_id
                       for s in by_name[name])
        # The 4-point grid at trial_batch=1: one group span per trial,
        # plus the parent-side prepare cell.
        assert len(by_name["campaign.trial_group"]) == 4
        assert len(by_name["scheduler.cell"]) == 5

    @needs_fork
    def test_span_names_match_across_worker_counts(self, spec, tmp_path,
                                                   monkeypatch):
        """The parent's span-name multiset does not depend on the worker
        count: pooled cells record the same spans, grafted from the
        forked workers, that in-process cells record directly."""
        import collections
        import dataclasses

        from repro.telemetry import session as telemetry

        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "models"))
        spec = dataclasses.replace(spec, sigmas=(0.05,))
        names = {}
        for workers in (1, 2):
            store = ArtifactStore(str(tmp_path / f"records-{workers}"))
            with telemetry.capture() as session:
                FaultCampaign(spec, store=store).run(
                    workers=workers, trial_batch=2
                )
            names[workers] = collections.Counter(
                s.name for s in session.tracer.spans
            )
        assert names[1] == names[2]
        assert names[1]["campaign.run"] == 1
        assert names[1]["campaign.trial_group"] == 2
        assert names[1]["scheduler.cell"] == 3


class TestCLI:
    def test_faults_subcommand_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["faults", "--rates", "0", "0.01", "--trials", "2",
             "--seed", "7", "--backend", "ideal", "--no-remap"]
        )
        assert args.command == "faults"
        assert args.rates == pytest.approx([0.0, 0.01])
        assert args.seed == 7
        assert args.no_remap

    def test_fig7_gains_seed_and_fault_flags(self, capsys):
        """``repro fig7`` takes a seed but no stuck-at flags: variation
        with stuck-at on top is a ``repro faults`` grid."""
        from repro.cli import build_parser

        parser = build_parser()
        assert parser.parse_args(["fig7", "--seed", "3"]).seed == 3
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["fig7", "--stuck-on", "0.01"])
        assert exc.value.code == 2
        assert "--stuck-on" in capsys.readouterr().err
