"""Golden bytes of a ReSiPE fault campaign with detect-and-remap.

Pins the SHA-256 of the sorted trial records of a small ReSiPE
``mode="linear"`` campaign on mlp-1 with the remap stage on.  The spec
is chosen so the records cover every branch of the recovery flow:
spares accepted on the first, second and third attempt, spares that
keep failing and degrade to software after three attempts, and columns
beyond the spare budget that go straight to software.

The reproducibility suite runs the ideal backend only, which never
programs a ReSiPE spare strip; this pin guards the spare draw order
(one fault draw per band tile, positive bands first, in column, attempt
and retry order) and the spare-strip arithmetic.  A change that only
reorganises how the strips are evaluated must leave the digest alone,
at every worker count and trial batch size.
"""

import collections
import hashlib
import json

import pytest

from repro.faults import CampaignSpec, FaultCampaign
from repro.store import ArtifactStore

GOLDEN = "d12c9307c451cd08ce40332c2db5560750274574dac7a5999df372cc4faac00c"

SPEC = CampaignSpec(
    network="mlp-1",
    rates=(0.0, 0.005, 0.02),
    sigmas=(0.0,),
    ages=(0.0,),
    trials=2,
    seed=0,
    n_samples=300,
    eval_samples=50,
    spare_fraction=0.5,
    probe_threshold=0.05,
    max_retries=2,
    backend="resipe",
    mode="linear",
    remap=True,
)


def _digest(records) -> str:
    ordered = sorted(records, key=lambda r: json.dumps(r, sort_keys=True))
    blob = json.dumps(ordered, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.fixture(scope="module")
def model_cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("models"))


@pytest.mark.parametrize("workers,trial_batch", [(1, 1), (1, 4), (2, 1), (2, 4)])
def test_remap_campaign_records_are_pinned(
    workers, trial_batch, model_cache, tmp_path, monkeypatch
):
    monkeypatch.setenv("REPRO_CACHE", model_cache)
    campaign = FaultCampaign(SPEC, store=ArtifactStore(str(tmp_path / "rec")))
    result = campaign.run(workers=workers, trial_batch=trial_batch)
    assert result.computed == len(SPEC.points())

    outcomes = collections.Counter(
        (event["action"], event["attempts"])
        for record in result.records
        for event in record["remap_events"]
    )
    for attempts in (1, 2, 3):
        assert outcomes[("spare", attempts)] > 0, outcomes
    assert outcomes[("software", 0)] > 0, outcomes
    assert outcomes[("software", SPEC.max_retries + 1)] > 0, outcomes

    assert _digest(result.records) == GOLDEN
