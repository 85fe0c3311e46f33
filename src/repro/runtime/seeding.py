"""Deterministic seed partitioning for Monte-Carlo campaigns.

Every trial of a sweep gets its own :class:`numpy.random.SeedSequence`,
derived from the master seed and the trial's *identity token* (grid
point + trial index), **not** from its position in any schedule.  The
stream a trial sees is therefore a pure function of
``(master seed, token)`` — independent of worker count, cell boundaries,
batch grouping or execution order — which is what makes parallel
campaign results byte-identical to serial ones.

The derivation is ``SeedSequence(master_seed + crc32(token))``, the
same entropy the serial campaign loops have always fed
``default_rng``, so records persisted by earlier runs of the same spec
stay valid byte-for-byte.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["trial_seed_sequence", "trial_rng"]


def trial_seed_sequence(
    master_seed: int, token: str
) -> np.random.SeedSequence:
    """The :class:`~numpy.random.SeedSequence` of one trial.

    ``token`` names the trial (e.g. ``"mlp-1|0.050000|...|3"``); equal
    tokens map to equal streams and distinct tokens to distinct ones
    regardless of who evaluates them.
    """
    return np.random.SeedSequence(
        master_seed + zlib.crc32(token.encode())
    )


def trial_rng(master_seed: int, token: str) -> np.random.Generator:
    """A fresh, deterministic Generator for one trial."""
    return np.random.default_rng(trial_seed_sequence(master_seed, token))
