"""Campaign orchestration: durable, deduplicated, resumable experiment runs.

Three layers:

* :mod:`repro.campaigns.store` — a content-addressed result store.  Each
  leaf job spec (scheduler, cluster, workload, seed entropy, sim backend, code
  contract version) hashes to a stable cache key; results persist as JSON
  (plus optional ``.npz``) records, so re-running any figure, sweep or
  scenario matrix skips every cell already computed — bit-identically.
* :mod:`repro.campaigns.spec` — declarative :class:`CampaignSpec` composing
  figures, scenario matrices and GA sweeps into one unit.
* :mod:`repro.campaigns.runner` — the resumable runner: cells stream
  through any :mod:`repro.parallel` executor, every completed cell is
  persisted and the manifest checkpointed, and aggregates are folded from
  the store in cell order so interrupted-then-resumed runs are
  bit-identical to uninterrupted ones.

CLI: ``repro campaigns run | status | resume``.
"""

from .runner import (
    CampaignCell,
    CampaignPlan,
    CampaignResult,
    expand_campaign,
    load_manifest,
    run_campaign,
    run_campaign_cell,
)
from .spec import CampaignSpec, SweepSpec
from .store import CODE_CONTRACT_VERSION, ResultStore, cache_key, fingerprint

__all__ = [
    "CODE_CONTRACT_VERSION",
    "CampaignCell",
    "CampaignPlan",
    "CampaignResult",
    "CampaignSpec",
    "ResultStore",
    "SweepSpec",
    "cache_key",
    "expand_campaign",
    "fingerprint",
    "load_manifest",
    "run_campaign",
    "run_campaign_cell",
]
