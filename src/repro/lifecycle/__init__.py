"""Model lifecycle: rolling retrain, versioned snapshots, shadow
evaluation, drift alarms, and gated promotion with one-step rollback.

The offline artifacts (``Th``, Eq. 6 slots, anomaly ``delta``) stop
being fit-once-and-frozen: :class:`LifecycleManager` attaches to a live
server and keeps refitting them from the ingest stream, promoting a
refit only after it proves itself in shadow.  Everything runs on the
report-time axis — fully deterministic and replayable (WL001).
"""

from repro.lifecycle.drift import (
    DriftAlarm,
    DriftConfig,
    DriftMonitor,
    alarms_to_anomalies,
    seasonal_shift,
)
from repro.lifecycle.manager import (
    LifecycleConfig,
    LifecycleManager,
    promotion_gate,
    unwrap_server,
)
from repro.lifecycle.model import (
    TrainedModel,
    canonical_model_bytes,
    model_from_payload,
    model_to_payload,
)
from repro.lifecycle.registry import ModelRegistry
from repro.lifecycle.retrain import (
    RetrainConfig,
    RetrainDataError,
    RollingRetrainer,
)
from repro.lifecycle.shadow import (
    ModelScore,
    ShadowEvaluator,
    ShadowSample,
)

__all__ = [
    "DriftAlarm",
    "DriftConfig",
    "DriftMonitor",
    "alarms_to_anomalies",
    "seasonal_shift",
    "LifecycleConfig",
    "LifecycleManager",
    "promotion_gate",
    "unwrap_server",
    "TrainedModel",
    "canonical_model_bytes",
    "model_from_payload",
    "model_to_payload",
    "ModelRegistry",
    "RetrainConfig",
    "RetrainDataError",
    "RollingRetrainer",
    "ModelScore",
    "ShadowEvaluator",
    "ShadowSample",
]
