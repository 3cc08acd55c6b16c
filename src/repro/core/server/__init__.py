"""The WiLocator back-end server (Section V.A)."""

from repro.core.server.api import (
    DepartureEntry,
    LivePosition,
    RiderAPI,
    TripOption,
    UnknownStopError,
)
from repro.core.server.backend import BACKEND_METHODS, ServingBackend
from repro.core.server.metrics import (
    CacheStats,
    LatencyHistogram,
    ServerMetrics,
    format_snapshot,
)
from repro.core.server.persistence import (
    load_training_state,
    save_training_state,
    slots_from_dict,
    slots_to_dict,
    store_from_dict,
    store_to_dict,
)
from repro.core.server.server import WiLocatorServer
from repro.core.server.session import BusSession
from repro.core.server.training import (
    TrainingResult,
    fit_slot_scheme,
    history_from_ground_truth,
    track_report_batch,
    train_offline,
)

__all__ = [
    "WiLocatorServer",
    "ServingBackend",
    "BACKEND_METHODS",
    "ServerMetrics",
    "LatencyHistogram",
    "CacheStats",
    "format_snapshot",
    "BusSession",
    "RiderAPI",
    "LivePosition",
    "UnknownStopError",
    "save_training_state",
    "load_training_state",
    "store_to_dict",
    "store_from_dict",
    "slots_to_dict",
    "slots_from_dict",
    "DepartureEntry",
    "TripOption",
    "TrainingResult",
    "train_offline",
    "track_report_batch",
    "fit_slot_scheme",
    "history_from_ground_truth",
]
