"""suturesim: circular-needle pose estimation and a deterministic suturing simulator."""

from .config import ConfigError, config_from_dict, load_config
from .controller import ControllerParams, PipelineState, cinch_length, run_suture
from .harness import (
    ExperimentConfig,
    MetricsReport,
    PRESETS,
    compute_metrics,
    report_render,
    run_trial,
    validate_event_trace,
)
from .perception import (
    NeedlePose,
    NeedleSpec,
    NoiseModel,
    RansacParams,
    estimate_needle_pose,
    estimate_pose,
    pose_agreement,
    synth_needle_cloud,
)
from .simworld import FailureModel, TimingModel, WorldState, WoundSpec, make_wound
from .triallog import ErrorKind, TrialLog, write_logs

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ControllerParams",
    "ErrorKind",
    "ExperimentConfig",
    "FailureModel",
    "MetricsReport",
    "NeedlePose",
    "NeedleSpec",
    "NoiseModel",
    "PRESETS",
    "PipelineState",
    "RansacParams",
    "TimingModel",
    "TrialLog",
    "WorldState",
    "WoundSpec",
    "cinch_length",
    "compute_metrics",
    "config_from_dict",
    "estimate_needle_pose",
    "estimate_pose",
    "load_config",
    "make_wound",
    "pose_agreement",
    "report_render",
    "run_suture",
    "run_trial",
    "synth_needle_cloud",
    "validate_event_trace",
    "write_logs",
]
