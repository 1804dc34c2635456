"""Experiment configuration files.

A config file is a YAML mapping of the sections below; every field is
optional and missing values fall back to the shipped defaults. Angles
live in the file in degrees (fields suffixed ``_deg``) and are converted
to radians on load. Validation failures raise ConfigError whose message
starts with the dotted path of the offending field, or with its section's
name when values are only wrong together.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import yaml

from .controller import sweep_path
from .harness import ExperimentConfig
from .simworld import WORKSPACE_MAX, WORKSPACE_MIN, TimingModel, make_wound, suture_targets


class ConfigError(ValueError):
    """A config file failed to parse or validate."""


def _number(value, path: str) -> float:
    """Every number the loader reads, triples, degrees and durations
    included, passes here: a NaN or infinite value is rejected under its
    own dotted path."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer past the largest double
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return number


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _degrees(value, path: str) -> float:
    return math.radians(_number(value, path))


def _triple(value, path: str) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigError(f"{path}: expected a list of 3 numbers, got {value!r}")
    return tuple(_number(v, f"{path}[{i}]") for i, v in enumerate(value))


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string, got {value!r}")
    return value


def _mapping(value, path: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(value).__name__}")
    return value


def _gather(section, path: str, converters: dict) -> dict:
    """Convert a section's raw values into {dotted path: (field, value)}.

    `converters` maps the file-facing key to (constructor field, fn).
    Unknown keys are an error: silently ignored typos in experiment
    configs are how wrong results get published.
    """
    out = {}
    for key, value in _mapping(section, path).items():
        if key not in converters:
            raise ConfigError(f"{path}.{key}: unknown field")
        target, fn = converters[key]
        out[f"{path}.{key}"] = (target, fn(value, f"{path}.{key}"))
    return out


_EXPERIMENT = {
    "preset": ("preset", _string),
    "n_trials": ("n_trials", _integer),
    "base_seed": ("base_seed", _integer),
    "n_cloud_points": ("n_cloud_points", _integer),
    "thread_length": ("thread_length", _number),
}

_CONTROLLER = {
    "insertion_rotation_deg": ("insertion_rotation", _degrees),
    "extraction_rotation_deg": ("extraction_rotation", _degrees),
    "correction_final_rotation_deg": ("correction_final_rotation", _degrees),
    "approach_offset": ("approach_offset", _number),
    "approach_advance": ("approach_advance", _number),
    "handover_jitter_max": ("handover_jitter_max", _number),
    "extraction_progress_threshold": ("extraction_progress_threshold", _number),
    "max_retries": ("max_retries", _integer),
    "normal_samples": ("normal_samples", _integer),
    "correction_corner": ("correction_corner", _triple),
    "l_des": ("l_des", _number),
    "l_each": ("l_each", _number),
    "normal_change_epsilon_deg": ("normal_change_epsilon", _degrees),
    "handover_test_offset": ("handover_test_offset", _triple),
    "handover_miss_epsilon": ("handover_miss_epsilon", _number),
    "lift_clear": ("lift_clear", _number),
}

_FAILURES = {
    "grasp_miss_base": ("grasp_miss_base", _number),
    "grasp_miss_per_mm_pose_error": ("grasp_miss_per_mm_pose_error", _number),
    "entanglement_prob_unswept": ("entanglement_prob_unswept", _number),
    "entanglement_prob_swept": ("entanglement_prob_swept", _number),
    "insertion_slip_prob": ("insertion_slip_prob", _number),
    "perception_corruption_prob": ("perception_corruption_prob", _number),
}

_NOISE = {
    "gaussian_sigma": ("gaussian_sigma", _number),
    "outlier_fraction": ("outlier_fraction", _number),
    "outlier_box": ("outlier_box", _triple),
    "dropout_fraction": ("dropout_fraction", _number),
}

_RANSAC = {
    "iterations": ("iterations", _integer),
    "inlier_threshold": ("inlier_threshold", _number),
    "min_inliers": ("min_inliers", _integer),
}

_NEEDLE = {
    "radius": ("radius", _number),
    "arc_span_deg": ("arc_span", _degrees),
}

_WOUND = {
    "n_sutures": ("n_sutures", _integer),
    "spacing": ("spacing", _number),
    "ridge_half_width": ("ridge_half_width", _number),
    "ridge_height": ("ridge_height", _number),
    "entry_height": ("entry_height", _number),
}

_TIMING_SCALARS = {
    "perception_period": ("perception_period", _number),
}


# (YAML section, ExperimentConfig field, converters) of every section that
# overrides fields of its default; timing, wound and experiment are built
# apart.
_SECTIONS = (
    ("controller", "controller", _CONTROLLER),
    ("failure_model", "failures", _FAILURES),
    ("noise", "noise", _NOISE),
    ("ransac", "ransac", _RANSAC),
    ("circle_ransac", "circle_ransac", _RANSAC),
    ("needle", "needle", _NEEDLE),
)


def _build(base, values: dict, path: str):
    """`base` with the gathered values replaced. A value its constructor
    rejects on its own is named by its dotted path; a combination that
    only fails together (swept above unswept entanglement, say) by the
    section's."""
    try:
        return replace(base, **dict(values.values()))
    except ValueError as exc:
        for name, (target, value) in values.items():
            try:
                replace(base, **{target: value})
            except ValueError as alone:
                raise ConfigError(f"{name}: {alone}") from alone
        raise ConfigError(f"{path}: {exc}") from exc


def config_from_dict(data: dict | None) -> ExperimentConfig:
    """Build an ExperimentConfig from parsed YAML (None = all defaults)."""
    data = dict(_mapping(data, "config"))
    defaults = ExperimentConfig()
    top = _gather(data.pop("experiment", None), "experiment", _EXPERIMENT)
    experiment = _build(defaults, top, "experiment")

    settings = {}
    for section, name, converters in _SECTIONS:
        values = _gather(data.pop(section, None), section, converters)
        settings[name] = _build(getattr(defaults, name), values, section)

    timing_raw = dict(_mapping(data.pop("timing", None), "timing"))
    durations = _mapping(timing_raw.pop("durations", None), "timing.durations")
    merged = dict(defaults.timing.durations)
    for name, value in durations.items():
        if name not in merged:
            raise ConfigError(f"timing.durations.{name}: unknown primitive")
        merged[name] = _number(value, f"timing.durations.{name}")
        try:
            TimingModel(durations={name: merged[name]})
        except ValueError as exc:
            raise ConfigError(f"timing.durations.{name}: {exc}") from exc
    timing_values = _gather(timing_raw, "timing", _TIMING_SCALARS)
    timing_values["timing.durations"] = ("durations", merged)
    settings["timing"] = _build(defaults.timing, timing_values, "timing")

    # NeedleSpec takes a full circle, for the estimator's clouds, but a
    # simulated needle's swage would sit on its tip.
    if settings["needle"].arc_span >= 2.0 * math.pi:
        raise ConfigError("needle.arc_span_deg: a simulated needle must span less than 360 degrees")
    wound_kw = _gather(data.pop("wound", None), "wound", _WOUND)
    try:
        wound = make_wound(**dict(wound_kw.values()))
    except ValueError as exc:
        raise ConfigError(f"wound: {exc}") from exc
    # Otherwise every trial dies setting up its first suture, or on its
    # first thread sweep.
    radius = settings["needle"].radius
    try:
        for i in range(1, wound.n_target_sutures + 1):
            suture_targets(wound, i, radius)
    except ValueError as exc:
        raise ConfigError(
            f"wound.ridge_half_width, needle.radius: suture {i}: {exc} ({2.0 * radius:g} m)"
        ) from exc
    start, run = sweep_path(wound)
    for point in (start, start + run):
        if np.any(point < WORKSPACE_MIN) or np.any(point > WORKSPACE_MAX):
            raise ConfigError(
                f"wound.n_sutures, wound.spacing, wound.ridge_height: the thread sweep "
                f"reaches {point.tolist()}, outside the workspace"
            )
    settings["wound"] = wound

    if data:
        raise ConfigError(f"{sorted(data)[0]}: unknown section")
    return replace(experiment, **settings)


def load_config(path) -> ExperimentConfig:
    """Read and validate a YAML config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config: not valid YAML: {exc}") from exc
    return config_from_dict(data)


def apply_overrides(
    config: ExperimentConfig,
    preset: str | None = None,
    n_trials: int | None = None,
    base_seed: int | None = None,
) -> ExperimentConfig:
    """Command-line overrides win over file values. A value the config
    rejects is named by its flag."""
    for flag, name, value in (
        ("--preset", "preset", preset),
        ("--trials", "n_trials", n_trials),
        ("--seed", "base_seed", base_seed),
    ):
        if value is not None:
            try:
                config = replace(config, **{name: value})
            except ValueError as exc:
                raise ConfigError(f"{flag}: {exc}") from exc
    return config
