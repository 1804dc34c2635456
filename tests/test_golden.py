"""Golden digests: pinned sweeps must keep their exact log and report bytes.

Each preset runs `simulate --out` for 10 trials from seed 0 at the
shipped defaults. A pure refactor keeps every digest; a change that
alters behaviour on purpose updates them in the same change and records
the preset means before and after.
"""

import hashlib
import math

import numpy as np
import pytest

from suturesim import cli
from suturesim import perception as pc
from suturesim.simworld import SIM_NOISE

# preset -> (sha256 of the simulate --out log, sha256 of the printed report)
GOLDEN = {
    "sensing_only": (
        "1fc7e70fb635268cef72b32d0019801e58687932bf62a858eeba9fb98b5e01fe",
        "5bda35e0e246d2235f7a8444bf9046d2b8ce37c1ecf3d5194f2ba05a19ecf1ba",
    ),
    "thread_handling": (
        "308e86c37d99893ecc3cc73d089998c8f58564d4c91c11833443beba4a242d28",
        "8c7cba2f13bf29bf2a99b21d1beb54c4422754a900598e2f4abf28a034ea061b",
    ),
    "stitch": (
        "80559771863b1d7e5e2f66ebd27fc6ebdc2a55c346009321b7b344daab64f203",
        "d7abb6b390641fa29c9440e55d3cb8ac14c8b981b52bcb045a64bce6e2050cdb",
    ),
    "stitch_human": (
        "0b83d25acac06664ab4231858f6ce871aaad01a47ab0335c0afe6fdf73f936c8",
        "b12d20dbd53e1a97a313f433341eb7adb1512556de1d29b7eb79f09f110ff007",
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("preset", sorted(GOLDEN))
def test_pinned_sweep_digests(tmp_path, capsys, preset):
    log = tmp_path / f"{preset}.jsonl"
    argv = ["simulate", "--preset", preset, "--trials", "10", "--seed", "0", "--out", str(log)]
    assert cli.main(argv) == cli.EXIT_OK
    printed = capsys.readouterr().out
    assert cli.main(["report", "--logs", str(log)]) == cli.EXIT_OK
    reported = capsys.readouterr().out

    # one tuple, so a failure shows whether the log, the report or both moved
    assert (sha256(log.read_bytes()), sha256(printed.encode("utf-8"))) == GOLDEN[preset]
    assert reported == printed


# Estimator digests: sha256 over the pose records (or the error type,
# stage and message) of CLOUDS_PER_SETTING seeded synthetic clouds. A
# pure refactor of the estimator keeps every digest. Every tenth cloud
# asks the circle stage, and every tenth after it the plane stage, for
# more inliers than the cloud has, so the digest also pins each stage's
# best consensus count through its NoConsensus message. The pose records
# carry the hypotheses each stage drew, so the digests also pin where
# each stage stopped.
CLOUDS_PER_SETTING = 30
HARSH_NOISE = pc.NoiseModel(
    gaussian_sigma=5e-4,
    outlier_fraction=0.20,
    dropout_fraction=0.0,
    occlusion_arc=0.25 * pc.NeedleSpec().arc_span,
)
# setting -> (cloud points, RANSAC iterations in both stages, noise,
# circle inlier threshold). On noise-free clouds many hypotheses tie at
# the top inlier count, so the residual sums pick the winner. A circle
# threshold of one radius admits points at the center itself.
ESTIMATOR_SETTINGS = {
    "in_loop": (140, 120, SIM_NOISE, pc.DEFAULT_CIRCLE_THRESHOLD),
    "criterion_1": (200, 500, HARSH_NOISE, pc.DEFAULT_CIRCLE_THRESHOLD),
    "many_blocks": (300, 1000, HARSH_NOISE, pc.DEFAULT_CIRCLE_THRESHOLD),
    "noise_free": (140, 120, pc.NoiseModel(), pc.DEFAULT_CIRCLE_THRESHOLD),
    "wide_circle_band": (200, 500, HARSH_NOISE, pc.NEEDLE_RADIUS),
}
ESTIMATOR_GOLDEN = {
    "in_loop": "8c64e4085700430134ea17c441ef2302eb9d58a2a07339430730b7c065067c79",
    "criterion_1": "ea93da4cade40f01925cb588cc257c0509b1e0c65251a230d90506a57d5e2a69",
    "many_blocks": "2d048b44cf46a885c8715ffe9d65dcca4654d99eba1c8656c2eb18642a099ce3",
    "noise_free": "b50468c1130f849b867017e3218aa2437fed7c5ee533bfa0f288e4f96db50326",
    "wide_circle_band": "529f1061e08618a1a45a8ce5743489d227bf60ab4171fa25f5d2e99dc77795b4",
}


def estimator_records(setting: str) -> str:
    n_points, iterations, noise, circle_threshold = ESTIMATOR_SETTINGS[setting]
    spec = pc.NeedleSpec()
    key = sorted(ESTIMATOR_SETTINGS).index(setting)
    records = []
    for i in range(CLOUDS_PER_SETTING):
        rng = np.random.default_rng([key, i])
        center = rng.uniform([-0.03, -0.03, 0.0], [0.03, 0.03, 0.05])
        tilt = math.radians(rng.uniform(0.0, 40.0))
        azim = rng.uniform(0.0, 2 * math.pi)
        normal = pc.canonical_normal(
            np.array([math.sin(tilt) * math.cos(azim), math.cos(tilt), math.sin(tilt) * math.sin(azim)])
        )
        truth = pc.make_needle_pose(center, normal, rng.normal(size=3), spec)
        cloud = pc.synth_needle_cloud(truth, spec, noise, n_points, rng)
        plane_min = n_points + 1 if i % 10 == 9 else pc.DEFAULT_MIN_INLIERS
        circle_min = n_points + 1 if i % 10 == 8 else pc.DEFAULT_MIN_INLIERS
        plane = pc.RansacParams(iterations=iterations, min_inliers=plane_min, seed=i)
        circle = pc.RansacParams(
            iterations=iterations,
            inlier_threshold=circle_threshold,
            min_inliers=circle_min,
            seed=i,
        )
        try:
            pose, diag = pc.estimate_needle_pose(cloud, spec, plane, circle, with_diagnostics=True)
        except pc.EstimationError as exc:
            records.append(f"error: {type(exc).__name__} {exc.stage}: {exc}\n")
        else:
            records.append(pc.format_pose_record(pose, diag))
    return "".join(records)


@pytest.mark.parametrize("setting", sorted(ESTIMATOR_GOLDEN))
def test_pinned_estimator_digests(setting):
    assert sha256(estimator_records(setting).encode("utf-8")) == ESTIMATOR_GOLDEN[setting]
