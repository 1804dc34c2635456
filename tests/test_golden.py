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
        "5034de6dd879b9ba42201912b90f742b5152c2e23af938706bd2b2490f16b811",
        "5bda35e0e246d2235f7a8444bf9046d2b8ce37c1ecf3d5194f2ba05a19ecf1ba",
    ),
    "thread_handling": (
        "9c609e585cbbc0989b22d0b81869734952a614b5861372f2ee27cf584d0d3d28",
        "8c7cba2f13bf29bf2a99b21d1beb54c4422754a900598e2f4abf28a034ea061b",
    ),
    "stitch": (
        "b7cb1559646ad5d81e8f7add6c8f7c13388466b08c97b0015af8cda3157a2230",
        "d7abb6b390641fa29c9440e55d3cb8ac14c8b981b52bcb045a64bce6e2050cdb",
    ),
    "stitch_human": (
        "c8297603d9824bcc3da2ca2768086c8a528d62a9e8acabab2140fbb3243c5b2b",
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
# the top inlier count, and the first drawn wins. A circle
# threshold of one radius admits points at the center itself.
ESTIMATOR_SETTINGS = {
    "in_loop": (140, 120, SIM_NOISE, pc.DEFAULT_CIRCLE_THRESHOLD),
    "criterion_1": (200, 500, HARSH_NOISE, pc.DEFAULT_CIRCLE_THRESHOLD),
    "many_blocks": (300, 1000, HARSH_NOISE, pc.DEFAULT_CIRCLE_THRESHOLD),
    "noise_free": (140, 120, pc.NoiseModel(), pc.DEFAULT_CIRCLE_THRESHOLD),
    "wide_circle_band": (200, 500, HARSH_NOISE, pc.NEEDLE_RADIUS),
}
ESTIMATOR_GOLDEN = {
    "in_loop": "b489bd4e247c097d783aa28c8296e84882d406669a1cc4bf505e6d85b192ac5a",
    "criterion_1": "f5fa737a90bbd67e2b4bc293d44ebf907511f6bcd9c42c373ac2a5a313e2fcfe",
    "many_blocks": "8f885d495e9aa0a5e5a72c30aa618fe7b09d5025d22cde7837539591318ebbe7",
    "noise_free": "9e40aea5622511b44e99029d2e82592ebfc85df657d6f837771478af24d31a20",
    "wide_circle_band": "b20b4ce8763c8b6cd2068ebfe265f35fa4c38f8e61b4b45af5d7bca1085bcfe0",
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
