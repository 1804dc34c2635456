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
        "7d7f9dfc03de3df3454368bb355a66df274e2d6734fef7d6e8d7771fc2cab1ba",
        "5bda35e0e246d2235f7a8444bf9046d2b8ce37c1ecf3d5194f2ba05a19ecf1ba",
    ),
    "thread_handling": (
        "5db0e0487cda94e75cab340e9aa82d9810e5d8f83a21021f45fa5b430ed510e9",
        "8c7cba2f13bf29bf2a99b21d1beb54c4422754a900598e2f4abf28a034ea061b",
    ),
    "stitch": (
        "a1546826dce81fa805a50389ee43c24420ed5f547a2642255e2ef8a231e7cc45",
        "88508f6689590f4aee9f70fbae145d3e03480d288161e767f200ef5177de898e",
    ),
    "stitch_human": (
        "113051f8198a696fa5047b54a454afcb736eda47e4549efc2dd1dd5e9bfeceb4",
        "6e3223175f471897539c90011e5530a2ffc1d1b5adfd39466bc7b3e922629e40",
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
# carry the hypotheses each stage drew and whether each refinement was
# kept, so the digests also pin where each stage stopped. Cloud i's
# estimate draws from one generator seeded with i.
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
    "in_loop": "3dc3fa015cd641bd39aa7fee0d8fa77aa270e99dfa8f25ea7925bae7040ab97a",
    "criterion_1": "0434ea44b96cda079da4bd127f636916a0ed55720712bb926f76c005f042eca9",
    "many_blocks": "12ca2c889b39a02e4643a1b5293940b07eef1e564d9a359fd106f394ce915210",
    "noise_free": "1a8c1b1b1ad3695a2d790b44a0c499120e1203eb396cd2b617ca1482af8b2109",
    "wide_circle_band": "eb78be0a3f4e0102a2a4658dea6e701ecf338ef56843d8202f4e20d68c0d6e1c",
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
        plane = pc.RansacParams(iterations=iterations, min_inliers=plane_min)
        circle = pc.RansacParams(
            iterations=iterations, inlier_threshold=circle_threshold, min_inliers=circle_min
        )
        try:
            pose, diag = pc.estimate_pose(cloud, spec, plane, circle, np.random.default_rng(i))
        except pc.EstimationError as exc:
            records.append(f"error: {type(exc).__name__} {exc.stage}: {exc}\n")
        else:
            records.append(pc.format_pose_record(pose, diag))
    return "".join(records)


@pytest.mark.parametrize("setting", sorted(ESTIMATOR_GOLDEN))
def test_pinned_estimator_digests(setting):
    assert sha256(estimator_records(setting).encode("utf-8")) == ESTIMATOR_GOLDEN[setting]
