"""Golden digests: pinned sweeps must keep their exact log and report bytes.

Each preset runs `simulate --out` for 10 trials from seed 0 at the
shipped defaults. A pure refactor keeps every digest; a change that
alters behaviour on purpose updates them in the same change and records
the preset means before and after.
"""

import hashlib

import pytest

from suturesim import cli

# preset -> (sha256 of the simulate --out log, sha256 of the printed report)
GOLDEN = {
    "sensing_only": (
        "14d54d896d481d35ccb918cd2de76a8a135ba7e5380d228aa6d8259ed73f5428",
        "5bda35e0e246d2235f7a8444bf9046d2b8ce37c1ecf3d5194f2ba05a19ecf1ba",
    ),
    "thread_handling": (
        "4f86edcb618ab9cc59ec4f31d621a012734bc7a6835e9618d2ec01233b22fc25",
        "8c7cba2f13bf29bf2a99b21d1beb54c4422754a900598e2f4abf28a034ea061b",
    ),
    "stitch": (
        "64017f4c30f58c9a1d79655de649cac4950e884010182a5868ebe653df91245e",
        "d7abb6b390641fa29c9440e55d3cb8ac14c8b981b52bcb045a64bce6e2050cdb",
    ),
    "stitch_human": (
        "1de43f27bf717531310ba37a82bcc19a090af655c2c9f31620b72f141250ede3",
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
