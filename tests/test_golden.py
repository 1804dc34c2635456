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
        "d636808bfbb8f120fcfb23f598283f959048132f085582c0c4baef07465bf24e",
        "5bda35e0e246d2235f7a8444bf9046d2b8ce37c1ecf3d5194f2ba05a19ecf1ba",
    ),
    "thread_handling": (
        "a72e796c3d212bb7f76047bb546c761e6421096a95f48aeabecbf6140358c893",
        "8c7cba2f13bf29bf2a99b21d1beb54c4422754a900598e2f4abf28a034ea061b",
    ),
    "stitch": (
        "989ad99fa11c8d1f871c304494c8583aa5701426674c1d722bfecb6fda03ed90",
        "d7abb6b390641fa29c9440e55d3cb8ac14c8b981b52bcb045a64bce6e2050cdb",
    ),
    "stitch_human": (
        "5708c1f4f59ef10f439905cab41fdebe13963ea794d5027167e585a2a6d7bac9",
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

    log_digest, report_digest = GOLDEN[preset]
    assert sha256(log.read_bytes()) == log_digest
    assert sha256(printed.encode("utf-8")) == report_digest
    assert reported == printed
