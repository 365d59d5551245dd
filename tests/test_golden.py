"""Golden digests: a short train and eval compute the committed bits.

Other determinism tests compare one run with another run of the same code;
this one compares a run with the bytes earlier code wrote. The bits depend
on the BLAS kernels, so the table is keyed by `blas.platform_key()`. Under
an unknown key the test skips and prints the entry to add. On a mismatch
the failure names each config and file whose digest moved, then prints
the new entry; a change that moves the bits on purpose pastes it in place
of the old one.
"""

import hashlib
import pprint

import pytest

from lesionseg import blas
from lesionseg.cli import main
from lesionseg.synth import SynthConfig, make_dataset

TREE = SynthConfig(resolution=32, frames=4, axes=(5.0, 4.0))
COMMON = ["--steps", "10", "--lr", "0.05", "--seed", "0"]
CONFIGS = {
    "default": [],
    "no-sfm-no-msff": ["--no-sfm", "--no-msff"],
    "no-msff": ["--no-msff"],     # the +sfm row: ConcatReduce merges the branches
    "no-sfm": ["--no-sfm"],       # the +msff row
    "momentum-0.9": ["--momentum", "0.9"],
    "tap-3-capacity-2": ["--encoder-tap", "3", "--memory-capacity", "2"],
}

GOLDEN = {
    ("2.4.6",
     "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64",
     "SkylakeX"): {
        "default": {
            "details.tsv": "375e7fd316b23a0f5dce7390882a84c98d53a1c2e38a7c05f823cbcf8fd3f7e9",
            "losses.txt": "4ec97ca6305bacab729b8875ed7b57f1810907a8f1a0bac7c6ffc3629115fbc1",
            "masks": "db27d66eb71b5c505fc07b86d909de31e966ba99f8abf3e70074e6f4770c186c",
            "params.bin": "d88ea512e09a89aec613457024efd04fac6977f7b5aaf868b402772301fc8bb3"},
        "momentum-0.9": {
            "details.tsv": "0e42f970ffb6e758a18862e3d77f59a325c538c5365c29dc7f123c103f456971",
            "losses.txt": "5d49a6d1ed76deb3c46632c0a31c15e173f5a0d4e0987a2f0791d93b062530ba",
            "masks": "db27d66eb71b5c505fc07b86d909de31e966ba99f8abf3e70074e6f4770c186c",
            "params.bin": "f59dd42447bdc3643c2b445834c57010ea254456d83528ba9d7b7bfd355b9702"},
        "no-msff": {
            "details.tsv": "5796727be0304338c60712875e71d147c9c7c5c85d4b163dee1e3713ecb6aa30",
            "losses.txt": "abd33b6bdfdc154f9321f1504a4b53ce608e2c7e37b0f1e3dba46126ba1fe59a",
            "masks": "db27d66eb71b5c505fc07b86d909de31e966ba99f8abf3e70074e6f4770c186c",
            "params.bin": "ac5ab7ed22c306097c1b723c1979a23288580d40a909ab4dffa89c9a80f536ee"},
        "no-sfm": {
            "details.tsv": "a8e50f0a0843f0137fd9ebe85050d7ce98dafe0218640b9301cecdda675eded2",
            "losses.txt": "36409c7bef277656106c67863ed47f6fb3aa93064e6f2ffe1ac78b236e048a7e",
            "masks": "db27d66eb71b5c505fc07b86d909de31e966ba99f8abf3e70074e6f4770c186c",
            "params.bin": "d7e0ff3b85dc3755e7894eb18caadf24790f951cba7a747a9f9b6d354e23a16e"},
        "no-sfm-no-msff": {
            "details.tsv": "f8f06fe3c4d8710c092faea2a63a450368ff539566daf3b154ebaf1e82037512",
            "losses.txt": "94eaeeab00b9f273fa86e14ad7c7eeaee21321f413f90ad22afe82cae47249cc",
            "masks": "db27d66eb71b5c505fc07b86d909de31e966ba99f8abf3e70074e6f4770c186c",
            "params.bin": "74e9a5b52ccefd8286601831fcf160d7e82103afbb85898e78a2de53d9cf3a95"},
        "tap-3-capacity-2": {
            "details.tsv": "8c3647d8209642e45291255f6dac95865728957dfd6498128574923e9ef152db",
            "losses.txt": "67d7c4b3e2339ff79077b08d9efa95f387369b97ae504e9b5b5ab346b77ef378",
            "masks": "db27d66eb71b5c505fc07b86d909de31e966ba99f8abf3e70074e6f4770c186c",
            "params.bin": "91ca3518189d4ea9199942474a25113ce50182cd414fa6ba288396c8f8e1178b"},
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(workdir, data, flags) -> dict[str, str]:
    run, ev = workdir / "run", workdir / "eval"
    assert main(["train", "--data", str(data), "--out", str(run), *COMMON, *flags]) == 0
    assert main(["eval", "--checkpoint", str(run / "checkpoint"), "--out", str(ev),
                 "--dump"]) == 0
    # ten steps leave every dumped mask empty, so this digest pins the dump's
    # format; details.tsv's MAE carries the predicted probabilities
    masks = hashlib.sha256()
    for path in sorted((ev / "predictions").rglob("*.pgm")):
        masks.update(path.relative_to(ev).as_posix().encode() + path.read_bytes())
    return {"losses.txt": _sha((run / "losses.txt").read_bytes()),
            "params.bin": _sha((run / "checkpoint" / "params.bin").read_bytes()),
            "details.tsv": _sha((ev / "details.tsv").read_bytes()),
            "masks": masks.hexdigest()}


def moved(old: dict, new: dict) -> list[str]:
    """'config: file, ...' for each config whose digests differ between the tables."""
    lines = []
    for name in sorted(old.keys() | new.keys()):
        was, now = old.get(name, {}), new.get(name, {})
        files = [f for f in sorted(was.keys() | now.keys()) if was.get(f) != now.get(f)]
        if files:
            lines.append(f"{name}: {', '.join(files)}")
    return lines


def test_moved_names_each_config_and_file_that_differs():
    old = {"a": {"x": "1", "y": "2"}, "b": {"x": "1"}, "gone": {"x": "1"}}
    new = {"a": {"x": "1", "y": "3"}, "b": {"x": "1"}, "added": {"x": "1"}}
    assert moved(old, new) == ["a: y", "added: x", "gone: x"]
    assert moved(old, old) == []


def test_train_and_eval_compute_the_golden_bits(tmp_path, capsys):
    data = tmp_path / "data"
    make_dataset(data, 3, TREE, seed=0, val_count=1)
    entry = {name: _digests(tmp_path / name, data, flags) for name, flags in CONFIGS.items()}
    capsys.readouterr()
    key = blas.platform_key()
    paste = f"{key!r}: {pprint.pformat(entry)},"
    if key not in GOLDEN:
        pytest.skip(f"no golden digests for this platform; add to GOLDEN:\n{paste}")
    if GOLDEN[key] != entry:
        pytest.fail("the bits moved in\n  " + "\n  ".join(moved(GOLDEN[key], entry))
                    + f"\nif on purpose, replace the GOLDEN entry with:\n{paste}")
