"""Bad input through the whole CLI: mutations of a small synth tree.

Whatever a tree holds, `train`, `eval` and `predict` exit 0, or exit 2
with exactly one `error:` line on stderr; an exception escaping `main`
fails the example with its traceback.
"""

import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from lesionseg.cli import main
from lesionseg.synth import SynthConfig, make_dataset

NAMES = ("synth000", "synth001", "synth002")
FRAMES = 3
TINY = SynthConfig(resolution=16, frames=FRAMES, axes=(4.0, 3.0), max_speed=0.3,
                   distractors=0)
CONFIG = "[model]\nstage_channels = 4, 8\n[train]\nsteps = 1\n"


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """The unmutated tree, its config file and a checkpoint trained on it."""
    root = tmp_path_factory.mktemp("fuzz")
    make_dataset(root / "data", len(NAMES), TINY, seed=0, val_count=1)
    (root / "config.ini").write_text(CONFIG)
    assert main(["train", "--config", str(root / "config.ini"), "--data", str(root / "data"),
                 "--out", str(root / "run")]) == 0
    return root


def _pgm(magic, width, height, maxval, payload):
    return b"%s\n%s %s\n%s\n" % (magic, width, height, maxval) + payload


TOKENS = st.sampled_from([b"0", b"1", b"16", b"17", b"255", b"256", b"65535", b"100000",
                          b"-1", b"x", b"1e3"])
PAYLOADS = st.binary(max_size=300)

# each file mutation maps the file's bytes (None when it is missing) to new bytes,
# or to None to delete it
FILE_MUTATIONS = st.one_of(
    st.builds(lambda h, w, level: lambda _: _pgm(b"P5", b"%d" % w, b"%d" % h, b"255",
                                                 bytes([level]) * (h * w)),
              st.integers(0, 24), st.integers(0, 24), st.sampled_from([0, 100, 255])),
    st.builds(lambda magic, w, h, maxval: lambda b: _pgm(magic, w, h, maxval,
                                                         (b or b"").split(b"\n", 3)[-1]),
              st.sampled_from([b"P5", b"P6", b"P2", b"P7"]), TOKENS, TOKENS, TOKENS),
    st.builds(lambda keep: lambda b: (b or b"")[:keep], st.integers(0, 280)),
    st.builds(lambda payload: lambda _: _pgm(b"P6", b"16", b"16", b"255", payload * 768),
              st.sampled_from([b"\x00", b"\xff", b"\x80"])),
    st.builds(lambda payload: lambda _: _pgm(b"P5", b"16", b"16", b"255",
                                             (payload * 256)[:256]), PAYLOADS.filter(len)),
    st.just(lambda _: None),
    st.just(lambda _: b"P5\n100000 100000\n255\nabc"),
)

TARGETS = st.tuples(st.sampled_from(["JPEGImages", "Annotations"]), st.sampled_from(NAMES),
                    st.integers(0, FRAMES))
SPLIT_LINES = st.lists(st.sampled_from([*NAMES, "", "  ", "synth999"]), max_size=5)
MUTATIONS = st.lists(st.one_of(st.tuples(st.just("file"), TARGETS, FILE_MUTATIONS),
                               st.tuples(st.just("split"), st.sampled_from(["train", "val"]),
                                         SPLIT_LINES)),
                     min_size=1, max_size=3)


def _mutate(data: Path, mutations) -> None:
    for kind, where, change in mutations:
        if kind == "split":
            (data / "ImageSets" / f"{where}.txt").write_text(
                "".join(line + "\n" for line in change))
            continue
        folder, name, index = where
        path = data / folder / name / f"{index:05d}.pgm"
        content = change(path.read_bytes() if path.is_file() else None)
        if content is None:
            path.unlink(missing_ok=True)
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(content)


@settings(derandomize=True, max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(mutations=MUTATIONS, command=st.sampled_from(["train", "eval", "predict"]),
       sequence=st.sampled_from(NAMES))
def test_any_tree_exits_0_or_2_with_one_error_line(clean, capsys, mutations, command,
                                                    sequence):
    with tempfile.TemporaryDirectory() as tmp:
        data, out = Path(tmp) / "data", Path(tmp) / "out"
        shutil.copytree(clean / "data", data)
        _mutate(data, mutations)
        checkpoint = ["--checkpoint", str(clean / "run" / "checkpoint")]
        argv = {"train": ["train", "--config", str(clean / "config.ini")],
                "eval": ["eval", *checkpoint],
                "predict": ["predict", *checkpoint, "--sequence", sequence]}[command]
        capsys.readouterr()
        rc = main([*argv, "--data", str(data), "--out", str(out)])
        err = capsys.readouterr().err
    assert rc in (0, 2)
    if rc == 2:
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
