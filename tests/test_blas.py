"""Importing the package pins BLAS to one thread, so training computes the
same bits whatever OPENBLAS_NUM_THREADS says (it can only differ on a host
with at least two cores)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lesionseg
from lesionseg import blas
from lesionseg.synth import SynthConfig, make_dataset

SRC = Path(lesionseg.__file__).resolve().parents[1]

# At 64x64 the decoder's 16x432 @ 432x1024 GEMM rounds differently on two
# threads; momentum carries the difference into most parameters.
TRAIN = """
import hashlib, sys
from lesionseg.config import RunConfig
from lesionseg.data import load_dataset
from lesionseg.train import train
result = train(RunConfig(steps=6, learning_rate=0.05, momentum=0.9, seed=3),
               load_dataset(sys.argv[1], split="train"))
digest = hashlib.sha256()
for name, p in result.model.parameters().items():
    digest.update(name.encode() + p.data.tobytes())
print(*map(repr, result.losses), digest.hexdigest())
"""


def _train(root, threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", TRAIN, str(root)], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_training_is_bitwise_equal_under_one_and_two_blas_threads(tmp_path):
    make_dataset(tmp_path, 3, SynthConfig(), seed=3, val_count=0)
    assert _train(tmp_path, "1") == _train(tmp_path, "2")


def test_no_thread_setter_warns(monkeypatch):
    monkeypatch.setattr(blas, "_SETTERS", ("no_such_symbol",))
    with pytest.warns(UserWarning, match="could not pin BLAS to one thread"):
        blas.pin_one_thread()
