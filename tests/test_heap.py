"""Importing the package fixes glibc's mmap and trim thresholds, so the
pages that freed temporaries leave stay in the heap."""

import ctypes
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import lesionseg
from lesionseg import heap

SRC = Path(lesionseg.__file__).resolve().parents[1]

# Run in a fresh interpreter: glibc raises its thresholds after each large
# mmapped block is freed, so in a test session that already freed one the
# faults would not show even without the policy.
CONVS = """
import resource
import numpy as np
import lesionseg
from lesionseg.autodiff import Tensor, conv2d
rng = np.random.default_rng(10)
x = Tensor(rng.standard_normal((16, 128, 128)))
w = Tensor(rng.standard_normal((16, 16, 3, 3)))
b = Tensor(rng.standard_normal(16))

def call():
    conv2d(x, w, b)
    np.ones((2 << 20) // 8)   # a freed 2 MB array between calls

for _ in range(5):   # the heap grows to its working size once
    call()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    call()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap policy is glibc's")
def test_conv_temporaries_take_no_page_faults():
    """Without the policy each call mmapped a new 2.2 MB padded input and
    faulted it in afresh: 77000 faults over the 50 calls."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    faults = subprocess.run([sys.executable, "-c", CONVS], env=env,
                            capture_output=True, text=True, check=True).stdout
    assert int(faults) < 50


def test_without_glibc_the_allocator_is_left_alone(monkeypatch):
    monkeypatch.setattr(heap.platform, "libc_ver", lambda: ("", ""))
    monkeypatch.setattr(heap.ctypes, "CDLL", lambda *_: pytest.fail("loaded a libc"))
    heap.pin_heap_policy()
