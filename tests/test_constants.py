"""Constants that bench/reference.py must repeat, checked against the package.

The float64 reference forward may not import scrollbin, and the `.bnet` file
does not store the LeakyReLU slope, the batch-norm eps or the patch size, so
the reference writes them down a second time. This test keeps the two copies
equal.
"""

import importlib.util
from pathlib import Path

from scrollbin import autodiff, binet
from scrollbin.autodiff import BatchNormParams


def _load_reference():
    path = Path(__file__).resolve().parent.parent / "bench" / "reference.py"
    spec = importlib.util.spec_from_file_location("bench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reference_constants_match_the_package():
    reference = _load_reference()
    assert reference.LEAK == autodiff.LEAK
    assert reference.BN_EPS == BatchNormParams.eps
    assert reference.PATCH == binet.PATCH
