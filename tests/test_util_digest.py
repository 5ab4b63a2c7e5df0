"""One sha256 for snapshots, spec hashes and seeds: CPython's own, not OpenSSL's.

:mod:`repro.util.digest` must give ``hashlib.sha256``'s digests byte for
byte, from the built-in module and from its ``hashlib`` fallback alike, and
every digest the project derives from it must stay what ``hashlib`` gave.
"""

import hashlib
import importlib.util
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenario.spec import ScenarioSpec
from repro.util import digest
from repro.util.rng import derive_seed


@pytest.fixture(scope="module")
def fallback_sha256():
    """The helper's ``sha256`` as loaded where neither built-in module imports."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(sys.modules, "_sha2", None)
        patch.setitem(sys.modules, "_sha256", None)
        spec = importlib.util.spec_from_file_location("blocked_digest", digest.__file__)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module.sha256


def test_the_helper_is_not_openssl_and_its_fallback_is_hashlib(fallback_sha256):
    assert digest.sha256.__module__ != "_hashlib"
    assert fallback_sha256 is hashlib.sha256


@settings(max_examples=200, deadline=None)
@given(data=st.binary(max_size=4096), split=st.integers(min_value=0, max_value=4096))
def test_digests_equal_hashlib_with_and_without_the_built_in_module(fallback_sha256, data, split):
    expected = hashlib.sha256(data)
    for sha256 in (digest.sha256, fallback_sha256):
        assert sha256(data).digest() == expected.digest()
        streamed = sha256(data[:split])
        streamed.update(data[split:])
        assert streamed.hexdigest() == expected.hexdigest()


def test_seeds_and_spec_hashes_are_the_ones_hashlib_gave():
    assert derive_seed(2003, "rank", 3) == 9125138494600756622
    spec = ScenarioSpec(workload="bt.9:scale=0.2", policy="credit:horizon=5", seed=7)
    assert spec.content_hash() == "c1915b5708aaf213"
