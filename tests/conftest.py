import os
import sys
from random import Random

import hypothesis
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

hypothesis.settings.register_profile("ci", max_examples=50, deadline=None)
hypothesis.settings.load_profile("ci")


@pytest.fixture
def rng():
    return Random(0xC0FFEE)


@pytest.fixture(scope="session")
def toy_squirrels():
    """One shared toy Squirrels instance for the expensive fixtures."""
    from cvk import toy

    return toy.toy_keygen(12, 3, Random(2024), q=16)


@pytest.fixture(scope="session")
def toy_wave():
    from cvk import toy
    from cvk import wave as wv

    params = wv.WaveParams(n=24, k=12, w=16, tag="toy")
    pk = toy.wave_toy_keygen(params, Random(515))
    return pk, params
