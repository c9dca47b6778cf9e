"""Each test starts with no fiber kept by ``spectral._fiber``, so a test that
counts root finding sees only its own calls."""

import sys

import pytest


@pytest.fixture(autouse=True)
def _fresh_fiber():
    spectral = sys.modules.get("hitchin4.spectral")
    if spectral is not None:
        spectral._fiber.cache_clear()
