import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from dpcolor import ConfigPattern, from_edge_list  # noqa: E402


@pytest.fixture(autouse=True)
def pattern_masks_match_their_edges(monkeypatch):
    """Every ConfigPattern a test builds, directly or through
    pattern_from_json, carries the neighbor bitmasks of its edges."""
    build = ConfigPattern.build

    def checked(*args, **kwargs):
        pat = build(*args, **kwargs)
        assert pat.masks == from_edge_list(pat.edges, n=pat.size).masks
        return pat

    monkeypatch.setattr(ConfigPattern, "build", staticmethod(checked))
