"""The package's public surface."""

import polycal


def test_every_exported_name_resolves():
    missing = [name for name in polycal.__all__ if not hasattr(polycal, name)]
    assert missing == []
    assert len(set(polycal.__all__)) == len(polycal.__all__)
