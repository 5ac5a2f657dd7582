"""Tests for the package's public names."""

import chsh_local


def test_every_exported_name_resolves():
    missing = [name for name in chsh_local.__all__ if not hasattr(chsh_local, name)]
    assert missing == []
    assert len(set(chsh_local.__all__)) == len(chsh_local.__all__)
