"""The package's exported names: each one must still exist."""

import pytest

import farsilm


@pytest.mark.parametrize("name", farsilm.__all__)
def test_exported_name_resolves(name):
    assert hasattr(farsilm, name)
