"""The package's public names."""

import prodiso


def test_all_names_resolve():
    assert all(hasattr(prodiso, name) for name in prodiso.__all__)
