"""The package's public namespace."""

import branchlab


def test_every_exported_name_exists():
    # a name left in __all__ after its import is gone breaks `from branchlab import *`
    missing = [name for name in branchlab.__all__ if not hasattr(branchlab, name)]
    assert missing == []
