"""`from ofdmsar import *` must bind every name that __all__ lists, and
__all__ must list every public function and class the package imports
from its submodules, so a deletion cannot leave either side stale."""

import inspect

import ofdmsar


def test_all_matches_the_package_bindings():
    assert len(set(ofdmsar.__all__)) == len(ofdmsar.__all__)
    missing = [name for name in ofdmsar.__all__ if not hasattr(ofdmsar, name)]
    assert missing == []
    unlisted = [name for name, value in vars(ofdmsar).items()
                if not name.startswith("_")
                and (inspect.isfunction(value) or inspect.isclass(value))
                and name not in ofdmsar.__all__]
    assert unlisted == []
