import fwm


def test_every_exported_name_resolves():
    """A name left in ``fwm.__all__`` after its object is gone breaks
    ``from fwm import *``."""
    assert [name for name in fwm.__all__ if not hasattr(fwm, name)] == []
