import neonext


def test_every_exported_name_resolves():
    missing = [name for name in neonext.__all__ if not hasattr(neonext, name)]
    assert not missing, f"neonext.__all__ names missing attributes: {missing}"
    assert len(set(neonext.__all__)) == len(neonext.__all__)
