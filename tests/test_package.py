import delta_eita


def test_every_export_resolves():
    missing = [name for name in delta_eita.__all__ if not hasattr(delta_eita, name)]
    assert missing == []
    assert len(set(delta_eita.__all__)) == len(delta_eita.__all__)
