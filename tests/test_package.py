import navfuse


def test_every_exported_name_resolves():
    missing = [name for name in navfuse.__all__ if not hasattr(navfuse, name)]
    assert not missing, f"navfuse.__all__ names undefined attributes: {missing}"
