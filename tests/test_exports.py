import hexcircle


def test_every_exported_name_imports():
    assert len(set(hexcircle.__all__)) == len(hexcircle.__all__)
    for name in hexcircle.__all__:
        assert hasattr(hexcircle, name), name
    namespace = {}
    exec("from hexcircle import *", namespace)
    assert set(hexcircle.__all__) <= set(namespace)
