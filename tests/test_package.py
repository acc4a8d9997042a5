import types

import heatgrid as hg


def test_all_names_every_public_attribute_once():
    names = hg.__all__
    assert len(names) == len(set(names))
    namespace = {}
    exec("from heatgrid import *", namespace)  # raises if a listed name is missing
    assert set(names) <= set(namespace)
    public = {
        name
        for name, value in vars(hg).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(names)
