import types

import qlsmub


def test_all_lists_exactly_the_public_names_and_each_resolves():
    public = {
        name
        for name, value in vars(qlsmub).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(qlsmub.__all__) == sorted(public)
    for name in qlsmub.__all__:
        assert getattr(qlsmub, name) is not None
