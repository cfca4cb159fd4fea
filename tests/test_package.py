import rk_error_lab
from rk_error_lab import controller, error_analysis, problems, rk_core

MODULES = (controller, error_analysis, problems, rk_core)


def test_root_exports_every_module_name():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(rk_error_lab, name) is getattr(module, name), (module.__name__, name)
    assert sorted(rk_error_lab.__all__) == sorted({n for m in MODULES for n in m.__all__})
