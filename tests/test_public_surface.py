"""The lazily exported package surfaces and the system registry.

``repro`` and its sub-packages with many models or exporters resolve
their public names on first use, from one ``_EXPORTS`` table each
(DESIGN §10). Every name must still resolve to the object its defining
module holds, and the registry's hand-written table must agree with
the models it names (``test_registry_is_consistent`` in
``tests/chains/test_uniform_api.py``).
"""

import importlib

import pytest

from repro.chains.registry import create_system, system_class

LAZY_PACKAGES = (
    "repro",
    "repro.chains",
    "repro.coconut",
    "repro.consensus",
    "repro.faults",
    "repro.parallel",
    "repro.storage",
    "repro.stream",
    "repro.trace",
    "repro.workloads",
)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
class TestLazyExports:
    def test_every_public_name_is_its_defining_modules_object(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            value = getattr(module, name)
            if name in module._EXPORTS:
                assert value is getattr(importlib.import_module(module._EXPORTS[name]), name)

    def test_every_public_name_is_listed_by_dir(self, package):
        module = importlib.import_module(package)
        assert set(module.__all__) <= set(dir(module))

    def test_unknown_name_raises_attribute_error_naming_it(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(module, "no_such_name")

    def test_star_import_binds_every_public_name(self, package):
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        assert set(importlib.import_module(package).__all__) <= set(namespace)


class TestSystemRegistry:
    def test_unknown_system_error_lists_the_known_ones(self):
        message = (
            "unknown system 'dogecoin'; known: ['bitshares', 'corda_enterprise', "
            "'corda_os', 'diem', 'fabric', 'quorum', 'sawtooth']"
        )
        for lookup in (system_class, lambda name: create_system(name, None, None, "")):
            with pytest.raises(KeyError) as error:
                lookup("dogecoin")
            assert error.value.args == (message,)
