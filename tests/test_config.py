"""The experiment config's reading of the initial data's parameters.
``tests/test_harness.py::TestConfig`` holds the tests of its keys, readers,
file layout, validation, schedule and overrides."""

import inspect

import pytest

from vvlab.config import ConfigError
from vvlab.initial_data import GENERATORS
from tests.conftest import small_config


class TestGeneratorParams:
    def test_every_generator_default_has_a_reader(self):
        # generator_params reads a parameter by its default's type
        defaults = [p.default for g in GENERATORS.values()
                    for p in list(inspect.signature(g).parameters.values())[1:]]
        assert {type(d) for d in defaults} <= {float, int}

    @pytest.mark.parametrize("kind,name,expected", [
        ("patch_pair", "radius", "must be a finite number"),
        ("random_yudovich", "k_max", "must be a whole number"),
    ])
    @pytest.mark.parametrize("value", [None, "abc", True])
    def test_bad_value_is_named(self, kind, name, expected, value):
        cfg = small_config(initial_kind=kind, initial_params={name: value})
        with pytest.raises(ConfigError, match=rf"initial_data\.params\.{name} {expected}"):
            cfg.validate()

    def test_values_are_read_but_stored_as_given(self):
        # YAML 1.1 loads 12e-2, a float with no dot, as a string
        params = {"radius": "12e-2", "separation": 0.4, "strength": 1}
        cfg = small_config(initial_kind="patch_pair", initial_params=params, length=1.0)
        cfg.validate()
        assert cfg.generator_params() == {"radius": 0.12, "separation": 0.4, "strength": 1.0}
        assert cfg.to_nested()["initial_data"]["params"] == params
