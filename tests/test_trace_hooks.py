"""The benchmark's tracer (`perfbench/experiment.py --trace 1`) wraps package
functions by module and attribute name, and keys the per-policy ones by
their second positional argument, the PolicyConfig.  These checks load that
script by path and only read its tables, so a rename in the package fails
here instead of in a traced benchmark run."""

import importlib
import inspect

import pytest

from greedybandit.policies import PolicyConfig

from conftest import load_perfbench

experiment = load_perfbench("experiment")
PER_POLICY = [(mod, attr) for mod, attr in experiment.TRACED
              if attr in experiment.PER_POLICY]


def traced_function(mod_name, attr):
    return getattr(importlib.import_module(f"greedybandit.{mod_name}"), attr, None)


@pytest.mark.parametrize("mod_name,attr", experiment.TRACED)
def test_traced_name_resolves(mod_name, attr):
    assert callable(traced_function(mod_name, attr))


def test_per_policy_names_are_traced():
    assert {attr for _, attr in PER_POLICY} == set(experiment.PER_POLICY)


@pytest.mark.parametrize("mod_name,attr", PER_POLICY)
def test_policy_config_is_second_positional(mod_name, attr):
    params = list(inspect.signature(traced_function(mod_name, attr),
                                    eval_str=True).parameters.values())
    assert params[1].kind in (inspect.Parameter.POSITIONAL_ONLY,
                              inspect.Parameter.POSITIONAL_OR_KEYWORD)
    assert params[1].annotation is PolicyConfig
