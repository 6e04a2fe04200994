"""Every JSON document reader gives a value or its one documented error.

Each reader starts from a valid document; the property replaces or deletes
one to three of its nodes with arbitrary JSON, and the reader must return
or raise its error type, never a bare KeyError, TypeError or ValueError.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stationwatch import builtin_scenarios, default_config, generate_scenario
from stationwatch.errors import ConfigError, ScenarioError
from stationwatch.pipeline import config_from_json, config_to_json
from stationwatch.scenario import (ground_truth_from_json, ground_truth_to_json,
                                   scenario_from_json, scenario_to_json)

CROSSING = builtin_scenarios()["crossing_during_approach"]

# (reader, a valid document, the one error the reader raises)
READERS = {
    "config": (config_from_json, config_to_json(default_config()), ConfigError),
    "scenario": (scenario_from_json, scenario_to_json(CROSSING), ScenarioError),
    "ground_truth": (ground_truth_from_json,
                     ground_truth_to_json(generate_scenario(CROSSING)[40:43]), ScenarioError),
}

JSON = st.recursive(
    st.none() | st.booleans() | st.text(max_size=4) | st.integers(-3, 3) | st.floats()
    | st.sampled_from([2**70, -2**70, 1e308, -1e308, 5e-324]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=4),
    max_leaves=8,
)
DELETE = object()


def _paths(node, path=()):
    """Every node's path from the root, as a tuple of keys and indices."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _paths(child, path + (key,))


@st.composite
def mutated(draw, document):
    document = copy.deepcopy(document)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(document))))
        value = draw(JSON | st.just(DELETE))
        if not path:
            document = None if value is DELETE else value
            continue
        parent = document
        for key in path[:-1]:
            parent = parent[key]
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return document


@pytest.mark.parametrize("name", READERS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_reader_loads_a_mutated_document_or_raises_its_one_error(name, data):
    reader, document, error = READERS[name]
    try:
        reader(data.draw(mutated(document)))
    except error:
        pass
