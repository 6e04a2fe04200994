"""Every JSON document reader gives a value or its one documented error.

Each reader starts from a valid document; the property replaces or deletes
one to three of its nodes with arbitrary JSON, and the reader must return
or raise its error type, never a bare KeyError, TypeError or ValueError.
The same mutations, given to `run --config`, `simulate --spec-file` and
`evaluate --gt`, and any prediction file given to `evaluate --pred`, must
give a result or a one-line refusal with no new file.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stationwatch import (Actor, ScenarioSpec, Waypoint, builtin_scenarios, default_config,
                          generate_scenario)
from stationwatch.cli import main
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


# Prediction lines: arbitrary JSON, records with a valid or arbitrary member
# in each place, text that is not JSON and JSON nested past the parser's limit.
NUMBER = st.integers(-1, 3) | st.floats(-1.0, 5.0) | JSON
ENTRY = st.fixed_dictionaries({}, optional={
    "box": st.lists(NUMBER, min_size=4, max_size=4) | JSON, "score": NUMBER, "class": NUMBER,
})
RECORD = st.fixed_dictionaries({}, optional={
    "frame": NUMBER, "detections": st.lists(ENTRY, max_size=3) | JSON, "error": st.text(max_size=4),
})
PREDICTION_LINE = (
    (JSON | RECORD).map(json.dumps)
    | st.sampled_from(["", "{", "[" * 100_000 + "]" * 100_000, "NaN", '"\\ud800"'])
)


@pytest.fixture(scope="module")
def one_empty_frame(tmp_path_factory):
    root = tmp_path_factory.mktemp("evaluate")
    (root / "gt.json").write_text(json.dumps({"frames": [{"frame": 0, "objects": []}]}))
    return root


@settings(max_examples=150, deadline=None)
@given(lines=st.lists(PREDICTION_LINE, max_size=4))
def test_evaluate_takes_any_prediction_file_or_refuses_it_in_one_line(one_empty_frame, lines):
    pred = one_empty_frame / "pred.jsonl"
    pred.write_text("\n".join(lines) + "\n", encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["evaluate", "--pred", str(pred), "--gt", str(one_empty_frame / "gt.json")])
    messages = err.getvalue().splitlines()
    assert sorted(path.name for path in one_empty_frame.iterdir()) == ["gt.json", "pred.jsonl"]
    if code == 0:  # every line blank or a JSON object, read or skipped as an error record
        assert messages == []
        assert all(not line or isinstance(json.loads(line), dict) for line in lines)
    elif code == 1:  # well-formed records that do not line up with the ground truth
        (message,) = messages
        assert message.startswith(("evaluate: prediction stream has", "evaluate: frame mismatch"))
    else:
        assert code == 2
        (message,) = messages
        assert message.startswith("evaluate: ") and "Traceback" not in message


# One property per remaining CLI input: the command runs (exit 0) or refuses
# the mutated file (exit 2) in one stderr line, with no traceback and no new file.
SMALL_SPEC = ScenarioSpec(3, 64, 64, (
    Actor(0, (Waypoint(0, 30.0, 30.0, 18.0, 40.0), Waypoint(2, 34.0, 30.0, 18.0, 40.0))),
))
CLI_INPUTS = {  # (argv, with file names in the fixture's directory; the document in input.json)
    "run": (["run", "--tensors", "in.yxt", "--config", "input.json",
             "--alerts-out", "alerts.jsonl", "--results-out", "results.jsonl"],
            config_to_json(default_config())),
    "simulate": (["simulate", "--spec-file", "input.json",
                  "--out-tensors", "out.yxt", "--out-gt", "gt.json"],
                 scenario_to_json(SMALL_SPEC)),
    "evaluate": (["evaluate", "--pred", "empty.jsonl", "--gt", "input.json"],
                 READERS["ground_truth"][1]),
}


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    (root / "empty.jsonl").write_text("")
    spec = root / "crossing.json"  # the crossing scene's first frames: one passenger
    spec.write_text(json.dumps(dict(scenario_to_json(CROSSING), duration_frames=3)))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--spec-file", str(spec), "--out-tensors", str(root / "in.yxt"),
                     "--out-gt", str(root / "crossing-gt.json")]) == 0
    return root


@pytest.mark.parametrize("command", CLI_INPUTS)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_a_command_runs_on_a_mutated_input_or_refuses_it_in_one_line(cli_inputs, command, data):
    argv, document = CLI_INPUTS[command]
    (cli_inputs / "input.json").write_text(json.dumps(data.draw(mutated(document))))
    before = set(cli_inputs.iterdir())
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(cli_inputs / arg) if "." in arg else arg for arg in argv])
    created = set(cli_inputs.iterdir()) - before
    for path in created:
        path.unlink()
    assert code in (0, 2), err.getvalue()
    if code == 2:
        (message,) = err.getvalue().splitlines()
        assert message.startswith(f"{command}: ") and "Traceback" not in message
        assert not created
