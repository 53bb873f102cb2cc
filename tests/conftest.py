import json

import pytest

from arcroute import ArcModel, Graph, intersection_graph, parse_model

# ring of four arcs; the running example across the suite
C4_MODEL = {"n": 4, "arcs": [[0, 3], [2, 5], [4, 7], [6, 1]]}

# triangle from three mutually overlapping arcs covering the circle
K3_MODEL = {"n": 3, "arcs": [[0, 3], [2, 5], [4, 1]]}

# two pairs of arcs overlapping at both ends: (0,1) and (2,3) are
# counter pairs; the intersection graph is K4
COUNTER_MODEL = {"n": 4, "arcs": [[0, 5], [4, 1], [2, 7], [6, 3]]}


def load(model_dict: dict) -> ArcModel:
    return parse_model(json.dumps(model_dict))


def labels_of(scheme) -> dict[tuple[int, int], list[list[int]]]:
    """A scheme's intervals as its JSON writes them, keyed by arc (v, w)."""
    labels = json.loads(scheme.to_json())["labels"]
    return {tuple(map(int, key.split("->"))): ivls for key, ivls in labels.items()}


@pytest.fixture
def c4_model() -> ArcModel:
    return load(C4_MODEL)


@pytest.fixture
def c4_graph(c4_model) -> Graph:
    return intersection_graph(c4_model)


@pytest.fixture
def k3_model() -> ArcModel:
    return load(K3_MODEL)


@pytest.fixture
def counter_model() -> ArcModel:
    return load(COUNTER_MODEL)
