"""Label propagation against its plain-Python oracle."""

import numpy as np
import pytest

from repro.graph.datasets import load_dataset
from repro.traversal.labelprop import (
    label_propagation,
    label_propagation_reference,
)


@pytest.mark.parametrize("dataset", ["urand", "kron", "friendster"])
def test_matches_reference(dataset):
    graph = load_dataset(dataset, scale=9)
    np.testing.assert_array_equal(
        label_propagation(graph).labels, label_propagation_reference(graph)
    )
