import math

import numpy as np
import pytest

from pcqa import (
    DomainError,
    GraphParams,
    SignalAttribute,
    ValidationError,
    WeightedNeighborhood,
    edge_weight,
)
from pcqa.graph import degree
from pcqa.graphsim import gradient_moments


def ring_neighborhood(n=8, radius=1.0, weights=None, center_index=0):
    """Center at origin (index 0) with n neighbors on a circle."""
    angles = np.linspace(0, 2 * np.pi, n, endpoint=False)
    ring = np.column_stack([np.cos(angles), np.sin(angles), np.zeros(n)]) * radius
    return WeightedNeighborhood(
        center_index=center_index,
        indices=np.arange(1, n + 1),
        positions=ring,
        distances=np.full(n, radius),
        weights=np.ones(n) if weights is None else np.asarray(weights),
    )


def test_params_validation():
    with pytest.raises(DomainError):
        GraphParams(cutoff=-1.0)


def test_from_cutoff_variance_rule():
    assert GraphParams(2.0).variance == 2.0
    assert GraphParams(0.0).variance > 0.0  # floored, never zero


def test_variance_is_derived_not_set():
    with pytest.raises(TypeError):
        GraphParams(cutoff=1.0, variance=0.5)
    with pytest.raises(AttributeError):
        GraphParams(1.0).variance = 0.5


def test_edge_weight_values():
    params = GraphParams(cutoff=2.0)
    assert edge_weight(0.0, params) == 1.0
    assert edge_weight(2.0, params) == pytest.approx(math.exp(-4.0 / 2.0), abs=0)
    assert edge_weight(2.0000001, params) == 0.0
    arr = edge_weight(np.array([0.0, 1.0, 3.0]), params)
    assert arr[2] == 0.0 and arr[0] == 1.0


def test_degree_is_weight_sum():
    nbhd = ring_neighborhood(6, weights=[0.5, 1, 1, 0.25, 0, 0.25])
    assert degree(nbhd) == pytest.approx(3.0)


def test_signal_attribute_shapes():
    SignalAttribute(np.zeros((4, 1)), kind="color")
    SignalAttribute(np.zeros((4, 3)), kind="coordinate")
    with pytest.raises(ValidationError):
        SignalAttribute(np.zeros((4, 4)), kind="color")
    with pytest.raises(ValidationError):
        SignalAttribute(np.full((2, 1), np.nan), kind="color")


def test_signal_attribute_needs_one_label_per_channel():
    assert SignalAttribute(np.zeros((4, 2)), labels=("a", "b")).labels == ("a", "b")
    with pytest.raises(ValidationError, match="one label per channel"):
        SignalAttribute(np.zeros((4, 3)), labels=("x", "y"))


def test_gradient_needs_center_value_when_off_cloud():
    nbhd = ring_neighborhood(4, center_index=-1)
    signal = SignalAttribute(np.ones((5, 1)), kind="color")
    order = np.arange(4)
    with pytest.raises(DomainError, match="center_value"):
        gradient_moments(nbhd, signal, order)
    out = gradient_moments(nbhd, signal, order, center_value=[1.0])
    assert np.array_equal(out.mass, [0.0])
    assert np.array_equal(out.matched, np.zeros((4, 1)))


def test_empty_neighborhood_gives_zeros():
    empty = WeightedNeighborhood(
        center_index=0,
        indices=np.empty(0, dtype=int),
        positions=np.empty((0, 3)),
        distances=np.empty(0),
        weights=np.empty(0),
    )
    assert degree(empty) == 0.0
