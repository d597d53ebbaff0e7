import numpy as np
import pytest

from avgtrack.signals import (
    ConstantInput,
    InputFamily,
    Plant,
    SinusoidInput,
    ZeroInput,
)

from conftest import DEMO_A, DEMO_B, demo_plant, ramped_sine_family
from oracles import input_value, reference_derivative


class TestPlant:
    def test_dimensions(self):
        plant = demo_plant()
        assert plant.state_dim == 2
        assert plant.input_dim == 1

    def test_rejects_mismatched(self):
        with pytest.raises(ValueError):
            Plant(a=np.eye(2), b=np.ones((3, 1)))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            Plant(a=np.ones((2, 3)), b=np.ones((2, 1)))


class TestInputValue:
    def test_zero(self):
        fam = InputFamily(specs=(ZeroInput(), ZeroInput()), input_dim=2)
        assert np.array_equal(input_value(fam, 1, 17.3), [0.0, 0.0])

    def test_ramped_sine_agent(self):
        # zero-based agent 2 has amplitude 2, so f(2.0) = 2 sin 2
        fam = ramped_sine_family()
        assert input_value(fam, 2, 2.0) == pytest.approx(2.0 * np.sin(2.0))

    def test_sinusoid_at_origin(self):
        fam = InputFamily(specs=(SinusoidInput(amplitude=(3.0,)),), input_dim=1)
        assert input_value(fam, 0, 0.0) == pytest.approx(0.0)

    def test_index_out_of_range(self):
        fam = ramped_sine_family()
        with pytest.raises(IndexError):
            input_value(fam, 6, 0.0)

    def test_value_all_matches_per_agent(self):
        fam = ramped_sine_family()
        for t in (0.0, 0.7, 12.9):
            stacked = fam.value_all(t)
            for i in range(6):
                assert np.allclose(stacked[i], input_value(fam, i, t))


class TestInputBound:
    def test_zero_family(self):
        fam = InputFamily(specs=(ZeroInput(),) * 4, input_dim=1)
        assert fam.bound() == 0.0

    def test_ramped_sine_six_agents(self):
        assert ramped_sine_family().bound() == pytest.approx(3.5)

    def test_constant_euclidean(self):
        fam = InputFamily(specs=(ConstantInput(value=(3.0, 4.0)),) * 3, input_dim=2)
        assert fam.bound() == pytest.approx(5.0)

    def test_sampled_norms_never_exceed_bound(self):
        fam = InputFamily(
            specs=(
                ZeroInput(),
                ConstantInput(value=(0.3, -1.2)),
                SinusoidInput(amplitude=(1.5, 0.5), omega=2.3, phase=0.4),
                SinusoidInput(amplitude=(-2.0, 1.0), omega=0.7, phase=-1.1),
            ),
            input_dim=2,
        )
        f0 = fam.bound()
        for t in np.linspace(0.0, 100.0, 4001):
            values = fam.value_all(t)
            assert np.all(np.linalg.norm(values, axis=1) <= f0 + 1e-12)


class TestReferenceDerivative:
    def test_zero_dynamics(self):
        plant = Plant(a=np.zeros((2, 2)), b=np.zeros((2, 1)))
        assert np.array_equal(reference_derivative(plant, [1.0, 2.0], [3.0]), [0.0, 0.0])

    def test_demo_plant_by_hand(self):
        # A @ (1, 0) = (0, -1) with zero input
        out = reference_derivative(demo_plant(), [1.0, 0.0], [0.0])
        assert np.allclose(out, [0.0, -1.0])

    def test_equilibrium(self):
        out = reference_derivative(demo_plant(), [0.0, 0.0], [0.0])
        assert np.array_equal(out, [0.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            reference_derivative(demo_plant(), [1.0], [0.0])


def test_family_requires_consistent_channels():
    with pytest.raises(ValueError):
        InputFamily(specs=(ConstantInput(value=(1.0, 2.0)),), input_dim=1)


def test_demo_matrices_fixed():
    assert np.array_equal(DEMO_A, [[0.0, 1.0], [-1.0, -2.0]])
    assert np.array_equal(DEMO_B, [[0.0], [1.0]])
