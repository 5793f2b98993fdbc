"""Property tests of the stacked block updates in `altmin`.

Each update is run on stacks of one and of several problems that share their
targets and differ in `eta`, as in the alternating loop, and takes the
per-chain block sums the loop passes it.  For every member it must not raise
the objective, must keep the power exact and the phases canonical, and must
give bit for bit what a stack holding that member alone gives.  The
block-sum objective after a baseband step must match the objective of the
materialized design.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfrcbeam import altmin, metrics
from dfrcbeam.hybrid import canonical_phases, materialize_product, scale_to_power
from dfrcbeam.ula import TWO_PI

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def crandn(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * math.sqrt(0.5)


@dataclass
class Stack:
    f_com: np.ndarray        # (N, S)
    f_rad: np.ndarray        # (N, T)
    eta: np.ndarray          # (B,)
    phases: np.ndarray       # (B, N)
    basebands: np.ndarray    # (B, R, S), each on its power sphere
    unitaries: np.ndarray    # (B, T, S), rows orthonormal
    total_power: float

    @property
    def num_rf(self) -> int:
        return self.basebands.shape[1]

    def objective(self, phases=None, basebands=None, unitaries=None) -> np.ndarray:
        phases = self.phases if phases is None else phases
        basebands = self.basebands if basebands is None else basebands
        unitaries = self.unitaries if unitaries is None else unitaries
        product = materialize_product(phases, basebands)
        return metrics.fitting_errors(product, self.f_com, self.f_rad @ unitaries, self.eta)[2]

    def targets(self) -> np.ndarray:
        return altmin._chain_targets(self.f_com, self.f_rad, self.num_rf)

    def block_sums(self) -> np.ndarray:
        return altmin._block_sums(np.exp(-1j * self.phases), self.targets())

    def radar_sums(self) -> np.ndarray:
        return self.block_sums()[..., self.f_com.shape[1]:]

    def mixing(self, members=slice(None)) -> np.ndarray:
        return altmin._mixing(self.unitaries[members], self.eta[members])


@st.composite
def stacks(draw, sizes):
    num_rf = draw(st.integers(1, 4))
    block = draw(st.integers(1, 4))
    num_streams = draw(st.integers(1, 4))
    num_targets = draw(st.integers(1, num_streams))
    size = draw(sizes)
    eta = draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size))
    total_power = draw(st.floats(0.1, 10.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    num_antennas = num_rf * block
    basis, _ = np.linalg.qr(crandn(rng, (size, num_streams, num_targets)))
    return Stack(
        f_com=crandn(rng, (num_antennas, num_streams)),
        f_rad=crandn(rng, (num_antennas, num_targets)),
        eta=np.array(eta),
        phases=rng.uniform(0.0, TWO_PI, (size, num_antennas)),
        basebands=scale_to_power(crandn(rng, (size, num_rf, num_streams)),
                                 num_antennas, num_rf, total_power),
        unitaries=basis.conj().swapaxes(-1, -2),
        total_power=total_power,
    )


STACK_SIZES = {"one": st.just(1), "several": st.integers(2, 5)}


def assert_not_raised(before, after):
    assert np.all(after <= before + 1e-9 * (1.0 + before)), (before, after)


def assert_matches_stacks_of_one(stacked, solve_one):
    for i in range(len(stacked)):
        assert np.array_equal(stacked[i], solve_one(i)[0])


def check_unitary_step(p: Stack):
    g_rad = p.radar_sums()
    unitaries = altmin._unitary_step(g_rad, p.basebands)
    altmin._check_orthonormal_rows(unitaries)
    assert_not_raised(p.objective(), p.objective(unitaries=unitaries))
    assert_matches_stacks_of_one(
        unitaries, lambda i: altmin._unitary_step(g_rad[i:i + 1], p.basebands[i:i + 1]))


def analog_step(p: Stack, members=slice(None)):
    # the step maps phasors e^{-j phi} to phasors; phases are formed as the loop does
    phasors = altmin._analog_step(p.targets(), p.basebands[members], p.mixing(members),
                                  np.exp(-1j * p.phases[members]))
    return canonical_phases(-np.angle(phasors))


def check_analog_step(p: Stack):
    phases = analog_step(p)
    assert np.all((0.0 <= phases) & (phases < TWO_PI))
    assert_not_raised(p.objective(), p.objective(phases=phases))
    assert_matches_stacks_of_one(phases, lambda i: analog_step(p, slice(i, i + 1)))


def baseband_step(p: Stack, members=slice(None)):
    num_antennas = p.phases.shape[1]
    return altmin._baseband_step(p.block_sums()[members], p.mixing(members), num_antennas,
                                 p.total_power)


def check_baseband_step(p: Stack):
    basebands, _ = baseband_step(p)
    num_antennas = p.phases.shape[1]
    sphere = p.num_rf * p.total_power / num_antennas
    baseband_power = np.sum(np.abs(basebands) ** 2, axis=(1, 2))
    np.testing.assert_allclose(baseband_power, sphere, rtol=1e-12)
    product_power = np.sum(np.abs(materialize_product(p.phases, basebands)) ** 2, axis=(1, 2))
    np.testing.assert_allclose(product_power, p.total_power, rtol=1e-12)
    assert_not_raised(p.objective(), p.objective(basebands=basebands))
    assert_matches_stacks_of_one(basebands, lambda i: baseband_step(p, slice(i, i + 1))[0])


def check_chain_objective(p: Stack):
    basebands, g_norms = baseband_step(p)
    num_antennas = p.phases.shape[1]
    offsets = altmin._objective_offsets(p.targets(), p.f_com.shape[1], p.eta, p.total_power)
    chain = altmin._chain_objective(offsets, g_norms, p.num_rf * p.total_power / num_antennas)
    exact = p.objective(basebands=basebands)
    assert np.all(np.abs(chain - exact) <= 1e-12 * (1.0 + exact)), (chain, exact)


@pytest.mark.parametrize("size", ["one", "several"])
@pytest.mark.parametrize("check", [check_unitary_step, check_analog_step, check_baseband_step,
                                   check_chain_objective],
                         ids=["unitary", "analog", "baseband", "chain_objective"])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_block_update_properties(check, size, data):
    check(data.draw(stacks(STACK_SIZES[size])))
