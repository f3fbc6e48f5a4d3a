import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import etbell.states as states_module
from etbell.events import all_equal
from etbell.numerics import as_matrix
from etbell.optics import (
    InterferometerNetwork,
    beam_splitter,
    compose,
    generation_cascade,
    reck_decompose,
)
from etbell.states import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    MerminResult,
    MultiPartyState,
    correlators,
    equatorial_observable,
    expectation,
    ghz_state,
    mermin3,
    mermin_coefficients,
    mermin_n,
    postselect_coincident,
    prepare_postselected,
    qunit_state,
    rotated_settings,
    sample_measurement_events,
    standard_settings,
    stabilizer_expectations,
    state_from_json,
    state_to_json,
)
from etbell.source import four_photon_state

from conftest import block_edges, dense_state, dense_tensor, random_state_vector, states_close, traced_peak


def _flat(settings_pairs):
    return [obs for pair in settings_pairs for obs in pair]


def _product_state(n):
    return MultiPartyState((2,) * n, [((0,) * n, 1.0)], (("S", "L"),) * n)


def test_state_keeps_its_own_support():
    # mutating the caller's list, levels or amplitudes later changes nothing
    r = 1 / math.sqrt(2)
    levels = [1, 1]
    support = [([0, 0], r), (levels, r)]
    state = MultiPartyState((2, 2), support)
    levels[0] = 0
    support[0] = ((0, 1), 1.0)
    support.append(((1, 0), 0.5))
    assert state.support == (((0, 0), complex(r)), ((1, 1), complex(r)))
    assert all(type(amp) is complex for _, amp in state.support)
    assert not state.amplitudes.flags.writeable
    with pytest.raises(AttributeError, match="immutable"):
        state.support = ()
    with pytest.raises(AttributeError, match="immutable"):
        del state.support
    assert state.support == (((0, 0), complex(r)), ((1, 1), complex(r)))


def test_mermin_result_is_immutable_with_its_fields():
    result = mermin_n(ghz_state(3))
    assert MerminResult.__match_args__ == ("terms", "mu")
    assert MerminResult(terms=result.terms, mu=result.mu) == result
    for name in ("terms", "mu"):
        with pytest.raises(AttributeError):
            setattr(result, name, None)
        with pytest.raises(AttributeError):
            delattr(result, name)
    with pytest.raises(AttributeError):
        result.extra = None
    assert result == mermin_n(ghz_state(3))


_R = 1 / math.sqrt(2)


@pytest.mark.parametrize(
    "support, message",
    [
        ([((0,), _R), ((1, 1), _R)], r"support\[0\]: levels \(0,\) do not name 2 parties"),
        ([((0, 0), _R), ((1, 1, 0), _R)], r"support\[1\]: levels \(1, 1, 0\) do not name 2 parties"),
        ([((0, 2), _R), ((1, 1), _R)], r"support\[0\]: levels \(0, 2\) are not level indices"),
        ([((0, -1), _R), ((1, 1), _R)], r"support\[0\]: levels \(0, -1\) are not level indices"),
        ([((0, 1.0), _R), ((1, 1), _R)], r"support\[0\]: levels \(0, 1.0\) are not level indices"),
        ([((0, True), _R), ((1, 1), _R)], r"support\[0\]: levels \(0, True\) are not level indices"),
        ([((0, "1"), _R), ((1, 1), _R)], r"support\[0\]: levels \(0, '1'\) are not level indices"),
        ([((1, 1), _R), ((1, 1), _R)], r"support\[1\]: levels \(1, 1\) are repeated"),
        ([((0, 0), 1.0), ((1, 1), 0.0), ((1, 1), 0.0)], r"support\[2\]: levels \(1, 1\) are repeated"),
        ([((0, 0), math.nan), ((1, 1), _R)], r"support\[0\]: amplitude \(nan\+0j\) is not finite"),
        ([((0, 0), complex(0, math.inf)), ((1, 1), _R)], r"support\[0\]: amplitude infj is not finite"),
        ([((0, 0), "0.7"), ((1, 1), _R)], r"support\[0\]: amplitude '0.7' is not a number"),
        ([((0, 0), None), ((1, 1), _R)], r"support\[0\]: amplitude None is not a number"),
        ([((0, 0), True)], r"support\[0\]: amplitude True is not a number"),
        ([((0, 0), _R), ((1, 1), 0.5)], r"state must be normalized"),
        ([], r"state must be normalized \(norm 0.0\)"),
        ([((0, 0), 0.0)], r"state must be normalized \(norm 0.0\)"),
        ([1.0, 0.0, 0.0, 0.0], r"support\[0\] must be a \(levels, amplitude\) pair"),
        ([((0, 0), _R, 0.0)], r"support\[0\] must be a \(levels, amplitude\) pair"),
        ([(0, 1.0)], r"support\[0\] must be a \(levels, amplitude\) pair"),
    ],
    ids=[
        "levels-short", "levels-long", "level-too-high", "level-negative", "level-float", "level-bool",
        "level-string", "repeated", "repeated-zero", "nan", "inf", "string", "none", "bool",
        "unnormalized", "empty", "only-zeros", "dense-vector", "triple", "bare-level",
    ],
)
def test_state_refuses_a_bad_support(support, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        MultiPartyState((2, 2), support)


def test_state_drops_zero_amplitudes_and_sorts_its_support():
    state = MultiPartyState(
        (2, 3), [((1, 2), -0.6j), ((0, 1), 0j), ((1, 0), -0.0), ((0, 2), np.complex128(0.8))]
    )
    assert state.support == (((0, 2), 0.8 + 0j), ((1, 2), -0.6j))
    assert state.amplitudes.tolist() == [0, 0, 0.8, 0, 0, -0.6j]
    # numpy integers and floats are numbers too; the stored forms are Python's
    again = MultiPartyState((np.int64(2), 3), [((np.int64(0), 2), np.float64(0.8)), ((1, 2), -0.6j)])
    assert again.dims == (2, 3) and again.support == state.support
    assert all(type(lv) is int for levels, _ in again.support for lv in levels)


def test_amplitude_reads_labels_party_by_party():
    amps = dict(ghz_state(3).iter_amplitudes())
    assert amps == {("S", "S", "S"): complex(_R), ("L", "L", "L"): complex(_R)}
    assert ("S", "L", "S") not in amps  # a zero amplitude is off the support


def test_ghz_structure():
    g = ghz_state(3)
    assert g.dims == (2, 2, 2)
    amps = dict(g.iter_amplitudes())
    assert abs(amps[("S", "S", "S")] - 1 / math.sqrt(2)) < 1e-15
    assert abs(amps[("L", "L", "L")] - 1 / math.sqrt(2)) < 1e-15
    nonzero = list(g.iter_amplitudes())
    assert len(nonzero) == 2


def test_ghz_small_and_large():
    bell = ghz_state(2)
    assert abs(dict(bell.iter_amplitudes())[("S", "S")] - 1 / math.sqrt(2)) < 1e-15
    g5 = ghz_state(5)
    assert len(list(g5.iter_amplitudes())) == 2
    assert abs(np.linalg.norm(g5.amplitudes) - 1.0) < 1e-15
    with pytest.raises(ValueError):
        ghz_state(1)


def test_qunit_structure():
    q = qunit_state(3)
    assert q.dims == (3, 3, 3)
    amps = dict(q.iter_amplitudes())
    for i in "123":
        assert abs(amps[(i, i, i)] - 1 / math.sqrt(3)) < 1e-15
    assert len(list(q.iter_amplitudes())) == 3
    q4 = qunit_state(4)
    assert len(list(q4.iter_amplitudes())) == 4
    assert abs(dict(q4.iter_amplitudes())[("2", "2", "2", "2")] - 0.5) < 1e-15
    with pytest.raises(ValueError):
        qunit_state(1)


def test_qunit_two_levels_is_bell_state():
    q = qunit_state(2)
    g = ghz_state(2)
    assert np.abs(q.amplitudes - g.amplitudes).max() < 1e-15


def test_stabilizer_expectations_are_minus_one():
    values = stabilizer_expectations(ghz_state(3))
    assert len(values) == len(mermin_coefficients(3)) == 4
    for v in values:
        assert abs(v + 1.0) < 1e-12


@pytest.mark.parametrize("n, count", [(2, 4), (4, 16)])
def test_stabilizer_expectations_cover_every_mermin_term(n, count):
    values = stabilizer_expectations(ghz_state(n))
    coeffs = mermin_coefficients(n)
    assert len(values) == len(coeffs) == count
    assert all(abs(v) <= 1 + 1e-12 for v in values)
    # signed terms: weighted by |c_s| they add up to the Mermin value
    mu = abs(2 * sum(float(abs(c)) * v for c, v in zip(coeffs.values(), values)))
    assert abs(mu - mermin_n(ghz_state(n)).mu) < 1e-12


def test_expectation_examples():
    g = ghz_state(3)
    assert abs(expectation(g, [PAULI_X, PAULI_Y, PAULI_Y]) + 1.0) < 1e-12
    assert abs(expectation(g, [PAULI_X, PAULI_X, PAULI_X]) - 1.0) < 1e-12
    sss = _product_state(3)
    assert abs(expectation(sss, [PAULI_X, PAULI_Y, PAULI_Y])) < 1e-15


def test_expectation_validation():
    g = ghz_state(3)
    with pytest.raises(ValueError):
        expectation(g, [PAULI_X, PAULI_Y])
    with pytest.raises(ValueError):
        expectation(g, [np.eye(3), PAULI_X, PAULI_X])
    with pytest.raises(ValueError):
        expectation(g, [np.array([[0, 1], [0, 0]]), PAULI_X, PAULI_X])


def test_mermin_n_takes_only_dichotomic_settings():
    # each observable, as both settings of both parties of a two-party state
    # on its levels, against the refusal it must meet (None: accepted)
    single = "settings must be dichotomic: party 0 setting 0 has the single eigenvalue"
    unsquared = "settings must be dichotomic: party 0 setting 0 does not square to the identity"
    not_hermitian = "observables must be square Hermitian matrices"
    cases = [
        (PAULI_X, None),
        (PAULI_Y, None),
        (PAULI_Z, None),
        (equatorial_observable(0.7), None),
        (np.eye(2), f"{single} 1$"),
        (2 * np.array(PAULI_X), unsquared),
        (-np.eye(2), f"{single} -1$"),
        ([[1]], f"{single} 1$"),
        (np.diag([1, -1, 1]), None),
        (np.diag([1, 1, 1]), f"{single} 1$"),
        ([[1, 1], [0, -1]], not_hermitian),  # squares to I, spectrum +-1, not Hermitian
        (PAULI_X * 2, not_hermitian),  # tuple repetition: a 4 x 2 matrix
        ((1 + 1e-14) * np.array(PAULI_Z), None),
        ((1 + 1e-10) * np.array(PAULI_Z), unsquared),
    ]
    for observable, refusal in cases:
        d = len(observable)
        state = MultiPartyState((d, d), [((i, i), d**-0.5) for i in range(d)])
        settings_pairs = ((observable, observable),) * 2
        if refusal is None:
            assert math.isfinite(mermin_n(state, settings_pairs).mu)
        else:
            with pytest.raises(ValueError, match=f"^{refusal}"):
                mermin_n(state, settings_pairs)


@pytest.mark.parametrize(
    "value", [[1, 0], [[1, 0], [0]], [], [[]], np.ones((2, 2, 2)), [["1", "0"], ["0", "1"]]],
    ids=["vector", "ragged", "empty", "empty-row", "3-d", "strings"],
)
def test_observables_must_be_matrices_of_numbers(value):
    with pytest.raises(ValueError, match="expected a matrix of numbers"):
        mermin_n(ghz_state(2), ((value, PAULI_X), (PAULI_Y, PAULI_X)))
    with pytest.raises(ValueError, match="expected a matrix of numbers"):
        expectation(ghz_state(2), [value, PAULI_X])


def test_observables_must_be_finite():
    with pytest.raises(ValueError, match="finite"):
        expectation(ghz_state(2), [[[math.nan, 0], [0, 1]], PAULI_X])


def test_mermin3_ghz_reaches_four():
    result = mermin3(ghz_state(3), *_flat(standard_settings(3)))
    assert abs(result.mu - 4.0) < 1e-12
    for term, expected in zip(result.terms, (-1.0, -1.0, -1.0, 1.0)):
        assert abs(term - expected) < 1e-12


def test_mermin3_product_state_vanishes():
    result = mermin3(_product_state(3), *_flat(standard_settings(3)))
    assert abs(result.mu) < 1e-15


def test_mermin3_all_x_settings():
    result = mermin3(ghz_state(3), *([PAULI_X] * 6))
    assert np.abs(np.array(result.terms) - 1.0).max() < 1e-12
    assert abs(result.mu - 2.0) < 1e-12


def test_mermin3_rejects_non_dichotomic():
    with pytest.raises(ValueError):
        mermin3(ghz_state(3), np.eye(2), *([PAULI_X] * 5))


@pytest.mark.parametrize("n", [2, 4])
def test_mermin3_takes_three_parties(n):
    with pytest.raises(ValueError, match=f"three-party state, got {n} parties"):
        mermin3(ghz_state(n), *([PAULI_X] * 6))


def test_mermin_coefficients_three_party_layout():
    coeffs = mermin_coefficients(3)
    from fractions import Fraction

    assert coeffs == {
        (0, 0, 1): Fraction(1, 2),
        (0, 1, 0): Fraction(1, 2),
        (1, 0, 0): Fraction(1, 2),
        (1, 1, 1): Fraction(-1, 2),
    }


@pytest.mark.parametrize("seed", range(5))
def test_mermin_n_reduces_to_mermin3(seed):
    rng = np.random.default_rng(seed)
    state = dense_state((2, 2, 2), random_state_vector(8, seed))
    offsets = rng.uniform(-math.pi, math.pi, size=3)
    settings_pairs = rotated_settings(offsets)
    got = mermin_n(state, settings_pairs)
    a, b, c = settings_pairs
    combos = ((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1))
    want = [expectation(state, [a[i], b[j], c[k]]) for i, j, k in combos]
    assert np.allclose(got.terms, want, rtol=0, atol=1e-12)
    assert abs(got.mu - abs(want[0] + want[1] + want[2] - want[3])) < 1e-12
    assert mermin3(state, *_flat(settings_pairs)) == got


def test_chsh_optimum_on_bell_state():
    # CHSH at the analytically optimal equatorial angles.
    settings_pairs = (
        (equatorial_observable(0.0), equatorial_observable(math.pi / 2)),
        (equatorial_observable(-math.pi / 4), equatorial_observable(math.pi / 4)),
    )
    value = mermin_n(ghz_state(2), settings_pairs).mu
    assert abs(value - 2.0 * math.sqrt(2.0)) < 1e-12
    # No equatorial grid point exceeds the quantum maximum.
    grid = np.linspace(0, 2 * math.pi, 9, endpoint=False)
    best = 0.0
    for a0, a1, b0, b1 in itertools.product(grid, repeat=4):
        pairs = (
            (equatorial_observable(a0), equatorial_observable(a1)),
            (equatorial_observable(b0), equatorial_observable(b1)),
        )
        best = max(best, mermin_n(ghz_state(2), pairs).mu)
    assert best <= 2.0 * math.sqrt(2.0) + 1e-9


# Values of the scaled recursion functional on GHZ_n at the canonical
# (sigma_y, sigma_x) settings, frozen from direct dense-operator evaluation.
@pytest.mark.parametrize(
    "n,expected",
    [(2, 2.0), (3, 4.0), (4, 4.0), (5, 0.0), (6, 8.0)],
)
def test_mermin_n_ghz_frozen_values(n, expected):
    assert abs(mermin_n(ghz_state(n)).mu - expected) < 1e-10


def test_mermin_phase_sweep_continuous_with_maximum_at_zero():
    state = ghz_state(3)
    deltas = np.linspace(-0.5, 0.5, 21)
    values = []
    for delta in deltas:
        result = mermin3(state, *_flat(rotated_settings((delta, 0.0, 0.0))))
        assert abs(result.mu - 4.0 * abs(math.cos(delta))) < 1e-12
        values.append(result.mu)
    assert abs(values[10] - 4.0) < 1e-12
    assert max(values) == values[10]
    steps = np.abs(np.diff(values))
    assert steps.max() < 4.0 * (deltas[1] - deltas[0]) + 1e-9


def _two_way_splitter():
    return InterferometerNetwork(2, (beam_splitter(0, 1, 0.5),))


def test_state_rejects_repeated_level_labels():
    # a repeated label would make the JSON codec move amplitude between levels
    with pytest.raises(ValueError, match="distinct"):
        MultiPartyState((2,), [((1,), 1.0)], (("a", "a"),))


def test_prepare_postselected_ghz_geometry():
    state, prob = prepare_postselected([_two_way_splitter()] * 3)
    assert abs(prob - 0.25) < 1e-12
    assert states_close(state, ghz_state(3), tol=1e-12)


def test_prepare_postselected_qutrit_geometry():
    state, prob = prepare_postselected([generation_cascade(3)] * 3)
    assert abs(prob - 1.0 / 9.0) < 1e-12
    assert states_close(state, qunit_state(3), tol=1e-12)


def test_prepare_postselected_trivial_networks():
    state, prob = prepare_postselected([InterferometerNetwork(1)] * 3)
    assert prob == 1.0
    assert state.dims == (1, 1, 1)


def test_prepare_postselected_empty_selection():
    # one photon always arrives in bin 0, the other always in bin 1
    networks = [InterferometerNetwork(2), InterferometerNetwork(2, (beam_splitter(0, 1, 1.0),))]
    with pytest.raises(ValueError, match="postselection empty"):
        prepare_postselected(networks)


def test_prepare_postselected_multibin_emission_normalized():
    src = np.array([1.0, 1.0]) / math.sqrt(2.0)
    state, prob = prepare_postselected(
        [_two_way_splitter()] * 2, emission_amplitudes=src
    )
    assert 0.0 < prob <= 1.0
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12
    assert state.dims == (3, 3)


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"input_mode": 1.5}, "input_mode"),
        ({"input_mode": True}, "input_mode"),
        ({"input_mode": np.float64(0.0)}, "input_mode"),
        ({"input_mode": 2}, "input_mode"),
        ({"emission_amplitudes": [[1, 0], [0, 1]]}, "emission_amplitudes"),
        ({"emission_amplitudes": 1.0}, "emission_amplitudes"),
        ({"emission_amplitudes": [math.nan, 1]}, "emission_amplitudes"),
        ({"emission_amplitudes": [math.inf, 1]}, "emission_amplitudes"),
        ({"emission_amplitudes": [0, 0]}, "emission_amplitudes"),
        ({"emission_amplitudes": ["a", 1]}, "emission_amplitudes"),
        ({"emission_amplitudes": [{}, 1]}, "emission_amplitudes"),
        ({"networks": [_two_way_splitter(), np.eye(2)]}, r"networks\[1\]"),
        ({"networks": []}, "networks"),
    ],
    ids=[
        "mode-float", "mode-bool", "mode-numpy-float", "mode-outside",
        "emission-2d", "emission-scalar", "emission-nan", "emission-inf", "emission-zero",
        "emission-string", "emission-object",
        "bare-matrix", "no-networks",
    ],
)
def test_prepare_postselected_refuses_bad_arguments(kwargs, field):
    with pytest.raises(ValueError, match=field):
        prepare_postselected(**{"networks": [_two_way_splitter()] * 2, **kwargs})


def test_prepare_postselected_accepts_numpy_integer_mode():
    state, _ = prepare_postselected([_two_way_splitter()] * 2, input_mode=np.int64(1))
    assert state.dims == (2, 2)


def _dense_prepare(networks, emission_amplitudes, input_mode):
    """The outer-product construction: the amplitude tensor over every joint
    arrival outcome, then the all-equal cells kept and renormalized.
    Returns the flat amplitudes and the selection probability."""
    if emission_amplitudes is None:
        src = np.ones(1, dtype=complex)
    else:
        src = np.asarray(emission_amplitudes, dtype=complex)
        src = src / np.linalg.norm(src)
    columns = [compose(net)[:, input_mode] for net in networks]
    dims = tuple(col.size + src.size - 1 for col in columns)
    joint = np.zeros(dims, dtype=complex)
    for t in range(src.size):
        padded = []
        for col, dim in zip(columns, dims):
            vec = np.zeros(dim, dtype=complex)
            vec[t : t + col.size] = col
            padded.append(vec)
        branch = padded[0]
        for vec in padded[1:]:
            branch = np.multiply.outer(branch, vec)
        joint = joint + src[t] * branch
    total = float(np.sum(np.abs(joint) ** 2))
    kept = np.where(all_equal(np.moveaxis(np.indices(dims), 0, -1)), joint, 0.0)
    weight = math.fsum((kept.real * kept.real + kept.imag * kept.imag).ravel().tolist())
    if weight <= 0.0:
        raise ValueError("postselection empty")
    return (kept / math.sqrt(weight)).reshape(-1), weight / total


def _random_network(modes: int, rng, permutation: bool) -> InterferometerNetwork:
    """The Reck mesh of a random unitary (QR of a complex Gaussian matrix)
    or of a random permutation, whose single-bin columns can empty the
    postselection."""
    if permutation:
        u = np.eye(modes)[rng.permutation(modes)]
    else:
        u = np.linalg.qr(rng.normal(size=(modes, modes)) + 1j * rng.normal(size=(modes, modes)))[0]
    return reck_decompose(u).network


@given(
    modes=st.lists(st.integers(1, 4), min_size=1, max_size=5),
    n_emit=st.integers(1, 3),
    default_emission=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_prepare_postselected_matches_dense_construction(modes, n_emit, default_emission, seed, data):
    rng = np.random.default_rng(seed)
    networks = [_random_network(m, rng, rng.random() < 0.15) for m in modes]
    input_mode = data.draw(st.integers(0, min(modes) - 1), label="input_mode")
    emission = rng.normal(size=n_emit) + 1j * rng.normal(size=n_emit)
    if n_emit == 1 and default_emission:
        emission = None
    try:
        want, want_prob = _dense_prepare(networks, emission, input_mode)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{exc}$"):
            prepare_postselected(networks, emission, input_mode)
        return
    state, prob = prepare_postselected(networks, emission, input_mode)
    assert state.dims == tuple(m + n_emit - 1 for m in modes)
    assert state.amplitudes.tobytes() == want.tobytes()
    assert abs(prob - want_prob) <= 1e-12 * want_prob


def test_prepare_postselected_benchmark_cascade_bytes():
    # six parties on six-mode cascades, pinned from the dense construction
    state, prob = prepare_postselected([generation_cascade(6)] * 6)
    assert hashlib.sha256(state.amplitudes.tobytes()).hexdigest() == (
        "a3e397da438b3bc254322faff3aca03311472a0dede71179c7c4d6b0b3f891b7"
    )
    assert abs(prob - 6.0**-5) <= 1e-12 * prob


def test_prepare_postselected_memory_is_about_the_output_state():
    # neither the 7^7 joint tensor nor any array over its cells is built: the
    # peak is the 7 kept amplitudes and the per-party columns, while the dense
    # amplitude vector (13.2 MB) is built only when read
    networks = [generation_cascade(7)] * 7
    prepare_postselected(networks)  # warm-up
    peak, _ = traced_peak(prepare_postselected, networks)
    assert peak <= 64 * 1024


@pytest.mark.parametrize("make, n", [(ghz_state, 22), (qunit_state, 7)])
def test_postselect_coincident_memory_is_about_the_support(make, n):
    # the 2^22- and 7^7-cell dense layouts are never built
    postselect_coincident(make(n))  # warm-up
    peak, _ = traced_peak(lambda: postselect_coincident(make(n)))
    assert peak <= 64 * 1024


@pytest.mark.parametrize("n", range(2, 9))
def test_ghz_state_amplitude_bytes(n):
    want = np.zeros(2**n, dtype=complex)
    want[0] = want[-1] = 1.0 / math.sqrt(2.0)
    assert ghz_state(n).amplitudes.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", range(2, 9))
def test_qunit_state_amplitude_bytes(n):
    # |i...i> at flat index i (n^n - 1)/(n - 1); compared cell by cell on
    # the nonzero bit patterns, so qunit_state(8) (268 MB) gets no dense twin
    amps = qunit_state(n).amplitudes
    cells = np.arange(n) * ((n**n - 1) // (n - 1))
    assert np.array_equal(np.flatnonzero(amps.view(np.int64)) // 2, cells)
    assert amps[cells].tobytes() == np.full(n, 1.0 / math.sqrt(n), dtype=complex).tobytes()

def test_sample_measurement_events_deterministic_and_saturating():
    table = sample_measurement_events(ghz_state(3), trials=4000, seed=11)
    again = sample_measurement_events(ghz_state(3), trials=4000, seed=11)
    assert (table.settings == again.settings).all()
    assert (table.signs == again.signs).all()
    assert (table.bins == again.bins).all()
    assert table.selected.all()
    # one common bin per trial
    assert (table.bins == table.bins[:, :1]).all()
    from etbell.events import mermin_estimate

    est = mermin_estimate(table)
    assert est.mu == 4.0


def test_sample_measurement_events_memory():
    # signs are written into one int8 (trials, n) array from the outcome
    # index bits, with no int64 per-party level arrays (1.6 MB before)
    state = ghz_state(3)
    sample_measurement_events(state, trials=100, seed=6)
    peak, _ = traced_peak(sample_measurement_events, state, trials=20_000, seed=6)
    assert peak <= 1_100_000


@pytest.mark.parametrize("trials", [2.7, True, np.float64(3.0), "5"])
def test_sample_measurement_events_trial_count_must_be_an_integer(trials):
    with pytest.raises(ValueError, match="^trial count must be an integer"):
        sample_measurement_events(ghz_state(3), trials=trials, seed=11)


def _dense_sample(state, settings, trials, seed):
    """The dense sampler the support-built table replaced: per-party analyzer
    stacks applied to the state tensor by ``tensordot``, the outcome CDF of
    every setting string, then the same draws. Returns settings, signs and
    bins."""
    n = state.n_parties
    stacks = [np.stack([np.linalg.eigh(as_matrix(obs))[1].conj().T for obs in pair]) for pair in settings]
    psi = dense_tensor(state)
    for p, stack in enumerate(stacks):
        psi = np.moveaxis(np.tensordot(stack, psi, axes=([2], [2 * p])), (0, 1), (p, 2 * p + 1))
    cdfs = np.cumsum(np.abs(psi.reshape(2**n, 2**n)) ** 2, axis=1)
    rng = np.random.default_rng(seed)
    setting_arr = rng.integers(0, 2, size=(trials, n), dtype=np.int8)
    uniforms = rng.random(trials)
    common_bins = rng.integers(0, 2, size=trials, dtype=np.int8)
    outcome_flat = np.zeros(trials, dtype=np.int64)
    combo_flat = np.ravel_multi_index(setting_arr.T, (2,) * n)
    for combo, cdf in enumerate(cdfs):
        mask = combo_flat == combo
        if mask.any():
            outcome_flat[mask] = np.searchsorted(cdf, uniforms[mask], side="right")
    np.minimum(outcome_flat, 2**n - 1, out=outcome_flat)
    signs = np.empty((trials, n), dtype=np.int8)
    for p in range(n):
        signs[:, p] = 2 * ((outcome_flat >> (n - 1 - p)) & 1) - 1
    return setting_arr, signs, np.repeat(common_bins[:, None], n, axis=1)


@pytest.mark.parametrize("seed", [1, 7, 101])
@pytest.mark.parametrize("n", range(2, 11))
def test_sample_measurement_events_match_the_dense_sampler(n, seed):
    # the two CDF tables may differ in the last bit; the draws may not
    table = sample_measurement_events(ghz_state(n), trials=20_000, seed=seed)
    settings, signs, bins = _dense_sample(ghz_state(n), standard_settings(n), 20_000, seed)
    assert table.settings.tobytes() == settings.tobytes()
    assert table.signs.tobytes() == signs.tobytes()
    assert table.bins.tobytes() == bins.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 101])
def test_sample_measurement_events_match_the_dense_sampler_at_block_edges(trial_block, seed):
    # the outcome doubles go a block at a time, between the whole-table int8
    # settings and common bins; the dense sampler draws all three at once
    for trials in block_edges(trial_block):
        for n in range(2, 6):
            table = sample_measurement_events(ghz_state(n), trials=trials, seed=seed)
            settings, signs, bins = _dense_sample(ghz_state(n), standard_settings(n), trials, seed)
            assert table.settings.tobytes() == settings.tobytes()
            assert table.signs.tobytes() == signs.tobytes()
            assert table.bins.tobytes() == bins.tobytes()


@pytest.mark.parametrize("seed", [1, 7, 101])
def test_sample_measurement_events_match_the_dense_sampler_off_ghz(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    state = dense_state((2,) * n, random_state_vector(2**n, seed))
    settings_pairs = rotated_settings(rng.uniform(-math.pi, math.pi, size=n))
    table = sample_measurement_events(state, settings_pairs, trials=20_000, seed=seed)
    settings, signs, bins = _dense_sample(state, settings_pairs, 20_000, seed)
    assert table.settings.tobytes() == settings.tobytes()
    assert table.signs.tobytes() == signs.tobytes()
    assert table.bins.tobytes() == bins.tobytes()


NOT_HERMITIAN = [[1, 1], [0, -1]]  # squares to I, spectrum +-1
BAD_SETTINGS = {
    "too-few": (standard_settings(2), r"need one setting pair per party \(3\), got 2"),
    "too-many": (standard_settings(4), r"need one setting pair per party \(3\), got 4"),
    "one-setting": (standard_settings(2) + ((PAULI_X,),), "need two settings per party"),
    "three-settings": (
        standard_settings(2) + ((PAULI_Y, PAULI_X, PAULI_X),), "need two settings per party, party 2 has 3",
    ),
    "first-party-one-setting": (
        ((PAULI_Y,),) + standard_settings(2), "need two settings per party, party 0 has 1",
    ),
    "not-dichotomic": (standard_settings(2) + ((PAULI_X, np.eye(2)),), "settings must be dichotomic"),
    "identity": (
        ((PAULI_X, np.eye(2)),) + standard_settings(2),
        "settings must be dichotomic: party 0 setting 1 has the single eigenvalue 1",
    ),
    "doubled": (
        standard_settings(2) + ((2 * np.array(PAULI_X), PAULI_Y),),
        "settings must be dichotomic: party 2 setting 0 does not square to the identity",
    ),
    "not-hermitian": (
        standard_settings(2) + ((PAULI_X, NOT_HERMITIAN),), "observables must be square Hermitian matrices",
    ),
    "not-square": (
        standard_settings(2) + ((PAULI_X, [[1, 0, 0], [0, -1, 0]]),),
        "observables must be square Hermitian matrices",
    ),
    "not-finite": (standard_settings(2) + ((PAULI_X, [[math.nan, 0], [0, 1]]),), "matrix entries must be finite"),
    "not-a-matrix": (standard_settings(2) + ((PAULI_X, [1, 0]),), "expected a matrix of numbers"),
    "not-pairs": ([1, 2, 3], "need two settings per party, party 0 has int 1, not a pair$"),
    "qutrit-observable": (
        standard_settings(2) + ((PAULI_X, np.diag([1, -1, 1])),), r"operator shape \(3, 3\) does not match dim 2",
    ),
}


@pytest.mark.parametrize("settings_pairs, message", BAD_SETTINGS.values(), ids=BAD_SETTINGS)
def test_sample_measurement_events_refuses_bad_settings(monkeypatch, settings_pairs, message):
    monkeypatch.setattr(states_module, "seeded_rng", None)  # refused before any draw
    with pytest.raises(ValueError, match=f"^{message}"):
        sample_measurement_events(ghz_state(3), settings_pairs, trials=10)


@pytest.mark.parametrize("settings_pairs, message", BAD_SETTINGS.values(), ids=BAD_SETTINGS)
def test_mermin_n_refuses_bad_settings(settings_pairs, message):
    # the same rule and messages as the event sampler: a party with one or
    # three observables is refused, not read as a missing or ignored setting
    with pytest.raises(ValueError, match=f"^{message}"):
        mermin_n(ghz_state(3), settings_pairs)


def test_mermin_n_refuses_qubit_settings_on_qutrits():
    with pytest.raises(ValueError, match=r"^operator shape \(2, 2\) does not match dim 3$"):
        mermin_n(qunit_state(3))


def test_sample_measurement_events_refuses_before_allocating(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("work started past the size guard")

    monkeypatch.setattr(np.multiply, "outer", forbidden)
    with pytest.raises(ValueError, match="^correlator tensor of 67108864 entries"):
        sample_measurement_events(ghz_state(13), trials=10)
    with pytest.raises(ValueError, match="qubit states"):
        sample_measurement_events(qunit_state(3), trials=10)


@given(
    shape=st.lists(st.integers(1, 5), min_size=1, max_size=4).map(tuple),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_postselect_coincident_matches_all_equal_mask(shape, seed):
    state = dense_state(shape, random_state_vector(math.prod(shape), seed), ())
    joint = dense_tensor(state)
    # reference: the all_equal mask over every cell's index tuple
    kept = np.where(all_equal(np.moveaxis(np.indices(shape), 0, -1)), joint, 0.0)
    weight = math.fsum((kept.real * kept.real + kept.imag * kept.imag).ravel().tolist())
    kept_state, got = postselect_coincident(state)
    assert got == weight
    assert kept_state.amplitudes.tobytes() == (kept / math.sqrt(weight)).reshape(-1).tobytes()
    assert kept_state.level_labels == state.level_labels


def test_multiparty_state_validation():
    with pytest.raises(ValueError, match="level labels must match dims"):
        MultiPartyState((2,), [((0,), 1.0)], (("a",),))
    with pytest.raises(ValueError, match="each party needs at least one level"):
        MultiPartyState((2, 0), [((0, 0), 1.0)])


def test_state_json_round_trip():
    for state in (ghz_state(3), qunit_state(3)):
        again = state_from_json(state_to_json(state))
        assert states_close(again, state, tol=1e-15)
        assert again.level_labels == state.level_labels


def test_state_from_json_sorts_entries_given_out_of_order():
    for state in (ghz_state(3), qunit_state(3), four_photon_state()):
        data = state_to_json(state)
        shuffled = {**data, "amplitudes": data["amplitudes"][::-1]}
        again = state_from_json(shuffled)
        assert again.support == state.support
        assert state_to_json(again) == data


def test_state_json_drops_zero_amplitudes():
    data = state_to_json(ghz_state(2))
    data["amplitudes"].insert(1, ["SL", 0.0, -0.0])
    again = state_from_json(data)
    assert again.support == ghz_state(2).support
    assert state_to_json(again) == state_to_json(ghz_state(2))


def test_state_json_multichar_labels():
    state = four_photon_state()
    data = state_to_json(state)
    assert data["amplitudes"][0][0].count("|") == 3
    again = state_from_json(data)
    assert states_close(again, state, tol=1e-15)


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25, deadline=None)
def test_mermin3_below_algebraic_bound(seed):
    state = dense_state((2, 2, 2), random_state_vector(8, seed))
    rng = np.random.default_rng(seed)
    pairs = rotated_settings(rng.uniform(-math.pi, math.pi, size=3))
    result = mermin3(state, *_flat(pairs))
    assert result.mu <= 4.0 + 1e-9
    for term in result.terms:
        assert -1.0 - 1e-9 <= term <= 1.0 + 1e-9


def test_state_json_single_party_multichar_labels():
    state = MultiPartyState((11,), [((9,), 1.0)])  # default labels "1".."11"
    data = state_to_json(state)
    assert data["amplitudes"] == [["10", 1.0, 0.0]]
    again = state_from_json(data)
    assert states_close(again, state, tol=0.0)
    assert again.level_labels == state.level_labels


def test_state_json_rejects_wrong_label_count():
    data = state_to_json(ghz_state(3))
    data["amplitudes"][0][0] = "SS"
    with pytest.raises(ValueError, match="3 parties"):
        state_from_json(data)


def test_state_rejects_non_integer_dims():
    for dims in ((2.9, 2), (2.0, 2), (True, 2)):
        with pytest.raises(ValueError, match="dims"):
            MultiPartyState(dims, [((0, 0), 1.0)])


def _ghz_json_with(key, value):
    data = state_to_json(ghz_state(3))
    data[key] = value
    return data


@pytest.mark.parametrize(
    "data, field",
    [
        ([1, 2], "state"),
        (_ghz_json_with("extra", 1), "extra"),
        ({"dims": [2, 2, 2], "amplitudes": []}, "level_labels"),
        (_ghz_json_with("dims", [2.9, 2, 2]), "dims[0]"),
        (_ghz_json_with("dims", [2, True, 2]), "dims[1]"),
        (_ghz_json_with("dims", "222"), "dims"),
        (_ghz_json_with("dims", []), "dims"),
        (_ghz_json_with("level_labels", ["SL", "SL", "SL"]), "level_labels[0]"),
        (_ghz_json_with("level_labels", [["S", "L"], ["S", "L"]]), "level_labels"),
        (_ghz_json_with("level_labels", [["S", "L"], ["S", 1], ["S", "L"]]), "level_labels[1]"),
        (_ghz_json_with("level_labels", [["S", "L"], ["S"], ["S", "L"]]), "level_labels[1]"),
        (_ghz_json_with("amplitudes", {"SSS": 1}), "amplitudes"),
        (_ghz_json_with("amplitudes", [["SSS", "0.7", 0]]), "amplitudes[0]"),
        (_ghz_json_with("amplitudes", [["SSS", 1.0]]), "amplitudes[0]"),
        (_ghz_json_with("amplitudes", [[7, 1.0, 0.0]]), "amplitudes[0]"),
        (_ghz_json_with("amplitudes", [["SSX", 1.0, 0.0]]), "amplitudes[0]"),
        (_ghz_json_with("amplitudes", [["SSS", 1.0, True]]), "amplitudes[0]"),
        (_ghz_json_with("amplitudes", [["SSS", 1.0, 0.0], ["SSS", 0.0, 0.0]]), "amplitudes[1]"),
    ],
)
def test_state_from_json_rejects_malformed_input(data, field):
    with pytest.raises(ValueError) as exc:
        state_from_json(data)
    assert field in str(exc.value)


@st.composite
def _labelled_states(draw):
    dims = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3))
    label = st.text(alphabet="SLab01", min_size=1, max_size=3)
    labels = tuple(
        tuple(draw(st.lists(label, min_size=d, max_size=d, unique=True))) for d in dims
    )
    seed = draw(st.integers(min_value=0, max_value=10**6))
    return dense_state(tuple(dims), random_state_vector(math.prod(dims), seed), labels)


@given(state=_labelled_states())
@settings(max_examples=60, deadline=None)
def test_state_json_round_trip_property(state):
    again = state_from_json(state_to_json(state))
    assert again.level_labels == state.level_labels
    assert states_close(again, state, tol=0.0)


def _dense_expectation(state, observables):
    """Reference: <psi| kron(O_1, ..., O_n) |psi> with the dense operator."""
    full = np.asarray(observables[0], dtype=complex)
    for o in observables[1:]:
        full = np.kron(full, o)
    return complex(np.vdot(state.amplitudes, full @ state.amplitudes)).real


def _random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


@st.composite
def _states_with_stacks(draw):
    """Random 2-4 party states over qubit and qutrit parties, with 1-3
    random Hermitian observables per party."""
    dims = draw(st.lists(st.integers(min_value=2, max_value=3), min_size=2, max_size=4))
    ks = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=len(dims), max_size=len(dims)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    state = dense_state(dims, random_state_vector(math.prod(dims), int(rng.integers(2**31))))
    stacks = [[_random_hermitian(rng, d) for _ in range(k)] for d, k in zip(dims, ks)]
    return state, stacks


@given(case=_states_with_stacks())
@settings(max_examples=60, deadline=None)
def test_correlators_match_dense_kron(case):
    state, stacks = case
    values = correlators(state, stacks)
    assert values.shape == tuple(len(stack) for stack in stacks)
    for s in itertools.product(*(range(len(stack)) for stack in stacks)):
        want = _dense_expectation(state, [stack[k] for stack, k in zip(stacks, s)])
        assert abs(values[s] - want) <= 1e-12
    first = [stack[0] for stack in stacks]
    assert abs(expectation(state, first) - _dense_expectation(state, first)) <= 1e-12


@given(
    n=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=40, deadline=None)
def test_mermin_n_matches_dense_coefficient_sum(n, seed):
    rng = np.random.default_rng(seed)
    state = dense_state((2,) * n, random_state_vector(2**n, seed))
    settings_pairs = rotated_settings(rng.uniform(-math.pi, math.pi, size=n))
    total = 0.0
    for s, c in mermin_coefficients(n).items():
        total += float(c) * _dense_expectation(state, [settings_pairs[j][s[j]] for j in range(n)])
    assert abs(mermin_n(state, settings_pairs).mu - abs(2.0 * total)) <= 1e-12


def test_correlator_paths_build_no_dense_operator(monkeypatch):
    def no_kron(*args, **kwargs):
        raise AssertionError("dense kron product built")

    monkeypatch.setattr(np, "kron", no_kron)
    assert abs(mermin_n(ghz_state(5)).mu - 0.0) < 1e-10
    assert all(abs(v + 1.0) < 1e-12 for v in stabilizer_expectations(ghz_state(3)))


def test_correlator_guard_raises_before_allocating(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("work started past the size guard")

    monkeypatch.setattr(np, "tensordot", forbidden)
    monkeypatch.setattr(states_module, "mermin_coefficients", forbidden)
    with pytest.raises(ValueError, match="correlator tensor of 67108864 entries"):
        mermin_n(ghz_state(13))


def test_correlator_guard_limit_is_inclusive(monkeypatch):
    monkeypatch.setattr(states_module, "MAX_CORRELATOR_ENTRIES", 2**10)
    assert abs(mermin_n(ghz_state(5)).mu) < 1e-10  # 2^5 settings x 2^5 levels
    with pytest.raises(ValueError, match="exceeds"):
        mermin_n(ghz_state(6))


def test_correlator_guard_refuses_a_dense_twelve_qubit_state(monkeypatch):
    # 4096 nonzero amplitudes make 2^24 support pairs per setting string:
    # refused before the pair loop, as the state's 2^12 setting strings would
    # take hours there
    def forbidden(*args, **kwargs):
        raise AssertionError("work started past the size guard")

    state = dense_state((2,) * 12, random_state_vector(2**12, seed=12))
    monkeypatch.setattr(states_module, "mermin_coefficients", forbidden)
    with pytest.raises(ValueError, match="^correlator sum of 68719476736 pair terms exceeds"):
        mermin_n(state)
    with pytest.raises(ValueError, match="4096 nonzero amplitudes, 12 parties"):
        correlators(state, standard_settings(12))


def test_correlator_pair_guard_limit_is_inclusive(monkeypatch):
    monkeypatch.setattr(states_module, "MAX_CORRELATOR_ENTRIES", 2**10)
    four = dense_state((2,) * 4, random_state_vector(16, seed=4))
    # 16^2 pairs per setting string: four strings make 1024 terms, the limit
    # itself; the 2^4 levels pass the tensor limit throughout
    assert abs(expectation(four, [PAULI_X] * 4)) <= 1
    assert correlators(four, [[PAULI_X, PAULI_Y]] * 2 + [[PAULI_X]] * 2).shape == (2, 2, 1, 1)
    with pytest.raises(ValueError, match="^correlator sum of 2048 pair terms exceeds"):
        correlators(four, [[PAULI_X, PAULI_Y]] * 3 + [[PAULI_X]])


def _dense_correlators(state, stacks, lead=0):
    """The dense kernel the support-pair sum replaced: per-party operator
    stacks applied to the state tensor by ``tensordot``, then contracted
    with the conjugate state.

    ``lead > 0`` takes the first ``lead`` parties' settings one string at a
    time, to cut the peak memory. That changes the products BLAS is handed,
    and with them the last bit of inexact entries, so it is used only where
    every product and sum is exact (Pauli settings on GHZ states).
    """
    shape = [len(stack) for stack in stacks]
    out = np.empty(shape)
    n = state.n_parties
    for prefix in itertools.product(*(range(k) for k in shape[:lead])):
        part = [[stack[k]] for stack, k in zip(stacks, prefix)] + list(stacks[lead:])
        psi = dense_tensor(state)
        for p, stack in enumerate(part):
            stack = np.stack([np.array(o, dtype=complex) for o in stack])
            psi = np.moveaxis(np.tensordot(stack, psi, axes=([2], [2 * p])), (0, 1), (p, 2 * p + 1))
        values = np.tensordot(psi, dense_tensor(state).conj(), axes=(range(n, 2 * n), range(n)))
        out[prefix] = values.real.reshape(shape[lead:])
    return out


@pytest.mark.parametrize("spec", ["yx", "xy", "xx", "yy"])
@pytest.mark.parametrize("n", range(2, 13))
def test_correlators_on_ghz_are_the_dense_kernels_bits(n, spec):
    # every pinned report comes from these values, signs of zero included
    pauli = {"x": PAULI_X, "y": PAULI_Y}
    stacks = [(pauli[spec[0]], pauli[spec[1]])] * n
    state = ghz_state(n)
    # whole, the dense 12-qubit case peaks at 0.5 GB; in quarters at 0.16 GB
    want = _dense_correlators(state, stacks, lead=2 if n == 12 else 0)
    assert correlators(state, stacks).tobytes() == want.tobytes()


def test_correlators_on_rotated_settings_are_the_dense_kernels_bits():
    state = ghz_state(3)
    for k in range(405):  # the phase sweep's points at --sweep 405
        stacks = rotated_settings((2 * math.pi * k / 405, 0.0, 0.0))
        assert correlators(state, stacks).tobytes() == _dense_correlators(state, stacks).tobytes()
    rng = np.random.default_rng(2009)
    for n in rng.integers(2, 9, size=100):
        state = ghz_state(int(n))
        stacks = rotated_settings(rng.uniform(-math.pi, math.pi, size=n))
        assert correlators(state, stacks).tobytes() == _dense_correlators(state, stacks).tobytes()
