import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etbell.numerics import unitarity_defect
from etbell.optics import (
    InterferometerNetwork,
    OpticalElement,
    ReckDecomposition,
    analyzer_matrix,
    beam_splitter,
    compose,
    decomposition_text,
    decomposition_to_json,
    dft_unitary,
    element_from_json,
    generation_cascade,
    network_from_json,
    network_to_json,
    phase_shifter,
    qutrit_analyzer,
    qutrit_analyzer_network,
    reck_decompose,
)

from conftest import (
    analyzer_closed_form,
    dft_literal,
    measurement_basis_literal,
    random_unitary,
    splitter_literals,
)


def _splitter_unitary(n, modes, reflectivity, phase):
    """One splitter's n-mode unitary: compose of a network holding only it."""
    return compose(InterferometerNetwork(n, (beam_splitter(*modes, reflectivity, phase),)))


def test_bs_unitary_matches_splitter_literals():
    alpha, beta, gamma = 0.37, -1.2, 2.5
    b1, b2, b3 = splitter_literals(alpha, beta, gamma)
    assert np.abs(_splitter_unitary(3, (1, 2), 0.5, alpha) - b1).max() < 1e-15
    assert np.abs(_splitter_unitary(3, (0, 2), 1 / 3, beta) - b2).max() < 1e-15
    assert np.abs(_splitter_unitary(3, (0, 1), 0.5, gamma) - b3).max() < 1e-15


def test_bs_unitary_zero_reflectivity_is_diagonal_sign_flip():
    # R=0 sends each input straight through, with the convention's sign
    # flip on the second mode: diag(1, -1) on the block, no mixing.
    m = _splitter_unitary(5, (1, 3), 0.0, 0.0)
    assert np.abs(np.diag(m) - np.array([1, 1, 1, -1, 1])).max() == 0.0
    off = m - np.diag(np.diag(m))
    assert np.abs(off).max() == 0.0


def test_bs_unitary_validation():
    with pytest.raises(ValueError, match="reflectivity"):
        beam_splitter(0, 1, 1.5)
    with pytest.raises(ValueError, match="distinct modes"):
        beam_splitter(1, 1, 0.5)
    with pytest.raises(ValueError, match="exceeds n_modes=3"):
        InterferometerNetwork(3, (beam_splitter(0, 3, 0.5),))


@given(r=st.floats(min_value=0.0, max_value=1.0), phase=st.floats(-10, 10))
@settings(max_examples=50, deadline=None)
def test_bs_energy_conservation(r, phase):
    m = _splitter_unitary(2, (0, 1), r, phase)
    for col in range(2):
        total = abs(m[0, col]) ** 2 + abs(m[1, col]) ** 2
        assert abs(total - 1.0) <= 1e-15
    assert unitarity_defect(m) <= 1e-15


def test_compose_empty_network_is_identity():
    assert np.abs(compose(InterferometerNetwork(4)) - np.eye(4)).max() == 0.0


def test_compose_analyzer_matches_closed_form():
    rng = np.random.default_rng(123)
    for _ in range(20):
        alpha, beta, gamma = rng.uniform(-math.pi, math.pi, size=3)
        net = qutrit_analyzer_network(alpha, beta, gamma)
        expected = analyzer_closed_form(alpha, beta, gamma)
        assert np.abs(compose(net) - expected).max() < 1e-13


def test_compose_analyzer_at_dft_phases():
    net = qutrit_analyzer_network()
    assert np.abs(compose(net) - dft_literal(3)).max() < 1e-12


def test_qutrit_analyzer_equals_phased_dft():
    m = qutrit_analyzer(phi2=0.4, phi3=-2.2)
    assert np.abs(m - analyzer_matrix(3, (0.4, -2.2))).max() < 1e-12


def test_qutrit_analyzer_phase_shift_permutes_rows():
    m = qutrit_analyzer(phi2=2 * math.pi / 3, phi3=4 * math.pi / 3)
    d = dft_unitary(3)
    permuted = d[[2, 0, 1]]
    assert np.abs(m - permuted).max() < 1e-12


@given(
    phi2=st.floats(-6.0, 6.0),
    phi3=st.floats(-6.0, 6.0),
    alpha=st.floats(-3.0, 3.0),
)
@settings(max_examples=40, deadline=None)
def test_qutrit_analyzer_always_unitary(phi2, phi3, alpha):
    assert unitarity_defect(qutrit_analyzer(alpha=alpha, phi2=phi2, phi3=phi3)) <= 1e-12


def test_dft_small_cases():
    expected2 = np.array([[1, 1], [1, -1]]) / math.sqrt(2.0)
    assert np.abs(dft_unitary(2) - expected2).max() < 1e-15
    assert np.abs(dft_unitary(3) - dft_literal(3)).max() < 1e-15
    w = np.exp(2j * math.pi / 5)
    assert abs(dft_unitary(5)[2, 2] - w**4 / math.sqrt(5.0)) < 1e-12
    assert unitarity_defect(dft_unitary(5)) <= 1e-12
    with pytest.raises(ValueError):
        dft_unitary(1)


def _basis(n, phis):
    """The vectors the DFT analyzer projects onto: its rows, conjugated."""
    return list(analyzer_matrix(n, phis).conj())


def test_measurement_basis_three_levels_zero_phases():
    first, second, third = _basis(3, (0.0, 0.0))
    s3 = math.sqrt(3.0)
    assert np.abs(first - np.array([1, 1, 1]) / s3).max() < 1e-15
    expected_second = np.array(
        [1, np.exp(-2j * math.pi / 3), np.exp(-4j * math.pi / 3)]
    ) / s3
    assert np.abs(second - expected_second).max() < 1e-15
    assert abs(np.vdot(second, third)) < 1e-15


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_measurement_basis_matches_formula(n):
    rng = np.random.default_rng(n)
    phis = rng.uniform(-math.pi, math.pi, size=n - 1)
    vectors = _basis(n, phis)
    literal = measurement_basis_literal(n, phis)
    for got, want in zip(vectors, literal):
        assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3, 5])
def test_measurement_basis_orthonormal(n):
    rng = np.random.default_rng(100 + n)
    vectors = _basis(n, rng.uniform(-3, 3, size=n - 1))
    gram = np.array(
        [[np.vdot(v, w) for w in vectors] for v in vectors]
    )
    assert np.abs(gram - np.eye(n)).max() < 1e-12


def test_measurement_basis_projection_property():
    n = 4
    rng = np.random.default_rng(7)
    phis = rng.uniform(-3, 3, size=n - 1)
    s = rng.normal(size=n) + 1j * rng.normal(size=n)
    s = s / np.linalg.norm(s)
    m = analyzer_matrix(n, phis)
    projected = m @ s
    for k, vec in enumerate(_basis(n, phis)):
        assert abs(np.vdot(vec, s) - projected[k]) < 1e-12


def test_measurement_basis_length_mismatch():
    with pytest.raises(ValueError):
        analyzer_matrix(3, (0.0,))


def test_generation_cascade_structure():
    net = generation_cascade(3)
    assert [el.reflectivity for el in net.elements] == [1.0 / 3.0, 0.5]
    two = generation_cascade(2)
    assert len(two.elements) == 1
    assert two.elements[0].reflectivity == 0.5
    with pytest.raises(ValueError):
        generation_cascade(1)


@pytest.mark.parametrize("n", list(range(2, 9)))
def test_generation_cascade_equal_splitting(n):
    amps = compose(generation_cascade(n))[:, 0]
    assert np.abs(np.abs(amps) - 1.0 / math.sqrt(n)).max() < 1e-12


def test_reck_identity_gives_empty_network():
    dec = reck_decompose(np.eye(4))
    assert dec.network.elements == ()
    assert np.abs(dec.residual_phases).max() == 0.0


def test_reck_round_trip_dft3():
    u = dft_unitary(3)
    dec = reck_decompose(u)
    assert np.abs(dec.reconstruct() - u).max() <= 1e-9


def test_reck_round_trip_random_4x4():
    u = random_unitary(4, seed=2024)
    dec = reck_decompose(u)
    assert np.abs(dec.reconstruct() - u).max() <= 1e-9


def test_reck_rejects_non_unitary():
    with pytest.raises(ValueError):
        reck_decompose(np.ones((3, 3)))


def test_reck_of_composed_network_round_trips():
    net = qutrit_analyzer_network(0.3, 1.2, -0.7, 0.5, 1.9)
    u = compose(net)
    dec = reck_decompose(u)
    assert np.abs(dec.reconstruct() - u).max() <= 1e-9


@given(
    dim=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=25, deadline=None)
def test_reck_round_trip_property(dim, seed):
    u = random_unitary(dim, seed)
    dec = reck_decompose(u)
    assert np.abs(dec.reconstruct() - u).max() <= 1e-9


@given(
    n_modes=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=10**6),
    n_elements=st.integers(min_value=0, max_value=8),
)
@settings(max_examples=40, deadline=None)
def test_compose_is_always_unitary(n_modes, seed, n_elements):
    rng = np.random.default_rng(seed)
    elements = []
    for _ in range(n_elements):
        if rng.random() < 0.5:
            i, j = rng.choice(n_modes, size=2, replace=False)
            elements.append(
                beam_splitter(int(i), int(j), float(rng.uniform(0, 1)), float(rng.uniform(-3, 3)))
            )
        else:
            elements.append(phase_shifter(int(rng.integers(n_modes)), float(rng.uniform(-3, 3))))
    net = InterferometerNetwork(n_modes, tuple(elements))
    assert unitarity_defect(compose(net)) <= 1e-10


def test_element_validation():
    with pytest.raises(ValueError):
        OpticalElement("beam_splitter", (0, 0), 0.5)
    with pytest.raises(ValueError):
        OpticalElement("phase_shifter", (0, 1), phase=1.0)
    with pytest.raises(ValueError):
        OpticalElement("mirror", (0,))
    with pytest.raises(ValueError):
        InterferometerNetwork(2, (beam_splitter(0, 2, 0.5),))


def test_network_json_round_trip():
    net = qutrit_analyzer_network(0.1, 0.2, 0.3, 0.4, 0.5)
    again = network_from_json(network_to_json(net))
    assert again == net


def _dense_compose(network):
    """Reference: the full n x n product of every element's unitary, each
    written out from the 2x2 splitter block of the optics docstring."""
    u = np.eye(network.n_modes, dtype=complex)
    for el in network.elements:
        m = np.eye(network.n_modes, dtype=complex)
        if el.kind == "beam_splitter":
            t, r = math.sqrt(1.0 - el.reflectivity), math.sqrt(el.reflectivity)
            ph = np.exp(1j * el.phase)
            m[np.ix_(el.modes, el.modes)] = [[t, ph * r], [r, -ph * t]]
        else:
            m[el.modes[0], el.modes[0]] = np.exp(1j * el.phase)
        u = m @ u
    return u


@st.composite
def _networks(draw):
    n_modes = draw(st.integers(min_value=1, max_value=6))
    modes = st.integers(min_value=0, max_value=n_modes - 1)
    phases = st.floats(min_value=-10.0, max_value=10.0)
    elements = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        if n_modes > 1 and draw(st.booleans()):
            i = draw(modes)
            j = draw(modes.filter(lambda m: m != i))
            r = draw(st.floats(min_value=0.0, max_value=1.0))
            elements.append(beam_splitter(i, j, r, draw(phases)))
        else:
            elements.append(phase_shifter(draw(modes), draw(phases)))
    return InterferometerNetwork(n_modes, tuple(elements))


@given(net=_networks())
@settings(max_examples=80, deadline=None)
def test_compose_matches_dense_product(net):
    assert np.abs(compose(net) - _dense_compose(net)).max() <= 1e-12


def test_compose_splitter_with_descending_modes():
    net = InterferometerNetwork(3, (beam_splitter(2, 0, 0.3, 0.7), phase_shifter(2, 1.1)))
    assert np.abs(compose(net) - _dense_compose(net)).max() <= 1e-15


@given(net=_networks())
@settings(max_examples=80, deadline=None)
def test_network_json_round_trip_property(net):
    again = network_from_json(json.loads(json.dumps(network_to_json(net))))
    assert again == net
    assert compose(again).tobytes() == compose(net).tobytes()


_SPLITTER = {"kind": "beam_splitter", "modes": [0, 1], "R": 0.5, "phase": 0.0}
_SHIFTER = {"kind": "phase_shifter", "modes": [1], "phase": 0.25}


@pytest.mark.parametrize(
    "data, field",
    [
        ([0, 1], "element"),
        ({k: v for k, v in _SPLITTER.items() if k != "R"}, "R"),
        ({k: v for k, v in _SPLITTER.items() if k != "phase"}, "phase"),
        ({k: v for k, v in _SPLITTER.items() if k != "kind"}, "kind"),
        ({k: v for k, v in _SPLITTER.items() if k != "modes"}, "modes"),
        ({**_SPLITTER, "kind": "mirror"}, "kind"),
        ({**_SPLITTER, "kind": ["beam_splitter"]}, "kind"),
        ({**_SPLITTER, "modes": [0.9, 1.2]}, "modes"),
        ({**_SPLITTER, "modes": [True, False]}, "modes"),
        ({**_SPLITTER, "modes": "01"}, "modes"),
        ({**_SPLITTER, "R": True}, "R"),
        ({**_SPLITTER, "R": "0.5"}, "R"),
        ({**_SPLITTER, "R": float("nan")}, "R"),
        ({**_SPLITTER, "R": 1.5}, "reflectivity"),
        ({**_SPLITTER, "phase": False}, "phase"),
        ({**_SPLITTER, "phase": float("inf")}, "phase"),
        ({**_SPLITTER, "transmission": 0.5}, "transmission"),
        ({**_SHIFTER, "R": 0.0}, "R"),
        ({**_SHIFTER, "phase": float("nan")}, "phase"),
    ],
)
def test_element_from_json_rejects_malformed_input(data, field):
    with pytest.raises(ValueError, match=field):
        element_from_json(data)


@pytest.mark.parametrize(
    "data, field",
    [
        ([_SPLITTER], "network"),
        ({"elements": [_SPLITTER]}, "n_modes"),
        ({"n_modes": 2}, "elements"),
        ({"n_modes": 2.9, "elements": [_SPLITTER]}, "n_modes"),
        ({"n_modes": True, "elements": []}, "n_modes"),
        ({"n_modes": 2, "elements": _SPLITTER}, "elements"),
        ({"n_modes": 2, "elements": [_SPLITTER], "extra": []}, "extra"),
    ],
)
def test_network_from_json_rejects_malformed_input(data, field):
    with pytest.raises(ValueError, match=field):
        network_from_json(data)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_element_rejects_non_finite_phase(bad):
    with pytest.raises(ValueError, match="phase"):
        phase_shifter(0, bad)
    with pytest.raises(ValueError, match="phase"):
        beam_splitter(0, 1, 0.5, bad)


def test_phase_shifter_rejects_reflectivity():
    # element_to_json drops it, so it would not survive a round trip
    with pytest.raises(ValueError, match="reflectivity"):
        OpticalElement("phase_shifter", (0,), 0.7, 1.0)


def test_element_rejects_non_integer_modes():
    with pytest.raises(ValueError, match="modes"):
        OpticalElement("beam_splitter", (0.9, 1.2), 0.5)
    with pytest.raises(ValueError, match="n_modes"):
        InterferometerNetwork(2.9, ())


def test_network_rejects_an_element_that_is_not_one():
    with pytest.raises(ValueError, match=r"elements\[1\]"):
        InterferometerNetwork(2, (phase_shifter(0, 0.5), "x"))


@pytest.mark.parametrize("call", [reck_decompose, unitarity_defect])
def test_empty_matrix_is_rejected_with_its_shape(call):
    with pytest.raises(ValueError, match=r"\(0, 0\)"):
        call(np.zeros((0, 0)))


def _json_reference(dec):
    """The mesh file as the JSON module writes it."""
    return json.dumps(decomposition_to_json(dec), indent=2, sort_keys=True) + "\n"


# numbers as the mesh may hold them: ints, -0.0, numpy scalars, and numpy
# types that json cannot write
_REALS = st.one_of(
    st.floats(min_value=-10.0, max_value=10.0),
    st.sampled_from([0, 1, -0.0, 0.0, 1.0]),
    st.floats(min_value=-10.0, max_value=10.0).map(np.float64),
    st.sampled_from([np.int64(0), np.float32(0.5)]),
)


@st.composite
def _decompositions(draw):
    n_modes = draw(st.integers(min_value=1, max_value=14))
    mode = st.integers(min_value=0, max_value=n_modes - 1)
    elements = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        i = draw(mode)
        phase = draw(_REALS)
        if n_modes > 1 and draw(st.booleans()):
            j = draw(mode.filter(lambda m: m != i))
            r = draw(_REALS.filter(lambda x: 0 <= x <= 1))
            elements.append(beam_splitter(draw(st.sampled_from([i, np.int64(i)])), j, r, phase))
        else:
            elements.append(phase_shifter(i, phase))
    phases = draw(st.lists(_REALS, min_size=n_modes, max_size=n_modes))
    return ReckDecomposition(InterferometerNetwork(n_modes, tuple(elements)), phases)


@given(dec=_decompositions())
@settings(max_examples=200, deadline=None)
def test_mesh_text_is_what_json_writes(dec):
    try:
        want = _json_reference(dec)
    except TypeError:
        with pytest.raises(TypeError, match="not JSON serializable"):
            decomposition_text(dec)
        return
    assert decomposition_text(dec) == want


def test_mesh_text_of_a_decomposed_unitary():
    dec = reck_decompose(random_unitary(12, seed=5))
    assert decomposition_text(dec) == _json_reference(dec)
    empty = reck_decompose(np.eye(3))
    assert decomposition_text(empty) == _json_reference(empty)
    assert '"elements": [],' in decomposition_text(empty)


@pytest.mark.parametrize("phases", [[0.0], [0.0, float("nan")], [0.0, float("inf")]])
def test_decomposition_needs_one_finite_phase_per_mode(phases):
    with pytest.raises(ValueError, match="residual_phases"):
        ReckDecomposition(InterferometerNetwork(2, ()), phases)
