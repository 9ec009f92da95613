"""Beamline elements, field evaluation, lattice files, and focusing profiles."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avgbeam import (
    AvgBeamError,
    ConstantE,
    Dipole,
    Drift,
    Lattice,
    MismatchedSampling,
    NegativeLength,
    NonFiniteValue,
    NormalQuadDipole,
    OutOfLattice,
    ParseError,
    RFCavity,
    SkewQuadDipole,
    UnsupportedElement,
    ZeroStrength,
    curvature_radius,
    field_at,
    field_entries,
    field_gradient,
    field_mixed,
    gradient_entries,
    inverse_rho_profile,
    load_lattice,
    optics_profiles,
    parse_lattice,
    transverse_k_profile,
)
from avgbeam.lattice import _checked_line
from avgbeam.minkowski import METRIC_SIGNATURE


def test_element_length_must_be_positive():
    with pytest.raises(NegativeLength):
        Drift(length=0.0)
    with pytest.raises(NegativeLength):
        Dipole(length=-1.0, b0=1.0)


@pytest.mark.parametrize("make", [
    lambda: Drift(length=float("inf")),
    lambda: Dipole(length=1.0, b0=float("nan")),
    lambda: RFCavity(length=1.0, e2_0=float("inf"), w_rf=1.0),
    lambda: SkewQuadDipole(length=1.0, b0=0.1, b1=-float("inf")),
])
def test_element_fields_must_be_finite(make):
    with pytest.raises(NonFiniteValue):
        make()


def test_curvature_radius():
    assert curvature_radius(Dipole(length=1.0, b0=0.5)) == 2.0
    assert curvature_radius(NormalQuadDipole(length=1.0, b0=4.0, b1=1.0)) == 0.25
    with pytest.raises(ZeroStrength):
        curvature_radius(Dipole(length=1.0, b0=0.0))
    with pytest.raises(UnsupportedElement):
        curvature_radius(Drift(length=1.0))


@pytest.mark.parametrize("element", [Dipole(1.0, 0.1), NormalQuadDipole(1.0, 0.1, 0.5),
                                     SkewQuadDipole(1.0, 0.1, 0.5)], ids=lambda e: e.kind)
@pytest.mark.parametrize("rho", [0.0, -0.0, 1e-170])
def test_focusing_rejects_a_radius_without_finite_curvature(element, rho):
    with pytest.raises(ZeroStrength):
        element.focusing(rho)


def test_dipole_field_frozen():
    lat = Lattice.from_elements([Dipole(length=2.0, b0=0.7)])
    F = field_mixed(lat, 1.0, np.zeros(4))
    expect = np.zeros((4, 4))
    expect[1, 2] = 0.7
    expect[2, 1] = -0.7
    assert np.array_equal(F, expect)


def test_quad_field_tilts_with_offset():
    lat = Lattice.from_elements([NormalQuadDipole(length=2.0, b0=0.7, b1=0.3)])
    xi = np.array([0.0, 0.5, 0.0, -0.2])
    F = field_mixed(lat, 1.0, xi)
    # horizontal bend entry shifts linearly with x1, vertical with x3
    base = field_mixed(lat, 1.0, np.zeros(4))
    dF = F - base
    assert abs(dF[1, 2] + 0.3 * 0.5) < 1e-15
    assert abs(dF[3, 2] - 0.3 * 0.2) < 1e-15


def test_lowered_field_antisymmetric_everywhere():
    lat = Lattice.from_elements(
        [
            Dipole(length=1.0, b0=1.0),
            NormalQuadDipole(length=1.0, b0=0.5, b1=2.0),
            SkewQuadDipole(length=1.0, b0=0.5, b1=2.0),
            ConstantE(length=1.0, e2=0.1),
            RFCavity(length=1.0, e2_0=0.05, w_rf=3.0),
        ]
    )
    rng = np.random.default_rng(12)
    for _ in range(60):
        x2 = rng.uniform(0.0, 5.0)
        xi = np.array([0.0, rng.normal(scale=0.1), 0.0, rng.normal(scale=0.1)])
        F = field_mixed(lat, x2, xi)
        low = METRIC_SIGNATURE[:, None] * F
        assert np.array_equal(low, -low.T)


def test_field_batch_matches_scalar_calls():
    lat = Lattice.from_elements(
        [Dipole(length=1.0, b0=1.0), NormalQuadDipole(length=1.0, b0=0.5, b1=2.0)]
    )
    rng = np.random.default_rng(13)
    x2 = rng.uniform(0.0, 2.0, size=9)
    xi = np.zeros((9, 4))
    xi[:, 1] = rng.normal(scale=0.05, size=9)
    batch = field_mixed(lat, x2, xi)
    for k in range(9):
        assert np.array_equal(batch[k], field_mixed(lat, x2[k], xi[k]))


def test_gradient_matches_finite_differences():
    lat = Lattice.from_elements([SkewQuadDipole(length=2.0, b0=0.5, b1=2.0)])
    xi = np.array([0.0, 0.03, 0.0, -0.02])
    G = field_gradient(lat, 1.0, xi)
    h = 1e-6
    for axis in (1, 3):
        dxi = np.zeros(4)
        dxi[axis] = h
        fd = (field_mixed(lat, 1.0, xi + dxi) - field_mixed(lat, 1.0, xi - dxi)) / (2 * h)
        assert np.max(np.abs(G[axis] - fd)) < 1e-9


def test_field_at_bundles_gradient():
    lat = Lattice.from_elements([NormalQuadDipole(length=2.0, b0=0.5, b1=2.0)])
    xi = np.array([0.0, 0.01, 0.0, 0.0])
    fs = field_at(lat, np.array([0.0, 0.0, 1.0, 0.0]), xi)
    assert np.array_equal(fs.f_mixed, field_mixed(lat, 1.0, xi))
    assert fs.grad[1, 1, 2] != 0.0
    # deviation defaults to zero
    plain = field_at(lat, np.array([0.0, 0.0, 1.0, 0.0]))
    assert np.array_equal(plain.f_mixed, field_mixed(lat, 1.0, np.zeros(4)))


def test_lattice_boundaries_and_lookup():
    lat = Lattice.from_elements([Drift(length=1.5), Dipole(length=2.5, b0=1.0)])
    assert np.array_equal(lat.boundaries, [1.5, 4.0])
    assert lat.total_length == 4.0
    assert lat.min_length() == 1.5
    assert lat.element_index(0.0) == 0
    assert lat.element_index(1.4) == 0
    assert lat.element_index(1.5) == 1  # boundary belongs to the next element
    assert lat.element_index(4.0) == 1
    with pytest.raises(OutOfLattice):
        field_mixed(lat, -0.5, np.zeros(4))
    with pytest.raises(OutOfLattice):
        field_mixed(lat, 4.1, np.zeros(4))


def test_lattice_edges_follow_from_its_elements():
    elements = (Dipole(length=1.0, b0=0.5), Drift(length=1.0))
    with pytest.raises(TypeError):
        Lattice(elements=elements, boundaries=np.array([3.0, 4.0]))
    lat = Lattice(elements)
    assert np.array_equal(lat.boundaries, [1.0, 2.0]) and lat.total_length == 2.0
    assert lat.inner_edges == [1.0]
    with pytest.raises(ValueError):
        lat.boundaries[0] = 3.0  # read-only
    with pytest.raises(OutOfLattice):
        field_mixed(lat, 2.5, np.zeros(4))
    with pytest.raises(ValueError, match="at least one element"):
        Lattice.from_elements([])


@pytest.mark.filterwarnings("error")
def test_lattice_total_length_must_be_finite():
    # every length is finite, their sum overflows
    with pytest.raises(NonFiniteValue, match="^lattice total length must be finite, got inf$"):
        Lattice.from_elements([Drift(length=1e308), Dipole(length=1e308, b0=0.1)])
    with pytest.raises(NonFiniteValue, match="total length"):
        parse_lattice("element drift length=1e308\nelement drift length=1e308\n")


@pytest.mark.parametrize("elements", [
    [Drift(length=1.5), Dipole(length=2.5, b0=1.0)],
    [Dipole(length=2.0, b0=0.7)],
], ids=["two-element", "one-element"])
def test_nan_position_is_out_of_lattice(elements):
    lat = Lattice.from_elements(elements)
    for lookup in (field_mixed, field_gradient):
        with pytest.raises(OutOfLattice):
            lookup(lat, np.nan, np.zeros(4))
        with pytest.raises(OutOfLattice):
            lookup(lat, np.array([0.5, np.nan, 1.0]), np.zeros((3, 4)))


_STRENGTH = st.floats(-2.0, 2.0, allow_nan=False)
_ELEMENT = st.one_of(
    st.builds(Drift, st.floats(0.05, 3.0)),
    st.builds(Dipole, st.floats(0.05, 3.0), _STRENGTH),
    st.builds(NormalQuadDipole, st.floats(0.05, 3.0), _STRENGTH, _STRENGTH),
    st.builds(SkewQuadDipole, st.floats(0.05, 3.0), _STRENGTH, _STRENGTH),
    st.builds(ConstantE, st.floats(0.05, 3.0), _STRENGTH),
    st.builds(RFCavity, st.floats(0.05, 3.0), _STRENGTH, st.floats(0.1, 10.0)),
)


@settings(max_examples=80, deadline=None)
@given(
    elements=st.lists(_ELEMENT, min_size=1, max_size=8),
    picks=st.lists(st.tuples(st.sampled_from(["edge", "near-edge", "inside"]),
                             st.integers(0, 8), st.floats(0.0, 1.0)),
                   min_size=1, max_size=24),
    seed=st.integers(0, 2**32 - 1),
)
def test_grouped_lookup_matches_scalar_calls(elements, picks, seed):
    lat = Lattice.from_elements(elements)
    edges = np.concatenate(([0.0], lat.boundaries))  # 0, every boundary, total_length
    x2 = []
    for where, e, u in picks:
        edge = edges[e % len(edges)]
        if where == "edge":
            x2.append(edge)
        elif where == "near-edge":
            x2.append(min(max(edge + (u - 0.5) * 1e-3, 0.0), lat.total_length))
        else:
            x2.append(u * lat.total_length)
    x2 = np.array(x2)
    xi = np.random.default_rng(seed).normal(scale=0.1, size=(len(x2), 4))
    for lookup in (field_mixed, field_gradient):
        batch = lookup(lat, x2, xi)
        for k in range(len(x2)):
            assert np.array_equal(batch[k], lookup(lat, x2[k], xi[k]))


def _count_element_calls(lattice, method):
    """Wrap ``method`` of every element; return the list each call appends its element to."""
    calls = []
    for element in lattice.elements:
        def counted(x2, xi, _entries=getattr(element, method), _element=element):
            calls.append(_element)
            return _entries(x2, xi)
        setattr(element, method, counted)
    return calls


class _VisitedElements(tuple):
    """Element tuple that counts the elements read out of it, by index or by iteration."""

    visits = 0

    def __getitem__(self, i):
        self.visits += 1
        return super().__getitem__(i)

    def __iter__(self):
        for element in super().__iter__():
            self.visits += 1
            yield element


@pytest.mark.parametrize("lookup, method", [(field_entries, "field_entries"),
                                            (gradient_entries, "gradient_entries")],
                         ids=["field", "gradient"])
def test_lookup_calls_each_occupied_element_once(lookup, method):
    # distinct instances, so each element counts only its own calls
    plain = tuple(
        element
        for _ in range(256)
        for element in (NormalQuadDipole(length=0.25, b0=0.2, b1=1.5), Drift(length=0.25),
                        SkewQuadDipole(length=0.25, b0=0.2, b1=-1.5), Dipole(length=0.25, b0=0.3))
    )
    lat = Lattice(elements=_VisitedElements(plain))
    calls = _count_element_calls(lat, method)
    rng = np.random.default_rng(5)

    def touched(x2, xi):
        calls.clear()
        lat.elements.visits = 0
        lookup(lat, x2, xi)
        # no element beyond the called ones is even read
        assert lat.elements.visits == len(calls)
        return calls

    orbit = [0.0, 0.01, 100.3, -0.02]  # one point, plain floats
    assert touched(orbit[2], orbit) == [plain[401]]

    cloud = rng.normal(scale=0.01, size=(4, 500))  # one column per component
    cloud[2] = rng.uniform(100.26, 100.49, size=500)  # all inside element 401
    assert touched(cloud[2], cloud) == [plain[401]]

    for occupied in ([10, 11, 12, 13, 14], [3, 500, 1023]):
        x2 = np.repeat(lat.boundaries[occupied] - 0.1, 3)
        rng.shuffle(x2)
        assert touched(x2, rng.normal(scale=0.01, size=(4, len(x2)))) == [
            plain[e] for e in occupied]


def test_parse_lattice_happy_path():
    text = """
# a three element line
element dipole length=2.0 b0=1.0
element drift length=0.5

element quad_dipole length=1.0 b0=0.2 b1=1.5
"""
    lat = parse_lattice(text)
    assert len(lat.elements) == 3
    assert lat.elements[0].kind == "dipole"
    assert lat.elements[2].b1 == 1.5
    assert lat.total_length == 3.5


def test_parse_lattice_all_kinds():
    text = (
        "element dipole length=1 b0=1\n"
        "element quad_dipole length=1 b0=0.1 b1=1\n"
        "element skew_quad_dipole length=1 b0=0.1 b1=1\n"
        "element const_e length=1 e2=0.1\n"
        "element rf length=1 e2_0=0.05 w_rf=2\n"
        "element drift length=1\n"
    )
    lat = parse_lattice(text)
    assert [e.kind for e in lat.elements] == [
        "dipole", "quad_dipole", "skew_quad_dipole", "const_e", "rf", "drift",
    ]


def test_parse_lattice_errors_carry_line_numbers():
    with pytest.raises(ParseError) as e:
        parse_lattice("element dipole length=1 b0=1\nelement wiggler length=1\n")
    assert e.value.line == 2
    with pytest.raises(ParseError):
        parse_lattice("dipole length=1 b0=1\n")  # missing the element keyword
    with pytest.raises(ParseError):
        parse_lattice("element dipole length=1 b0=1 b0=2\n")
    with pytest.raises(NegativeLength):
        parse_lattice("element dipole length=-1 b0=1\n")
    with pytest.raises(ParseError):
        parse_lattice("element dipole length=1\n")  # missing b0
    with pytest.raises(ParseError):
        parse_lattice("element dipole length=1 b0=x\n")
    with pytest.raises(ParseError):
        parse_lattice("element dipole length=1 b0=1 e2=0.5\n")  # foreign key
    with pytest.raises(ParseError):
        parse_lattice("# only a comment\n")
    for bad in ("element dipole length=inf b0=0.1", "element dipole length=1 b0=nan",
                "element rf length=1 e2_0=inf w_rf=1", "element dipole length=1 b0=-inf",
                "element const_e length=1 e2=1e400"):
        with pytest.raises(ParseError) as e:
            parse_lattice("element drift length=1\n" + bad + "\n")
        assert e.value.line == 2


def _field_values(element):
    return [getattr(element, f.name) for f in fields(element)]


@settings(max_examples=60, deadline=None)
@given(element=_ELEMENT)
def test_lattice_line_round_trips_element_fields(element):
    # the keys a lattice line carries are the element's dataclass fields
    line = " ".join(["element", element.kind]
                    + [f"{f.name}={getattr(element, f.name)!r}" for f in fields(element)])
    (parsed,) = parse_lattice(line + "\n").elements
    assert type(parsed) is type(element)
    assert _field_values(parsed) == _field_values(element)


_KEYS_OF = {cls.kind: [f.name for f in fields(cls)]
            for cls in (Drift, Dipole, NormalQuadDipole, SkewQuadDipole, ConstantE, RFCavity)}
_GOOD_NUMBER = st.sampled_from(["1", "0.5", "2e-3", "-1", "0"])
_BAD_NUMBER = st.sampled_from(["1e400", "nan", "inf", "-inf", "x", ""])


@st.composite
def _lattice_line(draw):
    """An element line, mostly well formed, with wrong tokens mixed in."""
    kind = draw(st.sampled_from(list(_KEYS_OF) + ["wiggler", ""]))
    keys = draw(st.one_of(
        st.just(_KEYS_OF.get(kind, ["length"])),
        st.lists(st.sampled_from(["length", "b0", "b1", "e2", "e2_0", "w_rf", "x", ""]),
                 max_size=4),
    ))
    words = [f"{key}={draw(st.one_of(_GOOD_NUMBER, _GOOD_NUMBER, _BAD_NUMBER))}"
             for key in keys]
    words += draw(st.lists(st.sampled_from(["=", "#", "b0", "element"]), max_size=1))
    head = draw(st.sampled_from(["element", "element", "element", "elements", "#", ""]))
    return " ".join([head, kind] + words)


@settings(max_examples=300, deadline=None)
@given(text=st.lists(_lattice_line(), max_size=5).map("\n".join))
def test_parse_lattice_raises_only_library_errors(text):
    try:
        parse_lattice(text)
    except AvgBeamError:
        pass


def _outcome(read):
    """(kind, fields) of each element read, or the type, text and line of what it raised."""
    try:
        return [(type(e), _field_values(e)) for e in read()]
    except AvgBeamError as e:
        return type(e), str(e), getattr(e, "line", None)


@settings(max_examples=100, deadline=None)
@given(lines=st.lists(_lattice_line(), max_size=5))
def test_parse_lattice_reads_lines_as_the_key_by_key_checks(lines):
    # a line read in one pass, and a repeated line read once, give what the
    # key-by-key checks of every line in turn give, faults and line numbers too
    text = "\n".join(lines + lines[:2])

    def checked():
        elements = []
        for ln, raw in enumerate(text.splitlines(), start=1):
            tokens = raw.split("#", 1)[0].split()
            if tokens:
                cls, values = _checked_line(ln, tokens)
                elements.append(cls(*values))
        if not elements:
            raise ParseError(0, "lattice file defines no elements")
        return elements

    assert _outcome(lambda: parse_lattice(text).elements) == _outcome(checked)
    if isinstance(_outcome(checked), list):
        elements = parse_lattice(text).elements
        assert len({id(e) for e in elements}) == len(elements)  # repeats are new elements


def test_load_lattice(tmp_path):
    p = tmp_path / "line.lat"
    p.write_text("element dipole length=2.4 b0=1.0\n")
    lat = load_lattice(p)
    assert lat.total_length == 2.4


def test_k_profile_dipole():
    lat = Lattice.from_elements([Dipole(length=1.0, b0=2.0)])
    grid, kh = transverse_k_profile(lat, "horizontal", 0.25)
    _, kv = transverse_k_profile(lat, "vertical", 0.25)
    assert np.array_equal(grid, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.all(kh == 4.0)  # 1/rho^2 = b0^2
    assert np.all(kv == 0.0)


def test_k_profile_quads():
    lat = Lattice.from_elements(
        [NormalQuadDipole(length=1.0, b0=0.2, b1=1.5),
         SkewQuadDipole(length=1.0, b0=0.2, b1=1.5)]
    )
    grid, kh = transverse_k_profile(lat, "horizontal", 0.5)
    _, kv = transverse_k_profile(lat, "vertical", 0.5)
    b0sq = 0.2 * 0.2
    # grid points on the shared boundary take the downstream element
    assert np.allclose(kh[:2], b0sq - 1.5) and np.allclose(kh[2:], b0sq + 1.5)
    assert np.allclose(kv[:2], 1.5) and np.allclose(kv[2:], -1.5)


def test_k_profile_samples_are_element_focusing():
    # at b0 = 0.0588, b0 ** 2, b0 * b0 and 1/(1/b0)^2 are three different
    # doubles, and b1 = 1e-3 keeps the last bit, so a second K expression shows
    for element in (Dipole(length=1.0, b0=0.0588),
                    NormalQuadDipole(length=1.0, b0=0.0588, b1=1e-3),
                    SkewQuadDipole(length=1.0, b0=0.0588, b1=1e-3)):
        lat = Lattice.from_elements([Drift(length=1.0), element])
        for axis, plane in enumerate(("horizontal", "vertical")):
            _, k = transverse_k_profile(lat, plane, 0.25)
            assert np.array_equal(k[4:], np.full(5, element.focusing()[axis]))
            assert not k[:4].any()


def test_profiles_require_aligned_step(fodo_lattice):
    with pytest.raises(MismatchedSampling):
        transverse_k_profile(fodo_lattice, "horizontal", 0.3)
    # 0.2 divides the 1 m line but misses its inner edge at 0.3
    lat = Lattice.from_elements([Dipole(length=0.3, b0=0.1), Drift(length=0.7)])
    with pytest.raises(MismatchedSampling, match="boundary at 0.3 is not aligned"):
        transverse_k_profile(lat, "horizontal", 0.2)


def test_profiles_name_the_first_misaligned_boundary():
    # 0.2 divides the 2 m line and its edge at 0.4, but not the edges at 0.9 and 1.3
    lat = Lattice.from_elements([Dipole(length=0.4, b0=0.1), Drift(length=0.5),
                                 Dipole(length=0.4, b0=0.1), Drift(length=0.7)])
    with pytest.raises(MismatchedSampling) as err:
        optics_profiles(lat, 0.2)
    assert str(err.value) == "element boundary at 0.9 is not aligned to step 0.2"


def test_inverse_rho_profile():
    lat = Lattice.from_elements([Dipole(length=1.0, b0=0.5), Drift(length=1.0)])
    grid, inv = inverse_rho_profile(lat, 0.5)
    assert np.array_equal(inv, [0.5, 0.5, 0.0, 0.0, 0.0])


def test_profiles_give_a_boundary_sample_the_downstream_element():
    # the edge at 0.01 + 0.05 = 0.060000000000000005 lies above the grid
    # point 6 * 0.01 = 0.06, which still belongs to the element downstream
    lat = Lattice.from_elements([Dipole(length=0.01, b0=1.0),
                                 NormalQuadDipole(length=0.05, b0=2.0, b1=0.5),
                                 SkewQuadDipole(length=0.01, b0=3.0, b1=0.25)])
    assert lat.inner_edges[1] > 6 * 0.01
    owner = [0, 1, 1, 1, 1, 1, 2, 2]
    grid, kh = transverse_k_profile(lat, "horizontal", 0.01)
    _, kv = transverse_k_profile(lat, "vertical", 0.01)
    _, inv = inverse_rho_profile(lat, 0.01)
    assert np.array_equal(grid, np.arange(8) * 0.01)
    for axis, k in enumerate((kh, kv)):
        assert np.array_equal(k, [lat.elements[e].focusing()[axis] for e in owner])
    assert np.array_equal(inv, [lat.elements[e].b0 for e in owner])
    # one grid walk gives the same three arrays
    for got, want in zip(optics_profiles(lat, 0.01), (grid, kh, inv)):
        assert np.array_equal(got, want)


@settings(max_examples=100, deadline=None)
@given(step=st.sampled_from([1e-3, 3e-3, 0.01, 0.07, 0.1]),
       cells=st.lists(st.tuples(st.integers(1, 8), st.floats(0.1, 3.0)), min_size=1, max_size=8))
def test_profiles_hold_each_element_value_from_its_first_sample(step, cells):
    # element e holds the samples from its boundary index on, whichever
    # side of its edge the product k * step rounds to
    lat = Lattice.from_elements([Dipole(length=c * step, b0=b0) for c, b0 in cells])
    counts = [c for c, _ in cells]

    def per_sample(values):
        return np.append(np.repeat(values, counts), values[-1])

    assert np.array_equal(inverse_rho_profile(lat, step)[1], per_sample([b0 for _, b0 in cells]))
    assert np.array_equal(transverse_k_profile(lat, "horizontal", step)[1],
                          per_sample([e.focusing()[0] for e in lat.elements]))
