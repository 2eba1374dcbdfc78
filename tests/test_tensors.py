"""Tensor data model and FCIDUMP round trips."""

import tracemalloc

import numpy as np
import pytest
from oracles import (
    SpinTensor2e,
    absorb_one_body,
    dense_from_record,
    dense_hamiltonian,
    excitation_table,
    random_spatial,
)

from lcunorm.errors import NumericalError, ParseError
from lcunorm.tensors import (
    FIXTURE_NAMES,
    SpatialTensors,
    fixture_path,
    load_fixture,
    one_body_adjust,
    parse_fcidump,
    to_chemist,
    write_fcidump,
)

MINIMAL = """\
&FCI NORB=2,NELEC=2,MS2=0,
 ORBSYM=1,1,
 ISYM=1,
&END
 0.6 1 1 1 1
 0.2 2 1 1 1
 -1.1 1 1 0 0
 0.05 2 1 0 0
 0.7 0 0 0 0
"""


def test_parse_minimal():
    rec = parse_fcidump(MINIMAL)
    assert (rec.n_orb, rec.n_elec, rec.ms2) == (2, 2, 0)
    assert rec.core_energy == 0.7
    assert rec.core_h[0, 0] == -1.1
    assert rec.core_h[1, 0] == rec.core_h[0, 1] == 0.05
    assert rec.eri[0, 0, 0, 0] == 0.6
    # (21|11) populates all eight permutational images
    for idx in [
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
    ]:
        assert rec.eri[idx] == 0.2


def test_parse_slash_terminator():
    text = "&FCI NORB=1,NELEC=1,MS2=1\n/\n 2.5 1 1 0 0\n"
    rec = parse_fcidump(text)
    assert rec.n_orb == 1 and rec.core_h[0, 0] == 2.5
    assert rec.core_energy == 0.0


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("&FCI NORB=1,NELEC=1\n 1.0 1 1 0 0\n", "&END"),
        ("&FCI NELEC=1\n&END\n", "NORB"),
        ("&FCI NORB=1,NELEC=1\n&END\n 1.0 1 1\n", "value i j k l"),
        ("&FCI NORB=1,NELEC=1\n&END\n 1.0 2 1 1 1\n", "outside"),
        ("&FCI NORB=2,NELEC=2\n&END\n 1.0 1 0 1 1\n", "index pattern"),
        # an index must be an integer, not a float with an integer part
        ("&FCI NORB=2,NELEC=2\n&END\n 1.0 1.5 1 1 1\n", "int()"),
        ("&FCI NORB=2,NELEC=2\n&END\n 1.0 1.0 1 1 1\n", "int()"),
        # numpy and float() both read these
        ("&FCI NORB=1,NELEC=1\n&END\n nan 1 1 1 1\n", "non-finite"),
        ("&FCI NORB=1,NELEC=1\n&END\n 0.5 1 1 1 1\n -inf 1 1 0 0\n", "non-finite"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_fcidump(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize("norb", [107, 200])
def test_oversized_norb_fails_before_allocating(norb):
    # (NORB+1)^4 doubles: 1.01 GiB at NORB=107, the first size above 1 GiB
    tracemalloc.start()
    try:
        with pytest.raises(NumericalError, match=f"NORB={norb} needs a .* GiB") as err:
            parse_fcidump(f"&FCI NORB={norb},NELEC=2\n&END\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.payload == {"norb": norb, "bytes": 8 * (norb + 1) ** 4}
    assert peak < 1 << 20


def test_later_lines_overwrite_earlier():
    # (21|11) and (12|11) fill the same eight entries, (21|00) and (12|00)
    # the same two: the last line of each set wins, as does the last core energy
    text = MINIMAL + " 0.3 1 1 1 2\n 0.06 1 2 0 0\n 0.8 0 0 0 0\n 0.25 1 1 2 1\n"
    rec = parse_fcidump(text)
    assert rec.core_energy == 0.8
    assert rec.core_h[0, 1] == rec.core_h[1, 0] == 0.06
    for idx in [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]:
        assert rec.eri[idx] == 0.25
    assert rec.eri[0, 0, 0, 0] == 0.6


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_line_by_line_read_matches_bulk_read(name):
    # numpy does not read "0_0", Python's float() does: the data lines are
    # then read one by one, and the record must come out bit for bit the same
    text = write_fcidump(load_fixture(name))
    rec = parse_fcidump(text.replace(" &END\n", " &END\n 0_0 0 0 0 0\n"))
    ref = parse_fcidump(text)
    assert rec.core_energy == ref.core_energy
    assert np.array_equal(rec.core_h, ref.core_h) and np.array_equal(rec.eri, ref.eri)


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_fcidump("&FCI NORB=1,NELEC=1\n&END\n 1.0 1 1 0 0\n junk 1 1\n")
    assert err.value.line == 4
    assert "line 4" in str(err.value)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_round_trip_bit_equal(name):
    rec = load_fixture(name)
    text = write_fcidump(rec)
    rec2 = parse_fcidump(text)
    assert rec2.n_orb == rec.n_orb and rec2.n_elec == rec.n_elec and rec2.ms2 == rec.ms2
    assert rec2.core_energy == rec.core_energy
    assert np.array_equal(rec2.core_h, rec.core_h)
    assert np.array_equal(rec2.eri, rec.eri)
    assert write_fcidump(rec2) == text


def test_fixture_inventory():
    sizes = {"h2": (2, 2), "lih": (6, 4), "beh2": (7, 6), "h2o": (7, 10), "nh3": (8, 10)}
    for name, (n_orb, n_elec) in sizes.items():
        rec = load_fixture(name)
        assert (rec.n_orb, rec.n_elec) == (n_orb, n_elec)
        assert fixture_path(name).name == f"{name}.fcidump"


def test_fixture_path_unknown():
    with pytest.raises(KeyError):
        fixture_path("ch4")


def test_to_chemist_matches_physicist_form():
    rec = load_fixture("h2")
    h_phys = dense_from_record(rec)
    h_chem = dense_hamiltonian(to_chemist(rec))
    assert np.abs(h_chem - h_phys).max() < 1e-12


def test_to_chemist_minimal_record():
    rec = parse_fcidump(MINIMAL)
    t = to_chemist(rec)
    assert np.abs(dense_hamiltonian(t) - dense_from_record(rec)).max() < 1e-12
    assert np.allclose(t.tbt, 0.5 * rec.eri)


def test_one_body_adjust_quadruple_loop():
    rng = np.random.default_rng(7)
    t = random_spatial(3, rng)
    adj = one_body_adjust(t)
    n = t.n_orb
    ref = t.obt.copy()
    for i in range(n):
        for j in range(n):
            for k in range(n):
                ref[i, j] += 2.0 * t.tbt[i, j, k, k]
    assert np.abs(adj - ref).max() < 1e-12
    assert np.abs(adj - adj.T).max() < 1e-12


def test_absorb_one_body_fock_equivalence():
    rng = np.random.default_rng(11)
    n = 2
    mu = rng.normal(size=n)
    u = np.linalg.qr(rng.normal(size=(n, n)))[0]
    st = absorb_one_body(mu, u)
    assert np.abs(st.opposite).max() == 0.0
    obt = u @ np.diag(mu) @ u.T
    E = excitation_table(2 * n)
    dim = 1 << (2 * n)
    ref = np.zeros((dim, dim))
    for s in (0, 1):
        for i in range(n):
            for j in range(n):
                ref += obt[i, j] * E[2 * i + s][2 * j + s]
    assert np.abs(dense_hamiltonian(st) - ref).max() < 1e-10


def test_absorb_one_body_rejects_nonorthogonal():
    with pytest.raises(ValueError):
        absorb_one_body(np.ones(2), np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_validation_rejects_broken_symmetry():
    with pytest.raises(ValueError):
        SpatialTensors(0.0, np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2, 2, 2)))
    bad = np.zeros((2, 2, 2, 2))
    bad[0, 1, 0, 0] = 1.0
    with pytest.raises(ValueError):
        SpatialTensors(0.0, np.zeros((2, 2)), bad)
    with pytest.raises(ValueError):
        SpinTensor2e(bad, np.zeros((2, 2, 2, 2)))


def test_replace_keeps_other_fields():
    rng = np.random.default_rng(3)
    t = random_spatial(2, rng)
    t2 = t.replace(e0=5.0)
    assert t2.e0 == 5.0
    assert np.array_equal(t2.obt, t.obt) and np.array_equal(t2.tbt, t.tbt)
