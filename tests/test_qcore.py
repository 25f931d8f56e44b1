"""Statevector core: indexing convention, bit weights, symmetrized basis; the
tensor placement and Born sampling oracles of `oracles`."""
import functools
import gc
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from trajsense import qcore
from trajsense.qcore import Ket, make_ket


def test_basis_index_msb_first():
    # qubit 1 is the most significant bit
    assert qcore.bitstring(3, 4) == "100"
    assert qcore.bitstring(3, 1) == "001"
    for j in range(16):
        assert int(qcore.bitstring(4, j), 2) == j


def test_make_ket_normalizes():
    k = make_ket(2, [("00", 1.0), ("11", 1.0)])
    np.testing.assert_allclose(k.amps[0], 2 ** -0.5)
    np.testing.assert_allclose(k.amps[3], 2 ** -0.5)
    assert abs(k.norm() - 1.0) < 1e-12


def test_make_ket_rejects_duplicates_and_zero():
    with pytest.raises(ValueError, match="duplicate bitstring '00'"):
        make_ket(2, [("00", 1.0), ("01", 1.0), ("00", 0.5)])
    with pytest.raises(ValueError, match="all amplitudes are zero"):
        make_ket(2, [("01", 0.0)])
    with pytest.raises(ValueError, match="bitstring '001' has length 3, expected 2"):
        make_ket(2, [("01", 1.0), ("001", 1.0)])  # wrong register size
    for bits in ("0a", "-1", "+1", "0\u00b9", "\uff10\uff11"):   # "\uff10\uff11" is fullwidth "01"
        with pytest.raises(ValueError, match="malformed bitstring"):
            make_ket(2, [("11", 1.0), (bits, 1.0)])
    with pytest.raises(ValueError, match="amplitudes must be finite"):
        make_ket(2, [("11", 1.0), ("10", complex(0, math.inf))])


@functools.lru_cache(maxsize=None)
def _string_bits(n):
    """(2**n, n) digits of format(j, f"0{n}b"): column k-1 is qubit k."""
    text = "".join(format(j, f"0{n}b") for j in range(1 << n))
    return np.frombuffer(text.encode(), dtype=np.uint8).reshape(-1, n) - ord("0")


def test_weight_on():
    w = qcore.weight_on(3, [1])        # counts bit of qubit 1 (MSB)
    np.testing.assert_array_equal(w, [0, 0, 0, 0, 1, 1, 1, 1])
    w = qcore.weight_on(3, [1, 3])
    assert w[int("101", 2)] == 2
    gen = np.random.default_rng(13)
    for n in [1, 2, 3, 5, 8, 12, 16, 20]:
        for size in {0, 1, n // 2, n}:
            qubits = sorted(gen.choice(np.arange(1, n + 1), size, replace=False).tolist())
            w = qcore.weight_on(n, qubits)
            assert w.dtype == np.int64     # so that |T| - 2w cannot wrap in uint8
            want = _string_bits(n)[:, [q - 1 for q in qubits]].sum(axis=1)
            assert np.array_equal(w, want), (n, qubits)


def test_tensor_plain_kron():
    a = make_ket(1, [("0", 1.0)])
    b = make_ket(2, [("11", 1.0)])
    t = oracles.tensor(a, b)
    assert t.n == 3
    np.testing.assert_allclose(t.amps[int("011", 2)], 1.0)


def test_tensor_with_placement():
    # a on qubits (1,3), b on qubits (2,4); worked out by hand:
    # a = x|00> + y|11>, b = |10>  ->  x|0100> + y|1110>
    x, y = 0.6, 0.8
    a = make_ket(2, [("00", x), ("11", y)])
    b = make_ket(2, [("10", 1.0)])
    t = oracles.tensor(a, b, place_a=(1, 3), place_b=(2, 4))
    expect = np.zeros(16)
    expect[int("0100", 2)] = x
    expect[int("1110", 2)] = y
    np.testing.assert_allclose(t.amps, expect, atol=1e-12)


def test_tensor_placement_must_cover_register():
    a = make_ket(1, [("0", 1.0)])
    b = make_ket(1, [("1", 1.0)])
    with pytest.raises(ValueError):
        oracles.tensor(a, b, place_a=(1,), place_b=(1,))
    with pytest.raises(ValueError):
        oracles.tensor(a, b, place_a=(1,), place_b=(3,))


def test_gram_of_computational_basis():
    basis = [make_ket(2, [(qcore.bitstring(2, j), 1.0)]) for j in range(4)]
    np.testing.assert_allclose(oracles.gram(basis), np.eye(4), atol=1e-12)


def test_equal_up_to_phase():
    k = make_ket(2, [("01", 1.0), ("10", 1.0)])
    rotated = Ket(2, np.exp(0.7j) * k.amps)
    assert qcore.equal_up_to_phase(k, rotated)
    other = make_ket(2, [("01", 1.0), ("10", -1.0)])
    assert not qcore.equal_up_to_phase(k, other)


@pytest.mark.parametrize("n,norms", [
    (2, [2, 2]),
    (3, [2, 6]),
    (4, [2, 8, 6]),
    (5, [2, 10, 20]),
])
def test_symmetrized_basis_norms(n, norms):
    fold, sizes = qcore.weight_classes(n)
    assert sizes.tolist() == norms
    # brute-force class count cross-check: C(n,nu) + C(n,n-nu), once at nu = n/2
    for nu, size in enumerate(sizes):
        count = sum(1 for j in range(1 << n)
                    if bin(j).count("1") in (nu, n - nu))
        assert (fold == nu).sum() == count == size
        assert size == math.comb(n, nu) + (math.comb(n, n - nu) if nu != n - nu else 0)


def test_symmetrized_basis_vectors_orthogonal():
    fold, sizes = qcore.weight_classes(4)
    vecs = [(fold == nu).astype(complex) for nu in range(len(sizes))]
    for i, vi in enumerate(vecs):
        for k, vk in enumerate(vecs):
            expect = sizes[i] if i == k else 0.0
            assert abs(np.vdot(vi, vk) - expect) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_symmetrized_amplitudes_match_basis_loop(n):
    """One lookup per bitstring, bitwise equal to filling each weight class."""
    weight = np.array([bin(j).count("1") for j in range(1 << n)])
    profiles = np.random.default_rng(n).uniform(-0.2, 1.0, size=(4, n // 2 + 1))
    got = qcore.symmetrized_amplitudes(n, profiles)
    for x, row in zip(profiles, got):
        amps = np.zeros(1 << n)
        for nu, xv in enumerate(x):
            amps[(weight == nu) | (weight == n - nu)] = math.sqrt(max(xv, 0.0))
        assert np.array_equal(row, amps.astype(complex))
        assert np.array_equal(qcore.symmetrized_amplitudes(n, x), row)


def test_sample_measurement_deterministic():
    k = make_ket(2, [("00", 1.0), ("11", 1.0)])
    basis = [make_ket(2, [(qcore.bitstring(2, j), 1.0)]) for j in range(4)]
    a = oracles.sample_measurement(k, basis, rng_seed=7, sample_index=3)
    b = oracles.sample_measurement(k, basis, rng_seed=7, sample_index=3)
    assert a == b
    draws = {oracles.sample_measurement(k, basis, rng_seed=7, sample_index=i)
             for i in range(200)}
    assert draws == {0, 3}


def test_sample_measurement_complement_outcome():
    # incomplete basis: everything outside its span lands in the last slot
    k = make_ket(2, [("11", 1.0)])
    basis = [make_ket(2, [("00", 1.0)])]
    for i in range(20):
        assert oracles.sample_measurement(k, basis, rng_seed=1, sample_index=i) == 1


def test_sample_measurement_rejects_nonorthogonal_basis():
    k = make_ket(1, [("0", 1.0)])
    bad = [make_ket(1, [("0", 1.0)]), make_ket(1, [("0", 1.0), ("1", 1.0)])]
    with pytest.raises(ValueError):
        oracles.sample_measurement(k, bad, rng_seed=0)


def test_sample_measurement_frequencies():
    """Outcome histogram tracks Born weights on an asymmetric state."""
    k = make_ket(1, [("0", 1.0), ("1", 2.0)])   # p = (0.2, 0.8)
    basis = [make_ket(1, [("0", 1.0)]), make_ket(1, [("1", 1.0)])]
    hits = sum(oracles.sample_measurement(k, basis, rng_seed=42, sample_index=i)
               for i in range(4000))
    p = 0.8
    sigma = math.sqrt(p * (1 - p) * 4000)
    assert abs(hits - p * 4000) < 5 * sigma


def test_ket_json_roundtrip():
    k = make_ket(3, [("010", 0.5), ("101", 0.5j), ("111", -0.5)])
    text = json.dumps(oracles.ket_to_dict(k))
    back = qcore.ket_from_json(text)
    assert back.n == 3
    np.testing.assert_allclose(back.amps, k.amps, atol=1e-15)
    assert set(json.loads(text)) == {"n", "amps"}
    # the parse runs with the collector off and leaves the caller's setting as it found it
    gc.disable()
    try:
        qcore.ket_from_json(text)
        assert not gc.isenabled()
    finally:
        gc.enable()
    with pytest.raises(ValueError):
        qcore.ket_from_json("{not json")
    assert gc.isenabled()


_JSON_SCALARS = (st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.text(max_size=6)
                 | st.floats(allow_nan=True, allow_infinity=True))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS | st.lists(st.floats(-1e3, 1e3), max_size=5),
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4),
                                     st.tuples(st.floats(allow_nan=False), st.floats()),
                                     max_size=4)),
    max_leaves=20)


@given(_JSON_VALUES)
@example({"01": (0.0, -0.0), "10": (-0.0, 0.5)})
@example([0.0, -0.0, float("nan"), 1e-300])
@settings(max_examples=300, deadline=None)
def test_indented_json_matches_stdlib_bytes(obj):
    assert "".join(qcore.indented_json(obj)) == json.dumps(obj, sort_keys=True, indent=2)


#: amplitude parts: signed zeros and values that repeat, plus arbitrary ones
_PARTS = st.sampled_from([0.0, -0.0, 0.5, -0.5, 0.1, 5e-324]) | st.floats(-1e3, 1e3)


@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
           st.just(n), st.dictionaries(st.integers(0, (1 << n) - 1),
                                       st.tuples(_PARTS, _PARTS), max_size=12))),
       st.sampled_from([1, 2, 5, 1 << 16]))
@example((2, {1: (-0.0, 0.5), 2: (0.5, -0.0)}), 1)
@example((3, {}), 2)
@settings(max_examples=300, deadline=None)
def test_ket_and_array_text_match_the_oracle_dict(ket, chunk):
    """A Ket's map and a float array are written from their arrays, in pieces of at most
    `chunk` entries, with the bytes of json.dumps of the plain data; the state text reads
    back to the amps `make_ket` builds from the same pairs, bit for bit."""
    n, entries = ket
    amps = np.zeros(1 << n, dtype=complex)
    for j, part in entries.items():
        amps[j] = complex(*part)
    k = Ket(n, amps)
    p = np.concatenate([amps.real, amps.imag, [math.nan, math.inf, -math.inf]])
    with mock.patch.object(qcore, "_CHUNK", chunk):
        pieces = list(qcore.indented_json({"witness_state": k, "p": p, "n": n}))
        state = "".join(qcore.indented_json(k))
    reference = {"witness_state": oracles.ket_to_dict(k), "p": p.tolist(), "n": n}
    assert "".join(pieces) == json.dumps(reference, sort_keys=True, indent=2)
    assert max(map(len, pieces)) <= 128 * chunk
    pairs = [(bits, complex(*part)) for bits, part in oracles.ket_to_dict(k)["amps"].items()]
    try:
        expect = make_ket(n, pairs)
    except ValueError as exc:                # all zero, or a norm below 1e-300
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            qcore.ket_from_json(state)
    else:
        assert qcore.ket_from_json(state).amps.tobytes() == expect.amps.tobytes()


@given(st.integers(0, 3), st.integers(0, 7), st.floats(0.0, 2 * math.pi))
@settings(max_examples=60, deadline=None)
def test_tensor_preserves_norm(i, j, phi):
    a = Ket(2, np.exp(1j * phi) * np.eye(4)[i])
    b = Ket(3, np.eye(8)[j].astype(complex))
    t = oracles.tensor(a, b, place_a=(2, 4), place_b=(1, 3, 5))
    assert abs(t.norm() - 1.0) < 1e-12
    # placement is a bit permutation: exactly one nonzero amplitude survives
    assert np.count_nonzero(np.abs(t.amps) > 1e-12) == 1
