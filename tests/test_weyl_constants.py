"""Per-dimension Weyl constants: computed once, shared read-only, equal to the formulas they replace.

The roots of unity and the (d, d) phase and index tables are cached per
dimension; the basis stack is built afresh on each call.  The former uncached ``phase_vector`` and ``env_gram``
are kept below as oracles; the cached versions must match them bit for bit.
The last classes pin the errors of the ``QuantumChannel`` stack path and the
exit code of JSON inputs that used to end in a traceback.
"""

import subprocess
import sys

import numpy as np
import pytest

from weylkit import (
    DomainError,
    QuantumChannel,
    ShapeError,
    ValidationError,
    env_gram,
    weyl_basis,
    weyl_element,
)
from weylkit.rand import random_gamma
from weylkit.weyl import dim_constants, omega, phase_vector

_QUARTER_TURNS = np.array([1.0, 1.0j, -1.0, -1.0j], dtype=np.complex128)


def ref_phase_vector(d, exponents):
    """The uncached formula: exp of the reduced exponent, quarter turns pinned."""
    e = np.mod(np.asarray(exponents, dtype=np.int64), d)
    out = np.exp(2j * np.pi * e / d)
    four = 4 * e
    quarter = four % d == 0
    if np.any(quarter):
        out = np.where(quarter, _QUARTER_TURNS[(four // d) % 4], out)
    return out


def ref_env_gram(g):
    """The uncached ``env_gram``: one DFT product per l, one shifted copy per (l, k)."""
    d = g.d
    out = np.empty((d, d, d), dtype=np.complex128)
    z = np.arange(d)
    dft = ref_phase_vector(d, z[:, None] * z[None, :])
    for l in range(d):
        sums = dft @ (np.abs(g.gamma[(z + l) % d, z]) ** 2)
        for k in range(d):
            out[l, k, :] = sums[(z - k) % d]
    return out


def _exponent_sets(d, rng):
    return [
        np.arange(-3 * d, 3 * d),
        np.array([2**40, -(2**40), 2**40 + 1, 2**62, -(2**62)]),
        np.arange(d)[:, None] * np.arange(d),
        -(np.arange(d)[:, None] * np.arange(d)),
        rng.integers(-(2**50), 2**50, size=(4, 5)),
    ]


class TestPhaseVector:
    @pytest.mark.parametrize("d", range(1, 65))
    def test_bit_identical_to_uncached_formula(self, d):
        rng = np.random.default_rng(d)
        for e in _exponent_sets(d, rng):
            got, want = phase_vector(d, e), ref_phase_vector(d, e)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        for e in (0, 1, -1, d // 4, 2**40):
            assert complex(phase_vector(d, e)) == complex(ref_phase_vector(d, e))
        assert omega(d) == complex(ref_phase_vector(d, [1])[0])

    def test_returned_array_is_a_fresh_copy(self):
        first = phase_vector(8, np.arange(8))
        want = first.copy()
        first[:] = 0
        np.testing.assert_array_equal(phase_vector(8, np.arange(8)), want)

    @pytest.mark.parametrize("d", [2, 3, 5, 8, 32])
    def test_tables_are_read_only_and_match_phase_vector(self, d):
        c = dim_constants(d)
        n = np.arange(d)
        assert c.phases.tobytes() == phase_vector(d, n[:, None] * n).tobytes()
        assert c.dft.tobytes() == phase_vector(d, -(n[:, None] * n)).tobytes()
        np.testing.assert_array_equal(c.rows, (n + n[:, None]) % d)
        for table in c:
            assert not table.flags.writeable


class TestWeylBasisMemo:
    @pytest.mark.parametrize("d", range(2, 33))
    def test_shared_read_only_and_exact(self, d):
        basis = weyl_basis(d)
        assert not basis.elements.flags.writeable
        for l in range(d):
            for k in range(d):
                assert np.array_equal(basis.elements[l * d + k], weyl_element(d, l, k))

    @pytest.mark.parametrize("bad", [True, 2.0, 1, np.float64(3.0)])
    def test_rejects_non_dimensions(self, bad):
        with pytest.raises(DomainError):
            weyl_basis(bad)

    @pytest.mark.parametrize("d", [2, 3, 7, 16])
    def test_env_gram_matches_uncached(self, d):
        g = random_gamma(d, np.random.default_rng(d))
        assert env_gram(g).tobytes() == ref_env_gram(g).tobytes()


class TestChannelStackPath:
    def test_wrong_shape_stack_message_matches_list(self):
        ops = np.zeros((2, 3, 3))
        with pytest.raises(ShapeError) as from_stack:
            QuantumChannel(d=2, kraus=ops)
        with pytest.raises(ShapeError) as from_list:
            QuantumChannel(d=2, kraus=list(ops))
        assert str(from_stack.value) == str(from_list.value) == "Kraus operators must be 2 x 2, got (3, 3)"

    def test_nan_stack_is_a_validation_error(self):
        ops = np.stack([np.eye(2), np.eye(2)]).astype(np.complex128)
        ops[1, 0, 1] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            QuantumChannel(d=2, kraus=ops)

    def test_empty_stack_is_a_domain_error(self):
        with pytest.raises(DomainError, match="at least one Kraus operator"):
            QuantumChannel(d=3, kraus=np.zeros((0, 3, 3)))

    def test_shape_wins_over_nan(self):
        ops = np.full((2, 3, 3), np.nan)
        with pytest.raises(ShapeError, match=r"got \(3, 3\)"):
            QuantumChannel(d=2, kraus=ops)

    def test_stack_is_copied(self):
        ops = np.stack([np.eye(2), np.zeros((2, 2))]).astype(np.complex128)
        ch = QuantumChannel(d=2, kraus=ops)
        ops[0] = 0
        np.testing.assert_array_equal(ch.stack[0], np.eye(2))


HUGE = "1" + "0" * 400  # an integer beyond the float range


def _run(*args):
    return subprocess.run([sys.executable, "-m", "weylkit", *args], capture_output=True, text=True)


class TestJsonNumbersOutOfRange:
    @pytest.mark.parametrize(
        "command, doc",
        [
            (["decompose", "--in"], '{"rows": 1, "cols": 1, "entries": [[%s, 0]]}' % HUGE),
            (["reconstruct", "--in"], '{"d": 2, "order": "l-major", "xi": [[0, 0], [0, %s], [0, 0], [0, 0]]}' % HUGE),
            (["choi", "--gamma"], '{"d": 2, "gamma": [[1, 0], [%s, 0], [0, 0], [1, 0]]}' % HUGE),
        ],
        ids=["matrix", "coefficients", "gamma"],
    )
    def test_huge_integer_entry_exits_2(self, tmp_path, command, doc):
        path = tmp_path / "in.json"
        path.write_text(doc, encoding="utf-8")
        res = _run(*command, str(path))
        assert res.returncode == 2
        assert res.stderr.endswith("is out of the float range\n")
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize(
        "doc",
        ['{"rows": %s, "cols": 1, "entries": []}' % ("1" * 4400), "[" * 100000],
        ids=["4400-digit-integer", "deep-nesting"],
    )
    def test_unparseable_document_exits_2(self, tmp_path, doc):
        path = tmp_path / "in.json"
        path.write_text(doc, encoding="utf-8")
        res = _run("decompose", "--in", str(path))
        assert res.returncode == 2
        assert res.stderr.startswith("error: input matrix: ")
        assert res.stderr.count("\n") == 1 and "Traceback" not in res.stderr
