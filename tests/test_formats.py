"""The FDF, QM1 and RHS text formats: exact text, bit-exact round trips and
malformed input."""

import numpy as np
import pytest

from fieldxfer import (FormatError, QuadMesh, ScalarField, StructuredGrid, read_fdf,
                       read_qm1, read_rhs, write_fdf, write_qm1, write_rhs)

BIG = 1.7976931348623157e308  # the largest double
TINY = 5e-324                 # the smallest subnormal


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestGoldenText:
    def test_fdf(self, tmp_path):
        grid = StructuredGrid([-1.0, -0.0, TINY], [0.0, 0.1, BIG])
        field = ScalarField(grid, [[-0.0, TINY, BIG], [0.1, -2.5, 1e-300],
                                   [-BIG, 1.0, 2.0]])
        path = tmp_path / "g.fdf"
        write_fdf(path, field)
        assert path.read_text() == (
            "FDF 1\n"
            "3 3\n"
            "-1 -0 4.9406564584124654e-324\n"
            "0 0.10000000000000001 1.7976931348623157e+308\n"
            "-0 4.9406564584124654e-324 1.7976931348623157e+308\n"
            "0.10000000000000001 -2.5 1e-300\n"
            "-1.7976931348623157e+308 1 2\n")
        back = read_fdf(path)
        assert same_bits(back.grid.xs, grid.xs) and same_bits(back.grid.ys, grid.ys)
        assert same_bits(back.values, field.values)

    def test_qm1(self, tmp_path):
        mesh = QuadMesh([[-0.0, TINY], [1.0, -0.0], [1.0, 1.0], [0.0, BIG]],
                        [[0, 1, 2, 3]])
        path = tmp_path / "g.qm1"
        write_qm1(path, mesh)
        assert path.read_text() == (
            "QM 1\n"
            "4 1\n"
            "-0 4.9406564584124654e-324\n"
            "1 -0\n"
            "1 1\n"
            "0 1.7976931348623157e+308\n"
            "0 1 2 3\n")
        back = read_qm1(path)
        assert same_bits(back.nodes, mesh.nodes)
        assert np.array_equal(back.elements, mesh.elements)
        assert back.elements.dtype == np.int64

    def test_rhs(self, tmp_path):
        b = np.array([-0.0, TINY, BIG, 0.1])
        path = tmp_path / "g.rhs"
        write_rhs(path, b)
        assert path.read_text() == (
            "RHS 1\n"
            "4\n"
            "-0\n"
            "4.9406564584124654e-324\n"
            "1.7976931348623157e+308\n"
            "0.10000000000000001\n")
        assert same_bits(read_rhs(path), b)

    def test_empty_rhs(self, tmp_path):
        path = tmp_path / "e.rhs"
        write_rhs(path, [])
        assert path.read_text() == "RHS 1\n0\n"
        assert read_rhs(path).shape == (0,)


def test_any_finite_double_round_trips(rng, tmp_path):
    # uniform random bit patterns: every exponent, subnormals and both zeros;
    # enough of them that the writer formats them in several chunks
    bits = rng.integers(0, 2 ** 64, size=150_000, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    values = np.concatenate([values[np.isfinite(values)], [TINY, -TINY, BIG, -BIG, -0.0]])
    path = tmp_path / "wide.rhs"
    write_rhs(path, values)
    assert same_bits(read_rhs(path), values)
    grid = StructuredGrid([0.0, 1.0], [0.0, 1.0, 2.0])
    field = ScalarField(grid, values[:6].reshape(3, 2))
    write_fdf(tmp_path / "wide.fdf", field)
    assert same_bits(read_fdf(tmp_path / "wide.fdf").values, field.values)


FDF = "FDF 1\n3 2\n0 0.5 1\n0 1\n1 2 3\n4 5 6\n"
QM1 = "QM 1\n4 1\n0 0\n1 0\n1 1\n0 1\n0 1 2 3\n"
RHS = "RHS 1\n2\n0.5\n0.25\n"

# (reader, file text) for files each reader must reject
MALFORMED = {
    "fdf-bad-tag": (read_fdf, FDF.replace("FDF", "FDX")),
    "fdf-bad-version": (read_fdf, FDF.replace("FDF 1", "FDF 7")),
    "fdf-one-count": (read_fdf, FDF.replace("3 2\n", "3\n")),
    "fdf-three-counts": (read_fdf, FDF.replace("3 2\n", "3 2 1\n")),
    "fdf-non-integer-count": (read_fdf, FDF.replace("3 2\n", "3 2.0\n")),
    "fdf-short-row": (read_fdf, FDF.replace("4 5 6", "4 5")),
    "fdf-long-row": (read_fdf, FDF.replace("4 5 6", "4 5 6 7")),
    "fdf-non-numeric": (read_fdf, FDF.replace("4 5 6", "4 five 6")),
    "fdf-missing-row": (read_fdf, FDF.replace("4 5 6\n", "")),
    "fdf-blank-line-in-block": (read_fdf, FDF.replace("1 2 3\n", "1 2 3\n\n")),
    "fdf-cut-after-x": (read_fdf, "FDF 1\n3 2\n0 0.5 1\n"),
    "fdf-empty": (read_fdf, ""),
    "fdf-hash-token": (read_fdf, FDF.replace("4 5 6", "4 5 6 # note")),
    "qm1-bad-tag": (read_qm1, QM1.replace("QM 1", "QX 1")),
    "qm1-node-row-3-values": (read_qm1, QM1.replace("1 1\n", "1 1 0\n")),
    "qm1-element-row-3-indices": (read_qm1, QM1.replace("0 1 2 3", "0 1 2")),
    "qm1-fractional-index": (read_qm1, QM1.replace("0 1 2 3", "0 1 2 3.5")),
    "qm1-missing-element-row": (read_qm1, QM1.replace("4 1\n", "4 2\n")),
    "qm1-index-out-of-range": (read_qm1, QM1.replace("0 1 2 3", "0 1 2 4")),
    "qm1-clockwise": (read_qm1, QM1.replace("0 1 2 3", "0 3 2 1")),
    "rhs-bad-tag": (read_rhs, RHS.replace("RHS", "LHS")),
    "rhs-two-values-on-a-line": (read_rhs, "RHS 1\n2\n0.5 0.25\n0.125\n"),
    "rhs-fewer-values-than-count": (read_rhs, RHS.replace("2\n", "3\n")),
    "rhs-x-value": (read_rhs, RHS.replace("0.25", "x")),
    "rhs-x-count": (read_rhs, RHS.replace("2\n", "x\n")),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("reader, text", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_file_is_format_error(tmp_path, reader, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(FormatError, match="bad.txt"):
        reader(path)


@pytest.mark.filterwarnings("error")
def test_unbroken_files_read(tmp_path):
    # each malformed file above breaks one of these valid ones
    for name, text in (("f.fdf", FDF), ("m.qm1", QM1), ("b.rhs", RHS)):
        (tmp_path / name).write_text(text)
    assert np.array_equal(read_fdf(tmp_path / "f.fdf").values, [[1, 2, 3], [4, 5, 6]])
    assert np.array_equal(read_qm1(tmp_path / "m.qm1").elements, [[0, 1, 2, 3]])
    assert np.array_equal(read_rhs(tmp_path / "b.rhs"), [0.5, 0.25])


@pytest.mark.parametrize("text, reason", [
    (FDF.replace("0 0.5 1", "0 1 0.5"), "strictly increasing"),
    (FDF.replace("4 5 6", "4 nan 6"), "finite"),
], ids=["decreasing-x", "nan-sample"])
def test_invalid_field_is_format_error(tmp_path, text, reason):
    path = tmp_path / "bad.fdf"
    path.write_text(text)
    with pytest.raises(FormatError, match=f"bad.fdf.*{reason}"):
        read_fdf(path)
