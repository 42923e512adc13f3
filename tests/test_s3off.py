import numpy as np
import pytest

from sphere_spectra.generators import gen_flat_torus, gen_geodesic_sphere
from sphere_spectra.mesh import MeshError
from sphere_spectra.s3off import read_s3off, write_s3off


def test_round_trip_exact(tmp_path):
    mesh = gen_flat_torus(0.37, 12, 16)
    path = tmp_path / "torus.s3off"
    write_s3off(mesh, path)
    loaded = read_s3off(path)
    assert np.array_equal(loaded.vertices, mesh.vertices)   # 17 digits: exact
    assert np.array_equal(loaded.triangles, mesh.triangles)
    assert loaded.euler_characteristic == 0


def test_header_format(tmp_path):
    mesh = gen_geodesic_sphere(1.0, 3)
    path = tmp_path / "s.s3off"
    write_s3off(mesh, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "S3OFF"
    assert lines[1] == f"{mesh.vertex_count} {mesh.triangle_count}"
    assert all(ln.startswith("3 ") for ln in lines[2 + mesh.vertex_count:])


def test_rejects_missing_header(tmp_path):
    path = tmp_path / "bad.s3off"
    path.write_text("OFF\n3 1\n")
    with pytest.raises(MeshError, match="header"):
        read_s3off(path)


def test_rejects_wrong_counts(tmp_path):
    path = tmp_path / "bad.s3off"
    path.write_text("S3OFF\n2 1\n1 0 0 0\n")
    with pytest.raises(MeshError, match="lines"):
        read_s3off(path)


def test_rejects_non_unit_vertex(tmp_path):
    mesh = gen_geodesic_sphere(1.0, 3)
    path = tmp_path / "scaled.s3off"
    write_s3off(mesh, path)
    text = path.read_text().splitlines()
    first = text[2].split()
    text[2] = " ".join(["1.5"] + first[1:])
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(MeshError, match="unit sphere"):
        read_s3off(path)


def test_rejects_bad_triangle_line(tmp_path):
    path = tmp_path / "bad.s3off"
    for line in ("4 0 0 0", "3 0 1", "3 0 1 x", "3 0 1 2.5"):
        path.write_text(f"S3OFF\n1 1\n1 0 0 0\n{line}\n")
        with pytest.raises(MeshError, match=f"^{path}: triangle line must "
                                            "read '3 i j k'"):
            read_s3off(path)
    path.write_text("S3OFF\n1 1\n1 0 0 0\n3 0 1 99999999999999999999\n")
    with pytest.raises(MeshError, match=f"^{path}: triangle index out of"):
        read_s3off(path)


def test_rejects_non_ascii_byte(tmp_path):
    path = tmp_path / "bad.s3off"
    path.write_bytes(b"S3OFF\n1 1\n1 0 0 0\xc3\xa9\n3 0 1 2\n")
    with pytest.raises(MeshError, match=f"^{path}: not ASCII text$"):
        read_s3off(path)
