import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridseg import cloud_io
from gridseg.errors import ContractViolationError, MalformedFileError


def _write_records(path, records):
    path.write_bytes(b"".join(struct.pack("<4f", *r) for r in records))


class TestReadKittiBin:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "scan.bin"
        p.write_bytes(b"")
        cloud = cloud_io.read_kitti_bin(p)
        assert len(cloud) == 0

    def test_single_record(self, tmp_path):
        p = tmp_path / "scan.bin"
        _write_records(p, [(1.0, 2.0, 3.0, 0.5)])
        cloud = cloud_io.read_kitti_bin(p)
        assert cloud.points.shape == (1, 3)
        np.testing.assert_array_equal(cloud.points[0], [1.0, 2.0, 3.0])

    def test_truncated_file_is_malformed(self, tmp_path):
        p = tmp_path / "scan.bin"
        p.write_bytes(b"\x00" * 24)
        with pytest.raises(MalformedFileError):
            cloud_io.read_kitti_bin(p)

    def test_nonfinite_rows_kept_in_file_order(self, tmp_path):
        p = tmp_path / "scan.bin"
        nan, inf = float("nan"), float("inf")
        records = [
            (1.0, 0.0, 0.0, 0.0),
            (nan, 0.0, 0.0, 0.0),
            (2.0, 0.0, inf, 0.0),
            (3.0, 0.0, 0.0, nan),
        ]
        _write_records(p, records)
        cloud = cloud_io.read_kitti_bin(p)
        assert len(cloud) == 4
        np.testing.assert_array_equal(cloud.points, [r[:3] for r in records])

    @given(st.binary(max_size=256))
    def test_parsing_is_total(self, tmp_path_factory, data):
        p = tmp_path_factory.mktemp("total") / "scan.bin"
        p.write_bytes(data)
        if len(data) % 16:
            with pytest.raises(MalformedFileError):
                cloud_io.read_kitti_bin(p)
        else:
            cloud = cloud_io.read_kitti_bin(p)
            assert len(cloud) == len(data) // 16
            want = np.frombuffer(data, dtype="<f4").reshape(-1, 4)
            np.testing.assert_array_equal(cloud.points, want[:, :3])


class TestReadSemanticLabels:
    def test_low_16_bits(self, tmp_path):
        p = tmp_path / "scan.label"
        p.write_bytes(struct.pack("<I", 0x00000028))
        assert cloud_io.read_semantic_labels(p).tolist() == [40]

    def test_instance_bits_discarded(self, tmp_path):
        p = tmp_path / "scan.label"
        p.write_bytes(struct.pack("<I", 0x00120028))
        assert cloud_io.read_semantic_labels(p).tolist() == [40]

    def test_empty(self, tmp_path):
        p = tmp_path / "scan.label"
        p.write_bytes(b"")
        assert len(cloud_io.read_semantic_labels(p)) == 0

    def test_odd_length(self, tmp_path):
        p = tmp_path / "scan.label"
        p.write_bytes(b"\x00" * 6)
        with pytest.raises(MalformedFileError):
            cloud_io.read_semantic_labels(p)


class TestInjectSyntheticSeed:
    def test_zero_radius_single_point(self):
        cloud = cloud_io.PointCloud(points=np.zeros((0, 3)))
        out, info = cloud_io.inject_synthetic_seed(cloud, radius=0.0, depth=1.723)
        assert info.count == 1
        np.testing.assert_array_equal(out.points, [[0.0, 0.0, -1.723]])

    def test_lattice_count_matches_brute_force(self):
        # oracle: double loop over the step range, same disk test
        radius, spacing = 2.7, 0.3
        r2 = (radius / spacing) ** 2
        expected = sum(
            1
            for i in range(-9, 10)
            for j in range(-9, 10)
            if i * i + j * j <= r2
        )
        cloud = cloud_io.PointCloud(points=np.zeros((0, 3)))
        _, info = cloud_io.inject_synthetic_seed(cloud, radius, 1.723, spacing)
        assert info.count == expected

    def test_depth_exact_and_originals_unchanged(self, rng):
        pts = rng.normal(size=(50, 3))
        cloud = cloud_io.PointCloud(points=pts.copy())
        out, info = cloud_io.inject_synthetic_seed(cloud, 2.7, 1.723, 0.3)
        np.testing.assert_array_equal(out.points[:50], pts)
        assert np.all(out.points[50:, 2] == -1.723)
        assert len(out) == 50 + info.count

    def test_preconditions(self):
        cloud = cloud_io.PointCloud(points=np.zeros((0, 3)))
        with pytest.raises(ContractViolationError):
            cloud_io.inject_synthetic_seed(cloud, -1.0, 1.0)
        with pytest.raises(ContractViolationError):
            cloud_io.inject_synthetic_seed(cloud, 1.0, 0.0)
        with pytest.raises(ContractViolationError):
            cloud_io.inject_synthetic_seed(cloud, 1.0, 1.0, spacing=0.0)


class TestStripSynthetic:
    def test_truncates_tail(self):
        mask = np.arange(100) % 2 == 0
        info = cloud_io.SyntheticSeedInfo(count=10, depth=1)
        out = cloud_io.strip_synthetic(mask, info)
        assert len(out) == 90
        np.testing.assert_array_equal(out, mask[:90])

    def test_zero_count_identity(self):
        mask = np.ones(5, dtype=bool)
        info = cloud_io.SyntheticSeedInfo(count=0, depth=1)
        np.testing.assert_array_equal(cloud_io.strip_synthetic(mask, info), mask)

    def test_count_exceeds_length(self):
        info = cloud_io.SyntheticSeedInfo(count=6, depth=1)
        with pytest.raises(ContractViolationError):
            cloud_io.strip_synthetic(np.ones(5, dtype=bool), info)

    def test_inject_then_strip_is_identity(self, rng):
        pts = rng.normal(size=(30, 3))
        cloud = cloud_io.PointCloud(points=pts)
        out, info = cloud_io.inject_synthetic_seed(cloud, 1.0, 1.723, 0.3)
        mask = rng.random(len(out)) < 0.5
        stripped = cloud_io.strip_synthetic(mask, info)
        np.testing.assert_array_equal(stripped, mask[:30])


class TestMaskIO:
    def test_explicit_bytes(self, tmp_path):
        p = tmp_path / "m.mask"
        cloud_io.write_mask(p, np.array([True, False, True]))
        assert p.read_bytes() == b"\x01\x00\x01"

    def test_empty(self, tmp_path):
        p = tmp_path / "m.mask"
        cloud_io.write_mask(p, np.zeros(0, dtype=bool))
        assert p.read_bytes() == b""
        assert len(cloud_io.read_mask(p)) == 0

    @given(st.lists(st.booleans(), max_size=200))
    def test_round_trip(self, tmp_path_factory, bits):
        p = tmp_path_factory.mktemp("roundtrip") / "m.mask"
        mask = np.array(bits, dtype=bool)
        cloud_io.write_mask(p, mask)
        np.testing.assert_array_equal(cloud_io.read_mask(p), mask)

    def test_write_xyz(self, tmp_path):
        cloud = cloud_io.PointCloud(points=np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
        p = tmp_path / "cloud.xyz"
        cloud_io.write_xyz(p, cloud, np.array([True, False]))
        lines = p.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[0].split()[-1] == "1"
        assert lines[1].split()[-1] == "0"

    def test_write_xyz_bytes_equal_the_per_point_format(self, tmp_path):
        # longer than one write chunk, so the chunk boundary is covered
        rng = np.random.default_rng(4)
        pts = np.vstack(
            [
                rng.normal(0, 50, size=(cloud_io._XYZ_CHUNK + 200, 3)),
                [-0.0, 0.0, -1e-9],
                [1e17, -3.25e12, 123456.7890125],
                [-0.0000005, 0.0000005, -2.5],
            ]
        )
        mask = rng.random(len(pts)) < 0.5
        p = tmp_path / "cloud.xyz"
        cloud_io.write_xyz(p, cloud_io.PointCloud(points=pts), mask)
        want = "".join(f"{x:.6f} {y:.6f} {z:.6f} {int(g)}\n" for (x, y, z), g in zip(pts, mask))
        assert p.read_bytes() == want.encode()
        assert b"-0.000000" in p.read_bytes()
