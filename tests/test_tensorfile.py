import numpy as np
import pytest

import htsolve.hsvd as H
from htsolve.htree import build_balanced_tree, build_linear_tree
from htsolve.tensorfile import load_htensor, save_htensor


@pytest.mark.parametrize("build,d", [(build_balanced_tree, 2),
                                     (build_balanced_tree, 4),
                                     (build_linear_tree, 3),
                                     (build_linear_tree, 5)])
def test_round_trip(tmp_path, build, d):
    rng = np.random.default_rng(d)
    tree = build(d)
    dims = tuple(int(n) for n in rng.integers(2, 6, size=d))
    h = H.orthogonalize(H.random_htensor(tree, dims, 3, rng))
    path = tmp_path / "t.ht"
    save_htensor(h, path)
    back = load_htensor(path)
    assert back.tree == h.tree
    assert back.dims == h.dims
    assert back.ranks == h.ranks
    for i in range(d):
        assert np.array_equal(back.frames[i], h.frames[i])
    for node in h.transfer:
        assert np.array_equal(back.transfer[node], h.transfer[node])
    assert np.array_equal(back.root_transfer, h.root_transfer)
    # the header's orthogonal flag is never trusted: the loaded tensor is
    # not flagged, and the QR sweep gives back h's orthogonal form
    assert h.orthogonal and not back.orthogonal
    back_o = H.orthogonalize(back)
    assert back_o.ranks == h.ranks
    assert np.linalg.norm(H.to_dense(back_o) - H.to_dense(h)) <= 1e-13 * H.norm(h)


def test_round_trip_zero_tensor(tmp_path):
    tree = build_balanced_tree(3)
    h = H.zero_htensor(tree, (4, 5, 6))
    path = tmp_path / "z.ht"
    save_htensor(h, path)
    back = load_htensor(path)
    assert back.ranks == (0, 0, 0)
    assert H.norm(back) == 0.0


def test_orthogonal_field_required_but_not_trusted(tmp_path):
    rng = np.random.default_rng(8)
    h = H.random_htensor(build_balanced_tree(3), (3, 4, 3), 2, rng)
    path = tmp_path / "flag.ht"
    save_htensor(h, path)
    raw = path.read_bytes()
    assert b"orthogonal 0\n" in raw
    path.write_bytes(raw.replace(b"orthogonal 0\n", b"orthogonal 1\n", 1))
    assert not load_htensor(path).orthogonal
    path.write_bytes(raw.replace(b"orthogonal 0\n", b"", 1))
    with pytest.raises(ValueError, match="missing field 'orthogonal'"):
        load_htensor(path)


def test_save_deterministic(tmp_path):
    rng = np.random.default_rng(99)
    h = H.random_htensor(build_balanced_tree(3), (3, 4, 3), 2, rng)
    p1, p2 = tmp_path / "a.ht", tmp_path / "b.ht"
    save_htensor(h, p1)
    save_htensor(h, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_rejects_corruption(tmp_path):
    rng = np.random.default_rng(5)
    h = H.random_htensor(build_balanced_tree(2), (3, 3), 2, rng)
    path = tmp_path / "t.ht"
    save_htensor(h, path)
    raw = path.read_bytes()

    bad_magic = tmp_path / "m.ht"
    bad_magic.write_bytes(b"XTENSOR" + raw[7:])
    with pytest.raises(ValueError, match="magic"):
        load_htensor(bad_magic)

    bad_version = tmp_path / "v.ht"
    bad_version.write_bytes(raw.replace(b"HTENSOR 1", b"HTENSOR 99", 1))
    with pytest.raises(ValueError, match="version"):
        load_htensor(bad_version)

    truncated = tmp_path / "s.ht"
    truncated.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="truncated"):
        load_htensor(truncated)

    trailing = tmp_path / "l.ht"
    trailing.write_bytes(raw + b"\x00" * 8)
    with pytest.raises(ValueError, match="trailing"):
        load_htensor(trailing)

    not_tensor = tmp_path / "n.ht"
    not_tensor.write_bytes(b"hello world")
    with pytest.raises(ValueError):
        load_htensor(not_tensor)


@pytest.mark.parametrize("dims", [b"dims 3 4", b"dims 3 4 3 5"])
def test_rejects_wrong_mode_count(tmp_path, dims):
    rng = np.random.default_rng(7)
    h = H.random_htensor(build_balanced_tree(3), (3, 4, 3), 2, rng)
    path = tmp_path / "dims.ht"
    save_htensor(h, path)
    path.write_bytes(path.read_bytes().replace(b"dims 3 4 3", dims, 1))
    with pytest.raises(ValueError, match=r"dims\.ht: header has \d mode sizes "
                                         r"for a tree of order 3"):
        load_htensor(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rejects_non_finite_payload(tmp_path, bad):
    rng = np.random.default_rng(6)
    h = H.random_htensor(build_balanced_tree(3), (3, 4, 3), 2, rng)
    frames = dict(h.frames)
    frames[1] = frames[1].copy()
    frames[1][2, 0] = bad
    path = tmp_path / "bad.ht"
    save_htensor(H.HTensor(tree=h.tree, dims=h.dims, frames=frames,
                           transfer=h.transfer, root_transfer=h.root_transfer), path)
    with pytest.raises(ValueError, match=r"bad\.ht: frame 1 holds non-finite"):
        load_htensor(path)
