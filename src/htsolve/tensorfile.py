"""Versioned on-disk format for hierarchical tensors.

Layout: an ASCII header (magic ``HTENSOR``, format version, serialized
dimension tree, mode sizes, per-edge ranks in enumeration order, and the
orthogonality flag), a ``data`` marker line, then the raw float64
little-endian row-major payload: leaf frames for modes ``1..d``, transfer
tensors for the interior non-root nodes in depth-first order, and the root
transfer matrix.  Every array shape is derivable from the header, so files
are self-describing.

The orthogonality flag records whether the saved tensor was in orthogonal
form.  It is never trusted: a loaded tensor is not flagged, and the QR sweep
of :func:`htsolve.hsvd.orthogonalize` orthogonalizes it on first use.
"""

from __future__ import annotations

import io

import numpy as np

from htsolve.htree import parse_tree, serialize_tree
from htsolve.hsvd import HTensor, _node_rank_map

__all__ = ["save_htensor", "load_htensor", "FORMAT_VERSION"]

MAGIC = "HTENSOR"
FORMAT_VERSION = 1


def _payload_arrays(h: HTensor):
    tree = h.tree
    yield from (h.frames[i] for i in range(tree.d))
    for node in tree.interior_nodes():
        if node != tree.root:
            yield h.transfer[node]
    yield h.root_transfer


def save_htensor(h: HTensor, path) -> None:
    header = (
        f"{MAGIC} {FORMAT_VERSION}\n"
        f"tree {serialize_tree(h.tree)}\n"
        f"dims {' '.join(str(n) for n in h.dims)}\n"
        f"ranks {' '.join(str(r) for r in h.ranks)}\n"
        f"orthogonal {int(h.orthogonal)}\n"
        "data\n"
    )
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        for arr in _payload_arrays(h):
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_htensor(path) -> HTensor:
    """Read a tensor file, validating its header, payload size and shapes.

    Every payload entry must be finite; NaN or inf raises ``ValueError``
    naming the file, before any arithmetic sees it.

    The header must carry an integer ``orthogonal`` field, but the result
    is never flagged orthogonal (see the module docstring).
    """
    with open(path, "rb") as f:
        raw = f.read()
    head, sep, payload = raw.partition(b"data\n")
    if not sep:
        raise ValueError(f"{path}: missing data marker; not a tensor file?")
    fields = {}
    lines = head.decode("ascii").splitlines()
    if not lines:
        raise ValueError(f"{path}: empty header")
    magic, _, version = lines[0].partition(" ")
    if magic != MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if int(version) != FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported format version {version} (supported: {FORMAT_VERSION})"
        )
    for line in lines[1:]:
        key, _, value = line.partition(" ")
        fields[key] = value
    try:
        tree = parse_tree(fields["tree"])
        dims = tuple(int(n) for n in fields["dims"].split())
        ranks = tuple(int(r) for r in fields["ranks"].split())
        int(fields["orthogonal"])  # required, but never trusted
    except KeyError as exc:
        raise ValueError(f"{path}: header is missing field {exc}") from None
    if len(dims) != tree.d:
        raise ValueError(f"{path}: header has {len(dims)} mode sizes for a "
                         f"tree of order {tree.d}")

    rank_of = _node_rank_map(tree, ranks)
    buf = io.BytesIO(payload)

    def read(shape):
        count = int(np.prod(shape, initial=1))
        data = buf.read(count * 8)
        if len(data) != count * 8:
            raise ValueError(f"{path}: payload truncated")
        return np.frombuffer(data, dtype="<f8").reshape(shape).astype(np.float64)

    frames = {i: read((dims[i], rank_of[(i,)])) for i in range(tree.d)}
    transfer = {}
    for node in tree.interior_nodes():
        if node == tree.root:
            continue
        left, right = tree.child_pair(node)
        transfer[node] = read((rank_of[left], rank_of[right], rank_of[node]))
    left, right = tree.child_pair(tree.root)
    root = read((rank_of[left], rank_of[right]))
    if buf.read(1):
        raise ValueError(f"{path}: trailing bytes after payload")
    named = [(f"frame {i}", u) for i, u in frames.items()]
    named += [(f"transfer at {node}", b) for node, b in transfer.items()]
    for name, a in named + [("root transfer", root)]:
        if not np.isfinite(a).all():
            raise ValueError(f"{path}: {name} holds non-finite values")
    return HTensor(tree=tree, dims=dims, frames=frames, transfer=transfer,
                   root_transfer=root)
