"""Binary interchange format for encoded clips (.dqm).

Little-endian layout, one header then payload:

    bytes 0..3    magic b"DQMC"
    uint32        format version (currently 1)
    uint8         kind code (see KIND_CODES)
    uint8         stats flag (1 when mean/std rows precede the payload, else 0)
    uint16        reserved, zero (anything else is a ContainerError)
    uint32        J (encoded joint count)
    uint32        D (block width)
    uint64        F (frame count)
    float64       frame time in seconds
    32 bytes      SHA-256 digest of the skeleton block
    uint32 + n    skeleton block: the skeleton as JSON, UTF-8
    [2 rows]      mean then std, each (3 + D*J) float64, when flagged
    payload       F x (3 + D*J) float64, row-major

Everything numerical is float64, so a write/read cycle is bit-exact.

The digest is the SHA-256 of the block as stored. `to_bytes` writes the
block canonically (`Skeleton.canonical_json`: sorted keys, no spaces), so
equal skeletons get equal digests. `from_bytes` checks the digest against
the stored bytes before it parses them. It therefore accepts a block that
is not canonical if the digest is that block's own, and it rejects a block
whose digest matches only the block's canonical re-serialization. A block
that is not UTF-8, or whose joint fields do not have their JSON types
(`Skeleton.from_dict`), is a `ContainerError`.

A process builds one `Skeleton` per distinct verified block: after the
digest check, `from_bytes` takes the skeleton from a memo keyed on the
block bytes and bounded to `bvh.SKELETON_MEMO_SIZE` blocks, so reads of clips
that share a skeleton share one object and its derived views. A block
that fails to parse is not memoized; it raises on every read.
"""

import functools
import hashlib
import json
import struct

import numpy as np

from .bvh import SKELETON_MEMO_SIZE, Skeleton, _atomic_write
from .encoding import EncodedClip, NormalizationStats, ReprKind
from .errors import ContainerError

MAGIC = b"DQMC"
VERSION = 1

_HEADER = struct.Struct("<4sIBBHIIQd32s")

KIND_CODES = {
    ReprKind.POSITIONS: 0,
    ReprKind.QUATERNIONS: 1,
    ReprKind.ORTHO6D: 2,
    ReprKind.QUATERNIONS_POSITIONS: 3,
    ReprKind.DUALQUAT: 4,
    ReprKind.ORTHO6D_POSITIONS: 5,
}
_KINDS_BY_CODE = {code: kind for kind, code in KIND_CODES.items()}


def skeleton_digest(skeleton: Skeleton) -> bytes:
    """SHA-256 over the canonical skeleton JSON; identity for loss checks."""
    return hashlib.sha256(skeleton.canonical_json).digest()


@functools.lru_cache(maxsize=SKELETON_MEMO_SIZE)
def _skeleton(block: bytes) -> Skeleton:
    """The skeleton of a verified block; `Skeleton` is immutable, so reads
    share it."""
    try:
        return Skeleton.from_dict(json.loads(block.decode("utf-8")))
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise ContainerError(f"bad skeleton block: {exc}") from None


def to_bytes(clip: EncodedClip) -> bytes:
    skeleton_json = clip.skeleton.canonical_json
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        KIND_CODES[clip.kind],
        1 if clip.stats is not None else 0,
        0,
        clip.joint_count,
        clip.kind.block_dim,
        clip.num_frames,
        clip.frame_time,
        hashlib.sha256(skeleton_json).digest(),
    )
    blocks = [clip.features] if clip.stats is None else [clip.stats.mean, clip.stats.std, clip.features]
    # `join` copies each block once, from a byte view of its little-endian values.
    views = [memoryview(np.ascontiguousarray(block, dtype="<f8")).cast("B") for block in blocks]
    return b"".join([header, struct.pack("<I", len(skeleton_json)), skeleton_json, *views])


def from_bytes(data: bytes) -> EncodedClip:
    if len(data) < _HEADER.size:
        raise ContainerError("truncated header")
    magic, version, kind_code, stats_flag, reserved, joints, block_dim, frames, frame_time, digest = (
        _HEADER.unpack_from(data, 0)
    )
    if magic != MAGIC:
        raise ContainerError(f"bad magic {magic!r}")
    if version != VERSION:
        raise ContainerError(f"unsupported container version {version}")
    if stats_flag not in (0, 1):
        raise ContainerError(f"bad stats flag {stats_flag}")
    if reserved != 0:
        raise ContainerError(f"reserved header field is {reserved}, not zero")
    if kind_code not in _KINDS_BY_CODE:
        raise ContainerError(f"unknown kind code {kind_code}")
    kind = _KINDS_BY_CODE[kind_code]
    if kind.block_dim != block_dim:
        raise ContainerError("block width disagrees with kind")

    offset = _HEADER.size
    if len(data) < offset + 4:
        raise ContainerError("truncated skeleton block")
    (json_len,) = struct.unpack_from("<I", data, offset)
    offset += 4
    if len(data) < offset + json_len:
        raise ContainerError("truncated skeleton block")
    block = bytes(data[offset : offset + json_len])  # hashable for the memo
    if hashlib.sha256(block).digest() != digest:
        raise ContainerError("skeleton digest mismatch")
    skeleton = _skeleton(block)
    offset += json_len

    if skeleton.num_encoded != joints:
        raise ContainerError("joint count disagrees with skeleton")

    width = 3 + block_dim * joints
    stats = None
    if stats_flag:
        need = 2 * width * 8
        if len(data) < offset + need:
            raise ContainerError("truncated statistics rows")
        mean = np.frombuffer(data, dtype="<f8", count=width, offset=offset)
        std = np.frombuffer(data, dtype="<f8", count=width, offset=offset + width * 8)
        try:
            stats = NormalizationStats(mean=mean, std=std)
        except ValueError as exc:
            raise ContainerError(f"bad statistics rows: {exc}") from None
        offset += need

    need = frames * width * 8
    if len(data) != offset + need:
        raise ContainerError("payload size disagrees with header")
    features = np.frombuffer(data, dtype="<f8", count=frames * width, offset=offset).reshape(frames, width)
    try:
        return EncodedClip(
            kind=kind,
            skeleton=skeleton,
            frame_time=frame_time,
            features=features,
            stats=stats,
        )
    except Exception as exc:
        raise ContainerError(f"inconsistent container: {exc}") from None


def write_file(path, clip: EncodedClip):
    """Atomic write: the target path appears only once fully written."""
    _atomic_write(path, to_bytes(clip))


def read_file(path) -> EncodedClip:
    with open(path, "rb") as handle:
        return from_bytes(handle.read())
