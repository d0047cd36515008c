"""Binary interchange format for encoded clips (.dqm).

Little-endian layout, one header then payload:

    bytes 0..3    magic b"DQMC"
    uint32        format version (currently 1)
    uint8         kind code (see KIND_CODES)
    uint8         stats flag (1 when mean/std rows precede the payload)
    uint16        reserved, zero
    uint32        J (encoded joint count)
    uint32        D (block width)
    uint64        F (frame count)
    float64       frame time in seconds
    32 bytes      SHA-256 digest of the canonical skeleton JSON
    uint32 + n    canonical skeleton JSON, UTF-8
    [2 rows]      mean then std, each (3 + D*J) float64, when flagged
    payload       F x (3 + D*J) float64, row-major

Everything numerical is float64, so a write/read cycle is bit-exact.
"""

import hashlib
import json
import struct

import numpy as np

from .bvh import Skeleton, _atomic_write
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


def _canonical_skeleton_json(skeleton: Skeleton) -> bytes:
    return json.dumps(skeleton.to_dict(), sort_keys=True, separators=(",", ":")).encode("utf-8")


def skeleton_digest(skeleton: Skeleton) -> bytes:
    """SHA-256 over the canonical skeleton JSON; identity for loss checks."""
    return hashlib.sha256(_canonical_skeleton_json(skeleton)).digest()


def to_bytes(clip: EncodedClip) -> bytes:
    skeleton_json = _canonical_skeleton_json(clip.skeleton)
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
        skeleton_digest(clip.skeleton),
    )
    parts = [header, struct.pack("<I", len(skeleton_json)), skeleton_json]
    if clip.stats is not None:
        parts.append(np.ascontiguousarray(clip.stats.mean, dtype="<f8").tobytes())
        parts.append(np.ascontiguousarray(clip.stats.std, dtype="<f8").tobytes())
    parts.append(np.ascontiguousarray(clip.features, dtype="<f8").tobytes())
    return b"".join(parts)


def from_bytes(data: bytes) -> EncodedClip:
    if len(data) < _HEADER.size:
        raise ContainerError("truncated header")
    magic, version, kind_code, stats_flag, _reserved, joints, block_dim, frames, frame_time, digest = (
        _HEADER.unpack_from(data, 0)
    )
    if magic != MAGIC:
        raise ContainerError(f"bad magic {magic!r}")
    if version != VERSION:
        raise ContainerError(f"unsupported container version {version}")
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
    try:
        skeleton = Skeleton.from_dict(json.loads(data[offset : offset + json_len]))
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise ContainerError(f"bad skeleton block: {exc}") from None
    offset += json_len

    if skeleton_digest(skeleton) != digest:
        raise ContainerError("skeleton digest mismatch")
    if skeleton.num_encoded != joints:
        raise ContainerError("joint count disagrees with skeleton")

    width = 3 + block_dim * joints
    stats = None
    if stats_flag:
        need = 2 * width * 8
        if len(data) < offset + need:
            raise ContainerError("truncated statistics rows")
        mean = np.frombuffer(data, dtype="<f8", count=width, offset=offset).copy()
        std = np.frombuffer(data, dtype="<f8", count=width, offset=offset + width * 8).copy()
        try:
            stats = NormalizationStats(mean=mean, std=std)
        except ValueError as exc:
            raise ContainerError(f"bad statistics rows: {exc}") from None
        offset += need

    need = frames * width * 8
    if len(data) != offset + need:
        raise ContainerError("payload size disagrees with header")
    features = (
        np.frombuffer(data, dtype="<f8", count=frames * width, offset=offset)
        .reshape(frames, width)
        .copy()
    )
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
