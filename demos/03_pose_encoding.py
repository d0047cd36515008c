"""Pose representations: six encodings of the same motion.

Every encoding is a flat (frames x width) matrix with the root translation
in the first three columns and one fixed-width block per joint. The
dual-quaternion kind is the star: it stores each joint's rotation AND
root-relative position in a single unit 8-vector, losslessly invertible
back to the original animation.
"""

import sys
from pathlib import Path

import numpy as np

from dqmotion import bvh, dualquat, quat
from dqmotion.encoding import ReprKind, antipodal_correct, decode, encode, fit_stats, standardize
from dqmotion.kinematics import clip_to_local, local_to_clip

DATA = Path(__file__).parent / "data"

clip = bvh.parse_file(DATA / "walk.bvh")
poses = clip_to_local(clip)
joints = clip.skeleton.num_encoded

print("=== feature widths (3 + D * J, J =", joints, "joints) ===")
for kind in ReprKind:
    encoded = encode(poses, kind, clip.frame_time)
    print(f"  {kind.value:22s} D={kind.block_dim}  width={encoded.width}")

print()
print("=== the dual-quaternion encoding ===")
dq_clip = encode(poses, ReprKind.DUALQUAT, clip.frame_time)
blocks = dq_clip.joint_blocks()
norm_res, ortho_res = dualquat.unitary_residual(blocks)
print(f"unit residuals over all blocks: |norm| <= {np.max(np.abs(norm_res)):.2e}, "
      f"|ortho| <= {np.max(np.abs(ortho_res)):.2e}")
dots = np.sum(blocks[:-1] * blocks[1:], axis=-1)
print(f"consecutive-frame continuity: min dot = {np.min(dots):+.4f} (>= 0 by construction)")

# positions fall straight out of the representation, no kinematics needed;
# check them against forward kinematics written here with quaternions only:
# a joint sits at its parent's position plus the offset turned by the
# parent's accumulated rotation (the sandwich q * (0, offset) * q^*)
frame = 5
positions = dualquat.translation(blocks[frame])
skeleton = clip.skeleton
accumulated = np.empty((skeleton.num_joints, 4))
fk_positions = np.zeros((skeleton.num_joints, 3))
for idx, joint in enumerate(skeleton.joints):
    local = poses[frame].joint_rotations[idx]
    if joint.parent is None:
        accumulated[idx] = local
        continue
    turn = accumulated[joint.parent]
    moved = quat.mul(quat.mul(turn, np.concatenate([[0.0], joint.offset])), quat.conjugate(turn))
    fk_positions[idx] = fk_positions[joint.parent] + moved[1:]
    accumulated[idx] = quat.mul(turn, local)
deviation = np.max(np.abs(positions - fk_positions[list(skeleton.encoded_indices)]))
print(f"frame {frame}: positions from blocks match forward kinematics within {deviation:.2e}")
if deviation > 1e-9:
    sys.exit(f"dual-quaternion positions disagree with forward kinematics by {deviation:.2e}")

print()
print("=== antipodal sign correction ===")
corrupted = blocks.copy()
corrupted[8] *= -1.0
corrupted[9] *= -1.0
dots = np.sum(corrupted[:-1] * corrupted[1:], axis=-1)
print(f"after injecting two flipped frames: min dot = {np.min(dots):+.4f}")
repaired = antipodal_correct(corrupted)
dots = np.sum(repaired[:-1] * repaired[1:], axis=-1)
print(f"after correction:                   min dot = {np.min(dots):+.4f}")
print("matches the original encoding:", bool(np.max(np.abs(repaired - blocks)) < 1e-12))

print()
print("=== lossless round trip ===")
decoded = decode(dq_clip)
back = local_to_clip(decoded, clip.skeleton, clip.frame_time)
delta = np.abs(back.frames - clip.frames)
delta = np.minimum(delta, np.abs(delta - 360.0))
print(f"max channel deviation after BVH -> encode -> decode -> BVH: {np.max(delta):.2e} degrees")

print()
print("=== standardization for training ===")
stats = fit_stats(dq_clip)
standardized = standardize(dq_clip, stats)
print(f"column means after standardizing: max |mean| = "
      f"{np.max(np.abs(standardized.features.mean(axis=0))):.2e}")
print(f"stored statistics: width {stats.width}, smallest std {np.min(stats.std):.2e}")
