"""The loss zoo: what each term penalizes and how the gradients check out.

A prediction is just an encoded frame that need not sit on the unit
manifold or respect the skeleton. Each loss isolates one failure mode:
MSE for bulk deviation, the rotational term for orientation error, the
positional term for where joints end up, the offset term for bone
stretching, and the regularizer for drift off the unit conditions.
"""

from pathlib import Path

import numpy as np

from dqmotion import bvh
from dqmotion.encoding import EncodedClip, ReprKind, encode
from dqmotion.kinematics import clip_to_local
from dqmotion.losses import LossWeights, grad_check, loss_total

DATA = Path(__file__).parent / "data"
rng = np.random.default_rng(42)

clip = bvh.parse_file(DATA / "walk.bvh")
poses = clip_to_local(clip)
truth = encode(poses, ReprKind.DUALQUAT, clip.frame_time)

print("=== a perfect prediction scores zero everywhere ===")
report = loss_total(truth, truth)
print(report.to_text())

print()
print("=== a noisy prediction ===")
noisy_features = truth.features + rng.normal(scale=0.02, size=truth.features.shape)
noisy = EncodedClip(ReprKind.DUALQUAT, truth.skeleton, truth.frame_time, noisy_features)
report = loss_total(noisy, truth)
print(report.to_text())
print("worst three joints by positional error:",
      np.argsort(report.per_joint["positional"])[-3:][::-1])

print()
print("=== weights are configurable (defaults shown) ===")
w = LossWeights()
print(f"mse={w.mse}  rotational={w.rotational:.4f}  positional={w.positional:.4f}  "
      f"offset={w.offset}  regularization={w.regularization}")

print()
print("=== gradient checking (the whole noisy clip) ===")
for name in ("mse", "rotational_local", "positional", "offset", "regularization"):
    result = grad_check(name, noisy, truth)
    flag = " (non-smooth point)" if result.nondifferentiable else ""
    print(f"  {name:18s} max relative deviation {result.max_relative_deviation:.2e}{flag}")
