"""Evaluating generated motion against ground truth.

All three metrics work on root-centered joint positions from forward
kinematics, so global translation never contaminates a pose score. NPSS
compares temporal power spectra, which makes it robust against time
shifts that would wreck a frame-wise metric.
"""

from pathlib import Path

import numpy as np

from dqmotion import bvh
from dqmotion.kinematics import LocalPose, clip_to_local
from dqmotion.metrics import acceleration_of, metric_report, npss_between

DATA = Path(__file__).parent / "data"
rng = np.random.default_rng(7)

clip = bvh.parse_file(DATA / "walk.bvh")
truth = clip_to_local(clip)

print("=== jittery prediction vs smooth truth ===")
rotations = truth.joint_rotations + rng.normal(scale=0.02, size=truth.joint_rotations.shape)
rotations /= np.linalg.norm(rotations, axis=-1, keepdims=True)
jittery = LocalPose(truth.skeleton, truth.root_translation, rotations)
report = metric_report(jittery, truth, frame_time=clip.frame_time)
print(report.to_json())

print()
print("=== root translation never matters ===")
moved = LocalPose(truth.skeleton, truth.root_translation + rng.uniform(-99, 99, (len(truth), 3)),
                  truth.joint_rotations)
print("euclidean after randomizing root translation:",
      metric_report(moved, truth).euclidean)

print()
print("=== what acceleration measures ===")
t = np.arange(30, dtype=float)
still = np.zeros((30, 1, 3))
gliding = np.stack([0.3 * t, np.zeros(30), np.zeros(30)], axis=-1).reshape(30, 1, 3)
bouncing = np.zeros((30, 1, 3))
bouncing[:, 0, 1] = np.sin(t)
print(f"  still:    {acceleration_of(still):.4f}")
print(f"  gliding:  {acceleration_of(gliding):.4f}   (constant velocity is not jitter)")
print(f"  bouncing: {acceleration_of(bouncing):.4f}")

print()
print("=== what NPSS sees ===")
base = np.sin(2 * np.pi * 3 * t / 30.0).reshape(-1, 1)
same_shifted = np.roll(base, 5, axis=0)
double_speed = np.sin(2 * np.pi * 6 * t / 30.0).reshape(-1, 1)
print(f"  shifted copy:     {npss_between(same_shifted, base):.6f}   (spectra agree)")
print(f"  doubled frequency: {npss_between(double_speed, base):.6f}   (spectra disagree)")
