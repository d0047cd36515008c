"""The skeleton's topology table and the hierarchy walks that read it:
read-only cached views, the stack-based parser and writer on deep chains,
and the writer on skeletons that are not listed depth-first."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dqmotion import bvh, container, dualquat
from dqmotion.bvh import JointSpec, MotionClip, Skeleton
from dqmotion.cli import main
from dqmotion.encoding import EncodedClip, ReprKind, decode, encode
from dqmotion.kinematics import clip_to_local, current_chain, stack_poses
from dqmotion.losses import GRAD_LOSSES, _analytic_gradient, loss_total
from dqmotion.metrics import metric_report, pose_positions

import oracles
import pose_oracles

ROOT_CHANNELS = ("Xposition", "Yposition", "Zposition", "Zrotation", "Yrotation", "Xrotation")


def bvh_names(skeleton: Skeleton) -> list[str]:
    """Each joint's name as BVH text reads back: end sites are named after
    their parent."""
    return [
        skeleton.joints[j.parent].name + "_end" if j.is_end_site else j.name
        for j in skeleton.joints
    ]


def channels_by_name(clip: MotionClip) -> dict:
    """Joint name -> (F, C_j) channel values of that joint."""
    out, column = {}, 0
    for name, joint in zip(bvh_names(clip.skeleton), clip.skeleton.joints):
        out[name] = clip.frames[:, column : column + len(joint.channels)]
        column += len(joint.channels)
    return out


def random_frames(rng, skeleton: Skeleton, frames: int) -> np.ndarray:
    values = rng.uniform(-180.0, 180.0, size=(frames, skeleton.channel_count))
    values[:, :3] = rng.uniform(-10.0, 10.0, size=(frames, 3))  # root position
    return values


def assert_write_parse_keeps_channels(clip: MotionClip):
    back = bvh.parse(bvh.write(clip))
    want, got = channels_by_name(clip), channels_by_name(back)
    assert set(got) == set(want)
    for name, values in want.items():
        assert got[name].shape == values.shape, name
        assert np.max(np.abs(got[name] - values), initial=0.0) <= 1e-6, name
    names = bvh_names(clip.skeleton)
    parent_of = {n: None if j.parent is None else names[j.parent]
                 for n, j in zip(names, clip.skeleton.joints)}
    for name, joint in zip(bvh_names(back.skeleton), back.skeleton.joints):
        parent = None if joint.parent is None else back.skeleton.joints[joint.parent].name
        assert parent == parent_of[name], name


def not_depth_first_skeleton(rng, n_joints=24) -> Skeleton:
    """A random tree that BVH text, which lists joints depth-first, lists
    in another order."""
    while True:
        skeleton = oracles.random_skeleton(rng, n_joints, end_sites=True)
        text = bvh.write(MotionClip(skeleton, 1 / 30, np.zeros((1, skeleton.channel_count))))
        if bvh.parse(text).skeleton.names != bvh_names(skeleton):
            return skeleton


class TestSkeletonTable:
    def test_views_are_built_once_and_read_only(self, rng):
        skeleton = oracles.random_skeleton(rng, 12, end_sites=True)
        for name in ("parent_indices", "offsets", "encoded_parents"):
            view = getattr(skeleton, name)
            assert getattr(skeleton, name) is view, name
            with pytest.raises(ValueError):
                view[0] = 7
        for name in ("levels", "encoded_levels"):
            for rows, parent_rows in getattr(skeleton, name):
                with pytest.raises(ValueError):
                    rows[0] = 0
                with pytest.raises(ValueError):
                    parent_rows[0] = 0
        assert isinstance(skeleton.joints, tuple)
        with pytest.raises(ValueError):
            skeleton.joints[1].offset[0] = 7

    def test_joints_are_frozen(self, fixtures_dir):
        skeleton = bvh.parse_file(fixtures_dir / "humanoid.bvh").skeleton
        parents = skeleton.parent_indices.copy()
        for field, value in (("parent", 0), ("name", "x"), ("offset", np.zeros(3)),
                             ("channels", ()), ("is_end_site", True)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(skeleton.joints[2], field, value)
        assert skeleton.joints[2].parent == 1
        assert np.array_equal(skeleton.parent_indices, parents)

    def test_levels_cover_every_joint_once(self, rng):
        skeleton = oracles.random_skeleton(rng, 40, end_sites=True)
        for parents, levels in (
            (skeleton.parent_indices, skeleton.levels),
            (skeleton.encoded_parents, skeleton.encoded_levels),
        ):
            rows = np.concatenate([r for r, _ in levels])
            assert sorted(rows) == list(range(1, len(parents)))
            seen = {0}
            for r, p in levels:
                assert np.array_equal(parents[r], p)
                assert set(p) <= seen  # every parent sits on a shallower level
                seen |= set(r)

    def test_views_unchanged_by_every_layer(self, rng):
        skeleton = oracles.random_skeleton(rng, 12, end_sites=True)

        def snapshot():
            arrays = [skeleton.parent_indices, skeleton.offsets, skeleton.encoded_parents]
            for levels in (skeleton.levels, skeleton.encoded_levels):
                arrays += [a for level in levels for a in level]
            return [a.copy() for a in arrays]

        before = snapshot()
        poses = stack_poses(oracles.random_poses(rng, skeleton, 6))
        other = stack_poses(oracles.random_poses(rng, skeleton, 6))
        metric_report(poses, other)
        for kind in (ReprKind.DUALQUAT, ReprKind.QUATERNIONS):
            truth = encode(poses, kind)
            pred = EncodedClip(kind, skeleton, truth.frame_time, encode(other, kind).features)
            loss_total(pred, truth)
            names = GRAD_LOSSES if kind is ReprKind.DUALQUAT else GRAD_LOSSES[:3]
            for name in names:
                _analytic_gradient(name, pred, truth, skeleton)
        for got, want in zip(snapshot(), before):
            assert np.array_equal(got, want)


class TestDeepChain:
    """A chain deeper than the interpreter's recursion limit."""

    JOINTS = 1500

    @pytest.fixture
    def chain_file(self, tmp_path, rng):
        lines = ["HIERARCHY", "ROOT j0", "{", "OFFSET 0 0 0", "CHANNELS 6 " + " ".join(ROOT_CHANNELS)]
        for i in range(1, self.JOINTS):
            lines += [f"JOINT j{i}", "{", "OFFSET 0 0.1 0", "CHANNELS 3 Zrotation Yrotation Xrotation"]
        lines += ["End Site", "{", "OFFSET 0 0.1 0", "}"] + ["}"] * self.JOINTS
        frames = rng.uniform(-5.0, 5.0, size=(2, 3 + 3 * self.JOINTS))
        lines += ["MOTION", "Frames: 2", "Frame Time: 0.033333"]
        lines += [" ".join(f"{v:.6f}" for v in row) for row in frames]
        path = tmp_path / "chain.bvh"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_inspect(self, capsys, chain_file):
        assert main(["inspect", str(chain_file)]) == 0
        assert capsys.readouterr().out.splitlines()[0].startswith(f"joints: {self.JOINTS + 1},")

    def test_encode_decode(self, capsys, tmp_path, chain_file):
        encoded, decoded = tmp_path / "chain.dqm", tmp_path / "back.bvh"
        assert main(["encode", str(chain_file), "--repr", "dq", "-o", str(encoded)]) == 0
        assert main(["decode", str(encoded), "-o", str(decoded)]) == 0
        original, back = bvh.parse_file(chain_file), bvh.parse_file(decoded)
        assert back.skeleton == original.skeleton
        assert np.max(np.abs(back.frames - original.frames)) <= 1e-5


class TestWriterOrder:
    """Skeletons listed in a topological order that is not depth-first."""

    def test_write_parse_keeps_channels(self, rng):
        skeleton = not_depth_first_skeleton(rng)
        assert_write_parse_keeps_channels(MotionClip(skeleton, 1 / 30, random_frames(rng, skeleton, 5)))

    def test_cli_decode_positions(self, capsys, tmp_path, rng):
        skeleton = not_depth_first_skeleton(rng)
        encoded = encode(stack_poses(oracles.random_poses(rng, skeleton, 5)), ReprKind.DUALQUAT)
        path, out = tmp_path / "tree.dqm", tmp_path / "tree.bvh"
        container.write_file(path, encoded)
        assert main(["decode", str(path), "-o", str(out)]) == 0

        # per joint name, its (F, 3) positions
        want = dict(zip(bvh_names(skeleton), pose_positions(decode(encoded)).swapaxes(0, 1)))
        written = bvh.parse_file(out)
        got = dict(zip(written.skeleton.names, pose_positions(clip_to_local(written)).swapaxes(0, 1)))
        assert set(got) == set(want)
        for name, positions in want.items():
            assert np.max(np.abs(got[name] - positions)) <= 1e-5, name


@st.composite
def skeletons(draw) -> Skeleton:
    """A skeleton in an arbitrary topological order, with end sites under
    any joint; offsets and rotation orders come from a drawn seed."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    joints = [JointSpec("root", None, rng.uniform(-1.0, 1.0, 3), ROOT_CHANNELS)]
    with_end_site = set()
    for i in range(1, draw(st.integers(1, 12))):
        parent = draw(st.sampled_from([k for k, j in enumerate(joints) if not j.is_end_site]))
        offset = rng.uniform(-1.0, 1.0, 3)
        if parent not in with_end_site and draw(st.booleans()):
            with_end_site.add(parent)
            joints.append(JointSpec(f"end{i}", parent, offset, (), is_end_site=True))
        else:
            order = oracles.ORDER_POOL[rng.integers(len(oracles.ORDER_POOL))]
            joints.append(JointSpec(f"joint{i}", parent, offset, tuple(f"{a}rotation" for a in order)))
    return Skeleton(joints)


@settings(max_examples=40, deadline=None)
@given(skeleton=skeletons(), seed=st.integers(0, 2**32 - 1))
def test_any_topological_order(skeleton, seed):
    rng = np.random.default_rng(seed)
    poses = oracles.random_poses(rng, skeleton, 3)
    chain = current_chain(skeleton, stack_poses(poses).joint_rotations)
    assert np.max(np.abs(dualquat.translation(chain) - pose_oracles.pose_positions(poses))) <= 1e-9
    assert_write_parse_keeps_channels(MotionClip(skeleton, 1 / 30, random_frames(rng, skeleton, 3)))
