"""Bad input surfaces as a `MotionError` and as a CLI exit code in 0-3,
never as a traceback: the BVH parser's and the container reader's known
holes, then property tests over mutated fixture text and container bytes."""

import contextlib
import io
import re
import string
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dqmotion import bvh, container
from dqmotion.cli import main
from dqmotion.encoding import EncodedClip, ReprKind, encode, fit_stats, standardize
from dqmotion.errors import BvhSyntaxError, ContainerError, MotionError
from dqmotion.kinematics import clip_to_local

from conftest import FIXTURES, fixture_corpus

HUMANOID = (FIXTURES / "humanoid.bvh").read_bytes()
EXIT_CODES = {0, 1, 2, 3}


def quiet_main(*argv) -> int:
    """`main` with its output swallowed, for tests that only need the code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([str(a) for a in argv])


def container_bytes(kind: ReprKind, standardized: bool = False) -> bytes:
    clip = bvh.parse(HUMANOID)
    encoded = encode(clip_to_local(clip)[:3], kind, clip.frame_time)
    if standardized:
        encoded = standardize(encoded, fit_stats(encoded))
    return container.to_bytes(encoded)


def with_skeleton_block(data: bytes, block: bytes) -> bytes:
    """Container `data` with its skeleton JSON replaced by `block`."""
    at = container._HEADER.size
    (length,) = struct.unpack_from("<I", data, at)
    return data[:at] + struct.pack("<I", len(block)) + block + data[at + 4 + length :]


class TestBvhInput:
    @pytest.mark.parametrize("frames", [17, 10**15])
    def test_frame_count_beyond_the_rows(self, tmp_path, frames):
        # humanoid.bvh holds 16 rows; a count the rows cannot fill fails at
        # the last line, however large, and allocates nothing for it.
        text = re.sub(rb"Frames:\s*\d+", b"Frames: %d" % frames, HUMANOID)
        with pytest.raises(BvhSyntaxError) as info:
            bvh.parse(text)
        assert info.value.message == "unexpected end of file"
        assert info.value.line == len(HUMANOID.splitlines())
        path = tmp_path / "overcount.bvh"
        path.write_bytes(text)
        assert quiet_main("inspect", path) == 3

    def test_invalid_utf8(self, tmp_path):
        with pytest.raises(BvhSyntaxError) as info:
            bvh.parse(b"HIERARCHY\n\xff\n")
        assert info.value.line == 2
        # mid-line, after a byte-order mark and CRLF line ends
        at = HUMANOID.index(b"JOINT") + 2
        data = b"\xef\xbb\xbf" + HUMANOID[:at].replace(b"\n", b"\r\n") + b"\xc3(" + HUMANOID[at:]
        with pytest.raises(BvhSyntaxError) as info:
            bvh.parse(data)
        assert info.value.line == HUMANOID[:at].count(b"\n") + 1
        path = tmp_path / "latin1.bvh"
        path.write_bytes(data)
        assert quiet_main("inspect", path) == 3


class TestContainerInput:
    def test_deeply_nested_skeleton_block(self, tmp_path):
        data = with_skeleton_block(container_bytes(ReprKind.DUALQUAT), b"[" * 200_000)
        with pytest.raises(ContainerError):
            container.from_bytes(data)
        path = tmp_path / "nested.dqm"
        path.write_bytes(data)
        assert quiet_main("validate", path) == 3


class TestNumericRange:
    """Finite values whose squares overflow are a format error (exit 3),
    not an inf or NaN written out under exit 0."""

    @pytest.mark.parametrize("kind", [k for k in ReprKind if k.has_rotations])
    def test_huge_container_features(self, tmp_path, kind):
        clip = container.from_bytes(container_bytes(kind))
        features = clip.features.copy()
        features[:, 3:] *= 1e200
        path, out = tmp_path / "huge.dqm", tmp_path / "out.bvh"
        container.write_file(path, EncodedClip(kind, clip.skeleton, clip.frame_time, features))
        assert quiet_main("decode", path, "-o", out) == 3
        assert not out.exists()
        if kind.sign_sensitive:
            assert quiet_main("validate", path) == 3

    def test_huge_offsets(self, tmp_path):
        path = tmp_path / "huge.bvh"
        path.write_bytes(re.sub(rb"OFFSET \S+", b"OFFSET 1e300", HUMANOID))
        assert quiet_main("inspect", path) == 0
        assert quiet_main("encode", path, "-o", tmp_path / "out.dqm") == 3
        assert quiet_main("roundtrip", path) == 3


# ---------------------------------------------------------------------------
# fuzzing
# ---------------------------------------------------------------------------

#: Fragments that reach past the first syntax check more often than
#: random bytes do.
BVH_FRAGMENTS = [
    b"\n", b" ", b"{", b"}", b"ROOT r", b"JOINT j", b"End Site", b"OFFSET 0 0 0",
    b"CHANNELS 3 Zrotation Yrotation Xrotation", b"CHANNELS 1 Xposition", b"MOTION",
    b"Frames: 99999999999", b"Frames: -1", b"Frame Time: 0", b"1e400", b"nan", b"-",
    b"\xff", b"\xef\xbb\xbf", b"\r", b"\t",
]

EDITS = st.lists(
    st.tuples(
        st.integers(0, 1 << 20),  # where, wrapped to the data length
        st.integers(0, 12),  # bytes removed there
        st.one_of(  # bytes put in
            st.sampled_from(BVH_FRAGMENTS),
            st.text(string.printable, max_size=8).map(str.encode),
            st.binary(max_size=8),
        ),
    ),
    min_size=1,
    max_size=3,
)


def mutated(data: bytes, edits) -> bytes:
    for at, cut, insert in edits:
        at %= len(data) + 1
        data = data[:at] + insert + data[at + cut :]
    return data


BVH_SOURCES = [path.read_bytes() for path in fixture_corpus()]
CONTAINER_SOURCES = [
    container_bytes(ReprKind.DUALQUAT),
    container_bytes(ReprKind.QUATERNIONS, standardized=True),
    container_bytes(ReprKind.ORTHO6D_POSITIONS),
]


@settings(max_examples=150, deadline=None)
@given(source=st.sampled_from(BVH_SOURCES), edits=EDITS)
def test_parse_raises_only_motion_errors(source, edits):
    try:
        bvh.parse(mutated(source, edits))
    except MotionError:
        pass


@settings(max_examples=150, deadline=None)
@given(source=st.sampled_from(CONTAINER_SOURCES), edits=EDITS)
def test_from_bytes_raises_only_motion_errors(source, edits):
    try:
        container.from_bytes(mutated(source, edits))
    except MotionError:
        pass


@settings(max_examples=25, deadline=None)
@given(
    bvh_source=st.sampled_from(BVH_SOURCES),
    container_source=st.sampled_from(CONTAINER_SOURCES),
    edits=EDITS,
)
def test_cli_exit_codes(bvh_source, container_source, edits):
    with tempfile.TemporaryDirectory() as tmp:
        text, data = Path(tmp) / "in.bvh", Path(tmp) / "in.dqm"
        text.write_bytes(mutated(bvh_source, edits))
        data.write_bytes(mutated(container_source, edits))
        for argv in (
            ("inspect", text, "--json"),
            ("roundtrip", text),
            ("encode", text, "--repr", "quat", "-o", Path(tmp) / "out.dqm"),
            ("validate", data),
            ("decode", data, "-o", Path(tmp) / "out.bvh"),
            ("loss", data, data),
        ):
            assert quiet_main(*argv) in EXIT_CODES, argv
