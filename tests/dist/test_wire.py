"""Wire encoding: cells and blobs across the coordinator/worker link."""

import pytest

from repro.dist.wire import (
    COMPRESS_MIN,
    WireError,
    decode_blob,
    decode_blob_ex,
    decode_cell,
    encode_blob,
    encode_cell,
    fn_name,
    resolve_fn,
)
from repro.parallel.executor import CellSpec


def square(x):
    return x * x


class TestBlobs:
    def test_roundtrip_arbitrary_values(self):
        for value in (41, "text", [1, {"a": (2, 3)}], None):
            assert decode_blob(encode_blob(value)) == value

    def test_undecodable_blob_is_a_wire_error(self):
        with pytest.raises(WireError):
            decode_blob("not base64 pickle!!")


class TestCompression:
    def test_large_compressible_blob_ships_compressed(self):
        value = "grid " * 10_000  # pickles far past COMPRESS_MIN, zlib-friendly
        text = encode_blob(value)
        assert text.startswith("z:")
        decoded, wire, raw = decode_blob_ex(text)
        assert decoded == value
        assert wire == len(text)
        assert wire < raw  # the wire really carried fewer bytes

    def test_small_blob_stays_plain_base64(self):
        text = encode_blob(41)
        assert not text.startswith("z:")
        assert decode_blob(text) == 41

    def test_incompressible_blob_stays_plain(self):
        """zlib losing the trade keeps the plain encoding — never pay
        the marker for a bigger wire blob."""
        import random

        rng = random.Random(7)
        noise = bytes(rng.randrange(256) for _ in range(COMPRESS_MIN * 4))
        text = encode_blob(noise)
        assert not text.startswith("z:")
        assert decode_blob(text) == noise

    def test_corrupt_compressed_blob_is_a_wire_error(self):
        with pytest.raises(WireError):
            decode_blob("z:not!!valid")


class TestFnResolution:
    def test_name_roundtrip(self):
        name = fn_name(square)
        assert name == "tests.dist.test_wire:square"
        assert resolve_fn(name) is square

    def test_missing_attribute_rejected(self):
        with pytest.raises(WireError):
            resolve_fn("tests.dist.test_wire:nope")

    def test_bad_module_rejected(self):
        with pytest.raises(WireError):
            resolve_fn("no.such.module:thing")

    def test_not_callable_rejected(self):
        with pytest.raises(WireError):
            resolve_fn("tests.dist.test_wire:__doc__")


class TestCells:
    def test_cell_roundtrip(self):
        spec = CellSpec(key="t/sq/3", fn=square, args=(3,),
                        kwargs={}, cacheable=False)
        rebuilt = decode_cell(encode_cell(spec))
        assert rebuilt.key == "t/sq/3"
        assert rebuilt.fn is square
        assert rebuilt.args == (3,)
        assert rebuilt.cacheable is False
        assert rebuilt.fn(*rebuilt.args) == 9

    def test_missing_fields_rejected(self):
        with pytest.raises(WireError):
            decode_cell({"key": "x"})
        with pytest.raises(WireError, match="blob"):
            decode_cell({"key": "x", "fn": fn_name(square)})
