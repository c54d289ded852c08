"""Property tests for the dist wire encoding.

The worker protocol ships every result and cell payload through
``encode_blob``/``decode_blob`` — sometimes zlib-compressed, sometimes
plain — so the round trip must be the identity for any picklable value
regardless of which encoding the size heuristic picks.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.dist.wire import (
    COMPRESS_MIN,
    decode_blob,
    decode_blob_ex,
    encode_blob,
)

#: JSON-ish values plus bytes: what cells and results actually carry.
values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=200)
    | st.binary(max_size=200),
    lambda children: st.lists(children, max_size=8)
    | st.dictionaries(st.text(max_size=10), children, max_size=8),
    max_leaves=30,
)


@given(value=values)
def test_blob_roundtrip_is_identity(value):
    assert decode_blob(encode_blob(value)) == value


@given(value=values)
def test_wire_text_is_json_safe_ascii(value):
    text = encode_blob(value)
    assert text.encode("ascii").decode("ascii") == text
    # The compression marker is the only colon, so it is unambiguous.
    body = text[2:] if text.startswith("z:") else text
    assert ":" not in body


@given(payload=st.binary(min_size=COMPRESS_MIN, max_size=COMPRESS_MIN * 8))
def test_large_blobs_roundtrip_whatever_encoding_wins(payload):
    """Past COMPRESS_MIN the encoder picks compressed or plain by size;
    both must decode to the original and report a raw size at least as
    large as the pickle shipped."""
    text = encode_blob(payload)
    value, wire, raw = decode_blob_ex(text)
    assert value == payload
    assert wire == len(text)
    assert raw >= len(payload)


@given(repeated=st.text(min_size=1, max_size=4))
def test_compressible_payloads_compress(repeated):
    """A long run of one short token always beats the zlib threshold."""
    value = repeated * (COMPRESS_MIN * 4)
    text = encode_blob(value)
    assert text.startswith("z:")
    assert decode_blob(text) == value
