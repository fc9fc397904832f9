"""Byte-identity fuzz: the fast-path encoder vs the naive reference encoder.

The Marshaller's hot path (exact-type dispatch table, inlined container
loops, encode/decode memos, the 8-field frame codec) is an *optimisation*,
not a format change: its output must be byte-for-byte what the original
naive encoder produced.  This test keeps that naive encoder alive — a
hook-first ``isinstance`` chain, transcribed from the pre-fast-path
implementation — and fuzzes both over the full supported type space, with
and without swizzle hooks.

The one deliberate semantic refinement is hook exemption: the fast path
never consults the encoder hook for values of an exact built-in type,
because the object-space hook declines plain data by definition.  The fuzz
therefore uses hooks with that shape (swizzle a marker class, decline
everything else), which is the only shape the system installs.
"""

from __future__ import annotations

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.wire.frames import REPLY, REQUEST, Frame
from repro.wire.marshal import PLAIN, Marshaller, memo_stats
from repro.wire.refs import ObjectRef
from repro.wire.segments import WireMessage

_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")


class Exportable:
    """Stands in for an object-space export: hooks swizzle it to a ref."""

    def __init__(self, oid: str):
        self.oid = oid


def _object_space_hook(value):
    """The realistic hook shape: swizzle exports, decline plain data."""
    if isinstance(value, Exportable):
        return ObjectRef("n0/main", value.oid, "IThing", 0, "stub")
    return None


def naive_encode(value, hook=None) -> bytes:
    """The reference encoder: hook first, then the isinstance chain.

    A transcription of the original (pre-fast-path) ``_encode_into``; kept
    here so the wire format has an executable specification independent of
    the optimised implementation.
    """
    out = bytearray()
    _naive_into(value, out, hook)
    return bytes(out)


def _naive_into(value, out: bytearray, hook) -> None:
    if hook is not None:
        replacement = hook(value)
        if replacement is not None and replacement is not value:
            value = replacement
    if value is None:
        out += b"N"
    elif value is True:
        out += b"T"
    elif value is False:
        out += b"F"
    elif isinstance(value, int):
        if -(2**63) <= value < 2**63:
            out += b"i" + _I64.pack(value)
        else:
            raw = value.to_bytes((value.bit_length() + 8) // 8 + 1,
                                 "big", signed=True)
            out += b"I" + _U32.pack(len(raw)) + raw
    elif isinstance(value, float):
        out += b"f" + _F64.pack(value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out += b"s" + _U32.pack(len(raw)) + raw
    elif isinstance(value, (bytes, bytearray, memoryview)):
        raw = bytes(value)
        out += b"b" + _U32.pack(len(raw)) + raw
    elif isinstance(value, ObjectRef):
        out += b"R"
        for field in (value.context_id, value.oid, value.interface,
                      value.policy):
            raw = field.encode("utf-8")
            out += _U32.pack(len(raw)) + raw
        out += _I64.pack(value.epoch)
    elif isinstance(value, list):
        out += b"l" + _U32.pack(len(value))
        for item in value:
            _naive_into(item, out, hook)
    elif isinstance(value, tuple):
        out += b"t" + _U32.pack(len(value))
        for item in value:
            _naive_into(item, out, hook)
    elif isinstance(value, dict):
        out += b"d" + _U32.pack(len(value))
        for key, val in value.items():
            _naive_into(key, out, hook)
            _naive_into(val, out, hook)
    elif isinstance(value, frozenset):
        out += b"Z" + _U32.pack(len(value))
        for item in sorted(value, key=repr):
            _naive_into(item, out, hook)
    elif isinstance(value, set):
        out += b"S" + _U32.pack(len(value))
        for item in sorted(value, key=repr):
            _naive_into(item, out, hook)
    else:
        raise AssertionError(f"naive encoder got {type(value).__name__}")


# -- fuzz value generator ------------------------------------------------------

_WORDS = ("get", "put", "kv", "n0/main", "k0", "", "motd",
          "über-schlüssel", "x" * 63, "y" * 64, "z" * 200)


def _scalar(rng: random.Random):
    pick = rng.randrange(9)
    if pick == 0:
        return None
    if pick == 1:
        return rng.random() < 0.5
    if pick == 2:
        return rng.randrange(-100, 100)
    if pick == 3:  # i64 boundary and bigint territory
        return rng.choice((2**63 - 1, -(2**63), 2**63, -(2**63) - 1,
                           2**200 + rng.randrange(1000)))
    if pick == 4:
        return rng.choice((0.0, -0.0, 1.5, -2.25e300, 1e-300,
                           float("inf"), float("-inf")))
    if pick == 5:
        return rng.choice(_WORDS)
    if pick == 6:
        return bytes(rng.randrange(256) for _ in range(rng.randrange(8)))
    if pick == 7:
        return ObjectRef(f"n{rng.randrange(3)}/main", f"oid{rng.randrange(9)}",
                         "IThing", rng.randrange(4), "caching")
    return rng.randrange(-100, 100)


def _value(rng: random.Random, depth: int, with_exports: bool):
    if depth <= 0 or rng.random() < 0.5:
        if with_exports and rng.random() < 0.15:
            return Exportable(f"oid{rng.randrange(9)}")
        return _scalar(rng)
    pick = rng.randrange(5)
    size = rng.randrange(4)
    if pick == 0:
        return [_value(rng, depth - 1, with_exports) for _ in range(size)]
    if pick == 1:
        return tuple(_value(rng, depth - 1, with_exports)
                     for _ in range(size))
    if pick == 2:
        return {rng.choice(_WORDS) if rng.random() < 0.8
                else rng.randrange(100): _value(rng, depth - 1, with_exports)
                for _ in range(size)}
    # Set elements must be hashable: scalars only.
    items = [_scalar(rng) for _ in range(size)]
    return (set(items) if pick == 3 else frozenset(items))


def test_fuzz_byte_identity_hook_free():
    rng = random.Random(0xE18)
    fast = Marshaller()
    for _ in range(400):
        value = _value(rng, depth=3, with_exports=False)
        assert fast.encode(value) == naive_encode(value)


def test_fuzz_byte_identity_with_swizzle_hook():
    rng = random.Random(0xE18 + 1)
    fast = Marshaller(encoder_hook=_object_space_hook)
    for _ in range(400):
        value = _value(rng, depth=3, with_exports=True)
        assert fast.encode(value) == naive_encode(value,
                                                  hook=_object_space_hook)


def test_fuzz_round_trip():
    rng = random.Random(0xE18 + 2)
    for _ in range(400):
        value = _value(rng, depth=3, with_exports=False)
        assert PLAIN.decode(PLAIN.encode(value)) == value


def test_long_strings_bypass_memo_but_stay_identical():
    # 64 chars is the memo ceiling; 65+ must take the uncached path and
    # still produce the same bytes (and round-trip).
    for text in ("a" * 64, "b" * 65, "ü" * 64, "c" * 5000):
        assert PLAIN.encode(text) == naive_encode(text)
        assert PLAIN.decode(PLAIN.encode(text)) == text


def test_subclasses_fall_through_to_hooks():
    # An int subclass is NOT hook-exempt: the fast table claims exact types
    # only, so the hook still sees it and may swizzle it.
    class TaggedInt(int):
        pass

    def hook(value):
        if type(value) is TaggedInt:
            return ObjectRef("n0/main", "swizzled", "IThing", 0, "stub")
        return None

    fast = Marshaller(encoder_hook=hook)
    assert fast.encode(TaggedInt(7)) == naive_encode(
        ObjectRef("n0/main", "swizzled", "IThing", 0, "stub"))
    # Inside a container too.
    assert fast.encode([TaggedInt(7)]) == naive_encode(
        [ObjectRef("n0/main", "swizzled", "IThing", 0, "stub")])
    # And a plain int is untouched even with the hook installed.
    assert fast.encode(7) == naive_encode(7)


def test_frame_codec_matches_generic_encoding():
    fields = ["req", 41, "n0/main", "n1/kv", "oid7", "get",
              ["k0", 12, None, {"nested": True}], {}]
    fast = PLAIN.encode_frame_fields(*fields)
    assert fast == naive_encode(fields)
    assert PLAIN.decode_frame_fields(fast) == fields
    # Non-empty headers take the generic path but stay identical.
    fields[7] = {"hop": 3}
    fast = PLAIN.encode_frame_fields(*fields)
    assert fast == naive_encode(fields)
    assert PLAIN.decode_frame_fields(fast) == fields


def test_frame_decoder_rejects_non_frames_and_garbage():
    from repro.kernel.errors import MarshalError

    # Not an 8-element list: decliner returns None (caller falls back).
    assert PLAIN.decode_frame_fields(PLAIN.encode([1, 2, 3])) is None
    assert PLAIN.decode_frame_fields(PLAIN.encode("req")) is None
    good = PLAIN.encode_frame_fields("req", 1, "a", "b", "t", "v", None, {})
    with pytest.raises(MarshalError):
        PLAIN.decode_frame_fields(good[:-3])
    with pytest.raises(MarshalError):
        PLAIN.decode_frame_fields(good + b"x")


# -- carried decode of plain-data frames ---------------------------------------
#
# A frame whose headers and body are plain data rides a snapshot instead of
# being decoded.  The byte decoder run on the contiguous wire image is the
# reference: the carried fields must equal its output with exact types at
# every depth (``True`` is not ``1``, ``-0.0`` is not ``0.0``, a tuple is
# not a list).

_plain_leaf = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False), st.text(max_size=8), st.binary(max_size=8))

_plain_key = st.one_of(
    st.text(max_size=6), st.integers(min_value=-9, max_value=9),
    st.tuples(st.integers(min_value=-9, max_value=9), st.text(max_size=3)))

plain_data = st.recursive(
    _plain_leaf,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_plain_key, inner, max_size=4)),
    max_leaves=16)

plain_headers = st.dictionaries(st.text(max_size=6), plain_data, max_size=3)


def _typed(value):
    """``value`` with every node paired with its exact class (floats by
    bit pattern), so equality means equal *and* identically typed."""
    cls = value.__class__
    if cls is dict:
        return (dict, tuple((_typed(k), _typed(v)) for k, v in value.items()))
    if cls is list or cls is tuple:
        return (cls, tuple(_typed(item) for item in value))
    if cls is float:
        return (float, _F64.pack(value))
    return (cls, value)


def _fields(frame: Frame) -> tuple:
    return (frame.kind, frame.msg_id, frame.src, frame.dst, frame.target,
            frame.verb, _typed(frame.body), _typed(frame.headers))


def _mutable_ids(value, out: set) -> set:
    """ids of every dict and list reachable from ``value``."""
    cls = value.__class__
    if cls is dict:
        out.add(id(value))
        for key, val in value.items():
            _mutable_ids(key, out)
            _mutable_ids(val, out)
    elif cls is list or cls is tuple:
        if cls is list:
            out.add(id(value))
        for item in value:
            _mutable_ids(item, out)
    return out


@settings(max_examples=300, deadline=None)
@given(body=plain_data, headers=plain_headers)
def test_carried_decode_matches_the_byte_decoder(body, headers):
    frame = Frame(REPLY, 5, "c0/main", "s0/main", body=body,
                  headers=headers)
    msg = frame.encode_message(PLAIN)
    assert msg.__class__ is WireMessage and msg.carried is not None
    assert msg.to_bytes() == naive_encode(
        [REPLY, 5, "c0/main", "s0/main", "", "", body, headers])
    carried = Frame.decode_message(msg, PLAIN)
    decoded = Frame.decode(msg.to_bytes(), PLAIN)
    assert _fields(carried) == _fields(decoded)


@settings(max_examples=200, deadline=None)
@given(args=st.lists(plain_data, max_size=3).map(tuple),
       kwargs=st.dictionaries(st.text(max_size=4), plain_data, max_size=2),
       headers=plain_headers)
def test_carried_request_matches_the_byte_decoder(args, kwargs, headers):
    frame = Frame(REQUEST, 9, "c0/main", "s0/main", target="oid1",
                  verb="put", body=(args, kwargs), headers=headers)
    msg = frame.encode_message(PLAIN)
    assert msg.carried is not None
    assert _fields(Frame.decode_message(msg, PLAIN)) == \
        _fields(Frame.decode(msg.to_bytes(), PLAIN))


@settings(max_examples=200, deadline=None)
@given(body=plain_data, headers=plain_headers)
def test_two_decodes_share_no_mutable_object(body, headers):
    msg = Frame(REPLY, 5, "c0/main", "s0/main", body=body,
                headers=headers).encode_message(PLAIN)
    one = Frame.decode_message(msg, PLAIN)
    two = Frame.decode_message(msg, PLAIN)
    sent = _mutable_ids(headers, _mutable_ids(body, set()))
    got_one = _mutable_ids(one.headers, _mutable_ids(one.body, set()))
    got_two = _mutable_ids(two.headers, _mutable_ids(two.body, set()))
    assert not got_one & got_two
    assert not (got_one | got_two) & sent


def test_sender_mutation_after_encode_does_not_reach_the_receiver():
    body = {"q.v": 3, "q.val": "v1", "q.tl": [1, 0]}
    headers = {"q.a": ["k1", 3], "q.t": [1, 0]}
    msg = Frame(REQUEST, 7, "c0/main", "s0/main", target="oid1",
                verb="put", body=(("k1", body), {}),
                headers=headers).encode_message(PLAIN)
    body["q.v"] = 99
    body["q.tl"].append(7)
    headers["q.t"][0] = 5
    headers["q.x"] = True
    got = Frame.decode_message(msg, PLAIN)
    assert got.body == (("k1", {"q.v": 3, "q.val": "v1", "q.tl": [1, 0]}),
                        {})
    assert got.headers == {"q.a": ["k1", 3], "q.t": [1, 0]}


def test_an_object_sent_twice_arrives_as_two_objects():
    # The byte decoder builds one list per occurrence; the snapshot must
    # not fold two occurrences of one sender object into one.
    shared = [1, 2]
    msg = Frame(REPLY, 2, "c0/main", "s0/main",
                body={"a": shared, "b": (shared,)},
                headers={"q.t": shared}).encode_message(PLAIN)
    got = Frame.decode_message(msg, PLAIN)
    lists = [got.body["a"], got.body["b"][0], got.headers["q.t"]]
    assert lists == [shared] * 3
    assert len({id(item) for item in lists}) == 3


class _TaggedInt(int):
    pass


class _TaggedBytes(bytes):
    pass


_REF = ObjectRef("n1/main", "oid9", "IThing", 2, "stub")


@pytest.mark.parametrize("odd", [
    _REF, _TaggedInt(7), _TaggedBytes(b"xy"), bytearray(b"xy"),
    memoryview(b"xy"), {1, 2}, frozenset({3}), Exportable("oid4"),
], ids=["ref", "int-subclass", "bytes-subclass", "bytearray",
        "memoryview", "set", "frozenset", "swizzled-export"])
def test_non_plain_frames_take_the_decoder_and_its_hooks(odd):
    encoded, decoded = [], []

    def encode_hook(value):
        encoded.append(value)
        return _object_space_hook(value)

    def decode_hook(ref):
        decoded.append(ref)
        return ref

    sender = Marshaller(encoder_hook=encode_hook)
    receiver = Marshaller(decoder_hook=decode_hook)
    frame = Frame(REPLY, 3, "c0/main", "s0/main",
                  body={"q.v": 1, "q.val": [odd]}, headers={"q.t": [1, 0]})
    msg = frame.encode_message(sender)
    assert getattr(msg, "carried", None) is None
    before = memo_stats()
    got = Frame.decode_message(msg, receiver)
    after = memo_stats()
    assert after["carried_misses"] == before["carried_misses"] + 1
    assert after["carried_hits"] == before["carried_hits"]
    reference = Frame.decode(
        naive_encode([REPLY, 3, "c0/main", "s0/main", "", "",
                      {"q.v": 1, "q.val": [odd]}, {"q.t": [1, 0]}],
                     hook=_object_space_hook), Marshaller())
    assert got.body == reference.body
    # The hooks saw exactly what they see on the byte path: the encoder
    # hook every value outside the exact-type table, the decoder hook
    # every ref.
    if odd.__class__ in (_TaggedInt, _TaggedBytes, Exportable):
        assert any(value is odd for value in encoded)
    else:
        assert encoded == []
    if odd.__class__ in (ObjectRef, Exportable):
        assert len(decoded) == 1
    else:
        assert decoded == []


def test_bulk_frames_keep_the_zero_copy_segment_path():
    blob = b"\x21" * 8192
    frame = Frame(REQUEST, 4, "c0/main", "s0/main", target="oid1",
                  verb="put", body=(("k1", blob), {}),
                  headers={"s.e": [1], "s.k": 12})
    msg = frame.encode_message(PLAIN)
    assert msg.carried is None and msg.segments
    assert Frame.decode_message(msg, PLAIN).body[0][1] is blob
