"""Tests for GRAS data descriptions and cross-architecture serialisation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import DataDescriptionError
from repro.gras.arch import ARCHITECTURES
from repro.gras.datadesc import (
    ArrayDesc,
    ScalarDesc,
    StringDesc,
    StructDesc,
    datadesc_by_name,
    declare_struct,
)

X86 = ARCHITECTURES["x86"]
X86_64 = ARCHITECTURES["x86_64"]
SPARC = ARCHITECTURES["sparc"]
POWERPC = ARCHITECTURES["powerpc"]
ALL_ARCHS = [X86, X86_64, SPARC, POWERPC]


def roundtrip(desc, value, src_arch, dst_arch):
    """Encode ``value`` on ``src_arch`` and decode it on ``dst_arch``.

    Receiver-makes-right: decoding only needs the source architecture.
    """
    del dst_arch
    data = desc.encode(value, src_arch)
    decoded, consumed = desc.decode(data, src_arch)
    assert consumed == len(data)
    return decoded


class TestScalars:
    @pytest.mark.parametrize("type_name,value", [
        ("int8", -5), ("uint8", 200), ("int16", -1234), ("uint16", 65000),
        ("int32", -100000), ("uint32", 4000000000), ("int64", -(2 ** 40)),
        ("uint64", 2 ** 50), ("float", 1.5), ("double", 3.141592653589793),
    ])
    @pytest.mark.parametrize("src", ALL_ARCHS, ids=lambda a: a.name)
    @pytest.mark.parametrize("dst", ALL_ARCHS, ids=lambda a: a.name)
    def test_scalar_roundtrip_across_architectures(self, type_name, value,
                                                   src, dst):
        desc = ScalarDesc(type_name)
        assert roundtrip(desc, value, src, dst) == value

    def test_char_roundtrip(self):
        desc = ScalarDesc("char")
        assert roundtrip(desc, "Z", X86, SPARC) == "Z"

    def test_wire_size_follows_architecture(self):
        desc = ScalarDesc("long")
        assert len(desc.encode(0, X86)) == 4         # 32-bit long
        assert len(desc.encode(0, X86_64)) == 8      # 64-bit long

    def test_byte_order_actually_differs(self):
        desc = ScalarDesc("int32")
        little = desc.encode(1, X86)
        big = desc.encode(1, SPARC)
        assert little != big
        assert little == b"\x01\x00\x00\x00"
        assert big == b"\x00\x00\x00\x01"

    def test_unknown_scalar_rejected(self):
        with pytest.raises(DataDescriptionError):
            ScalarDesc("quaternion")

    def test_unencodable_value_rejected(self):
        desc = ScalarDesc("int8")
        with pytest.raises(DataDescriptionError):
            desc.encode(10_000, X86)


@pytest.mark.parametrize("call, named", [
    (lambda: ScalarDesc("char").encode(65, X86), "char"),
    (lambda: ScalarDesc("char").encode(b"ab", X86), "char"),
    (lambda: ScalarDesc("char").encode("€", X86), "char"),
    (lambda: StringDesc().decode(b"\x00\x00", X86), "string"),
    (lambda: ArrayDesc(ScalarDesc("int32")).decode(b"\x01", X86),
     "array<int32>"),
    (lambda: StringDesc().encode("\ud800", X86), "string"),
    (lambda: StringDesc().decode(b"\x02\x00\x00\x00\xff\xfe", X86),
     "string"),
], ids=["char-int", "char-two-bytes", "char-non-latin-1",
        "string-short-prefix", "array-short-prefix", "string-surrogate",
        "string-bad-utf-8"])
def test_bad_value_or_truncated_buffer_is_a_description_error(call, named):
    """Every bad value and every buffer too short for its length prefix
    raises DataDescriptionError naming the description, never a bare
    struct or codec error (the real-life backend's msg_wait decodes
    bytes off the network)."""
    with pytest.raises(DataDescriptionError, match=named):
        call()


class TestCompositeTypes:
    def test_string_roundtrip(self):
        desc = StringDesc()
        assert roundtrip(desc, "héllo wörld", SPARC, X86) == "héllo wörld"

    def test_fixed_array_roundtrip_and_length_check(self):
        desc = ArrayDesc(ScalarDesc("int32"), fixed_length=4)
        assert roundtrip(desc, [1, 2, 3, 4], X86, POWERPC) == [1, 2, 3, 4]
        with pytest.raises(DataDescriptionError):
            desc.encode([1, 2, 3], X86)

    def test_dynamic_array_roundtrip(self):
        desc = ArrayDesc(ScalarDesc("double"))
        values = [0.5, -1.25, 3.75]
        assert roundtrip(desc, values, POWERPC, X86) == values

    def test_struct_roundtrip(self):
        desc = StructDesc("point", [("x", ScalarDesc("double")),
                                    ("y", ScalarDesc("double")),
                                    ("label", StringDesc())])
        value = {"x": 1.0, "y": -2.5, "label": "origin-ish"}
        assert roundtrip(desc, value, SPARC, X86) == value

    def test_nested_struct_and_arrays(self):
        point = StructDesc("pt", [("x", ScalarDesc("int32")),
                                  ("y", ScalarDesc("int32"))])
        polygon = StructDesc("poly", [("name", StringDesc()),
                                      ("points", ArrayDesc(point))])
        value = {"name": "triangle",
                 "points": [{"x": 0, "y": 0}, {"x": 1, "y": 0},
                            {"x": 0, "y": 1}]}
        assert roundtrip(polygon, value, X86, SPARC) == value

    def test_struct_missing_field_rejected(self):
        desc = StructDesc("p", [("x", ScalarDesc("int32"))])
        with pytest.raises(DataDescriptionError):
            desc.encode({}, X86)

    def test_struct_accepts_attribute_objects(self):
        class Point:
            def __init__(self):
                self.x = 7
        desc = StructDesc("p", [("x", ScalarDesc("int32"))])
        data = desc.encode(Point(), X86)
        decoded, _ = desc.decode(data, X86)
        assert decoded == {"x": 7}

    def test_empty_struct_rejected(self):
        with pytest.raises(DataDescriptionError):
            StructDesc("empty", [])


class TestRegistry:
    def test_builtin_types_available(self):
        for name in ("int", "double", "string", "uint32"):
            assert datadesc_by_name(name) is not None

    def test_unknown_name_rejected(self):
        with pytest.raises(DataDescriptionError):
            datadesc_by_name("no-such-type")

    def test_declare_struct_registers_by_name(self):
        declare_struct("test_pair_xy", [("a", "int"), ("b", "double")])
        desc = datadesc_by_name("test_pair_xy")
        value = {"a": 3, "b": 2.5}
        assert roundtrip(desc, value, X86, SPARC) == value

    def test_declare_struct_with_bad_field_rejected(self):
        with pytest.raises(DataDescriptionError):
            declare_struct("bad_struct_field", [("a", 42)])


# ----------------------------------------------------------------------------------
# property-based cross-architecture roundtrips
# ----------------------------------------------------------------------------------

arch_strategy = st.sampled_from(ALL_ARCHS)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=-(2 ** 31), max_value=2 ** 31 - 1),
       arch_strategy, arch_strategy)
def test_property_int32_roundtrips_between_any_architectures(value, src, dst):
    desc = ScalarDesc("int32")
    assert roundtrip(desc, value, src, dst) == value


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False, width=64),
       arch_strategy, arch_strategy)
def test_property_double_roundtrips_between_any_architectures(value, src, dst):
    desc = ScalarDesc("double")
    assert roundtrip(desc, value, src, dst) == pytest.approx(value, abs=0,
                                                            rel=0) or \
        roundtrip(desc, value, src, dst) == value


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2 ** 16 - 1), max_size=30),
       st.text(max_size=40), arch_strategy, arch_strategy)
def test_property_struct_of_array_and_string_roundtrips(numbers, text, src, dst):
    desc = StructDesc("prop_struct", [
        ("numbers", ArrayDesc(ScalarDesc("uint16"))),
        ("text", StringDesc()),
    ])
    value = {"numbers": numbers, "text": text}
    assert roundtrip(desc, value, src, dst) == value


# ----------------------------------------------------------------------------------
# bulk ArrayDesc path == per-element reference
# ----------------------------------------------------------------------------------

BULK_SCALARS = sorted(set(X86_64.type_sizes) - {"char"})


def _scalar_values(type_name, arch):
    size = arch.size_of(type_name)
    if type_name in ("float", "double"):
        return st.floats(allow_nan=False, width=8 * size)
    if type_name.startswith("u"):
        return st.integers(min_value=0, max_value=2 ** (8 * size) - 1)
    return st.integers(min_value=-(2 ** (8 * size - 1)),
                       max_value=2 ** (8 * size - 1) - 1)


@pytest.mark.parametrize("fixed", [False, True])
@pytest.mark.parametrize("arch", ALL_ARCHS, ids=lambda arch: arch.name)
@pytest.mark.parametrize("type_name", BULK_SCALARS)
@settings(max_examples=10, derandomize=True, deadline=None)
@given(data=st.data())
def test_property_bulk_array_matches_per_element_reference(
        type_name, arch, fixed, data):
    element = ScalarDesc(type_name)
    values = data.draw(st.lists(_scalar_values(type_name, arch), max_size=40))
    desc = ArrayDesc(element, fixed_length=len(values) if fixed else None)
    assert desc._bulk_format(arch, len(values)) is not None

    header = b"" if fixed else len(values).to_bytes(4, arch.byte_order)
    reference = header + b"".join(element.encode(v, arch) for v in values)
    assert desc.encode(values, arch) == reference

    expected, offset = [], len(header)
    for _ in values:
        item, offset = element.decode(reference, arch, offset)
        expected.append(item)
    assert desc.decode(reference, arch) == (expected, len(reference))


class TestBulkArrayEdges:
    def test_char_arrays_stay_on_the_per_element_path(self):
        desc = ArrayDesc(ScalarDesc("char"))
        assert desc._bulk_format(X86, 3) is None
        encoded = desc.encode(["a", b"b", ""], SPARC)
        assert encoded == b"\x00\x00\x00\x03ab\x00"
        assert desc.decode(encoded, SPARC) == (["a", "b", "\x00"], 7)

    def test_out_of_range_value_is_still_named(self):
        with pytest.raises(DataDescriptionError, match="cannot encode 256"):
            ArrayDesc(ScalarDesc("uint8")).encode([0, 256, 1], X86)

    def test_truncated_payload_is_still_a_description_error(self):
        desc = ArrayDesc(ScalarDesc("int32"))
        encoded = desc.encode([1, 2, 3], X86)
        with pytest.raises(DataDescriptionError, match="cannot decode int32"):
            desc.decode(encoded[:-1], X86)
