import pytest
from hypothesis import given, strategies as st

from ndnkit.naming import (
    MalformedName,
    Name,
    is_prefix,
    longest_prefix_match,
    parse_name,
    to_text,
)


def test_parse_simple():
    n = parse_name("/snnu/images/a.jpg/v1/s1")
    assert n.components == (b"snnu", b"images", b"a.jpg", b"v1", b"s1")


def test_root_name():
    assert parse_name("/") == Name(())
    assert to_text(Name(())) == "/"


def test_round_trip_text():
    for text in ["/a", "/a/b/c", "/snnu/images/a.jpg/v1/s1", "/with space/x"]:
        assert to_text(parse_name(text)) == text


def test_escaping_round_trip():
    n = Name((b"a/b", b"\x00\xff", b"100%"))
    t = to_text(n)
    assert "/" not in t.replace("/", "", 3) or True  # components joined by 3 slashes
    assert parse_name(t) == n
    assert t == "/a%2Fb/%00%FF/100%25"


def test_lowercase_escapes_accepted():
    assert parse_name("/%2f").components == (b"/",)
    assert to_text(parse_name("/%2f")) == "/%2F"


@pytest.mark.parametrize(
    "bad",
    ["", "a/b", "//", "/a//b", "/a/", "/%zz", "/%f", "/a%"],
)
def test_malformed(bad):
    with pytest.raises(MalformedName):
        parse_name(bad)


def test_prefix_relation():
    a = parse_name("/a")
    ab = parse_name("/a/b")
    abc = parse_name("/a/b/c")
    assert is_prefix(a, ab)
    assert is_prefix(ab, abc)
    assert is_prefix(a, abc)
    assert not is_prefix(ab, a)
    assert not is_prefix(parse_name("/x"), a)
    assert is_prefix(a, a)
    assert is_prefix(Name(()), abc)  # root matches everything


def test_component_boundary_not_string_prefix():
    # /a is not a prefix of /ab even though "a" is a string prefix of "ab"
    assert not is_prefix(parse_name("/a"), parse_name("/ab"))


def test_longest_prefix_match_picks_longest():
    table = {parse_name("/a"), parse_name("/a/b"), parse_name("/c")}
    assert longest_prefix_match(table, parse_name("/a/b/c")) == parse_name("/a/b")
    assert longest_prefix_match(table, parse_name("/a/x")) == parse_name("/a")
    assert longest_prefix_match(table, parse_name("/d")) is None


def test_longest_prefix_match_root_default():
    table = {Name(()), parse_name("/a")}
    assert longest_prefix_match(table, parse_name("/zz")) == Name(())


def test_name_hashable_value_semantics():
    assert parse_name("/a/b") == Name((b"a", b"b"))
    assert hash(parse_name("/a/b")) == hash(Name((b"a", b"b")))
    d = {parse_name("/a/b"): 1}
    assert d[Name((b"a", b"b"))] == 1
    # a Name is the tuple of its components: equal to it, hashed alike
    assert Name((b"a", b"b")) == (b"a", b"b")
    assert hash(Name((b"a", b"b"))) == hash((b"a", b"b"))
    assert Name((b"a",)).components == (b"a",)
    # any iterable of components builds a usable key
    assert d[Name([b"a", b"b"])] == 1
    assert {Name([b"a"]): 2}[parse_name("/a")] == 2


def test_empty_component_rejected_at_construction():
    with pytest.raises(MalformedName):
        Name((b"a", b"", b"c"))
    with pytest.raises(MalformedName):
        Name([b""])
    with pytest.raises(MalformedName):
        parse_name("/a").child(b"")


@pytest.mark.parametrize("comps", [["a"], (b"a", 1), b"ab", (bytearray(b"a"),)])
def test_non_bytes_component_rejected_at_construction(comps):
    with pytest.raises(TypeError):
        Name(comps)


def test_child_and_prefix_helpers():
    n = parse_name("/a/b")
    assert n.child(b"c") == parse_name("/a/b/c")
    assert n.prefix(1) == parse_name("/a")
    assert n.prefix(0) == Name(())


components = st.lists(st.binary(min_size=1, max_size=12), min_size=0, max_size=6)


@given(components)
def test_text_round_trip_random(comps):
    n = Name(tuple(comps))
    assert parse_name(to_text(n)) == n


@given(components, components)
def test_prefix_iff_components_match(a, b):
    na, nb = Name(tuple(a)), Name(tuple(b))
    assert is_prefix(na, nb) == (tuple(b[: len(a)]) == tuple(a))
