"""Golden bytes for the wire codec: the reference the codec is held to.

``GOLDEN`` below was captured from ``encode_payload`` at the commit
*before* the one-walk codec replaced the ``encode_value`` ->
``json.dumps`` pair (PR 19, ``911f392``), and this file passes unchanged
on both sides of that rewrite.  Every registered tag is here, plus the
container and scalar edges the tagging scheme has to get right.  A
change to any literal is a ``WIRE_VERSION`` bump, not an edit.

Each entry pins both directions: the value encodes to exactly these
bytes, and these bytes decode to the value (or to ``decoded`` where the
wire is deliberately lossy: non-string dict keys become strings, a
``set`` comes back a ``frozenset``).
"""

from __future__ import annotations

import math

import pytest

from repro.core.differentiation import ClassifierRule
from repro.core.hierarchy import AggregateStats, CollectAggregate, EnforceJobRateBatch
from repro.core.requests import OperationClass, OperationType
from repro.core.rpc import (
    CollectStats,
    CreateChannel,
    EnforceRate,
    InstallRule,
    Ping,
    RemoveChannel,
    RemoveRule,
)
from repro.core.stage import ChannelSnapshot, StageIdentity, StageStats
from repro.core.wire import (
    WIRE_VERSION,
    decode_payload,
    encode_payload,
    encode_request,
    error_payload,
    hello_payload,
    registered_tags,
)
from repro.errors import StageNotRegistered

SAME = object()

RULE = ClassifierRule(
    name="md",
    channel_id="metadata",
    op_types=frozenset(
        {OperationType.OPEN, OperationType.STAT, OperationType.CLOSE, OperationType.MKDIR}
    ),
    op_classes=frozenset({OperationClass.METADATA, OperationClass.DATA}),
    path_prefixes=("/pfs/scratch", "/pfs/data"),
    job_ids=frozenset({"job1", "job0", "job10"}),
    priority=7,
)


def _snapshot(channel_id: str, scale: float) -> ChannelSnapshot:
    return ChannelSnapshot(
        channel_id=channel_id,
        granted_ops=100.0 * scale,
        enqueued_ops=120.5 * scale,
        backlog=20.0,
        rate_limit=math.inf if scale > 2 else 128.0 * scale,
    )


def _stats(n_channels: int) -> StageStats:
    return StageStats(
        job_id="job0",
        window=1.0,
        channels=tuple(
            _snapshot(name, index + 1.0)
            for index, name in enumerate(("metadata", "data", "dir")[:n_channels])
        ),
    )


#: (name, value, decoded) -- ``decoded`` is ``SAME`` when the round trip
#: is exact.
CORPUS = [
    # -- the seven stage verbs ------------------------------------------------
    ("ping_empty", Ping(), SAME),
    ("ping_payload", Ping(payload={"k": (1, 2.5), "n": [None, True]}), SAME),
    ("collect_stats", CollectStats(now=12.25), SAME),
    ("enforce_rate", EnforceRate("metadata", 512.5, 3.0, None), SAME),
    ("enforce_rate_burst", EnforceRate("metadata", 0.1 + 0.2, 1e9, 64.0), SAME),
    ("create_channel", CreateChannel("m", math.inf, 0.0, 8.0), SAME),
    ("install_rule", InstallRule(rule=RULE), SAME),
    ("remove_rule", RemoveRule(name="md"), SAME),
    ("remove_channel", RemoveChannel(channel_id="m"), SAME),
    # -- the two hierarchy verbs ----------------------------------------------
    ("collect_aggregate", CollectAggregate(9.0, "metadata", 0.25), SAME),
    (
        "enforce_job_rate_batch",
        EnforceJobRateBatch(
            "metadata", 7.5, (("job0", 1000.0, None), ("job1", 250.25, 32.0))
        ),
        SAME,
    ),
    # -- replies and the types inside them --------------------------------------
    ("classifier_rule", RULE, SAME),
    ("classifier_rule_bare", ClassifierRule("pfs", "metadata", path_prefixes=("/pfs",)), SAME),
    ("stage_identity", StageIdentity("job0/s1", "job0", hostname="n1", pid=42), SAME),
    ("stage_identity_user", StageIdentity("s", "j", "hôst", 1, "üser"), SAME),
    ("stage_stats_0", _stats(0), SAME),
    ("stage_stats_1", _stats(1), SAME),
    ("stage_stats_3", _stats(3), SAME),
    ("channel_snapshot", _snapshot("metadata", 1.0), SAME),
    ("aggregate_stats", AggregateStats(("job0", "job1"), (180.0, 60.5), (4, 2)), SAME),
    ("aggregate_stats_empty", AggregateStats((), (), ()), SAME),
    ("enum_type", OperationType.OPEN, SAME),
    ("enum_class", OperationClass.METADATA, SAME),
    # -- envelopes -------------------------------------------------------------
    ("request_envelope", {"to": "job0/s0", "msg": CollectStats(now=1001.0)}, SAME),
    (
        "request_envelope_enforce",
        {"to": "job7/s3", "msg": EnforceRate("metadata", 1234.5678, 1001.0, None)},
        SAME,
    ),
    ("hello", hello_payload("bench-worker"), SAME),
    ("error", error_payload(StageNotRegistered("address 'ghost' not bound")), SAME),
    # -- containers ------------------------------------------------------------
    ("nested_tuples", (1, "a", (2.5, None, ((), (False,)))), SAME),
    ("nested_lists", [1, [2, [3, []]], (4, [5])], SAME),
    ("nested_dicts", {"k": (1, 2), "n": {"deep": 3.5, "a": {}}, "": []}, SAME),
    ("dict_key_order", {"b": 1, "a": 2, "B": 3, "aa": 4, "é": 5, "~": 6}, SAME),
    ("dict_with_tag_key", {"!t": "tuple", "f": [1, 2], "z": (3,)}, SAME),
    ("dict_with_tag_key_nested", {"outer": {"!t": None}}, SAME),
    ("dict_int_keys", {10: "ten", 9: "nine", None: 0}, {"10": "ten", "9": "nine", "None": 0}),
    ("frozenset_strings", frozenset({"y", "x", "xa", "X"}), SAME),
    ("frozenset_mixed", frozenset({1, 10, 2, "1", 2.5, None, (1, 2)}), SAME),
    ("frozenset_empty", frozenset(), SAME),
    ("set_becomes_frozenset", {3, 1, 2}, frozenset({1, 2, 3})),
    ("list_of_verbs", [Ping(1), CollectStats(2.0)], SAME),
    # -- scalars ---------------------------------------------------------------
    ("none", None, SAME),
    ("true", True, SAME),
    ("false", False, SAME),
    ("zero", 0, SAME),
    ("negative_int", -7, SAME),
    ("big_ints", [2**63, -(2**63) - 1, 2**100, -(10**30)], SAME),
    ("inf", math.inf, SAME),
    ("neg_inf", -math.inf, SAME),
    ("nan", math.nan, SAME),
    ("neg_zero", -0.0, SAME),
    ("subnormals", [5e-324, -5e-324, 2.225073858507201e-308], SAME),
    ("float_edges", [1.7976931348623157e308, 2.2250738585072014e-308, 1e16, 1e-7, 0.1], SAME),
    ("float_integral", [1.0, -2.0, 1e22, 1e21, 123456789012345680.0], SAME),
    ("string_empty", "", SAME),
    ("string_non_ascii", "päth/ü/日本語/\U0001f600", SAME),
    ("string_control", "\x00\x01\x1f\x7f\"\\/\n\r\t\b\f\u2028\u2029", SAME),
]

GOLDEN = {
    'ping_empty': b'{"!t":"Ping","f":[null]}',
    'ping_payload': b'{"!t":"Ping","f":[{"k":{"!t":"tuple","f":[1,2.5]},"n":[null,true]}]}',
    'collect_stats': b'{"!t":"CollectStats","f":[12.25]}',
    'enforce_rate': b'{"!t":"EnforceRate","f":["metadata",512.5,3.0,null]}',
    'enforce_rate_burst': b'{"!t":"EnforceRate","f":["metadata",0.30000000000000004,1000000000.0,64.0]}',
    'create_channel': b'{"!t":"CreateChannel","f":["m",Infinity,0.0,8.0]}',
    'install_rule': (
        b'{"!t":"InstallRule","f":[{"!t":"ClassifierRule","f":["md","metadata",{"!t":"'
        b'frozenset","f":[{"!t":"OperationType","f":"close"},{"!t":"OperationType","f"'
        b':"mkdir"},{"!t":"OperationType","f":"open"},{"!t":"OperationType","f":"stat"'
        b'}]},{"!t":"frozenset","f":[{"!t":"OperationClass","f":"data"},{"!t":"Operati'
        b'onClass","f":"metadata"}]},{"!t":"tuple","f":["/pfs/scratch","/pfs/data"]},{'
        b'"!t":"frozenset","f":["job0","job1","job10"]},7]}]}'
    ),
    'remove_rule': b'{"!t":"RemoveRule","f":["md"]}',
    'remove_channel': b'{"!t":"RemoveChannel","f":["m"]}',
    'collect_aggregate': b'{"!t":"CollectAggregate","f":[9.0,"metadata",0.25]}',
    'enforce_job_rate_batch': (
        b'{"!t":"EnforceJobRateBatch","f":["metadata",7.5,{"!t":"tuple","f":[{"!t":"tu'
        b'ple","f":["job0",1000.0,null]},{"!t":"tuple","f":["job1",250.25,32.0]}]}]}'
    ),
    'classifier_rule': (
        b'{"!t":"ClassifierRule","f":["md","metadata",{"!t":"frozenset","f":[{"!t":"Op'
        b'erationType","f":"close"},{"!t":"OperationType","f":"mkdir"},{"!t":"Operatio'
        b'nType","f":"open"},{"!t":"OperationType","f":"stat"}]},{"!t":"frozenset","f"'
        b':[{"!t":"OperationClass","f":"data"},{"!t":"OperationClass","f":"metadata"}]'
        b'},{"!t":"tuple","f":["/pfs/scratch","/pfs/data"]},{"!t":"frozenset","f":["jo'
        b'b0","job1","job10"]},7]}'
    ),
    'classifier_rule_bare': (
        b'{"!t":"ClassifierRule","f":["pfs","metadata",null,null,{"!t":"tuple","f":["/'
        b'pfs"]},null,0]}'
    ),
    'stage_identity': b'{"!t":"StageIdentity","f":["job0/s1","job0","n1",42,""]}',
    'stage_identity_user': b'{"!t":"StageIdentity","f":["s","j","h\\u00f4st",1,"\\u00fcser"]}',
    'stage_stats_0': b'{"!t":"StageStats","f":["job0",1.0,{"!t":"tuple","f":[]}]}',
    'stage_stats_1': (
        b'{"!t":"StageStats","f":["job0",1.0,{"!t":"tuple","f":[{"!t":"ChannelSnapshot",'
        b'"f":["metadata",100.0,120.5,20.0,128.0]}]}]}'
    ),
    'stage_stats_3': (
        b'{"!t":"StageStats","f":["job0",1.0,{"!t":"tuple","f":[{"!t":"ChannelSnapshot",'
        b'"f":["metadata",100.0,120.5,20.0,128.0]},{"!t":"ChannelSnapshot","f":["data",2'
        b'00.0,241.0,20.0,256.0]},{"!t":"ChannelSnapshot","f":["dir",300.0,361.5,20.0,In'
        b'finity]}]}]}'
    ),
    'channel_snapshot': (
        b'{"!t":"ChannelSnapshot","f":["metadata",100.0,120.5,20.0,128.0]}'
    ),
    'aggregate_stats': (
        b'{"!t":"AggregateStats","f":[{"!t":"tuple","f":["job0","job1"]},{"!t":"tuple","'
        b'f":[180.0,60.5]},{"!t":"tuple","f":[4,2]}]}'
    ),
    'aggregate_stats_empty': (
        b'{"!t":"AggregateStats","f":[{"!t":"tuple","f":[]},{"!t":"tuple","f":[]},{"!t":'
        b'"tuple","f":[]}]}'
    ),
    'enum_type': b'{"!t":"OperationType","f":"open"}',
    'enum_class': b'{"!t":"OperationClass","f":"metadata"}',
    'request_envelope': b'{"msg":{"!t":"CollectStats","f":[1001.0]},"to":"job0/s0"}',
    'request_envelope_enforce': (
        b'{"msg":{"!t":"EnforceRate","f":["metadata",1234.5678,1001.0,null]},"to":"job'
        b'7/s3"}'
    ),
    'hello': b'{"peer":"bench-worker","version":3}',
    'error': b'{"detail":"address \'ghost\' not bound","error":"StageNotRegistered"}',
    'nested_tuples': (
        b'{"!t":"tuple","f":[1,"a",{"!t":"tuple","f":[2.5,null,{"!t":"tuple","f":[{"!t'
        b'":"tuple","f":[]},{"!t":"tuple","f":[false]}]}]}]}'
    ),
    'nested_lists': b'[1,[2,[3,[]]],{"!t":"tuple","f":[4,[5]]}]',
    'nested_dicts': b'{"":[],"k":{"!t":"tuple","f":[1,2]},"n":{"a":{},"deep":3.5}}',
    'dict_key_order': b'{"B":3,"a":2,"aa":4,"b":1,"~":6,"\\u00e9":5}',
    'dict_with_tag_key': b'{"!t":"dict","f":[["!t","tuple"],["f",[1,2]],["z",{"!t":"tuple","f":[3]}]]}',
    'dict_with_tag_key_nested': b'{"outer":{"!t":"dict","f":[["!t",null]]}}',
    'dict_int_keys': b'{"10":"ten","9":"nine","None":0}',
    'frozenset_strings': b'{"!t":"frozenset","f":["X","x","xa","y"]}',
    'frozenset_mixed': b'{"!t":"frozenset","f":["1",1,10,2,2.5,null,{"!t":"tuple","f":[1,2]}]}',
    'frozenset_empty': b'{"!t":"frozenset","f":[]}',
    'set_becomes_frozenset': b'{"!t":"frozenset","f":[1,2,3]}',
    'list_of_verbs': b'[{"!t":"Ping","f":[1]},{"!t":"CollectStats","f":[2.0]}]',
    'none': b'null',
    'true': b'true',
    'false': b'false',
    'zero': b'0',
    'negative_int': b'-7',
    'big_ints': (
        b'[9223372036854775808,-9223372036854775809,1267650600228229401496703205376,-1'
        b'000000000000000000000000000000]'
    ),
    'inf': b'Infinity',
    'neg_inf': b'-Infinity',
    'nan': b'NaN',
    'neg_zero': b'-0.0',
    'subnormals': b'[5e-324,-5e-324,2.225073858507201e-308]',
    'float_edges': b'[1.7976931348623157e+308,2.2250738585072014e-308,1e+16,1e-07,0.1]',
    'float_integral': b'[1.0,-2.0,1e+22,1e+21,1.2345678901234568e+17]',
    'string_empty': b'""',
    'string_non_ascii': b'"p\\u00e4th/\\u00fc/\\u65e5\\u672c\\u8a9e/\\ud83d\\ude00"',
    'string_control': b'"\\u0000\\u0001\\u001f\\u007f\\"\\\\/\\n\\r\\t\\b\\f\\u2028\\u2029"',
}


def same(a, b) -> bool:
    """Equality that tells ``-0.0`` from ``0.0`` and equates NaNs."""
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or (
            a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
        )
    if type(a) is not type(b):
        return False
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b


def test_corpus_and_golden_name_the_same_entries():
    assert [name for name, _, _ in CORPUS] == list(GOLDEN)


def test_wire_version_is_three():
    assert WIRE_VERSION == 3


def test_every_registered_tag_is_in_the_corpus():
    blob = b"".join(GOLDEN.values())
    for tag in registered_tags():
        assert b'{"!t":"' + tag.encode() + b'"' in blob, tag
    for builtin in ("tuple", "frozenset", "dict"):
        assert b'{"!t":"' + builtin.encode() + b'"' in blob, builtin


@pytest.mark.parametrize("name, value, decoded", CORPUS, ids=[c[0] for c in CORPUS])
def test_encode_matches_golden(name, value, decoded):
    assert encode_payload(value) == GOLDEN[name]


@pytest.mark.parametrize("name, value, decoded", CORPUS, ids=[c[0] for c in CORPUS])
def test_golden_decodes_to_the_value(name, value, decoded):
    expected = value if decoded is SAME else decoded
    assert same(decode_payload(GOLDEN[name]), expected)


ENVELOPES = [
    (name, value) for name, value, _ in CORPUS if name.startswith("request_envelope")
]


@pytest.mark.parametrize("name, value", ENVELOPES, ids=[e[0] for e in ENVELOPES])
def test_a_request_envelope_is_its_golden_bytes(name, value):
    # WireConnection.request writes the envelope around the message's
    # text; the bytes are the corpus entry's, not a lookalike.
    assert encode_request(value["to"], value["msg"]) == GOLDEN[name]
