import csv
import io
import json

import pytest

from ndnkit import cli
from ndnkit import signatures as sigs
from ndnkit.naming import parse_name
from ndnkit.node import TrustStore
from ndnkit.wire import Data, signed_portion

LINE = {
    "seed": 7,
    "nodes": [
        {"id": "c1", "role": "consumer"},
        {"id": "r1"},
        {"id": "p1", "role": "producer"},
    ],
    "links": [
        {"a": "c1", "a_face": 1, "b": "r1", "b_face": 1},
        {"a": "r1", "a_face": 2, "b": "p1", "b_face": 1},
    ],
    "producers": [{"prefix": "/snnu", "node": "p1"}],
    "schedule": [
        {"tick": 0, "consumer": "c1", "name": "/snnu/a"},
        {"tick": 50, "consumer": "c1", "name": "/snnu/a"},
    ],
}


# --- bench -------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_rows():
    return cli.bench_rows(iterations=3, msg_size=64, keygen_iterations=1, seed=1)


def test_every_pair_measured_once(small_rows):
    pairs = [(r.scheme, r.operation) for r in small_rows]
    assert len(pairs) == len(set(pairs)) == 18
    assert {r.scheme for r in small_rows} == set(cli.BENCH_SCHEMES)


def test_rows_carry_requested_sizes(small_rows):
    assert all(r.msg_size == 64 for r in small_rows)
    for r in small_rows:
        expected = 1 if r.operation == "keygen" else 3
        assert r.iterations == expected
        assert r.mean_us > 0


def test_csv_has_fixed_header(small_rows):
    buf = io.StringIO()
    cli.write_bench_csv(small_rows, buf)
    parsed = list(csv.reader(io.StringIO(buf.getvalue())))
    assert parsed[0] == list(cli.BENCH_HEADER)
    assert len(parsed) == 1 + len(small_rows)
    for line in parsed[1:]:
        float(line[3]), float(line[4])


def test_single_iteration_zero_stdev():
    rows = cli.bench_rows(schemes=("ecdsa",), iterations=1, seed=2)
    assert all(r.iterations == 1 and r.stdev_us == 0.0 for r in rows)


def test_rankings_come_from_the_given_rows():
    rows = [
        cli.BenchRow("a", "verify", 10, 5.0, 0.1, 64),
        cli.BenchRow("b", "verify", 10, 1.0, 0.1, 64),
        cli.BenchRow("c", "verify", 10, 3.0, 0.1, 64),
        cli.BenchRow("a", "sign", 10, 1.0, 0.1, 64),
    ]
    ranked = cli.rankings(rows)
    assert ranked == {"sign": ["a"], "verify": ["b", "c", "a"]}


def test_rankings_skip_unmeasured_operations(small_rows):
    only_sign = [r for r in small_rows if r.operation == "sign"]
    assert set(cli.rankings(only_sign)) == {"sign"}


def test_operation_subset():
    rows = cli.bench_rows(schemes=("bls",), iterations=2, operations=("verify",), seed=3)
    assert [(r.scheme, r.operation) for r in rows] == [("bls", "verify")]


def test_unknown_scheme_raises():
    with pytest.raises(cli.UnknownScheme):
        cli.bench_rows(schemes=("sphincs",), iterations=1)


def test_bad_iterations_rejected():
    with pytest.raises(ValueError):
        cli.bench_rows(iterations=0)
    with pytest.raises(ValueError):
        cli.bench_rows(iterations=1, operations=("warm",))


@pytest.mark.parametrize("kwargs, name", [
    ({"keygen_iterations": 0}, "keygen_iterations"),
    ({"keygen_iterations": -3}, "keygen_iterations"),
    ({"msg_size": -1}, "msg_size"),
])
def test_bad_keygen_iterations_and_msg_size_rejected(kwargs, name):
    # rejected before any key is made, with the argument named
    with pytest.raises(ValueError, match=name):
        cli.bench_rows(schemes=("rsa",), iterations=1, **kwargs)


def test_empty_messages_are_allowed():
    rows = cli.bench_rows(schemes=("ecdsa",), iterations=1, msg_size=0,
                          operations=("sign",), seed=5)
    assert [(r.operation, r.msg_size) for r in rows] == [("sign", 0)]


def test_bench_command_writes_csv_and_rankings(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    rc = cli.main([
        "bench", "--schemes", "ecdsa", "bls", "--iterations", "2",
        "--msg-size", "64", "--seed", "4", "--out", str(out),
    ])
    assert rc == 0
    parsed = list(csv.reader(out.open()))
    assert parsed[0] == list(cli.BENCH_HEADER)
    assert {line[0] for line in parsed[1:]} == {"ecdsa", "bls"}
    err = capsys.readouterr().err
    assert "ranking verify (fastest to slowest):" in err


def test_bench_command_rejects_unknown_scheme(capsys):
    assert cli.main(["bench", "--schemes", "sphincs", "--iterations", "1"]) == 2
    assert "unknown scheme" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--iterations", "0", "--iterations: must be at least 1, got 0"),
    ("--keygen-iterations", "0", "--keygen-iterations: must be at least 1, got 0"),
    ("--msg-size", "-1", "--msg-size: must be at least 0, got -1"),
    ("--iterations", "ten", "--iterations: 'ten' is not an integer"),
])
def test_bench_command_rejects_unusable_counts(flag, value, message, capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["bench", "--schemes", "ecdsa", "--iterations", "1", f"{flag}={value}"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


# --- keygen ------------------------------------------------------------------


def test_keygen_public_half_loads_into_trust_store(tmp_path):
    out = tmp_path / "site.bls"
    assert cli.main(["keygen", "--scheme", "bls", "--seed", "5", "--out", str(out)]) == 0
    pub = sigs.load_public((tmp_path / "site.bls.pub").read_bytes())
    priv = sigs.load_private(out.read_bytes())
    store = TrustStore()
    store.add(parse_name("/snnu/keys"), sigs.SCHEME_BLS, pub)
    blank = Data(
        name=parse_name("/snnu/x"),
        content=b"c",
        key_locator=parse_name("/snnu/keys/site"),
        scheme_id=sigs.SCHEME_BLS,
        signature=b"",
    )
    data = blank.with_signature(sigs.sign(priv, signed_portion(blank)).data)
    assert store.verify_data(data)


def test_keygen_rsa_modulus_is_1024_bits(tmp_path):
    out = tmp_path / "k.rsa"
    assert cli.main(["keygen", "--scheme", "rsa", "--seed", "5", "--out", str(out)]) == 0
    pub = sigs.load_public((tmp_path / "k.rsa.pub").read_bytes())
    assert pub.n.bit_length() == 1024


def test_keygen_group_pair_signs_and_verifies(tmp_path):
    out = tmp_path / "k.grp"
    assert cli.main(["keygen", "--scheme", "group", "--seed", "5", "--out", str(out)]) == 0
    pub = sigs.load_public((tmp_path / "k.grp.pub").read_bytes())
    cred = sigs.load_private(out.read_bytes())
    assert pub.members == (cred.y,)
    sig = sigs.group_sign(cred, pub, b"msg")
    assert sigs.group_verify(pub, b"msg", sig)


def test_keygen_seed_is_reproducible(tmp_path):
    a, b = tmp_path / "a.key", tmp_path / "b.key"
    cli.main(["keygen", "--scheme", "ecdsa", "--seed", "6", "--out", str(a)])
    cli.main(["keygen", "--scheme", "ecdsa", "--seed", "6", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_keygen_unknown_scheme_exits_2(tmp_path, capsys):
    assert cli.main(["keygen", "--scheme", "sphincs", "--out", str(tmp_path / "x")]) == 2
    assert "unknown scheme" in capsys.readouterr().err
    assert cli.main(["keygen", "--scheme", "nc", "--out", str(tmp_path / "x")]) == 2


# --- sim ---------------------------------------------------------------------


def write_topology(tmp_path, config=LINE):
    path = tmp_path / "topo.json"
    path.write_text(json.dumps(config))
    return path


def test_sim_writes_trace_and_counters(tmp_path, capsys):
    topo = write_topology(tmp_path)
    rc = cli.main(["sim", "--topology", str(topo), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert "2/2 requests delivered" in capsys.readouterr().out
    counters = list(csv.reader((tmp_path / "out" / "counters.csv").open()))
    assert counters[0] == ["node", "counter", "value"]
    assert ["r1", "cs_hits", "1"] in counters
    lines = (tmp_path / "out" / "trace.jsonl").read_text().splitlines()
    assert lines
    assert all(isinstance(json.loads(line), dict) for line in lines)


def test_sim_scenario_overlay_replaces_schedule(tmp_path):
    topo = write_topology(tmp_path)
    scenario = tmp_path / "scen.json"
    scenario.write_text(json.dumps({"schedule": [], "seed": 9}))
    rc = cli.main([
        "sim", "--topology", str(topo), "--scenario", str(scenario),
        "--out", str(tmp_path / "out"),
    ])
    assert rc == 0
    assert (tmp_path / "out" / "trace.jsonl").read_text() == ""


def test_sim_malformed_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert cli.main(["sim", "--topology", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err


def test_sim_missing_file_exits_2(tmp_path):
    missing = tmp_path / "missing.json"
    assert cli.main(["sim", "--topology", str(missing), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("what", ["topology", "scenario"])
def test_sim_config_that_is_not_utf8_exits_2(tmp_path, capsys, what):
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe{}")
    topo = bad if what == "topology" else write_topology(tmp_path)
    argv = ["sim", "--topology", str(topo), "--out", str(tmp_path / "o")]
    if what == "scenario":
        argv += ["--scenario", str(bad)]
    assert cli.main(argv) == 2
    assert f"error: {what} config {bad} is not UTF-8 text" in capsys.readouterr().err


def test_sim_config_error_exits_2(tmp_path):
    topo = write_topology(tmp_path, dict(LINE, links=[]))
    assert cli.main(["sim", "--topology", str(topo), "--out", str(tmp_path / "o")]) == 2


def test_sim_malformed_section_exits_2(tmp_path, capsys):
    topo = write_topology(tmp_path, dict(LINE, nodes=["c1"]))
    assert cli.main(["sim", "--topology", str(topo), "--out", str(tmp_path / "o")]) == 2
    assert "nodes must be a list of objects" in capsys.readouterr().err


def test_sim_root_request_name_exits_2(tmp_path, capsys):
    schedule = [dict(LINE["schedule"][0], name="/")]
    topo = write_topology(tmp_path, dict(LINE, schedule=schedule))
    assert cli.main(["sim", "--topology", str(topo), "--out", str(tmp_path / "o")]) == 2
    assert "scheduled name must not be the root name" in capsys.readouterr().err


def test_sim_node_reference_that_is_not_a_string_exits_2(tmp_path, capsys):
    links = [dict(LINE["links"][0], a=["c1"])] + LINE["links"][1:]
    topo = write_topology(tmp_path, dict(LINE, links=links))
    assert cli.main(["sim", "--topology", str(topo), "--out", str(tmp_path / "o")]) == 2
    assert "link references undeclared node ['c1']" in capsys.readouterr().err


def test_sim_tick_limit_exits_3(tmp_path):
    topo = write_topology(tmp_path, dict(LINE, tick_limit=0))
    assert cli.main(["sim", "--topology", str(topo), "--out", str(tmp_path / "o")]) == 3
