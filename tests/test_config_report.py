import copy
import csv
import json
from dataclasses import replace
from importlib import resources

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fopsim.capture import capture_bytes
from fopsim.config import DEFAULTS, ConfigError, ScenarioConfig, load_config
from fopsim.experiments import (
    EXPECTED_VERDICTS,
    PRIVACY_SCENARIOS,
    run_privacy_matrix,
)
from fopsim.report import report_json, write_csv
from fopsim.scenario import _evaluate, run_scenario
from fopsim.transport import TcpVariant


def bundled(name):
    return resources.files("fopsim").joinpath(f"configs/{name}")


def report_schema():
    return json.loads(resources.files("fopsim").joinpath(
        "schemas/report.schema.json").read_text("utf-8"))


def bundled_dict(name):
    return json.loads(bundled(name).read_text("utf-8"))


JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 2**40)
    | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8)

BASES = [bundled_dict(name) for name in
         ("nat_rotation_tfo.json", "shared_nat_two_clients.json",
          *(f"privacy/{n}.json" for n in ("third_party", "ip_change", "restart")))]
# a gateway that no client sits behind
BASES.append({**bundled_dict("privacy/private_mode.json"),
              "nat": {"public_ip": "192.0.2.1"}})


def _paths(node, prefix=()):
    if prefix:
        yield prefix
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


@st.composite
def _mutated_configs(draw):
    """A bundled config with one to three values replaced by arbitrary
    JSON, or removed."""
    data = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 3))):
        *path, last = draw(st.sampled_from(list(_paths(data))))
        parent = data
        for key in path:
            parent = parent[key]
        if draw(st.booleans()):
            parent.pop(last)
        else:
            parent[last] = draw(JSON | st.lists(JSON, max_size=2)
                                | st.dictionaries(st.text(max_size=6), JSON,
                                                  max_size=2))
    return data


class TestConfig:
    def test_bundled_configs_validate(self):
        for name in ("nat_rotation_tfo.json", "nat_rotation_fop.json",
                     "shared_nat_two_clients.json"):
            cfg = ScenarioConfig.from_dict(bundled_dict(name))
            assert cfg.version == 1

    def test_round_trip_is_lossless(self):
        data = bundled_dict("nat_rotation_tfo.json")
        cfg = ScenarioConfig.from_dict(data)
        assert cfg.to_dict() == data
        assert ScenarioConfig.from_dict(cfg.to_dict()).to_dict() == data
        data["one_way_delay_ms"] = [40, 20]
        assert ScenarioConfig.from_dict(data).to_dict() == data

    @pytest.mark.parametrize("mutate,key", [
        (lambda d: d.pop("seed"), "seed"),
        (lambda d: d.update(seed=-1), "seed"),
        (lambda d: d.update(variant="tls-next"), "variant"),
        (lambda d: d.update(version=99), "version"),
        (lambda d: d["visits"][0].update(client="nobody"), "visits[0].client"),
        (lambda d: d["visits"][1].update(hostname="ghost.example"),
         "visits[1].hostname"),
        (lambda d: d["hosts"][0].update(ips=[]), "hosts[0].ips"),
        (lambda d: d["checks"].append({"kind": "telepathy"}), "checks[3].kind"),
        (lambda d: d["nat"].pop("public_ip"), "nat.public_ip"),
        (lambda d: d.update(one_way_delay_ms=-5), "one_way_delay_ms"),
        (lambda d: (d["clients"][0].update(behind_nat=False),
                    d.update(nat=[])), "nat"),
        (lambda d: d["visits"][1].update(client=["alice"]), "visits[1].client"),
        (lambda d: d["checks"][0].update(kind=["x"]), "checks[0].kind"),
        (lambda d: d["checks"][2].update(adversary="wiretap"),
         "checks[2].adversary"),
        (lambda d: d["checks"][2].update(hostname="tracker.example"),
         "checks[2].hostname"),
        (lambda d: d["checks"].append({"kind": "linkage_across_labels",
                                       "hostname": "ghost.example"}),
         "checks[3].hostname"),
        (lambda d: d["checks"][0].update(hostname="tracker.example"),
         "checks[0].hostname"),
        (lambda d: d["visits"][0].update(secondaries=["ghost.example"]),
         "visits[0].secondaries"),
        (lambda d: d.update(events=[{"at_ms": 0, "client": "bob",
                                     "kind": "clear_tls_cache"}]),
         "events[0].client"),
        (lambda d: d.update(events=[{"at_ms": 0, "client": "alice",
                                     "kind": "reboot"}]), "events[0].kind"),
        (lambda d: d.update(events=[{"at_ms": 0, "client": "alice",
                                     "kind": "change_ip"}]),
         "events[0].new_ip"),
        (lambda d: d.update(events=[{"at_ms": 0, "client": "alice",
                                     "kind": "clear_tls_cache",
                                     "new_ip": "10.0.0.9"}]),
         "events[0].new_ip"),
        (lambda d: (d["clients"].append({"id": "bob", "ip": "10.0.0.3",
                                         "behind_nat": True}),
                    d.update(events=[{"at_ms": 100, "client": "alice",
                                      "kind": "change_ip",
                                      "new_ip": "10.0.0.3"}])),
         "events[0].new_ip"),
        (lambda d: d.update(events=[{"at_ms": 100, "client": "alice",
                                     "kind": "change_ip",
                                     "new_ip": "192.0.2.99"}]),
         "events[0].new_ip"),
        (lambda d: d["nat"]["rotations"][0].update(new_ip="192.0.2.1"),
         "nat.rotations[0].new_ip"),
        (lambda d: d["nat"]["rotations"].insert(
            0, {"at_ms": 36000000, "new_ip": "192.0.2.99"}),
         "nat.rotations[0].new_ip"),
        (lambda d: d["clients"].append({"id": "bob", "ip": "192.0.2.99"}),
         "nat.rotations[0].new_ip"),
        (lambda d: d["clients"].append({"id": "bob", "ip": "10.0.0.2",
                                        "behind_nat": True}),
         "clients[1].ip"),
        (lambda d: d["hosts"][0].update(failure_probs=[]),
         "hosts[0].failure_probs"),
        # JSON booleans are not numbers. A case whose key an earlier case
        # uses once gets an explicit id, so the earlier id stays as it is.
        (lambda d: d.update(seed=True), "seed"),
        (lambda d: d.update(seed=2**64), "seed"),
        pytest.param(lambda d: d.update(version=True), "version",
                     id="version=true"),
        pytest.param(lambda d: d.update(one_way_delay_ms=False),
                     "one_way_delay_ms", id="one_way_delay_ms=false"),
        (lambda d: d.update(cookie_lifetime_ms=True), "cookie_lifetime_ms"),
        (lambda d: d["visits"][2].update(at_ms=True), "visits[2].at_ms"),
        (lambda d: d["nat"]["rotations"][0].update(at_ms=False),
         "nat.rotations[0].at_ms"),
        (lambda d: d["hosts"].append({"hostnames": ["cdn.example"],
                                      "ips": ["198.51.100.4"],
                                      "failure_probs": [0.5, True]}),
         "hosts[1].failure_probs"),
        pytest.param(lambda d: d.update(one_way_delay_ms=[1]),
                     "one_way_delay_ms", id="one_way_delay_ms=[1]"),
        pytest.param(lambda d: d.update(one_way_delay_ms=[1, 2, 3]),
                     "one_way_delay_ms", id="one_way_delay_ms=[1,2,3]"),
        pytest.param(lambda d: d.update(one_way_delay_ms=[-1, 2]),
                     "one_way_delay_ms", id="one_way_delay_ms=[-1,2]"),
        pytest.param(lambda d: d.update(one_way_delay_ms=[True, 2]),
                     "one_way_delay_ms", id="one_way_delay_ms=[true,2]"),
        pytest.param(lambda d: d.update(one_way_delay_ms=[2.5, 2]),
                     "one_way_delay_ms", id="one_way_delay_ms=[2.5,2]"),
        # two pools on one address: routing would reach only the second
        (lambda d: d["hosts"].append({"hostnames": ["cdn.example"],
                                      "ips": list(d["hosts"][0]["ips"])}),
         "hosts[1].ips"),
        # names a TLS hello cannot carry: over 255 UTF-8 bytes, or no UTF-8
        pytest.param(lambda d: d["hosts"][0]["hostnames"].append(
            "\u00e9" * 128), "hosts[0].hostnames", id="hostname-256-bytes"),
        pytest.param(lambda d: d["hosts"][0]["hostnames"].append(
            "\ud800.example"), "hosts[0].hostnames", id="hostname-surrogate"),
        # a key the schema does not name, one per kind of object: each
        # would otherwise be dropped without a word
        pytest.param(lambda d: d.update(hsots=[]), "hsots",
                     id="unknown-key-root"),
        pytest.param(lambda d: d["clients"][0].update(behind_gateway=True),
                     "clients[0].behind_gateway", id="unknown-key-client"),
        pytest.param(lambda d: d["nat"].update(rotation=[]), "nat.rotation",
                     id="unknown-key-nat"),
        pytest.param(lambda d: d["nat"]["rotations"][0].update(new_address=""),
                     "nat.rotations[0].new_address",
                     id="unknown-key-rotation"),
        pytest.param(lambda d: d["hosts"][0].update(failure_prob=[1.0]),
                     "hosts[0].failure_prob", id="unknown-key-host"),
        pytest.param(lambda d: d["visits"][0].update(contxt="work"),
                     "visits[0].contxt", id="unknown-key-visit"),
        pytest.param(lambda d: d["checks"][0].update(adversery="passive"),
                     "checks[0].adversery", id="unknown-key-check"),
        pytest.param(lambda d: d.update(events=[{
            "at_ms": 0, "client": "alice", "kind": "clear_tls_cache",
            "when_ms": 0}]), "events[0].when_ms", id="unknown-key-event"),
        # addresses a capture's u8-prefixed UTF-8 field cannot hold
        pytest.param(lambda d: d["clients"][0].update(ip="1" * 256),
                     "clients[0].ip", id="ip-256-bytes-client"),
        pytest.param(lambda d: d["clients"][0].update(ip="10.0.0.\ud800"),
                     "clients[0].ip", id="ip-surrogate-client"),
        # a client id names random streams, which hash it as UTF-8
        pytest.param(lambda d: d["clients"][0].update(id="al\ud800"),
                     "clients[0].id", id="id-surrogate-client"),
        pytest.param(lambda d: d["nat"].update(public_ip="\u00e9" * 128),
                     "nat.public_ip", id="ip-256-bytes-nat"),
        pytest.param(lambda d: d["nat"]["rotations"][0].update(
            new_ip="2" * 256), "nat.rotations[0].new_ip",
            id="ip-256-bytes-rotation"),
        pytest.param(lambda d: d.update(events=[{
            "at_ms": 0, "client": "alice", "kind": "change_ip",
            "new_ip": "3" * 256}]), "events[0].new_ip",
            id="ip-256-bytes-event"),
        pytest.param(lambda d: d["hosts"][0]["ips"].append("4" * 256),
                     "hosts[0].ips", id="ip-256-bytes-host"),
        # times past what a ticket's or a capture's u64 clock field holds
        pytest.param(lambda d: d["visits"][4].update(at_ms=2**64),
                     "visits[4].at_ms", id="at_ms=2**64-visit"),
        pytest.param(lambda d: d["visits"][4].update(at_ms=2**62),
                     "visits[4].at_ms", id="at_ms=2**62-visit"),
        pytest.param(lambda d: d["nat"]["rotations"][0].update(at_ms=2**62),
                     "nat.rotations[0].at_ms", id="at_ms=2**62-rotation"),
        pytest.param(lambda d: d.update(events=[{
            "at_ms": 2**62, "client": "alice", "kind": "clear_tls_cache"}]),
            "events[0].at_ms", id="at_ms=2**62-event"),
        pytest.param(lambda d: d.update(one_way_delay_ms=2**32),
                     "one_way_delay_ms", id="one_way_delay_ms=2**32"),
        pytest.param(lambda d: d.update(one_way_delay_ms=[30, 2**32]),
                     "one_way_delay_ms", id="one_way_delay_ms=[30,2**32]"),
    ])
    def test_diagnostics_name_offending_key(self, mutate, key):
        data = bundled_dict("nat_rotation_tfo.json")
        mutate(data)
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(data)
        assert key in str(err.value)

    def test_duplicate_hostname_rejected(self):
        data = bundled_dict("nat_rotation_tfo.json")
        data["hosts"].append({"hostnames": ["tracker.example"],
                              "ips": ["198.51.100.9"]})
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(data)

    def test_hostname_of_255_utf8_bytes_accepted(self):
        data = bundled_dict("nat_rotation_tfo.json")
        data["hosts"][0]["hostnames"].append("\u00e9" * 127 + "a")
        ScenarioConfig.from_dict(data)

    def test_privacy_configs_validate_and_round_trip(self):
        for name in PRIVACY_SCENARIOS:
            data = bundled_dict(f"privacy/{name}.json")
            cfg = ScenarioConfig.from_dict(data)
            assert cfg.variant == "fop"
            assert cfg.to_dict() == {"nat": None, **data}

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=400)
    @given(st.one_of(JSON, _mutated_configs()))
    def test_arbitrary_json_raises_only_config_error(self, data):
        try:
            cfg = ScenarioConfig.from_dict(data)
        except ConfigError:
            return
        assert ScenarioConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()

    def test_load_config_reports_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)


def _objects_of(data, kind):
    """The objects a config holds under ``kind``: the config itself for
    "config", else a list, or the gateway."""
    if kind == "config":
        return [data]
    held = data.get(kind)
    return [held] if isinstance(held, dict) else held or []


class TestOptionalDefaults:
    BUNDLED = [*(f"{n}.json" for n in ("nat_rotation_tfo", "nat_rotation_fop",
                                       "shared_nat_two_clients")),
               *(f"privacy/{n}.json" for n in sorted(PRIVACY_SCENARIOS))]

    @staticmethod
    def _run(data):
        """What a run of ``data`` gives: its connection records, tap bytes
        and summary, or the ConfigError it raises."""
        try:
            result = run_scenario(ScenarioConfig.from_dict(data))
        except ConfigError as exc:
            return str(exc)
        return (result.world.all_records(), capture_bytes(result.tap_packets),
                result.summary())

    def test_written_default_runs_as_left_out(self):
        # on every object of its kind, an optional key left out and the
        # key written as its default give the same run
        covered = set()
        for name in self.BUNDLED:
            for kind, keys in DEFAULTS.items():
                for key, default in keys.items():
                    left_out, written = bundled_dict(name), bundled_dict(name)
                    if not _objects_of(left_out, kind):
                        continue
                    covered.add((kind, key))
                    for obj in _objects_of(left_out, kind):
                        obj.pop(key, None)
                    for obj in _objects_of(written, kind):
                        obj[key] = copy.deepcopy(default)
                    assert self._run(written) == self._run(left_out), \
                        (name, kind, key)
        assert covered == {(kind, key) for kind, keys in DEFAULTS.items()
                           for key in keys}

    def test_null_check_hostname_is_every_pool(self):
        # a linkage check's hostname of null, its default, reads every pool
        data = bundled_dict("privacy/third_party.json")
        (check,) = data["checks"]
        check["hostname"] = None
        assert ScenarioConfig.from_dict(data).checks[0]["hostname"] is None
        data["checks"].append({"kind": "passive_singletons", "hostname": None})
        ScenarioConfig.from_dict(data)


class TestScenarioRunner:
    def test_nat_rotation_tfo_checks_pass(self):
        cfg = ScenarioConfig.from_dict(bundled_dict("nat_rotation_tfo.json"))
        result = run_scenario(cfg)
        assert result.passed, result.checks
        # tracking via cookies spans the whole script, addresses only half
        assert result.summary()["host"]["tracking_period_ms"] == 28_800_000

    def test_nat_rotation_fop_checks_pass(self):
        cfg = ScenarioConfig.from_dict(bundled_dict("nat_rotation_fop.json"))
        result = run_scenario(cfg)
        assert result.passed, result.checks

    def test_shared_nat_config_passes(self):
        cfg = ScenarioConfig.from_dict(bundled_dict("shared_nat_two_clients.json"))
        result = run_scenario(cfg)
        assert result.passed, result.checks

    def test_per_hostname_linkage_survives_a_missing_record(self):
        # the host adversary of third_party.json sees only the tracker's
        # pool; records are joined to observations by the SYN's wire
        # endpoint, so a missing first-party record cannot shift the
        # labels of the tracker's observations
        cfg = ScenarioConfig.from_dict(bundled_dict("privacy/third_party.json"))
        result = run_scenario(cfg)
        graph, labels = result.linkage("host", "tracker.example")
        assert labels == ["first-party-a", "first-party-b"]
        assert len(graph.nodes) == 2
        records = result.world.clients["alice"].records
        assert records.pop(0).hostname == "site-a.example"
        graph, labels = result.linkage("host", "tracker.example")
        assert labels == ["first-party-a", "first-party-b"]
        assert len(graph.nodes) == 2
        # the observation whose record is gone reads None
        _, labels = result.linkage("host", None)
        assert labels == [None, "first-party-a", "first-party-b",
                          "first-party-b"]

    def test_failing_check_flips_passed(self):
        data = bundled_dict("nat_rotation_fop.json")
        data["checks"] = [{"kind": "linkage_across_labels",
                           "adversary": "passive"}]
        result = run_scenario(ScenarioConfig.from_dict(data))
        assert not result.passed

    def test_unknown_check_kind_raises(self):
        # the config rejects it first; a kind the config accepts but the
        # runner does not know must not read as passed
        result = run_scenario(ScenarioConfig.from_dict(
            bundled_dict("nat_rotation_fop.json")))
        with pytest.raises(ValueError, match="unknown check kind"):
            _evaluate({"kind": "nonsense"}, result)

    @pytest.mark.parametrize("name", PRIVACY_SCENARIOS)
    def test_privacy_config_reproduces_fop_cell(self, tmp_path, name):
        from fopsim.cli import cmd_run
        report = cmd_run(bundled(f"privacy/{name}.json"), outdir=tmp_path)
        cell = run_privacy_matrix(TcpVariant.FOP, name, seed=1)
        assert report["passed"] and cell.verdict == "blocked"
        assert (tmp_path / "capture.fopcap").read_bytes() \
            == capture_bytes(cell.tap_packets)

    @pytest.mark.parametrize("variant", [TcpVariant.TFO, TcpVariant.FOP])
    @pytest.mark.parametrize("name", PRIVACY_SCENARIOS)
    def test_privacy_config_reproduces_cell(self, name, variant):
        # a cell is its config's run: blocked exactly when the check passes
        cfg = load_config(bundled(f"privacy/{name}.json"))
        result = run_scenario(replace(cfg, variant=variant.value))
        cell = run_privacy_matrix(variant, name, seed=cfg.seed)
        assert result.passed == (cell.verdict == "blocked")
        assert cell.verdict == EXPECTED_VERDICTS[variant.value][name]
        assert capture_bytes(result.tap_packets) \
            == capture_bytes(cell.tap_packets)

    def test_same_seed_identical_capture(self):
        cfg = ScenarioConfig.from_dict(bundled_dict("nat_rotation_tfo.json"))
        assert capture_bytes(run_scenario(cfg).tap_packets) \
            == capture_bytes(run_scenario(cfg).tap_packets)


class TestReport:
    def test_json_bytes_deterministic_and_schema_valid(self):
        from fopsim.cli import cmd_table4
        report = cmd_table4([50], seed=4)
        assert report_json(report) == report_json(cmd_table4([50], seed=4))
        jsonschema.validate(json.loads(report_json(report)),
                            report_schema())

    def test_all_commands_validate_against_schema(self, tmp_path):
        from fopsim.cli import cmd_privacy, cmd_run, cmd_table5
        schema = report_schema()
        reports = [
            cmd_table5(trials=1_000, seed=4),
            cmd_privacy(["third_party"], seed=4),
            cmd_run(bundled("nat_rotation_fop.json")),
        ]
        for report in reports:
            jsonschema.validate(json.loads(report_json(report)), schema)

    def test_csv_column_order_fixed(self, tmp_path):
        from fopsim.cli import cmd_privacy, cmd_run, cmd_table4, cmd_table5
        privacy = cmd_privacy(["third_party"], seed=4)
        run = cmd_run(bundled("nat_rotation_fop.json"))
        # (report, header, its rows or None when not checked here)
        cases = [
            (cmd_table4([50], seed=4), "rtt_ms,variant,initial_ms,"
             "resumed_ms,resumed_vs_initial_saving", None),
            (cmd_table5(trials=0, seed=4), "revisit,variant,kind,p_save0,"
             "p_save1,p_save2,mean_delay_overhead_ms", None),
            (privacy, "scenario,variant,adversary,verdict,cross_links",
             [[c[k] for k in ("scenario", "variant", "adversary", "verdict",
                              "cross_links")]
              for c in privacy["results"]["cells"]]),
            (run, "check,passed,detail",
             [[c["name"], c["passed"], c["detail"]] for c in run["checks"]]),
        ]
        for report, header, rows in cases:
            path = tmp_path / f"{report['command']}.csv"
            write_csv(report, path)
            lines = path.read_text().splitlines()
            assert lines[0] == header
            if rows is not None:
                assert rows and list(csv.reader(lines[1:])) == [
                    [str(v) for v in row] for row in rows]
        with pytest.raises(ValueError, match="no CSV writer for command"):
            write_csv(dict(run, command="inspect"), tmp_path / "inspect.csv")
        assert not (tmp_path / "inspect.csv").exists()
