import argparse
import json
from importlib import resources

import pytest

from fopsim import stack
from fopsim.cli import _build_parser, cmd_privacy, cmd_table4, cmd_table5, main
from fopsim.report import report_json


def config_path(name):
    return str(resources.files("fopsim").joinpath(f"configs/{name}"))


def run_cli(tmp_path, *args, sub="run"):
    outdir = tmp_path / "out"
    return main(["--out", str(outdir), *args]), outdir


class TestExitCodes:
    def test_table4_passes(self, tmp_path, capsys):
        code, outdir = run_cli(tmp_path, "table4", "--latencies", "50,100")
        assert code == 0
        assert (outdir / "report.json").exists()
        assert "PASS" in capsys.readouterr().out

    def test_run_bundled_config_passes(self, tmp_path):
        code, outdir = run_cli(tmp_path, "run",
                               config_path("nat_rotation_tfo.json"))
        assert code == 0
        assert (outdir / "capture.fopcap").exists()

    def test_failing_check_returns_one(self, tmp_path):
        cfg = json.loads(resources.files("fopsim").joinpath(
            "configs/nat_rotation_fop.json").read_text("utf-8"))
        cfg["checks"] = [{"kind": "linkage_across_labels",
                          "adversary": "passive"}]
        path = tmp_path / "failing.json"
        path.write_text(json.dumps(cfg))
        code, _ = run_cli(tmp_path, "run", str(path))
        assert code == 1

    def test_malformed_config_names_key_and_exits_two(self, tmp_path, capsys):
        cfg = json.loads(resources.files("fopsim").joinpath(
            "configs/nat_rotation_fop.json").read_text("utf-8"))
        del cfg["seed"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(cfg))
        code, _ = run_cli(tmp_path, "run", str(path))
        assert code == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_unreadable_config_exits_two(self, tmp_path, capsys, where):
        path = tmp_path / ("no-such.json" if where == "missing" else "")
        code, outdir = run_cli(tmp_path, "run", str(path))
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot read" in err and str(path) in err
        assert not (outdir / "report.json").exists()

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000],
                             ids=["not-utf8", "nested-too-deep"])
    def test_undecodable_config_exits_two(self, tmp_path, capsys, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, outdir = run_cli(tmp_path, "run", str(path))
        assert code == 2
        assert "<file>: not valid JSON" in capsys.readouterr().err
        assert not (outdir / "report.json").exists()

    @pytest.mark.parametrize("mutate, key", [
        (lambda d: d["clients"][0].update(ip="1" * 300), "clients[0].ip"),
        (lambda d: d["visits"][4].update(at_ms=2**64), "visits[4].at_ms"),
    ], ids=["address-300-bytes", "at_ms=2**64"])
    def test_unrecordable_config_exits_two(self, tmp_path, capsys, mutate,
                                           key):
        # a capture cannot hold the address, a ticket cannot hold the time
        cfg = json.loads(resources.files("fopsim").joinpath(
            "configs/nat_rotation_fop.json").read_text("utf-8"))
        mutate(cfg)
        path = tmp_path / "unrecordable.json"
        path.write_text(json.dumps(cfg))
        code, outdir = run_cli(tmp_path, "run", str(path))
        assert code == 2
        assert key in capsys.readouterr().err
        assert not (outdir / "report.json").exists()

    def test_largest_accepted_times_run_and_round_trip(self, tmp_path):
        from fopsim.capture import capture_bytes, read_capture
        cfg = json.loads(resources.files("fopsim").joinpath(
            "configs/nat_rotation_fop.json").read_text("utf-8"))
        cfg["one_way_delay_ms"] = [2**32 - 1, 2**32 - 1]
        cfg["nat"]["rotations"][0]["at_ms"] = 2**62 - 1
        cfg["visits"][4]["at_ms"] = 2**62 - 1
        path = tmp_path / "late.json"
        path.write_text(json.dumps(cfg))
        code, outdir = run_cli(tmp_path, "run", str(path))
        assert code == 0
        blob = (outdir / "capture.fopcap").read_bytes()
        packets = read_capture(outdir / "capture.fopcap")
        assert capture_bytes(packets) == blob
        assert packets[-1][0] > 2**62

    def test_unknown_privacy_scenario_exits_two(self, tmp_path):
        code, _ = run_cli(tmp_path, "privacy", "--scenarios", "nonsense")
        assert code == 2

    @pytest.mark.parametrize("args, name", [
        (["--trials", "-5"], "trials"),
        (["--revisits", "0"], "revisits"),
        (["--n-secondary", "-1", "--trials", "0"], "n_secondary"),
        (["--rtt", "-60"], "rtt"),
    ])
    def test_table5_out_of_range_argument_exits_two(self, tmp_path, capsys,
                                                     args, name):
        code, outdir = run_cli(tmp_path, "table5", *args)
        assert code == 2
        assert f"error: {name} must be" in capsys.readouterr().err
        assert not (outdir / "report.json").exists()

    @pytest.mark.parametrize("args, message", [
        (["table4", "--latencies", "-50"], "latencies must be >= 0"),
        (["--seed=-1", "table5"], "root seed must fit in 64 bits"),
        (["--seed=18446744073709551616", "table5"],
         "root seed must fit in 64 bits"),
        (["table5", "--engine", "packet", "--rtt", "0"],
         "packet engine needs a positive integer RTT"),
    ], ids=["negative-latency", "seed=-1", "seed=2**64", "packet-rtt-0"])
    def test_out_of_range_input_exits_two(self, tmp_path, capsys, args,
                                          message):
        code, outdir = run_cli(tmp_path, *args)
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (outdir / "report.json").exists()

    def test_simulation_error_exits_two(self, tmp_path, capsys, monkeypatch):
        # a schema-valid config can still fail to run: here a client has
        # more simultaneous visits than local ports
        monkeypatch.setattr(stack, "CLIENT_PORTS", range(50001, 50003))
        visit = {"at_ms": 0, "client": "c", "hostname": "shop.example",
                 "label": "v", "context": "v"}
        path = tmp_path / "ports.json"
        path.write_text(json.dumps({
            "version": 1, "name": "ports", "variant": "tfo", "seed": 1,
            "clients": [{"id": "c", "ip": "203.0.113.1"}],
            "hosts": [{"hostnames": ["shop.example"],
                       "ips": ["198.51.100.1"]}],
            "visits": [visit] * 3}))
        code, outdir = run_cli(tmp_path, "run", str(path))
        assert code == 2
        assert ("error: client c: every local port is in use"
                in capsys.readouterr().err)
        assert not (outdir / "report.json").exists()

    def test_run_with_address_change_mid_connection_writes_report(self, tmp_path):
        # the gateway rotates while the first connection's SYN is in flight
        cfg = json.loads(resources.files("fopsim").joinpath(
            "configs/nat_rotation_tfo.json").read_text("utf-8"))
        cfg["nat"]["rotations"][0]["at_ms"] = cfg["visits"][0]["at_ms"] + 1
        cfg["checks"] = []
        path = tmp_path / "mid_connection.json"
        path.write_text(json.dumps(cfg))
        code, outdir = run_cli(tmp_path, "run", str(path))
        assert code == 0
        report = json.loads((outdir / "report.json").read_text())
        assert report["results"]["connections"] == len(cfg["visits"])


class TestDeterminism:
    def run_twice(self, tmp_path, *args):
        blobs = []
        for k in (1, 2):
            outdir = tmp_path / f"pass{k}"
            assert main(["--out", str(outdir), *args]) == 0
            blob = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
            blobs.append(blob)
        return blobs

    def test_run_is_byte_identical(self, tmp_path):
        a, b = self.run_twice(tmp_path, "run",
                              config_path("nat_rotation_tfo.json"))
        assert a == b
        assert "capture.fopcap" in a

    def test_table5_reports_byte_identical(self, tmp_path):
        a, b = self.run_twice(tmp_path, "--seed", "13", "table5",
                              "--trials", "5000")
        assert a == b


class TestCommands:
    def test_table5_trials_zero_is_analytic_only(self, tmp_path):
        code, outdir = run_cli(tmp_path, "table5", "--trials", "0")
        assert code == 0
        report = json.loads((outdir / "report.json").read_text())
        for row in report["results"]["rows"]:
            for cells in row["variants"].values():
                assert "montecarlo" not in cells

    def test_table5_custom_probs(self, tmp_path):
        code, outdir = run_cli(tmp_path, "table5", "--probs", "0.5,0.25",
                               "--revisits", "2", "--trials", "2000")
        assert code == 0
        report = json.loads((outdir / "report.json").read_text())
        assert report["params"]["probs"] == [0.5, 0.25]
        assert report["reference"] == {}

    def test_table5_revisit_past_the_published_table_is_not_compared(
            self, tmp_path):
        code, outdir = run_cli(tmp_path, "table5", "--revisits", "4")
        assert code == 0
        names = [c["name"] for c in
                 json.loads((outdir / "report.json").read_text())["checks"]]
        assert "r3_fop_cells_exact" in names
        assert "r4_tfo_mc_save0_within_3sigma" in names
        assert not [n for n in names if n.startswith("r4_")
                    and ("reference" in n or "exact" in n)]

    def test_privacy_single_cell(self, tmp_path):
        code, outdir = run_cli(tmp_path, "privacy", "--scenarios", "restart",
                               "--variants", "fop")
        assert code == 0
        report = json.loads((outdir / "report.json").read_text())
        (cell,) = report["results"]["cells"]
        assert cell["verdict"] == "blocked"
        assert (outdir / "restart_fop.fopcap").exists()

    def test_privacy_lifetime_is_the_configs(self, monkeypatch):
        from dataclasses import replace

        from fopsim.cli import cmd_privacy
        from fopsim.experiments import privacy
        from fopsim.transport import TcpVariant
        load = privacy.load_config

        def shorter_restart(path):
            cfg = load(path)
            if path.name == "restart.json":
                cfg = replace(cfg, cookie_lifetime_ms=600_000)
            return cfg
        monkeypatch.setattr(privacy, "load_config", shorter_restart)
        report = cmd_privacy(["restart"], [TcpVariant.FOP])
        assert report["params"]["lifetime_ms"] == 600_000
        with pytest.raises(ValueError, match="disagree"):
            cmd_privacy(["restart", "ip_change"], [TcpVariant.FOP])

    def test_privacy_evidence_rederivable_from_capture(self, tmp_path):
        from fopsim.adversary import link_passive, observe
        from fopsim.capture import read_capture
        code, outdir = run_cli(tmp_path, "privacy", "--scenarios",
                               "nat_rotation", "--variants", "tfo")
        assert code == 0
        report = json.loads((outdir / "report.json").read_text())
        (cell,) = report["results"]["cells"]
        packets = read_capture(outdir / "nat_rotation_tfo.fopcap")
        rederived = link_passive(observe(packets)).to_dict()
        assert rederived == cell["graph"]

    def test_csv_format_writes_both_files(self, tmp_path):
        code, outdir = run_cli(tmp_path, "--format", "csv", "table4",
                               "--latencies", "50")
        assert code == 0
        assert (outdir / "report.csv").exists()
        assert (outdir / "report.json").exists()

    def test_env_var_sets_output_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "from-env"
        monkeypatch.setenv("FOPSIM_OUT", str(target))
        assert main(["table4", "--latencies", "50"]) == 0
        assert (target / "report.json").exists()


class TestDefaults:
    def test_parser_leaves_every_command_default_to_its_command(self):
        # an option left out is absent from the parsed arguments, so the
        # cmd_* function's own default applies; only --out and --format,
        # which no cmd_* function takes, keep a parser default
        parser = _build_parser()
        (sub,) = [a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction)]
        declared = {}
        for p in [parser, *sub.choices.values()]:
            assert p._defaults == {}
            for action in p._actions:
                if (action is not sub
                        and action.default is not argparse.SUPPRESS):
                    declared[p.prog, action.dest] = action.default
        assert declared == {("fopsim", "out"): None,
                            ("fopsim", "format"): "json"}

    @pytest.mark.parametrize("args, command", [
        (["table4"], cmd_table4),
        (["privacy"], cmd_privacy),
        (["table5", "--trials", "0"], lambda: cmd_table5(trials=0)),
    ], ids=["table4", "privacy", "table5"])
    def test_main_writes_the_commands_default_report(self, tmp_path, args,
                                                      command):
        code, outdir = run_cli(tmp_path, *args)
        assert code == 0
        assert (outdir / "report.json").read_bytes() == report_json(command())

    @pytest.mark.parametrize("args, same_as", [
        (["table4", "--latencies", ""], ["table4"]),
        (["table5", "--trials", "0", "--probs", ""],
         ["table5", "--trials", "0"]),
    ], ids=["latencies", "probs"])
    def test_empty_list_gives_the_default(self, tmp_path, args, same_as):
        reports = []
        for k, argv in enumerate((args, same_as)):
            assert main(["--out", str(tmp_path / str(k)), *argv]) == 0
            reports.append((tmp_path / str(k) / "report.json").read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("args, option", [
        (["table4", "--latencies", "50,abc"], "--latencies"),
        (["table4", "--variants", "tfo,quic"], "--variants"),
        (["table5", "--probs", "0.5,x"], "--probs"),
        (["privacy", "--variants", "quic"], "--variants"),
    ])
    def test_malformed_list_exits_two_naming_the_option(self, tmp_path, capsys,
                                                        args, option):
        with pytest.raises(SystemExit) as exc:
            run_cli(tmp_path, *args)
        assert exc.value.code == 2
        assert f"error: argument {option}:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_seed_with_run_exits_two(self, tmp_path, capsys):
        # a config sets its own seed; --seed would be silently ignored
        with pytest.raises(SystemExit) as exc:
            run_cli(tmp_path, "--seed", "99", "run",
                    config_path("nat_rotation_tfo.json"))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert ("error: --seed does not apply to run: the config sets the "
                "seed") in err
        assert not (tmp_path / "out").exists()
