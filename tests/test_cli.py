import socket
import threading
from pathlib import Path

import pytest

from gridauthz.cli import main
from gridauthz.service import Service, ServiceConfig

from conftest import BO_DN, FIXTURES, KATE_DN, write_service_tree

PERMISSIVE = "/O=Grid:\n&(action != NULL)\n"
REFERENCE = (FIXTURES / "reference.policy").read_text()


# what each client command needs besides --config
CLIENT_ARGS = {
    "submit": ["--dn", BO_DN, "--rsl", "&(executable=test1)"],
    "cancel": ["--dn", BO_DN, "--job", "job-1"],
    "signal": ["--dn", BO_DN, "--job", "job-1", "--kind", "suspend"],
    "status": ["--dn", BO_DN, "--job", "job-1"],
    "list": [],
}


@pytest.fixture
def ref_config(tmp_path):
    return str(write_service_tree(tmp_path, REFERENCE, REFERENCE))


class TestPolicyCheck:
    def test_clean_policy(self, capsys):
        rc = main(["policy", "check", str(FIXTURES / "reference.policy")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "5 statements, 0 warnings" in out

    def test_warnings_printed(self, tmp_path, capsys):
        p = tmp_path / "odd.policy"
        p.write_text("/O=Grid:\n&(count > 5)(count < 3)\n")
        rc = main(["policy", "check", str(p)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "warning:" in out

    def test_parse_error_exits_nonzero(self, tmp_path, capsys):
        p = tmp_path / "bad.policy"
        p.write_text("&(count=1)\n")
        rc = main(["policy", "check", str(p)])
        assert rc == 1
        assert capsys.readouterr().err == \
            f"parse error: {p}: line 1: rule line before any subject\n"

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["policy", "check", str(tmp_path / "nope.policy")])
        assert rc == 1


class TestPolicyEval:
    def test_permit_exit_zero(self, ref_config, capsys):
        rc = main([
            "policy", "eval", "--config", ref_config,
            "--dn", BO_DN, "--action", "start",
            "--rsl", "&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=2)",
        ])
        assert rc == 0
        assert capsys.readouterr().out.startswith("PERMIT")

    def test_deny_explained_with_failing_assertion(self, ref_config, capsys):
        rc = main([
            "policy", "eval", "--config", ref_config,
            "--dn", BO_DN, "--action", "start", "--explain",
            "--rsl", "&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=5)",
        ])
        out = capsys.readouterr().out
        assert rc == 1
        assert out.startswith("DENY")
        assert "(count < 4)" in out

    def test_explain_prints_the_policy_eval_response_body(self, ref_config, capsys):
        rsl = "&(executable=test2)(directory=/sandbox/test)(jobtag=NFC)(count=5)"
        service = Service(ServiceConfig.from_file(ref_config))
        try:
            assert service.handle_request(
                f'SUBMIT dn="{KATE_DN}" '
                f'rsl="&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)"'
            ) == "OK job-1 PENDING"
            start = service.handle_request(
                f'POLICY-EVAL dn="{BO_DN}" action="start" rsl="{rsl}"')
            cancel = service.handle_request(
                f'POLICY-EVAL dn="{KATE_DN}" action="cancel" job="job-1"')
        finally:
            service.close()
        cases = [
            (start, ["--dn", BO_DN, "--action", "start", "--rsl", rsl]),
            (cancel, ["--dn", KATE_DN, "--action", "cancel", "--jobowner", KATE_DN,
                      "--jobtag", "NFC",
                      "--rsl", "&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)"]),
        ]
        for response, argv in cases:
            main(["policy", "eval", "--config", ref_config, "--explain", *argv])
            assert capsys.readouterr().out == response.removeprefix("OK ") + "\n"
        assert start.startswith("OK DENY") and cancel.startswith("OK PERMIT")

    def test_management_eval(self, ref_config, capsys):
        rc = main([
            "policy", "eval", "--config", ref_config,
            "--dn", KATE_DN, "--action", "cancel",
            "--jobowner", BO_DN, "--jobtag", "NFC",
        ])
        assert rc == 0
        assert capsys.readouterr().out.startswith("PERMIT")

    def test_management_eval_requires_jobowner(self, ref_config, capsys):
        rc = main([
            "policy", "eval", "--config", ref_config,
            "--dn", KATE_DN, "--action", "cancel",
        ])
        assert rc == 2

    @pytest.mark.parametrize("case", [
        "missing-policy", "bad-policy", "bad-dn", "bad-jobowner", "repeated-attribute",
        *(f"{command} {fault}" for command in CLIENT_ARGS
          for fault in ("missing-config", "no-server")),
        "simulate missing-config"])
    def test_a_bad_input_is_one_error_line_and_exit_2(self, tmp_path, ref_config, capsys,
                                                       case):
        argv = ["policy", "eval", "--config", ref_config, "--dn", BO_DN,
                "--action", "start", "--rsl", "&(executable=test1)"]
        command, _, fault = case.partition(" ")
        # bound but not listening: a connection to it is refused
        bound = socket.socket()
        bound.bind(("127.0.0.1", 0))
        endpoint = "127.0.0.1:%d" % bound.getsockname()[1]
        if fault:
            config = ref_config if fault == "no-server" else str(tmp_path / "missing.conf")
            argv = [command, "--config", config,
                    *CLIENT_ARGS.get(command, [str(FIXTURES / "scenarios" / "sc02.txt")])]
            Path(ref_config).write_text(
                Path(ref_config).read_text().replace("127.0.0.1:0", endpoint))
        elif case == "missing-policy":
            (tmp_path / "local.policy").unlink()
        elif case == "bad-policy":
            (tmp_path / "vo.policy").write_text("&(count=1)\n")
        elif case == "bad-dn":
            argv[argv.index(BO_DN)] = "bad"
        elif case == "bad-jobowner":
            argv[argv.index("start")] = "cancel"
            argv += ["--jobowner", "bad"]
        else:  # as a SUBMIT of it would be refused
            argv[-1] = "&(executable=a)(executable=b)"
        with bound:
            assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        if fault == "no-server":
            assert err.startswith(f"error: cannot reach the server at {endpoint}: ")

    @pytest.mark.parametrize("name", ["local.policy", "vo.policy"])
    def test_a_policy_error_names_its_document(self, tmp_path, ref_config, capsys, name):
        (tmp_path / name).write_text("&(count=1)\n")
        assert main(["policy", "eval", "--config", ref_config, "--dn", BO_DN,
                     "--action", "start"]) == 2
        assert capsys.readouterr().err == \
            f"error: {tmp_path / name}: line 1: rule line before any subject\n"


class TestSimulate:
    def test_bundled_scenario_passes(self, capsys):
        rc = main([
            "simulate", str(FIXTURES / "scenarios" / "sc02.txt"),
            "--config", str(FIXTURES / "service.conf"),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "! expected prefix" not in out

    def test_failed_expectation_exits_nonzero(self, tmp_path, capsys):
        config = write_service_tree(tmp_path, PERMISSIVE, PERMISSIVE)
        script = tmp_path / "scenario.txt"
        script.write_text(
            f'SUBMIT dn="{BO_DN}" rsl="&(executable=x)" => E-DENY\n')
        rc = main(["simulate", str(script), "--config", str(config)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "! expected prefix: E-DENY" in out

    def test_transcript_format(self, tmp_path, capsys):
        config = write_service_tree(tmp_path, PERMISSIVE, PERMISSIVE)
        script = tmp_path / "scenario.txt"
        script.write_text(
            "# comment\n"
            f'SUBMIT dn="{BO_DN}" rsl="&(executable=x)" => OK job-1\n'
            'TICK now="1" => OK time=1\n')
        rc = main(["simulate", str(script), "--config", str(config)])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert out[0].startswith("> SUBMIT")
        assert out[1] == "< OK job-1 PENDING"


class TestNetworkClients:
    @pytest.fixture
    def running_server(self, tmp_path):
        config_path = write_service_tree(tmp_path, PERMISSIVE, PERMISSIVE)
        service = Service(ServiceConfig.from_file(config_path))
        thread = threading.Thread(target=service.serve_forever, daemon=True)
        thread.start()
        for _ in range(200):
            if getattr(service, "_server", None) is not None:
                break
            threading.Event().wait(0.01)
        host, port = service._server.server_address[:2]
        # rewrite the config so clients dial the ephemeral port
        config_path.write_text(config_path.read_text().replace(
            "listen_endpoint = 127.0.0.1:0",
            f"listen_endpoint = {host}:{port}"))
        yield str(config_path)
        service.shutdown()
        thread.join(timeout=5)
        service.close()

    def test_submit_status_cancel(self, running_server, capsys):
        rc = main(["submit", "--config", running_server,
                   "--dn", BO_DN, "--rsl", "&(executable=x)"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "OK job-1 PENDING"

        rc = main(["status", "--config", running_server,
                   "--dn", BO_DN, "--job", "job-1"])
        assert rc == 0
        assert "PENDING" in capsys.readouterr().out

        rc = main(["cancel", "--config", running_server,
                   "--dn", BO_DN, "--job", "job-2"])
        assert rc == 1
        assert capsys.readouterr().out.startswith("E-UNKNOWN-JOB")

    def test_signal_priority_requires_value(self, running_server, capsys):
        rc = main(["signal", "--config", running_server,
                   "--dn", BO_DN, "--job", "job-1", "--kind", "priority"])
        assert rc == 2

    def test_list(self, running_server, capsys):
        main(["submit", "--config", running_server,
              "--dn", BO_DN, "--rsl", "&(executable=x)(jobtag=NFC)"])
        capsys.readouterr()
        rc = main(["list", "--config", running_server, "--jobtag", "NFC"])
        assert rc == 0
        assert "job-1:PENDING" in capsys.readouterr().out


def test_serve_prints_start_warnings(tmp_path, capsys, monkeypatch):
    config = write_service_tree(tmp_path, PERMISSIVE, PERMISSIVE)
    (tmp_path / "events.log.checkpoint").write_text("not a checkpoint\n")
    monkeypatch.setattr(Service, "serve_forever", lambda self: None)
    assert main(["serve", "--config", str(config)]) == 0
    assert capsys.readouterr().err.startswith(
        f"warning: stale checkpoint {tmp_path / 'events.log.checkpoint'} ignored")


def test_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "usage:" in capsys.readouterr().out
