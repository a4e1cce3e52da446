"""Command surface: exit-code mapping, output schemas, and determinism."""
import json
import threading

import pytest

from slapx.cli import EXIT_CODES, EXIT_USAGE, main
from slapx.errors import RejectReason


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_bijective_with_reject_reasons(self):
        assert len(EXIT_CODES) == len(RejectReason)
        assert len(set(EXIT_CODES.values())) == len(RejectReason)
        assert all(code >= 64 for code in EXIT_CODES.values())

    def test_unknown_scenario_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "dos",
                                 "--scenario", "bogus")
        assert code == EXIT_USAGE

    def test_unknown_subcommand(self, capsys):
        assert main(["not-a-command"]) == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ("query", "--distance", "70"), ("service", "--distance", "70"),
        ("protocol", "--distance", "70"), ("enroll", "--distance", "70"),
        ("enroll", "-x", "5"), ("keygen", "-y", "5"),
        ("keygen", "--device-class", "2"),
        # values the roles cannot encode or price
        ("pol", "-x", "inf"), ("pol", "-x", "nan"), ("protocol", "-y", "1e30"),
        ("enroll", "--device-class", "300"), ("enroll", "--device-class", "-1"),
        ("query", "--device-class", "7"), ("pol", "--distance", "-1"),
        ("pol", "--via", "nd", "--distance", "-1"),
        ("pol", "--distance", "nan"),
        # a modulus rsa_setup refuses, which a socket thread would meet
        ("protocol", "--modulus-bits", "32"),
        ("protocol", "--transport", "socket", "--modulus-bits", "32")])
    def test_option_the_subcommand_ignores_is_refused(self, capsys, argv):
        # query would otherwise print QUERY_OK for a device 70 m out
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("simulate", "spoof", "--attack", "fraud", "--trials", "0"),
        ("simulate", "spoof", "--attack", "hijack", "--trials", "0"),
        ("simulate", "spoof", "--attack", "fraud", "--trials", "-3"),
        ("simulate", "dos", "--config", "{missing}"),
        ("simulate", "dos", "--calibration", "{missing}"),
        ("simulate", "dos", "--config", "{bad_config}"),
        ("simulate", "dos", "--calibration", "{bad_calibration}"),
        ("simulate", "dos", "--calibration", "{calibration_list}"),
        ("simulate", "dos", "--calibration", "{calibration_text}"),
        ("fragmentation", "--step", "0"),
        ("fragmentation", "--mtu-min", "2000", "--mtu-max", "1000"),
        ("fragmentation", "--mtu", "0"),
        ("fragmentation", "--header-bytes", "-1", "--mtu", "100"),
        ("SLAPX_SEED=abc", "simulate", "spoof", "--trials", "10"),
        ("simulate", "dos", "--config", "{bogus_scenario}"),
        ("simulate", "spoof", "--attack", "fraud", "--rounds", "0"),
        ("simulate", "spoof", "--attack", "fraud", "--rounds", "-3"),
        # calibration times the simulator's clock cannot schedule
        ("simulate", "dos", "--calibration", "{calibration_nan}"),
        ("simulate", "dos", "--calibration", "{calibration_inf}"),
        ("simulate", "dos", "--calibration", "{calibration_negative}"),
        ("simulate", "dos", "--calibration", "{calibration_bool}"),
        ("simulate", "dos", "--calibration", "{calibration_huge}"),
        ("simulate", "dos", "--calibration", "{calibration_huge_rate}")])
    def test_bad_input_is_a_usage_error(self, capsys, monkeypatch, tmp_path,
                                        argv):
        if argv[0].startswith("SLAPX_SEED="):
            monkeypatch.setenv("SLAPX_SEED", argv[0].partition("=")[2])
            argv = argv[1:]
        files = {"missing": tmp_path / "absent",
                 "bad_config": tmp_path / "bad.cfg",
                 "bogus_scenario": tmp_path / "bogus.cfg",
                 "bad_calibration": tmp_path / "bad.json",
                 "calibration_list": tmp_path / "list.json",
                 "calibration_text": tmp_path / "text.json",
                 "calibration_nan": tmp_path / "nan.json",
                 "calibration_inf": tmp_path / "inf.json",
                 "calibration_negative": tmp_path / "negative.json",
                 "calibration_bool": tmp_path / "bool.json",
                 "calibration_huge": tmp_path / "huge.json",
                 "calibration_huge_rate": tmp_path / "huge_rate.json"}
        files["bad_config"].write_text("n_ue = many\n")
        files["bogus_scenario"].write_text("scenario = bogus\n")
        files["bad_calibration"].write_text("{not json")
        files["calibration_list"].write_text("[0.1]")
        files["calibration_text"].write_text('{"query_verify_s": "slow"}')
        files["calibration_nan"].write_text('{"query_verify_s": NaN}')
        files["calibration_inf"].write_text('{"vdf_s_per_squaring": Infinity}')
        files["calibration_negative"].write_text('{"query_verify_s": -1.0}')
        files["calibration_bool"].write_text('{"query_verify_s": true}')
        files["calibration_huge"].write_text('{"query_verify_s": 1e300}')
        files["calibration_huge_rate"].write_text('{"vdf_s_per_squaring": 1e296}')
        code, _, err = run_cli(capsys, *(a.format(**files) for a in argv))
        assert code == EXIT_USAGE
        assert "usage error" in err

    def test_usage_error_names_the_bad_value(self, capsys, monkeypatch,
                                             tmp_path):
        config = tmp_path / "bogus.cfg"
        config.write_text("scenario = bogus\n")
        _, _, err = run_cli(capsys, "simulate", "dos", "--config", str(config))
        assert "usage error: unknown scenario: bogus" in err
        monkeypatch.setenv("SLAPX_SEED", "abc")
        _, _, err = run_cli(capsys, "simulate", "spoof", "--trials", "10")
        assert "usage error" in err and "'abc'" in err


class TestPolCommand:
    @pytest.mark.parametrize("via, status", [("ap", "POL_AP_OK"),
                                             ("nd", "POL_ND_OK")])
    def test_distance_zero_is_accepted(self, capsys, via, status):
        code, out, _ = run_cli(capsys, "pol", "--seed", "3", "--modulus-bits",
                               "512", "--via", via, "--distance", "0")
        assert code == 0 and out.startswith(status)

    @pytest.mark.parametrize("via, reason", [
        ("ap", RejectReason.NOT_PROXIMATE), ("nd", RejectReason.DBP_FAILED)])
    def test_default_distance_is_the_claimed_position(self, capsys, via,
                                                       reason):
        # 57 m out: the neighbor's distance bound fails before its check of
        # the claimed coordinates
        code, out, err = run_cli(capsys, "pol", "--seed", "3", "--modulus-bits",
                                 "512", "--via", via, "-x", "40", "-y", "40")
        assert code == EXIT_CODES[reason] and reason.name in err


class TestProtocolCommand:
    def test_grant_prints_phase_totals(self, capsys):
        code, out, _ = run_cli(capsys, "protocol", "--seed", "3",
                               "--modulus-bits", "512")
        assert code == 0
        assert "GRANTED" in out
        assert "pol_ap=2456" in out
        assert "spectrum_query=3016" in out
        assert "service_request=2712" in out

    def test_replay_maps_to_linked(self, capsys):
        code, _, err = run_cli(capsys, "protocol", "--seed", "3", "--replay",
                               "--modulus-bits", "512")
        assert code == EXIT_CODES[RejectReason.LINKED]
        assert "LINKED" in err

    def test_expired_proof(self, capsys):
        code, _, err = run_cli(capsys, "protocol", "--seed", "3", "--expired",
                               "--modulus-bits", "512")
        assert code == EXIT_CODES[RejectReason.EXPIRED]

    def test_far_client_not_proximate(self, capsys):
        code, _, err = run_cli(capsys, "protocol", "--seed", "3",
                               "--modulus-bits", "512",
                               "-x", "70", "-y", "70")
        assert code == EXIT_CODES[RejectReason.NOT_PROXIMATE]

    def test_socket_transport_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "protocol", "--seed", "3",
                               "--transport", "socket",
                               "--modulus-bits", "512")
        assert code == 0
        assert "GRANTED" in out
        assert "pol_ap=2456" in out and "service_request=2712" in out
        _, in_process, _ = run_cli(capsys, "protocol", "--seed", "3",
                                   "--modulus-bits", "512")
        assert out == in_process

    def test_socket_reject_exits_with_its_reason(self, capsys):
        code, out, err = run_cli(capsys, "protocol", "--seed", "3",
                                 "--transport", "socket",
                                 "--modulus-bits", "512",
                                 "-x", "70", "-y", "70")
        assert code == EXIT_CODES[RejectReason.NOT_PROXIMATE]
        assert out == "" and "REJECTED NOT_PROXIMATE" in err

    @pytest.mark.parametrize("flag, reason", [
        ("--replay", RejectReason.LINKED), ("--expired", RejectReason.EXPIRED)])
    def test_socket_reject_matches_in_process(self, capsys, flag, reason):
        argv = ("protocol", "--seed", "3", "--modulus-bits", "512", flag)
        code, out, err = run_cli(capsys, *argv, "--transport", "socket")
        _, _, in_process = run_cli(capsys, *argv)
        assert code == EXIT_CODES[reason] and out == ""
        assert (err.partition(":")[0] == in_process.partition(":")[0]
                == f"REJECTED {reason.name}")

    @pytest.mark.parametrize("extra", [(), ("--replay",)])
    def test_socket_run_leaves_no_thread(self, capsys, extra):
        before = set(threading.enumerate())
        run_cli(capsys, "protocol", "--seed", "3", "--modulus-bits", "512",
                "--transport", "socket", *extra)
        assert set(threading.enumerate()) <= before


class TestSimulateOutputs:
    def test_dos_csv_header_golden(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "dos", "--scenario", "full",
                               "--n-ue", "50", "--r-mal", "0.2", "--seed", "4")
        assert code == 0
        assert out.splitlines()[0] == (
            "scenario,n_ue,r_mal,seed,n_generated,n_queued,n_dropped_benign,"
            "n_dropped_malicious,n_rejected_arrival,n_served,n_immediate,"
            "t_q_ms,max_queue_len,attack_success_rate,max_precomputed_bank")

    def test_dos_deterministic_output(self, capsys):
        args = ("simulate", "dos", "--scenario", "bypass", "--n-ue", "200",
                "--r-mal", "0.3", "--seed", "7")
        _, out_a, _ = run_cli(capsys, *args)
        _, out_b, _ = run_cli(capsys, *args)
        assert out_a == out_b

    def test_spoof_fraud_csv(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "spoof", "--attack", "fraud",
                               "--rounds", "20", "--tolerance", "0",
                               "--guess", "0.5", "--trials", "2000",
                               "--seed", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "rounds,tolerance,guess,trials,success_rate"
        rate = float(lines[1].split(",")[-1])
        assert 0 <= rate < 0.05

    def test_spoof_fraud_against_binomial_oracle(self, capsys):
        import math
        code, out, _ = run_cli(capsys, "simulate", "spoof", "--attack", "fraud",
                               "--rounds", "100", "--tolerance", "0.2",
                               "--guess", "0.6", "--trials", "20000",
                               "--seed", "8")
        rate = float(out.splitlines()[1].split(",")[-1])
        q = 0.6 + 0.4 / 2
        p = sum(math.comb(100, j) * q ** j * (1 - q) ** (100 - j)
                for j in range(80, 101))
        sigma = math.sqrt(p * (1 - p) / 20000)
        assert abs(rate - p) <= 3 * sigma

    def test_spoof_hijack_deterministic(self, capsys):
        args = ("simulate", "spoof", "--attack", "hijack", "--trials", "20",
                "--seed", "6")
        _, out_a, _ = run_cli(capsys, *args)
        _, out_b, _ = run_cli(capsys, *args)
        assert out_a == out_b
        assert out_a.splitlines()[0] == "honest_d,mal_d,weight,trials,success_rate"

    def test_json_summary(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "dos", "--scenario", "full",
                               "--n-ue", "50", "--r-mal", "0.2", "--seed", "4",
                               "--json")
        data = json.loads(out)
        assert data["rows"][0]["scenario"] == "full_protocol"

    def test_output_file(self, capsys, tmp_path):
        path = str(tmp_path / "rows.csv")
        run_cli(capsys, "simulate", "dos", "--scenario", "full", "--n-ue", "50",
                "--r-mal", "0.2", "--seed", "4", "--output", path)
        with open(path) as f:
            assert f.readline().startswith("scenario,")

    def test_config_file_overrides(self, capsys, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("scenario = bypass  # comment\nn_ue = 100\nr_mal = 0.4\n")
        code, out, _ = run_cli(capsys, "simulate", "dos", "--scenario", "full",
                               "--config", str(cfg), "--seed", "4")
        assert code == 0
        assert out.splitlines()[1].startswith("bypass,100,0.40")

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("SLAPX_SEED", "99")
        _, out, _ = run_cli(capsys, "simulate", "dos", "--scenario", "full",
                            "--n-ue", "50", "--r-mal", "0.2", "--seed", "4")
        assert ",99," in out.splitlines()[1]


class TestFragmentationCommand:
    def test_mtu_1500_pattern(self, capsys):
        code, out, _ = run_cli(capsys, "fragmentation", "--mtu", "1500")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        packets = {r[1]: int(r[4]) for r in rows}
        assert packets["spectrum_request"] == 2
        assert packets["service_request"] == 2
        assert all(v == 1 for k, v in packets.items()
                   if k not in ("spectrum_request", "service_request"))

    def test_header_golden(self, capsys):
        _, out, _ = run_cli(capsys, "fragmentation", "--mtu", "9000")
        assert out.splitlines()[0] == \
            "mtu,message,payload_bytes,header_bytes,packets,overhead_ratio"


class TestKeygenEnroll:
    def test_keygen_json(self, capsys):
        code, out, _ = run_cli(capsys, "keygen", "--seed", "2",
                               "--modulus-bits", "512")
        data = json.loads(out)
        assert data["seed"] == 2 and len(data["ring"]) == 4

    def test_enroll_reports_224_bytes(self, capsys):
        code, out, _ = run_cli(capsys, "enroll", "--seed", "2",
                               "--modulus-bits", "512")
        assert json.loads(out)["credential_bytes"] == 224


class TestBench:
    def test_calibrate_with_one_kappa_refused_before_timing(
            self, capsys, monkeypatch, tmp_path):
        from slapx import bench

        def no_bench(*args, **kwargs):
            raise AssertionError("bench_all ran before the refusal")

        monkeypatch.setattr(bench, "bench_all", no_bench)
        out_file = tmp_path / "cal.json"
        for kappas in (["1000"], ["1000", "1000"]):
            code, _, err = run_cli(capsys, "bench", "--kappa", *kappas,
                                   "--calibrate", str(out_file))
            assert code == EXIT_USAGE
            assert "two distinct kappa" in err
        assert not out_file.exists()

    def test_too_few_iterations_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "bench", "--iterations", "10")
        assert code == EXIT_USAGE
        assert "at least 30 iterations" in err
