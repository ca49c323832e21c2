"""Command-line behaviour: artifacts, exit codes, determinism."""

import csv
import hashlib
import json

import numpy as np
import pytest

from oscnet import xorlab
from oscnet.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_DIVERGED,
    EXIT_OK,
    EXIT_XOR,
    main,
)
from oscnet.activations import all_ids


def run(argv):
    return main([str(a) for a in argv])


class TestProperties:
    def test_default_run_passes_and_writes_reports(self, tmp_path, capsys):
        assert run(["properties", "--out-dir", tmp_path]) == EXIT_OK
        payload = json.loads((tmp_path / "properties.json").read_text())
        assert len(payload) == 27
        by_id = {row["id"]: row for row in payload}
        assert by_id["squ"]["measured"]["zero_crossings"] == 2
        assert by_id["swish"]["measured"]["small_value"][1] == pytest.approx(0.5, abs=1e-9)
        assert all(row["contradictions"] == [] for row in payload)

        with open(tmp_path / "properties.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 27
        assert {r["id"] for r in rows} == {row["id"] for row in payload}

    def test_byte_identical_reruns(self, tmp_path):
        run(["properties", "--out-dir", tmp_path / "a"])
        run(["properties", "--out-dir", tmp_path / "b"])
        for name in ("properties.json", "properties.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.skipif(np.__version__ != "2.4.6",
                        reason="digests were recorded with numpy 2.4.6 on x86-64")
    def test_default_reports_match_the_recorded_digests(self, tmp_path):
        """sha256 of both reports, as recorded before the scans lost their window arguments."""
        assert run(["properties", "--out-dir", tmp_path]) == EXIT_OK
        digest = lambda name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest("properties.json") == \
            "639626ce0879b61d40588bb9e590cc26d0a43ea070eb561ed5058fee66d7e566"
        assert digest("properties.csv") == \
            "1c0bd5a5099f883335caad4d649e7b5b7fece3a583317dd82519584c6ffe5cd6"


class TestXor:
    def test_ssu_trains_to_a_valid_certificate(self, tmp_path):
        assert run(["xor", "ssu", "--out-dir", tmp_path]) == EXIT_OK
        cert = json.loads((tmp_path / "xor_ssu_certificate.json").read_text())
        assert cert["valid"] and cert["correct"] == 4
        boundary = (tmp_path / "xor_ssu_boundary.csv").read_text().splitlines()
        assert boundary[0] == "x1,x2,sign"
        assert len(boundary) == 1 + 101 * 101

    def test_dsu_certifies(self, tmp_path):
        # wider init reaches DSU's oscillatory basin; the sign-change witness covers the rest
        assert run(["xor", "dsu", "--out-dir", tmp_path, "--init-scale", "2.0"]) == EXIT_OK
        cert = json.loads((tmp_path / "xor_dsu_certificate.json").read_text())
        assert cert["valid"]

    def test_sigmoid_fails_with_the_xor_exit_code(self, tmp_path):
        assert run(["xor", "sigmoid", "--out-dir", tmp_path,
                    "--epochs", "200", "--restarts", "3"]) == EXIT_XOR
        cert = json.loads((tmp_path / "xor_sigmoid_certificate.json").read_text())
        assert not cert["valid"]

    def test_seed_zero_is_valid(self, tmp_path):
        assert run(["xor", "squ", "--out-dir", tmp_path, "--seed", "0"]) == EXIT_OK

    @pytest.mark.parametrize("flags", [
        ["--lr", "nan"], ["--init-scale", "inf"], ["--init-scale", "nan"], ["--seed", "-1"],
    ])
    def test_bad_flag_is_a_config_error(self, tmp_path, capsys, flags):
        assert run(["xor", "tanh", "--out-dir", tmp_path, "--epochs", "20", "--restarts", "1"]
                   + flags) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_unknown_activation_is_a_config_error(self, tmp_path, capsys):
        assert run(["xor", "sigmoid_sine", "--out-dir", tmp_path]) == EXIT_CONFIG
        assert "unknown activation" in capsys.readouterr().err

    @pytest.mark.parametrize("ident", ["tanh", "sigmoid"])
    def test_ruled_out_id_skips_the_grid(self, tmp_path, monkeypatch, ident):
        """The catalog proves these have no certificate, so a failed training is final."""
        def no_grid(*args, **kwargs):
            raise AssertionError("the grid search ran")

        monkeypatch.setattr(xorlab, "grid_search_certificate", no_grid)
        assert run(["xor", ident, "--out-dir", tmp_path]) == EXIT_XOR
        cert = json.loads((tmp_path / f"xor_{ident}_certificate.json").read_text())
        assert cert["source"] == "trained" and not cert["valid"]

    @pytest.mark.parametrize("ident", ["ncu", "z_sq_cos", "dsu"])
    def test_open_id_that_training_misses_takes_the_witness(self, tmp_path, monkeypatch, ident):
        calls = []
        witness = xorlab.xor_witness
        monkeypatch.setattr(xorlab, "xor_witness", lambda id: calls.append(id) or witness(id))
        assert run(["xor", ident, "--out-dir", tmp_path]) == EXIT_OK
        cert = json.loads((tmp_path / f"xor_{ident}_certificate.json").read_text())
        assert cert["source"] == "witness" and cert["valid"]
        assert calls == [ident]

    @pytest.mark.parametrize("ident", [a.value for a in all_ids()])
    def test_never_runs_the_grid_search(self, tmp_path, monkeypatch, ident):
        def no_grid(*args, **kwargs):
            raise AssertionError("the grid search ran")

        monkeypatch.setattr(xorlab, "grid_search_certificate", no_grid)
        assert run(["xor", ident, "--out-dir", tmp_path]) in (EXIT_OK, EXIT_XOR)

    @pytest.mark.parametrize("ident,message", [
        ("tanh", "xor tanh: training failed and the catalog rules XOR out (best 3/4)\n"),
        # dsu trains to no certificate at seed 7; an invalid witness leaves that final
        ("dsu", "xor dsu: training failed and the sign-change witness failed (best 0/4)\n"),
    ], ids=["ruled-out", "witness"])
    def test_failure_message_names_what_decided(self, tmp_path, capsys, monkeypatch, ident, message):
        monkeypatch.setattr(xorlab, "xor_witness",
                            lambda id: xorlab._certificate_for(id, 0.0, 0.0, 0.0))
        assert run(["xor", ident, "--out-dir", tmp_path]) == EXIT_XOR
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("ident,code,certificate,boundary", [
        ("tanh", EXIT_XOR,
         "e5a430272d328fe1336e866019b041a83c9c7f6303779660bb3ce5a0d1fd5ed0",
         "9736f82a0a711f2f508938d418d270fa9170099c9f0d19bcd19029062804e6ff"),
        ("relu", EXIT_XOR,
         "7e0d13c814d4fe2247a05b4ff2698b9fa788616646ee8fd3a534217a226ed9c7",
         "416ab83ff50794f0bf020a9615c8fa40ff057ac80f869df290e869497e618d3d"),
        ("sigmoid", EXIT_XOR,
         "b6b1fd5147756faa92524ac20dc0dd8cf7769b3c89e012a7b283a7cc6faf6c02",
         "416535aaf03c54d8c3593e385533039e525ca1911befc3e11382426045db47d2"),
        ("gcu", EXIT_OK,  # trained
         "c8ab244a2a98d60ae25e84eeb78d9df480f33fb35ad4195f3b5676010a464da0",
         "d5924cf8e41bf055a1f7869806acd232dfe544fea0864ec8aaa4a41736091725"),
        ("ncu", EXIT_OK,  # witness: re-recorded when it replaced the grid search
         "dfb9cc048210d7e02435df888f4d6a1849f4efc30d69407a3aee8248b01f4cc4",
         "1d7dd2e0534577d6c61f1b468fa2639151b7c8449c645a3372d28e13e135fb24"),
    ], ids=["tanh", "relu", "sigmoid", "gcu", "ncu"])
    def test_default_outputs_match_the_recorded_digests(self, tmp_path, ident, code, certificate,
                                                        boundary):
        """sha256 of both files at the defaults, as recorded before the ruled-out ids skipped the grid."""
        assert run(["xor", ident, "--out-dir", tmp_path]) == code
        digest = lambda name: hashlib.sha256((tmp_path / f"xor_{ident}_{name}").read_bytes()).hexdigest()
        assert (digest("certificate.json"), digest("boundary.csv")) == (certificate, boundary)


class TestBench:
    def test_single_cell_bookkeeping(self, synthetic_archive, tmp_path):
        out = tmp_path / "bench"
        assert run(["bench", "--data-dir", synthetic_archive, "--out-dir", out,
                    "--activations", "relu", "--conv-layers", "1",
                    "--epochs", "2", "--subset", "100", "--batch", "16",
                    "--seed", "3", "--deterministic"]) == EXIT_OK
        records = [json.loads(l) for l in (out / "records.jsonl").read_text().splitlines()]
        assert len(records) == 2  # one row per epoch
        assert records[0]["epoch"] == 1 and records[1]["epoch"] == 2
        assert all(r["activation"] == "relu" and r["conv_layers"] == 1 for r in records)
        assert all(0.0 <= r["test_top1"] <= 1.0 for r in records)
        assert all(r["wall_seconds"] == 0.0 for r in records)

        summary = json.loads((out / "summary.json").read_text())
        assert len(summary) == 1
        assert summary[0]["status"] == "ok"
        assert summary[0]["acc_final"] == records[-1]["test_top1"]
        assert summary[0]["acc_epoch_20"] is None  # run stopped before epoch 20

    def test_matrix_shape(self, synthetic_archive, tmp_path):
        out = tmp_path / "bench"
        assert run(["bench", "--data-dir", synthetic_archive, "--out-dir", out,
                    "--activations", "relu,squ", "--conv-layers", "1,2",
                    "--epochs", "1", "--subset", "50", "--batch", "25",
                    "--seed", "0", "--deterministic"]) == EXIT_OK
        records = [json.loads(l) for l in (out / "records.jsonl").read_text().splitlines()]
        assert len(records) == 2 * 2 * 1  # activations x depths x epochs
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary) == 4

    def test_byte_identical_deterministic_reruns(self, synthetic_archive, tmp_path):
        args = ["bench", "--data-dir", synthetic_archive,
                "--activations", "gcu", "--conv-layers", "1",
                "--epochs", "1", "--subset", "50", "--batch", "25",
                "--seed", "7", "--deterministic"]
        run(args + ["--out-dir", tmp_path / "a"])
        run(args + ["--out-dir", tmp_path / "b"])
        for name in ("records.jsonl", "summary.json", "summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_divergence_exits_nonzero_after_writing_the_summary(self, synthetic_archive, tmp_path):
        out = tmp_path / "bench"
        assert run(["bench", "--data-dir", synthetic_archive, "--out-dir", out,
                    "--activations", "relu", "--conv-layers", "1",
                    "--epochs", "2", "--subset", "100", "--batch", "16",
                    "--lr", "1e12", "--deterministic"]) == EXIT_DIVERGED == 6
        summary = json.loads((out / "summary.json").read_text())
        assert summary[0]["status"].startswith("diverged")
        assert "diverged" in (out / "summary.csv").read_text()
        assert (out / "records.jsonl").is_file()

    @pytest.mark.parametrize("subset", ["-10", "0"])
    def test_non_positive_subset_is_a_config_error(self, synthetic_archive, tmp_path, capsys, subset):
        assert run(["bench", "--data-dir", synthetic_archive, "--out-dir", tmp_path,
                    "--activations", "relu", "--conv-layers", "1", "--epochs", "1",
                    "--subset", subset]) == EXIT_CONFIG
        assert "positive" in capsys.readouterr().err
        assert not (tmp_path / "records.jsonl").exists()

    @pytest.mark.parametrize("lr", ["nan", "inf", "0"])
    def test_non_finite_or_non_positive_lr_is_a_config_error(self, synthetic_archive, tmp_path,
                                                              capsys, lr):
        out = tmp_path / "bench"
        assert run(["bench", "--data-dir", synthetic_archive, "--out-dir", out,
                    "--activations", "relu", "--conv-layers", "1", "--epochs", "1",
                    "--subset", "50", "--lr", lr]) == EXIT_CONFIG
        assert "lr must be finite and positive" in capsys.readouterr().err
        assert not (out / "records.jsonl").exists()

    def test_negative_seed_fails_before_any_output(self, synthetic_archive, tmp_path):
        assert run(["bench", "--data-dir", synthetic_archive, "--out-dir", tmp_path / "o",
                    "--activations", "relu", "--conv-layers", "1", "--epochs", "1",
                    "--subset", "50", "--seed", "-1"]) == EXIT_CONFIG
        assert not (tmp_path / "o").exists()

    def test_missing_data_dir_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("OSC_DATA_DIR", raising=False)
        assert run(["bench", "--out-dir", tmp_path]) == EXIT_CONFIG

    def test_env_var_fallback(self, synthetic_archive, tmp_path, monkeypatch):
        monkeypatch.setenv("OSC_DATA_DIR", str(synthetic_archive))
        assert run(["bench", "--out-dir", tmp_path / "o", "--activations", "relu",
                    "--conv-layers", "1", "--epochs", "1", "--subset", "50",
                    "--batch", "25", "--deterministic"]) == EXIT_OK

    def test_bad_depth_is_a_config_error(self, synthetic_archive, tmp_path):
        assert run(["bench", "--data-dir", synthetic_archive, "--out-dir", tmp_path,
                    "--conv-layers", "9"]) == EXIT_CONFIG

    def test_non_integer_depth_is_a_config_error_naming_the_flag(self, tmp_path, capsys):
        # a missing archive would exit EXIT_DATA if it were read first
        assert run(["bench", "--data-dir", tmp_path / "absent", "--out-dir", tmp_path / "o",
                    "--conv-layers", "1,x"]) == EXIT_CONFIG
        assert "--conv-layers" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_depth_fails_before_any_data_is_read(self, tmp_path):
        # a missing archive would exit EXIT_DATA if it were read first
        assert run(["bench", "--data-dir", tmp_path / "absent", "--out-dir", tmp_path / "o",
                    "--activations", "relu", "--conv-layers", "2,9"]) == EXIT_CONFIG
        assert not (tmp_path / "o").exists()


def test_a_value_error_inside_a_command_is_not_a_config_error(tmp_path, monkeypatch):
    """Only ConfigError maps to exit 2; any other ValueError is a fault and propagates."""
    def broken(*args, **kwargs):
        raise ValueError("not a flag problem")

    monkeypatch.setattr(xorlab, "train_single_neuron", broken)
    with pytest.raises(ValueError, match="not a flag problem"):
        run(["xor", "squ", "--out-dir", tmp_path])


class TestEmitPlots:
    def _records(self, path, rows):
        with open(path, "w") as fh:
            for r in rows:
                fh.write(json.dumps(r) + "\n")

    def test_two_activations_two_series(self, tmp_path):
        rows = [dict(activation=a, conv_layers=d, epoch=e,
                     train_loss=1.0, test_top1=0.1 * e, wall_seconds=0.0)
                for a in ("relu", "gcu") for d in (1, 2) for e in (1, 2)]
        rec = tmp_path / "records.jsonl"
        self._records(rec, rows)
        out = tmp_path / "plots"
        assert run(["emit-plots", "--records", rec, "--out-dir", out]) == EXIT_OK

        epoch_rows = (out / "accuracy_vs_epoch.csv").read_text().splitlines()
        assert epoch_rows[0] == "activation,conv_layers,epoch,test_top1"
        assert len(epoch_rows) == 1 + len(rows)
        depth_rows = (out / "accuracy_vs_depth.csv").read_text().splitlines()
        assert len(depth_rows) == 1 + 4  # (activation, depth) pairs at final epoch

    def test_values_pass_through_verbatim(self, tmp_path):
        rows = [dict(activation="squ", conv_layers=1, epoch=1,
                     train_loss=2.0, test_top1=0.12345678901234567, wall_seconds=0.0)]
        rec = tmp_path / "r.jsonl"
        self._records(rec, rows)
        assert run(["emit-plots", "--records", rec, "--out-dir", tmp_path]) == EXIT_OK
        body = (tmp_path / "accuracy_vs_epoch.csv").read_text().splitlines()[1]
        assert body.endswith(repr(0.12345678901234567))

    def test_empty_records_emit_headers_only(self, tmp_path):
        rec = tmp_path / "r.jsonl"
        rec.write_text("")
        assert run(["emit-plots", "--records", rec, "--out-dir", tmp_path]) == EXIT_OK
        assert (tmp_path / "accuracy_vs_epoch.csv").read_text().splitlines() == \
            ["activation,conv_layers,epoch,test_top1"]

    def test_malformed_line_reports_its_number(self, tmp_path, capsys):
        rec = tmp_path / "r.jsonl"
        rec.write_text('{"activation": "relu", "conv_layers": 1, "epoch": 1, "test_top1": 0.1}\n'
                       "not json\n")
        assert run(["emit-plots", "--records", rec, "--out-dir", tmp_path]) == EXIT_DATA
        assert "line 2" in capsys.readouterr().err

    def test_non_utf8_record_is_a_data_error_naming_file_and_line(self, tmp_path, capsys):
        rec = tmp_path / "r.jsonl"
        rec.write_bytes(b'{"activation": "relu", "conv_layers": 1, "epoch": 1, "test_top1": 0.1}\n'
                        b'{"activation": "\xff"}\n')
        assert run(["emit-plots", "--records", rec, "--out-dir", tmp_path]) == EXIT_DATA
        err = capsys.readouterr().err
        assert str(rec) in err and "line 2" in err

    @pytest.mark.parametrize("field,value", [
        ("activation", 7), ("activation", None), ("conv_layers", 2.7), ("conv_layers", True),
        ("epoch", True), ("epoch", "1"), ("test_top1", "0.5"), ("test_top1", False),
    ])
    def test_mistyped_field_is_a_data_error_naming_file_and_line(self, tmp_path, capsys,
                                                                  field, value):
        good = {"activation": "relu", "conv_layers": 1, "epoch": 1, "test_top1": 0.5}
        rec = tmp_path / "r.jsonl"
        self._records(rec, [good, {**good, field: value}])
        assert run(["emit-plots", "--records", rec, "--out-dir", tmp_path]) == EXIT_DATA
        err = capsys.readouterr().err
        assert str(rec) in err and "line 2" in err and field in err

    @pytest.mark.parametrize("field,value", [
        ("conv_layers", -3), ("conv_layers", 0), ("epoch", 0), ("epoch", -1),
        ("test_top1", float("nan")), ("test_top1", float("inf")), ("test_top1", -float("inf")),
        ("test_top1", 10 ** 400),
    ])
    def test_value_no_run_writes_is_a_data_error_naming_file_and_line(self, tmp_path, capsys,
                                                                      field, value):
        good = {"activation": "relu", "conv_layers": 1, "epoch": 1, "test_top1": 0.5}
        rec = tmp_path / "r.jsonl"
        self._records(rec, [good, {**good, field: value}])
        out = tmp_path / "plots"
        assert run(["emit-plots", "--records", rec, "--out-dir", out]) == EXIT_DATA
        err = capsys.readouterr().err
        assert str(rec) in err and "line 2" in err
        assert not out.exists()

    def test_integer_accuracy_is_written_as_a_float(self, tmp_path):
        rec = tmp_path / "r.jsonl"
        self._records(rec, [{"activation": "relu", "conv_layers": 1, "epoch": 1, "test_top1": 1}])
        assert run(["emit-plots", "--records", rec, "--out-dir", tmp_path]) == EXIT_OK
        assert (tmp_path / "accuracy_vs_epoch.csv").read_text().splitlines()[1] == "relu,1,1,1.0"

    def test_missing_file_is_a_data_error(self, tmp_path):
        assert run(["emit-plots", "--records", tmp_path / "nope.jsonl",
                    "--out-dir", tmp_path]) == EXIT_DATA
