"""Config parsing, CLI subcommands, and SVG plotting tests."""

import dataclasses
import os
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fassl import cli
from fassl.cli import main
from fassl.config import (
    SCHEMA,
    ExperimentSpec,
    apply_overrides,
    default_spec,
    emit_defaults,
    parse_config,
    parse_config_text,
)
from fassl.errors import ConfigError, ContractError
from fassl.orchestrator import CSV_HEADER, RunConfig
from fassl.plotting import INT_COLUMNS, collect_series, plot_results, read_results_csv


class TestParseConfig:
    def test_empty_file_gives_all_defaults(self):
        spec = parse_config_text("")
        cfg = spec.base_run_config()
        assert cfg.rounds == 100
        assert cfg.n_clients == 100
        assert cfg.clients_per_round == 10
        assert cfg.local_epochs == 1
        assert cfg.batch_size == 64
        assert cfg.alpha == 0.1

    def test_negative_alpha_is_range_error_with_line_number(self):
        with pytest.raises(ConfigError, match=r":2:"):
            parse_config_text("rounds = 5\nalpha = -1\n")

    @pytest.mark.parametrize("line", [
        "lr = nan", "alpha = inf", "tau = nan", "bt_lambda = inf",
        "noise_std = nan", "fedu_mu = inf", "bt_eps = nan",
    ])
    def test_nonfinite_value_is_range_error_with_line_number(self, line):
        with pytest.raises(ConfigError, match=r":2: bad value"):
            parse_config_text(f"rounds = 5\n{line}\n")

    def test_unknown_key_rejected_with_line_number(self):
        with pytest.raises(ConfigError, match=r":1:.*unknown key"):
            parse_config_text("nonsense = 5\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just some words\n")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "absent.cfg")

    def test_emit_defaults_round_trip(self):
        assert parse_config_text(emit_defaults()) == default_spec()

    def test_comments_and_blanks_ignored(self):
        spec = parse_config_text("# a comment\n\nrounds = 7\n")
        assert spec["rounds"] == 7

    def test_cross_field_validation(self):
        with pytest.raises(ConfigError):
            parse_config_text("clients = 5\nclients_per_round = 10\n").base_run_config()

    def test_matrix_axes_default_to_singletons(self):
        spec = parse_config_text("strategy = ldawa\nscope = backbone\n")
        assert spec.matrix_axes() == (("ldawa",), ("backbone",), (1,))

    @pytest.mark.parametrize("line, lineno", [
        ("strategies = fedavg,ldawa,fedavg", 2), ("local_epochs_list = 1,2,1", 2), ("scopes = full, full", 2),
    ])
    def test_repeated_matrix_value_is_error_with_line_number(self, line, lineno):
        with pytest.raises(ConfigError, match=rf"<config>:{lineno}: .*repeated values"):
            parse_config_text(f"rounds = 2\n{line}\n")

    def test_matrix_cells_cartesian_product(self):
        spec = parse_config_text(
            "strategies = fedavg,ldawa\nscopes = full,backbone\nlocal_epochs_list = 1,5\n"
        )
        names = [name for name, _ in spec.cells()]
        assert len(names) == 8
        assert "simclr-ldawa-backbone-e5" in names

    def test_flag_overrides_file(self):
        spec = parse_config_text("rounds = 7\n")
        spec = apply_overrides(spec, {"rounds": "9"})
        assert spec["rounds"] == 9

    def test_bad_flag_value(self):
        with pytest.raises(ConfigError):
            apply_overrides(default_spec(), {"rounds": "zero"})

    def test_every_run_config_field_is_set_by_exactly_one_key(self):
        base = RunConfig()
        fields = []
        for f in dataclasses.fields(RunConfig):
            value = getattr(base, f.name)
            if dataclasses.is_dataclass(value):
                fields += [f"{f.name}.{g.name}" for g in dataclasses.fields(value)]
            else:
                fields.append(f.name)
        paths = [path for _, path, _ in SCHEMA.values() if path is not None]
        assert sorted(paths) == sorted(fields)


FAST_FLAGS = [
    "--rounds", "2", "--clients", "6", "--clients-per-round", "2", "--eval-every", "1",
    "--pretext-classes", "3", "--pretext-per-class", "8", "--frames", "16", "--bands", "8",
    "--hidden-dim", "8", "--embed-dim", "6", "--projection-dim", "6", "--workers", "2",
]


# pieces that reach past the line splitter into the key and value parsers
CONFIG_FRAGMENTS = [key.encode() for key in SCHEMA] + [
    b" = ", b"=", b"\n", b"\r\n", b"\r", b"#", b",", b"0", b"1", b"-1", b"0.5", b"1e400", b"nan", b"true",
    b"fedu", b"backbone", b"\xff", b"\xc3", b"\xe2\x80\xa8", b"\x00",
]


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(blob=st.lists(st.binary(max_size=6) | st.sampled_from(CONFIG_FRAGMENTS), max_size=24).map(b"".join))
@example(blob=b"rounds = 2\n\xff\xfe = 3\n")
@example(blob=b"clients = 3\nclients_per_round = 4\n")
def test_config_bytes_parse_or_raise_config_error(tmp_path, blob):
    path = tmp_path / "fuzz.cfg"
    path.write_bytes(blob)
    try:
        spec = parse_config(path)
    except ConfigError:
        return
    assert isinstance(spec, ExperimentSpec)


# pieces that reach past the header check into the field parsers
CSV_FRAGMENTS = [field.encode() for field in CSV_HEADER.split(",")] + [
    CSV_HEADER.encode() + b"\n", b"\n", b"\r\n", b",", b",,,,,,,", b"0", b"1", b"3", b"-3", b"1_0", b" 1",
    b"0.5", b"1e400", b"nan", b"inf", b"-0.0", "\u0663".encode(), b"\xff", b"\xc3", b"\x00",
]


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    header=st.booleans(),
    blob=st.lists(st.binary(max_size=6) | st.sampled_from(CSV_FRAGMENTS), max_size=32).map(b"".join),
)
@example(header=True, blob=b"1,fedavg,full,simclr,1,bandprofile,1,0.5\n")
@example(header=True, blob=b"0,a,b,c,1,t,1,1e400\n")
def test_results_csv_bytes_parse_or_raise_contract_error(tmp_path, header, blob):
    path = tmp_path / "results.csv"
    path.write_bytes((CSV_HEADER.encode() + b"\n" if header else b"") + blob)
    try:
        rows = read_results_csv(path)
    except ContractError:
        return
    for row in rows:
        assert list(row) == CSV_HEADER.split(",")
        for col, least in INT_COLUMNS.items():
            assert type(row[col]) is int and row[col] >= least
        assert type(row["accuracy"]) is float and 0.0 <= row["accuracy"] <= 1.0
        assert all(type(row[col]) is str for col in ("strategy", "scope", "ssl_task", "task"))


def _exit_process(job):
    """Stands in for a cell whose process dies; spawned children import it from this module."""
    os._exit(70)


def _blas_threads(job):
    """Stands in for a cell; its error text is the BLAS thread count its process started with."""
    return os.environ.get("OPENBLAS_NUM_THREADS", "unset")


class TestCmdRun:
    def test_matrix_produces_one_directory_per_cell(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FASSL_OUT", str(tmp_path / "out"))
        code = main(["run", *FAST_FLAGS, "--strategies", "fedavg,fairavg", "--scopes", "full,backbone"])
        assert code == 0
        dirs = sorted(p.name for p in (tmp_path / "out").iterdir() if p.is_dir())
        assert len(dirs) == 4
        for d in dirs:
            assert (tmp_path / "out" / d / "results.csv").exists()
            assert (tmp_path / "out" / d / "final.ckpt").exists()
            assert (tmp_path / "out" / d / "optima.csv").exists()

    def test_rerun_is_byte_identical(self, tmp_path, monkeypatch):
        for sub in ("a", "b"):
            monkeypatch.setenv("FASSL_OUT", str(tmp_path / sub))
            assert main(["run", *FAST_FLAGS]) == 0
        cell = "simclr-fedavg-full-e1"
        a = (tmp_path / "a" / cell / "results.csv").read_bytes()
        b = (tmp_path / "b" / cell / "results.csv").read_bytes()
        assert a == b
        a_ck = (tmp_path / "a" / cell / "final.ckpt").read_bytes()
        b_ck = (tmp_path / "b" / cell / "final.ckpt").read_bytes()
        assert a_ck == b_ck

    def test_optima_table_printed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("FASSL_OUT", str(tmp_path))
        assert main(["run", *FAST_FLAGS]) == 0
        out = capsys.readouterr().out
        assert "optimal global model per task" in out
        assert "(" in out and ")" in out  # "acc (round)" style

    def test_config_error_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FASSL_OUT", str(tmp_path))
        assert main(["run", "--alpha", "-3"]) == 1
        assert main(["run", "--lr", "nan"]) == 1

    @pytest.mark.parametrize("flags, message", [
        (["--clients", "5", "--clients-per-round", "10"], "clients_per_round"),
        (["--ssl-task", "acop", "--frames", "5"], "acop needs frames >= 6"),
        (["--frames", "1"], "simclr needs frames >= 2"),
        (["--ssl-task", "barlow_twins", "--frames", "1"], "barlow_twins needs frames >= 2"),
        (["--clients", "40", "--pretext-classes", "2", "--pretext-per-class", "4"], "8 pretext clips cannot cover"),
        (["--k", "121"], "k must lie in [1, 120]"),
    ])
    def test_cross_field_error_exits_1_before_any_cell_directory(self, tmp_path, monkeypatch, capsys, flags, message):
        monkeypatch.setenv("FASSL_OUT", str(tmp_path / "out"))
        assert main(["run", *FAST_FLAGS, *flags]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_k_bound_is_the_downstream_train_clip_count(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FASSL_OUT", str(tmp_path))
        assert main(["run", *FAST_FLAGS, "--k", "120"]) == 0
        rows = (tmp_path / "simclr-fedavg-full-e1" / "results.csv").read_text().splitlines()[1:]
        assert rows and all(row.split(",")[6] == "120" for row in rows)

    @pytest.mark.parametrize("flags", [
        ["--strategies", "fedavg,fedavg", "--local-epochs-list", "1,1"],
        ["--scopes", "backbone,full,backbone"],
    ])
    def test_repeated_matrix_flag_value_exits_1_before_any_cell_directory(self, tmp_path, monkeypatch, capsys, flags):
        monkeypatch.setenv("FASSL_OUT", str(tmp_path / "out"))
        assert main(["run", *FAST_FLAGS, *flags]) == 1
        assert "repeated values" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "partition-stats"])
    def test_non_utf8_config_exits_1_naming_file_and_line(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.setenv("FASSL_OUT", str(tmp_path))
        path = tmp_path / "bad.txt"
        path.write_bytes(b"rounds = 2\n\xff\xfe = 3\n")
        assert main([command, "--config", str(path)]) == 1
        assert f"{path}:2: not valid UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_failing_cell_is_isolated_and_exits_2(self, tmp_path, monkeypatch, capsys, workers):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two cells on two processes on any host
        monkeypatch.setattr(sys, "stderr", sys.stdout)  # one stream shows the print order
        out = tmp_path / "out"
        out.mkdir()
        (out / "simclr-fedavg-full-e1").write_text("a file where the first cell's directory goes\n")
        monkeypatch.setenv("FASSL_OUT", str(out))
        flags = [*FAST_FLAGS, "--strategies", "fedavg,fairavg", "--workers", workers]
        assert main(["run", *flags]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("[simclr-fedavg-full-e1] FAILED: ")
        assert "simclr-fedavg-full-e1" in lines[0].partition("FAILED: ")[2]  # the mkdir error names the path
        assert lines[1] == "[simclr-fairavg-full-e1] optimal global model per task (accuracy % (round)):"
        assert len(lines) == 5
        assert (out / "simclr-fedavg-full-e1").is_file()
        survivor = out / "simclr-fairavg-full-e1"
        assert sorted(p.name for p in survivor.iterdir()) == [
            "config.txt", "final.ckpt", "optima.csv", "results.csv", "round_0001.ckpt", "round_0002.ckpt",
        ]

    def test_workers_change_no_cell_byte(self, tmp_path, monkeypatch, capsys):
        """A 2x2 grid on one process and on two gives the same bytes and the same summary."""
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        stdout = {}
        for workers in ("1", "2"):
            monkeypatch.setenv("FASSL_OUT", str(tmp_path / workers))
            flags = [*FAST_FLAGS, "--strategies", "fedavg,ldawa", "--scopes", "full,backbone", "--workers", workers]
            assert main(["run", *flags]) == 0
            stdout[workers] = capsys.readouterr().out
        assert stdout["1"] == stdout["2"]
        serial, parallel = ([p.relative_to(tmp_path / w) for p in sorted((tmp_path / w).rglob("*"))] for w in "12")
        assert serial == parallel
        assert len([p for p in serial if p.suffix == ".ckpt"]) == 4 * 3
        for rel in serial:
            a, b = (tmp_path / "1" / rel), (tmp_path / "2" / rel)
            if rel.name == "config.txt":
                diff = set(a.read_text().splitlines()) ^ set(b.read_text().splitlines())
                assert diff == {"workers = 1", "workers = 2"}
            elif a.is_file():
                assert a.read_bytes() == b.read_bytes(), rel

    def test_dead_cell_process_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(cli, "_run_cell", _exit_process)
        monkeypatch.setenv("FASSL_OUT", str(tmp_path))
        assert main(["run", *FAST_FLAGS, "--strategies", "fedavg,fairavg"]) == 2
        assert "a cell process died" in capsys.readouterr().err

    @pytest.mark.parametrize("preset, seen", [(None, "1"), ("3", "3")])
    def test_cell_processes_keep_blas_to_one_thread_unless_set(self, tmp_path, monkeypatch, capsys, preset, seen):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        for var in cli._BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        if preset is not None:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
        monkeypatch.setattr(cli, "_run_cell", _blas_threads)
        monkeypatch.setenv("FASSL_OUT", str(tmp_path))
        assert main(["run", *FAST_FLAGS, "--strategies", "fedavg,fairavg"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"[simclr-fedavg-full-e1] FAILED: {seen}", f"[simclr-fairavg-full-e1] FAILED: {seen}",
        ]
        assert os.environ.get("OPENBLAS_NUM_THREADS") == preset
        assert [var for var in ("OMP_NUM_THREADS", "MKL_NUM_THREADS") if var in os.environ] == []

    def test_partial_csv_on_crash_is_valid_prefix(self, tmp_path):
        """Line-buffered appends: a truncated run leaves a parseable CSV."""
        from fassl.orchestrator import CSV_HEADER, RunConfig, RunSink
        from fassl.evaluator import TaskAccuracy

        sink = RunSink(tmp_path)
        cfg = RunConfig()
        sink.on_eval(cfg, [TaskAccuracy(task="x", round=10, top1_retrieval=0.5, k=1)])
        # simulate a crash: never close the sink; the file must already be complete
        text = (tmp_path / "results.csv").read_text()
        assert text == CSV_HEADER + "\n10,fedavg,full,simclr,1,x,1,0.500000\n"


# A value other than the default for every schema key; the matrix axes give
# a 2x2 strategy x scope grid.
NON_DEFAULT = {
    "rounds": "2", "clients": "6", "clients_per_round": "3", "local_epochs": "2",
    "batch_size": "8", "lr": "0.03", "ssl_task": "barlow_twins", "strategy": "ldawa",
    "scope": "backbone", "alpha": "0.5", "master_seed": "11", "eval_every": "1", "k": "3",
    "workers": "2", "fedu_mu": "0.7", "loss_weight_direction": "low", "tau": "0.3",
    "bt_lambda": "0.01", "bt_eps": "1e-8", "crop_fraction": "0.6", "noise_std": "0.02",
    "band_mask_prob": "0.2", "pretext_classes": "3", "pretext_per_class": "8", "frames": "16",
    "bands": "8", "hidden_dim": "8", "embed_dim": "6", "projection_dim": "5",
    "feature_layer": "projection", "metric": "euclidean", "out_dir": "elsewhere", "plot": "true",
    "strategies": "fedu,loss", "scopes": "full,backbone", "local_epochs_list": "2",
}


class TestCellConfigReproducesCell:
    @pytest.fixture(scope="class")
    def matrix_run(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("matrix")
        flags = [arg for key, raw in NON_DEFAULT.items() for arg in (f"--{key.replace('_', '-')}", raw)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("FASSL_OUT", str(out))
            assert main(["run", *flags]) == 0
        return out, apply_overrides(default_spec(), NON_DEFAULT)

    def test_every_key_is_off_default(self):
        spec = apply_overrides(default_spec(), NON_DEFAULT)
        assert sorted(NON_DEFAULT) == sorted(SCHEMA)
        defaults = default_spec()
        assert [k for k in SCHEMA if spec[k] == defaults[k]] == []

    def test_config_txt_parses_to_the_cell_run_config(self, matrix_run):
        out, spec = matrix_run
        cells = spec.cells()
        assert len(cells) == 4
        for name, cell in cells:
            parsed = parse_config(out / name / "config.txt")
            assert parsed == cell
            assert parsed.base_run_config() == cell.base_run_config()

    def test_rerun_from_config_txt_is_byte_identical(self, matrix_run, tmp_path, monkeypatch):
        out, _ = matrix_run
        cell = "barlow_twins-loss-backbone-e2"
        monkeypatch.setenv("FASSL_OUT", str(tmp_path))
        assert main(["run", "--config", str(out / cell / "config.txt")]) == 0
        assert [p.name for p in tmp_path.iterdir() if p.is_dir()] == [cell]
        for artifact in ("results.csv", "final.ckpt"):
            assert (tmp_path / cell / artifact).read_bytes() == (out / cell / artifact).read_bytes()


class TestCmdPartitionStats:
    def test_stats_output(self, capsys):
        code = main([
            "partition-stats", "--clients", "6", "--clients-per-round", "2",
            "--pretext-classes", "3", "--pretext-per-class", "10", "--frames", "8", "--bands", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "label_entropy" in out
        assert "sizes sum = 30" in out

    def test_single_client_holds_everything(self, capsys):
        code = main([
            "partition-stats", "--clients", "1", "--clients-per-round", "1",
            "--pretext-classes", "2", "--pretext-per-class", "5", "--frames", "8", "--bands", "4",
        ])
        assert code == 0
        assert " 10 " in capsys.readouterr().out.replace("\n", " ")

    def test_clients_below_default_clients_per_round(self, capsys):
        """Only training needs clients_per_round <= clients; partition-stats reads neither rule."""
        assert main(["partition-stats", "--clients", "7", "--alpha", "5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("alpha = 5.0, clients = 7, clips = 800\n")
        assert "sizes sum = 800" in out

    def test_entropy_higher_for_large_alpha(self, capsys):
        args = [
            "partition-stats", "--clients", "8", "--clients-per-round", "2",
            "--pretext-classes", "4", "--pretext-per-class", "20", "--frames", "8", "--bands", "4",
        ]
        main(args + ["--alpha", "0.1"])
        low = capsys.readouterr().out
        main(args + ["--alpha", "100"])
        high = capsys.readouterr().out

        def mean_entropy(text):
            line = [ln for ln in text.splitlines() if ln.startswith("entropy mean")][0]
            return float(line.split("=")[1].split("/")[0])

        assert mean_entropy(low) < mean_entropy(high)


class TestEmitDefaults:
    def test_round_trips_through_parser(self, capsys):
        assert main(["emit-defaults"]) == 0
        text = capsys.readouterr().out
        assert parse_config_text(text) == default_spec()


class TestCmdPlot:
    def _run_results(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FASSL_OUT", str(tmp_path))
        assert main(["run", *FAST_FLAGS]) == 0

    def test_svg_per_task_well_formed(self, tmp_path, monkeypatch, capsys):
        self._run_results(tmp_path, monkeypatch)
        assert main(["plot", str(tmp_path)]) == 0
        svgs = sorted(tmp_path.glob("task_*.svg"))
        assert len(svgs) == 3
        for svg in svgs:
            root = ET.parse(svg).getroot()  # raises on malformed XML
            assert root.tag.endswith("svg")

    def test_polyline_point_count_matches_csv_rows(self, tmp_path, monkeypatch):
        self._run_results(tmp_path, monkeypatch)
        plot_results(tmp_path)
        csv_lines = (tmp_path / "simclr-fedavg-full-e1" / "results.csv").read_text().strip().split("\n")
        rows_per_task = sum(1 for ln in csv_lines[1:] if ",bandprofile," in ln)
        tree = ET.parse(tmp_path / "task_bandprofile.svg")
        ns = "{http://www.w3.org/2000/svg}"
        polylines = tree.getroot().findall(f"{ns}polyline")
        assert len(polylines) == 1
        assert len(polylines[0].attrib["points"].split()) == rows_per_task

    def test_missing_results_named_error(self, tmp_path):
        assert main(["plot", str(tmp_path / "nothing")]) == 2

    GOOD_ROWS = ["1,fedavg,full,simclr,1,bandprofile,1,0.250000", "2,fedavg,full,simclr,1,bandprofile,1,0.500000"]

    def _write_csv(self, tmp_path, rows, encoding="utf-8"):
        path = tmp_path / "cell" / "results.csv"
        path.parent.mkdir(parents=True)
        path.write_bytes("\n".join([CSV_HEADER, *rows, ""]).encode(encoding))
        return path

    def test_hand_written_csv_plots(self, tmp_path):
        self._write_csv(tmp_path, self.GOOD_ROWS)
        assert main(["plot", str(tmp_path)]) == 0
        assert (tmp_path / "task_bandprofile.svg").exists()

    @pytest.mark.parametrize(
        "bad_row",
        [
            "x,fedavg,full,simclr,1,bandprofile,1,0.500000",
            "3,fedavg,full,simclr,one,bandprofile,1,0.500000",
            "3,fedavg,full,simclr,1,bandprofile,1.5,0.500000",
            "3,fedavg,full,simclr,1,bandprofile,1,nan",
            "3,fedavg,full,simclr,1,bandprofile,1,inf",
            "3,fedavg,full,simclr,1,bandprofile,1,1.5",
            "3,fedavg,full,simclr,1,bandprofile,1,-0.1",
            "3,fedavg,full,simclr,1,bandprofile,1,abc",
            "3,fedavg,full,simclr,1,bandprofile,1",
            "-3,fedavg,full,simclr,1,bandprofile,1,0.500000",
            "3,fedavg,full,simclr,0,bandprofile,1,0.500000",
            "3,fedavg,full,simclr,1,bandprofile,0,0.500000",
            "\u0663,fedavg,full,simclr,1,bandprofile,1,0.500000",
            "3,fedavg,full,simclr,1,bandprofile,1_0,0.500000",
            "3,fedavg,full,simclr,1,bandprofile,1,0.2_5",
            "3,fedavg,full,simclr,1,bandprofile,1,\u0660.\u0665",
            "3,fedavg,full,simclr,1,bandprofile,1, 0.5 ",
        ],
        ids=[
            "round", "local_epochs", "k", "acc-nan", "acc-inf", "acc-above-one", "acc-negative", "acc-text", "short",
            "round-negative", "local_epochs-zero", "k-zero", "round-arabic-indic-digit", "k-underscore",
            "acc-underscore", "acc-arabic-indic-digits", "acc-spaces",
        ],
    )
    def test_malformed_row_exits_2_naming_file_and_line(self, tmp_path, capsys, bad_row):
        path = self._write_csv(tmp_path, [*self.GOOD_ROWS, bad_row])
        assert main(["plot", str(tmp_path)]) == 2
        assert f"{path}:4:" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.svg"))

    def test_non_utf8_csv_exits_2_naming_file_and_line(self, tmp_path, capsys):
        path = self._write_csv(tmp_path, [*self.GOOD_ROWS, "3,fedavg,full,simclr,1,bändprofile,1,0.5"], encoding="latin-1")
        assert main(["plot", str(tmp_path)]) == 2
        assert f"{path}:4:" in capsys.readouterr().err

    def test_single_run_single_polyline_per_task(self, tmp_path, monkeypatch):
        self._run_results(tmp_path, monkeypatch)
        series = collect_series(sorted(Path(tmp_path).rglob("results.csv")))
        for task, by_label in series.items():
            assert len(by_label) == 1
