"""Config parsing, CLI subcommands, and SVG plotting tests."""

import dataclasses
import hashlib
import os
import sys
import xml.etree.ElementTree as ET

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fassl import cli, orchestrator
from fassl.cli import main
from fassl.config import (
    AXES,
    SCHEMA,
    ExperimentSpec,
    apply_overrides,
    default_spec,
    emit_defaults,
    parse_config,
    parse_config_text,
)
from fassl.aggregation import STRATEGY_KINDS
from fassl.errors import ConfigError, ContractError, check
from fassl.orchestrator import COLUMN_RULES, CSV_HEADER, RunConfig, read_results_csv, run
from fassl.plotting import collect_series, plot_results

from conftest import SCOPES, bundled_openblas


class TestParseConfig:
    def test_empty_file_gives_all_defaults(self):
        spec = parse_config_text("", "<config>")
        cfg = spec.base_run_config()
        assert cfg.rounds == 100
        assert cfg.n_clients == 100
        assert cfg.clients_per_round == 10
        assert cfg.local_epochs == 1
        assert cfg.batch_size == 64
        assert cfg.alpha == 0.1

    def test_negative_alpha_is_range_error_with_line_number(self):
        with pytest.raises(ConfigError, match=r":2:"):
            parse_config_text("rounds = 5\nalpha = -1\n", "<config>")

    @pytest.mark.parametrize("line", [
        "lr = nan", "alpha = inf", "tau = nan", "bt_lambda = inf",
        "noise_std = nan", "fedu_mu = inf", "bt_eps = nan",
    ])
    def test_nonfinite_value_is_range_error_with_line_number(self, line):
        with pytest.raises(ConfigError, match=r":2: bad value"):
            parse_config_text(f"rounds = 5\n{line}\n", "<config>")

    def test_unknown_key_rejected_with_line_number(self):
        with pytest.raises(ConfigError, match=r":1:.*unknown key"):
            parse_config_text("nonsense = 5\n", "<config>")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just some words\n", "<config>")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "absent.cfg")

    def test_emit_defaults_round_trip(self):
        assert parse_config_text(emit_defaults(), "<config>") == default_spec()

    def test_comments_and_blanks_ignored(self):
        spec = parse_config_text("# a comment\n\nrounds = 7\n", "<config>")
        assert spec["rounds"] == 7

    def test_cross_field_validation(self):
        with pytest.raises(ConfigError):
            parse_config_text("clients = 5\nclients_per_round = 10\n", "<config>").base_run_config()

    def test_repeated_key_is_error_naming_both_lines(self):
        with pytest.raises(ConfigError, match=r"^<config>:3: key 'strategy' is already set on line 1$"):
            parse_config_text("strategy = fedavg\n# a later line sets it again\nstrategy = ldawa\n", "<config>")

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_master_seed_range_ends_parse(self, seed):
        assert parse_config_text(f"master_seed = {seed}\n", "<config>").base_run_config().master_seed == seed

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_master_seed_outside_64_bits_is_error_with_line_number(self, seed):
        message = rf"^<config>:2: bad value for 'master_seed': master_seed must lie in \[0, 2\*\*64\), got {seed}$"
        with pytest.raises(ConfigError, match=message):
            parse_config_text(f"rounds = 2\nmaster_seed = {seed}\n", "<config>")

    @pytest.mark.parametrize("key", [key for key, (path, _) in SCHEMA.items() if path is not None])
    def test_bad_value_error_is_its_owner_error_with_line_number(self, key):
        """Config states no rule: a value's error past the line number is its dataclass's, named by the key."""
        path, _ = SCHEMA[key]
        raw = REJECTED[key]
        head, _, name = path.rpartition(".")
        owner = getattr(RunConfig(), head) if head else RunConfig()
        value = type(owner).RULES[name][0](raw)  # a run key's text is read as its rule's kind
        with pytest.raises(ContractError) as owner_error:
            dataclasses.replace(owner, **{name: value})
        with pytest.raises(ConfigError) as config_error:
            parse_config_text(f"# one value its owner rejects\n{key} = {raw}\n", "<config>")
        message = str(config_error.value)
        assert message.startswith(f"<config>:2: bad value for '{key}': ")
        assert message.endswith(str(owner_error.value).replace(name, key, 1))

    def test_k_above_a_suite_tasks_train_clips_is_error_with_line_number(self):
        rule = r"k must lie in \[1, 120\] \(train clips of a downstream task\), got 121"
        with pytest.raises(ConfigError, match=rf"^<config>:1: bad value for 'k': {rule}$"):
            parse_config_text("k = 121\n", "<config>")

    def test_matrix_axes_default_to_singletons(self):
        spec = parse_config_text("strategy = ldawa\nscope = backbone\n", "<config>")
        [(name, cell)] = spec.cells()
        assert name == "simclr-ldawa-backbone-e1"
        assert cell == spec
        assert [cell[key] for key in AXES] == [("ldawa",), ("backbone",), (1,)]

    @pytest.mark.parametrize("line, lineno", [
        ("strategy = fedavg,ldawa,fedavg", 2), ("local_epochs = 1,2,1", 2), ("scope = full, full", 2),
    ])
    def test_repeated_matrix_value_is_error_with_line_number(self, line, lineno):
        with pytest.raises(ConfigError, match=rf"<config>:{lineno}: .*repeated values"):
            parse_config_text(f"rounds = 2\n{line}\n", "<config>")

    @pytest.mark.parametrize("key", AXES)
    @pytest.mark.parametrize("raw", ["", ",", " , "])
    def test_empty_axis_is_error_with_line_number(self, key, raw):
        with pytest.raises(ConfigError, match=rf"<config>:2: bad value for '{key}': expected at least one value"):
            parse_config_text(f"rounds = 2\n{key} = {raw}\n", "<config>")

    @pytest.mark.parametrize("key", ["strategies", "scopes", "local_epochs_list"])
    def test_replaced_axis_keys_are_unknown_but_their_old_comments_parse(self, key):
        with pytest.raises(ConfigError, match=rf"<config>:2: unknown key '{key}'"):
            parse_config_text(f"rounds = 2\n{key} = 1\n", "<config>")
        old_comment = f"# {key} = <comma list>  (matrix axis; empty = [{key}])\n"
        assert parse_config_text(emit_defaults() + old_comment, "<config>") == default_spec()

    def test_matrix_cells_cartesian_product(self):
        spec = parse_config_text(
            "strategy = fedavg,ldawa\nscope = full,backbone\nlocal_epochs = 1,5\n", "<config>"
        )
        names = [name for name, _ in spec.cells()]
        assert len(names) == 8
        assert "simclr-ldawa-backbone-e5" in names

    @pytest.mark.parametrize("key", AXES)
    def test_multi_value_axis_has_no_single_run(self, key):
        spec = parse_config_text("strategy = fedavg,ldawa\nscope = full,backbone\nlocal_epochs = 1,5\n", "<config>")
        one_axis_open = ExperimentSpec({**spec.values, **{other: spec[other][:1] for other in AXES if other != key}})
        with pytest.raises(ConfigError, match=rf"^{key} lists 2 values, but one run takes one$"):
            one_axis_open.base_run_config()
        assert [cell.base_run_config().local_epochs for _, cell in spec.cells()] == [1, 5] * 4

    @pytest.mark.parametrize("key", SCHEMA)
    def test_flag_overrides_file(self, tmp_path, key):
        defaults = dict(line.split(" = ", 1) for line in emit_defaults().splitlines() if not line.startswith("#"))
        path = tmp_path / "exp.cfg"
        path.write_text(f"{key} = {NON_DEFAULT[key]}\n")
        from_file = cli._build_spec(cli.build_parser().parse_args(["run", "--config", str(path)]))
        assert from_file[key] != default_spec()[key]
        flag = f"--{key.replace('_', '-')}"
        args = cli.build_parser().parse_args(["run", "--config", str(path), flag, defaults[key]])
        assert cli._build_spec(args) == default_spec()

    def test_axis_flag_replaces_the_file_axis(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("strategy = fedavg,ldawa\n")
        args = cli.build_parser().parse_args(["run", "--config", str(path), "--strategy", "fedu"])
        assert [name for name, _ in cli._build_spec(args).cells()] == ["simclr-fedu-full-e1"]

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
        paths = [path for path, _ in SCHEMA.values() if path is not None]
        assert sorted(paths) == sorted(fields)


# A value the owner of each key's field rejects, as config text.
REJECTED = {
    "rounds": "0", "clients": "0", "clients_per_round": "0", "local_epochs": "0", "batch_size": "-1",
    "lr": "nan", "ssl_task": "rotation", "strategy": "fedprox", "scope": "head", "alpha": "-0.5",
    "master_seed": "-1", "eval_every": "0", "k": "0", "workers": "0", "fedu_mu": "-1",
    "loss_weight_direction": "middle", "tau": "0", "bt_lambda": "-0.001", "bt_eps": "inf",
    "crop_fraction": "1.5", "noise_std": "-0.1", "band_mask_prob": "1.01", "pretext_classes": "0",
    "pretext_per_class": "0", "frames": "0", "bands": "0", "hidden_dim": "0", "embed_dim": "-3",
    "projection_dim": "0", "feature_layer": "fc1", "metric": "l1",
}


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
        for col, rule in COLUMN_RULES.items():
            check(col, row[col], rule)  # each value obeys the rule its writer obeys
        assert all(type(row[col]) is int for col in ("round", "local_epochs", "k"))
        assert type(row["accuracy"]) is float
        assert all(type(row[col]) is str for col in ("strategy", "scope", "ssl_task", "task"))


def _exit_process(job):
    """Stands in for a cell whose process dies; spawned children import it from this module."""
    os._exit(70)


def _blas_threads(job):
    """Stands in for a cell; its error text is the number of threads its process's BLAS runs."""
    return str(bundled_openblas().scipy_openblas_get_num_threads64_())


class TestCmdRun:
    def test_matrix_produces_one_directory_per_cell(self, tmp_path):
        grid = ["--strategy", "fedavg,fairavg", "--scope", "full,backbone"]
        code = main(["run", *FAST_FLAGS, *grid, "--out-dir", str(tmp_path / "out")])
        assert code == 0
        dirs = sorted(p.name for p in (tmp_path / "out").iterdir() if p.is_dir())
        assert len(dirs) == 4
        for d in dirs:
            assert (tmp_path / "out" / d / "results.csv").exists()
            assert (tmp_path / "out" / d / "final.ckpt").exists()
            assert (tmp_path / "out" / d / "optima.csv").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            assert main(["run", *FAST_FLAGS, "--out-dir", str(tmp_path / sub)]) == 0
        cell = "simclr-fedavg-full-e1"
        a = (tmp_path / "a" / cell / "results.csv").read_bytes()
        b = (tmp_path / "b" / cell / "results.csv").read_bytes()
        assert a == b
        a_ck = (tmp_path / "a" / cell / "final.ckpt").read_bytes()
        b_ck = (tmp_path / "b" / cell / "final.ckpt").read_bytes()
        assert a_ck == b_ck

    def test_optima_table_printed(self, tmp_path, capsys):
        assert main(["run", *FAST_FLAGS, "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "optimal global model per task" in out
        assert "(" in out and ")" in out  # "acc (round)" style

    def test_optima_follow_the_tie_rule_over_results_csv_in_every_cell(self, tmp_path, capsys):
        """Strict maximum per task, the earliest round on ties, in optima.csv and in the printed summary."""
        grids = [(",".join(k for k in STRATEGY_KINDS if k != "fedu"), ",".join(SCOPES)), ("fedu", "full")]
        for strategy, scope in grids:  # fedu's backbone cell is a config error
            flags = ["--rounds", "4", "--strategy", strategy, "--scope", scope]
            assert main(["run", *FAST_FLAGS, *flags, "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        cells = sorted(p.parent for p in tmp_path.rglob("results.csv"))
        assert len(cells) == len(STRATEGY_KINDS) * len(SCOPES) - 1
        for cell in cells:
            best: dict[str, tuple[int, float]] = {}
            for row in read_results_csv(cell / "results.csv"):
                if row["task"] not in best or row["accuracy"] > best[row["task"]][1]:
                    best[row["task"]] = (row["round"], row["accuracy"])
            assert len(best) == 3 and {rnd for rnd, _ in best.values()} <= {1, 2, 3, 4}
            assert (cell / "optima.csv").read_text() == "task,best_round,best_accuracy\n" + "".join(
                f"{task},{rnd},{accuracy:.6f}\n" for task, (rnd, accuracy) in sorted(best.items())
            )
            printed = out.split(f"[{cell.name}] optimal global model per task (accuracy % (round)):\n")[1]
            assert printed.splitlines()[:3] == [
                f"  {task:<14s} {100.0 * accuracy:6.2f} ({rnd})" for task, (rnd, accuracy) in sorted(best.items())
            ]

    @pytest.mark.parametrize("argv, named", [
        (["run", "--strategies", "fedavg,ldawa"], "unrecognized arguments: --strategies"),
        (["run", "--rounds"], "argument --rounds: expected one argument"),
        ([], "required: command"),
    ])
    def test_usage_error_exits_1_naming_the_flag(self, capsys, argv, named):
        assert main(argv) == 1
        assert named in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--alpha", "-3"]) == 1
        assert main(["run", "--lr", "nan"]) == 1

    @pytest.mark.parametrize("flags, message", [
        (["--clients", "5", "--clients-per-round", "10"], "clients_per_round"),
        (["--ssl-task", "acop", "--frames", "5"], "acop needs frames >= 6"),
        (["--frames", "1"], "simclr needs frames >= 2"),
        (["--ssl-task", "barlow_twins", "--frames", "1"], "barlow_twins needs frames >= 2"),
        (["--batch-size", "1"], "simclr needs batch_size >= 2"),
        (["--ssl-task", "barlow_twins", "--batch-size", "1"], "barlow_twins needs batch_size >= 2"),
        (["--clients", "40", "--pretext-classes", "2", "--pretext-per-class", "4"], "8 pretext clips cannot cover"),
        (["--k", "121"], "k must lie in [1, 120]"),
        (["--tau", "1e-300"], "tau must be at least 1e-06, got 1e-300"),
        (["--strategy", "fedavg,fedu", "--scope", "full,backbone"], "strategy fedu gates only the heads, which scope backbone"),
    ])
    def test_cross_field_error_exits_1_before_any_cell_directory(self, tmp_path, capsys, flags, message):
        assert main(["run", *FAST_FLAGS, *flags, "--out-dir", str(tmp_path / "out")]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--scope", "backbone"], "feature_layer projection scores the global head.proj, which scope backbone"),
        (["--ssl-task", "acop"], "feature_layer projection scores the global head.proj, which ssl_task acop"),
    ])
    def test_projection_features_of_an_untrained_head_exit_1_before_any_cell_directory(
        self, tmp_path, capsys, flags, message
    ):
        base = ["--rounds", "2", "--clients", "6", "--clients-per-round", "3", "--eval-every", "1",
                "--pretext-per-class", "8", "--feature-layer", "projection"]
        assert main(["run", *base, *flags, "--out-dir", str(tmp_path / "out")]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("ssl_task", ["simclr", "barlow_twins"])
    def test_projection_features_of_a_trained_head_run(self, tmp_path, ssl_task):
        flags = ["--ssl-task", ssl_task, "--feature-layer", "projection", "--out-dir", str(tmp_path)]
        assert main(["run", *FAST_FLAGS, *flags]) == 0
        assert read_results_csv(tmp_path / f"{ssl_task}-fedavg-full-e1" / "results.csv")

    def test_acop_runs_on_one_clip_batches(self, tmp_path):
        assert main(["run", *FAST_FLAGS, "--ssl-task", "acop", "--batch-size", "1", "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "acop-fedavg-full-e1" / "final.ckpt").is_file()

    def test_k_bound_is_the_downstream_train_clip_count(self, tmp_path):
        assert main(["run", *FAST_FLAGS, "--k", "120", "--out-dir", str(tmp_path)]) == 0
        rows = (tmp_path / "simclr-fedavg-full-e1" / "results.csv").read_text().splitlines()[1:]
        assert rows and all(row.split(",")[6] == "120" for row in rows)

    def test_allocation_numpy_refuses_is_the_cell_failed_line(self, tmp_path, capsys):
        """A cell builds its own data, so an array too large for any address space fails that cell, not the run.

        A band count of 10**15 makes the pretext's first band profile ask for 8 PB at once.
        """
        assert main(["run", *FAST_FLAGS, "--bands", "1000000000000000", "--out-dir", str(tmp_path)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("[simclr-fedavg-full-e1] FAILED: Unable to allocate ")

    @pytest.mark.parametrize("flags", [
        ["--strategy", "fedavg,fedavg", "--local-epochs", "1,1"],
        ["--scope", "backbone,full,backbone"],
    ])
    def test_repeated_matrix_flag_value_exits_1_before_any_cell_directory(self, tmp_path, capsys, flags):
        assert main(["run", *FAST_FLAGS, *flags, "--out-dir", str(tmp_path / "out")]) == 1
        assert "repeated values" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "partition-stats"])
    def test_non_utf8_config_exits_1_naming_file_and_line(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
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
        flags = [*FAST_FLAGS, "--strategy", "fedavg,fairavg", "--workers", workers, "--out-dir", str(out)]
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
        self.check_workers_change_no_cell_byte(tmp_path, monkeypatch, capsys, ["--strategy", "fedavg,ldawa"])

    def test_workers_change_no_cell_byte_at_a_real_model_size(self, tmp_path, monkeypatch, capsys):
        """The same at a 512-input, 32-unit encoder: 16,384 backbone.fc1 weights, where FAST_FLAGS has 1,024.

        Size matters because OpenBLAS splits a long dot product across its threads, and how it splits
        changes the sum's last bits; 1,024 elements are too few for it to split. Loading fassl pins
        BLAS to one thread in both legs; without the pin the in-process leg (--workers 1) would run as
        many as this process has, and an ldawa cosine would give the two legs different bytes here. On
        a 1-CPU host the in-process leg runs one BLAS thread in any case, and this case cannot tell.
        """
        grid = ["--frames", "32", "--bands", "16", "--hidden-dim", "32", "--strategy", "ldawa,fedavg"]
        self.check_workers_change_no_cell_byte(tmp_path, monkeypatch, capsys, grid)

    @staticmethod
    def check_workers_change_no_cell_byte(tmp_path, monkeypatch, capsys, grid):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        stdout = {}
        for workers in ("1", "2"):
            (tmp_path / workers).mkdir()
            monkeypatch.chdir(tmp_path / workers)  # config.txt records the default out_dir, which both legs share
            flags = [*FAST_FLAGS, *grid, "--scope", "full,backbone", "--workers", workers]
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

    def test_alpha_whose_draw_overflows_is_the_cell_failed_line(self, tmp_path, capsys):
        assert main(["run", *FAST_FLAGS, "--alpha", "1e308", "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "[simclr-fedavg-full-e1] FAILED: alpha=1e+308 is too large for 6 clients: its proportions do not sum to 1",
        ]

    def test_dead_cell_process_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(cli, "_run_cell", _exit_process)
        assert main(["run", *FAST_FLAGS, "--strategy", "fedavg,fairavg", "--out-dir", str(tmp_path)]) == 2
        assert "a cell process died" in capsys.readouterr().err

    @pytest.mark.skipif(bundled_openblas() is None, reason="numpy bundles no scipy-openblas to ask")
    def test_cell_processes_run_one_blas_thread_whatever_the_environment_asks(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.setattr(cli, "_run_cell", _blas_threads)
        assert main(["run", *FAST_FLAGS, "--strategy", "fedavg,fairavg", "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "[simclr-fedavg-full-e1] FAILED: 1", "[simclr-fairavg-full-e1] FAILED: 1",
        ]

    def test_run_leaves_the_environment_as_it_found_it(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two cells on two processes on any host
        before = dict(os.environ)
        assert main(["run", *FAST_FLAGS, "--strategy", "fedavg,fairavg", "--out-dir", str(tmp_path)]) == 0
        assert dict(os.environ) == before

    def test_failed_rerun_leaves_no_file_of_the_previous_run(self, tmp_path, capsys, monkeypatch):
        """A re-run replaces the cell's run files and keeps its config.txt, so a failed one shows no old result.

        The re-run's round 1 evaluation raises, before the round writes a row or saves its model.
        """
        assert main(["run", *FAST_FLAGS, "--out-dir", str(tmp_path)]) == 0

        def failing_evaluation(*args, **kwargs):
            raise ContractError("evaluation failed")

        monkeypatch.setattr(orchestrator, "evaluate_global", failing_evaluation)  # one cell runs in this process
        assert main(["run", *FAST_FLAGS, "--tau", "0.25", "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.endswith("[simclr-fedavg-full-e1] FAILED: round 1: evaluation failed\n")
        cell = tmp_path / "simclr-fedavg-full-e1"
        assert sorted(p.name for p in cell.iterdir()) == ["config.txt", "results.csv"]
        assert (cell / "results.csv").read_text() == CSV_HEADER + "\n"
        assert "tau = 0.25\n" in (cell / "config.txt").read_text()

    def test_a_cli_cell_and_the_library_write_the_same_bytes(self, tmp_path):
        """``run(cfg, out_dir)`` derives the inputs a CLI cell trains and scores on from the same config."""
        assert main(["run", *FAST_FLAGS, "--out-dir", str(tmp_path / "cli")]) == 0
        flags = dict(zip(FAST_FLAGS[::2], FAST_FLAGS[1::2]))
        spec = apply_overrides(default_spec(), {flag[2:].replace("-", "_"): raw for flag, raw in flags.items()})
        ((name, cell),) = spec.cells()
        run(cell.base_run_config(), tmp_path / "library")
        written = sorted(p.name for p in (tmp_path / "library").iterdir())
        assert written == ["final.ckpt", "optima.csv", "results.csv", "round_0001.ckpt", "round_0002.ckpt"]
        for artifact in written:
            assert (tmp_path / "library" / artifact).read_bytes() == (tmp_path / "cli" / name / artifact).read_bytes()

    def test_partial_csv_on_crash_is_valid_prefix(self, tmp_path):
        """Line-buffered appends: a truncated run leaves a parseable CSV."""
        from fassl.orchestrator import CSV_HEADER, RunConfig, RunSink
        from fassl.evaluator import TaskAccuracy

        sink = RunSink(tmp_path)
        cfg = RunConfig()
        sink.on_eval(cfg, [TaskAccuracy(task="x", round=10, accuracy=0.5, k=1)])
        # simulate a crash: read the file before the sink is closed; it must already be complete
        text = (tmp_path / "results.csv").read_text()
        sink.close_csv()
        assert text == CSV_HEADER + "\n10,fedavg,full,simclr,1,x,1,0.500000\n"


# A value other than the default for every schema key; the matrix axes give
# a 2x2 strategy x scope grid (no fedu: its backbone cell is a config error).
NON_DEFAULT = {
    "rounds": "2", "clients": "6", "clients_per_round": "3", "local_epochs": "2",
    "batch_size": "8", "lr": "0.03", "ssl_task": "barlow_twins", "strategy": "ldawa,loss",
    "scope": "full,backbone", "alpha": "0.5", "master_seed": "11", "eval_every": "1", "k": "3",
    "workers": "2", "fedu_mu": "0.7", "loss_weight_direction": "low", "tau": "0.3",
    "bt_lambda": "0.01", "bt_eps": "1e-8", "crop_fraction": "0.6", "noise_std": "0.02",
    "band_mask_prob": "0.2", "pretext_classes": "3", "pretext_per_class": "8", "frames": "16",
    "bands": "8", "hidden_dim": "8", "embed_dim": "6", "projection_dim": "5",
    "feature_layer": "projection", "metric": "euclidean", "out_dir": "elsewhere", "plot": "true",
}

# NON_DEFAULT as a run: feature_layer = projection needs the default scope,
# full, so the run keeps the 2x2 grid and scores the backbone instead.
NON_DEFAULT_RUN = dict(NON_DEFAULT, feature_layer="backbone")


class TestCellConfigReproducesCell:
    @pytest.fixture(scope="class")
    def matrix_run(self, tmp_path_factory):
        here = tmp_path_factory.mktemp("matrix")
        flags = [arg for key, raw in NON_DEFAULT_RUN.items() for arg in (f"--{key.replace('_', '-')}", raw)]
        with pytest.MonkeyPatch.context() as mp:
            mp.chdir(here)
            assert main(["run", *flags]) == 0
        return here / NON_DEFAULT_RUN["out_dir"], apply_overrides(default_spec(), NON_DEFAULT_RUN)

    def test_every_key_is_off_default(self):
        spec = apply_overrides(default_spec(), NON_DEFAULT)
        assert sorted(NON_DEFAULT) == sorted(SCHEMA)
        defaults = default_spec()
        assert [k for k in SCHEMA if spec[k] == defaults[k]] == []

    def test_the_run_sets_only_feature_layer_back_as_the_projection_rule_asks(self):
        assert [k for k in SCHEMA if NON_DEFAULT_RUN[k] != NON_DEFAULT[k]] == ["feature_layer"]
        for name, cell in apply_overrides(default_spec(), NON_DEFAULT).cells():
            if cell["scope"] == ("full",):
                assert cell.base_run_config().feature_layer == "projection"
                continue
            with pytest.raises(ConfigError, match="^feature_layer projection .* which scope backbone never trains$"):
                cell.base_run_config()

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
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", str(out / cell / "config.txt")]) == 0
        rerun = tmp_path / NON_DEFAULT_RUN["out_dir"]  # the root config.txt records
        assert [p.name for p in rerun.iterdir() if p.is_dir()] == [cell]
        for artifact in ("results.csv", "final.ckpt"):
            assert (rerun / cell / artifact).read_bytes() == (out / cell / artifact).read_bytes()


class TestCmdPartitionStats:
    def test_default_partition_bytes_pinned(self, capsys):
        assert main(["partition-stats", "--clients", "20", "--alpha", "0.3"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
            "22f37d3901c115d7f0530d14b514f6f2292211e3804848f2e67bc28490f12fd3"
        )

    def test_alpha_whose_draw_overflows_exits_2_with_one_error_line(self, capsys):
        assert main(["partition-stats", "--alpha", "1e308", "--clients", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: alpha=1e+308 is too large for 3 clients: its proportions do not sum to 1\n"

    def test_allocation_numpy_refuses_exits_2_with_one_error_line(self, capsys):
        """8 * 10**12 pretext clips ask numpy for 29.1 PiB at once, which no address space holds."""
        assert main(["partition-stats", "--clients", "3", "--pretext-per-class", "1000000000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: Unable to allocate 29.1 PiB ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

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
        assert parse_config_text(text, "<config>") == default_spec()


class TestCmdPlot:
    def _run_results(self, tmp_path):
        assert main(["run", *FAST_FLAGS, "--out-dir", str(tmp_path)]) == 0

    def test_svg_per_task_well_formed(self, tmp_path, capsys):
        self._run_results(tmp_path)
        assert main(["plot", str(tmp_path)]) == 0
        svgs = sorted(tmp_path.glob("task_*.svg"))
        assert len(svgs) == 3
        for svg in svgs:
            root = ET.parse(svg).getroot()  # raises on malformed XML
            assert root.tag.endswith("svg")

    def test_title_states_the_k_of_the_rows(self, tmp_path):
        assert main(["run", *FAST_FLAGS, "--k", "3", "--plot", "true", "--out-dir", str(tmp_path)]) == 0
        svgs = sorted(tmp_path.glob("task_*.svg"))
        assert len(svgs) == 3
        ns = "{http://www.w3.org/2000/svg}"
        for svg in svgs:
            titles = [t.text for t in ET.parse(svg).getroot().findall(f"{ns}text") if "retrieval" in t.text]
            assert titles == [f"top-3 retrieval vs round: {svg.stem[len('task_'):]}"]

    def test_title_lists_every_k_of_a_tasks_rows(self, tmp_path):
        for name, k in (("a", 1), ("b", 5)):
            path = tmp_path / name / "results.csv"
            path.parent.mkdir()
            path.write_text(f"{CSV_HEADER}\n1,fedavg,full,simclr,1,bandprofile,{k},0.250000\n")
        plot_results(tmp_path)
        assert b">top-1,5 retrieval vs round: bandprofile<" in (tmp_path / "task_bandprofile.svg").read_bytes()

    def test_polyline_point_count_matches_csv_rows(self, tmp_path):
        self._run_results(tmp_path)
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
            "3,fedavg,full,simclr,1,bandprofile,121,0.500000",
            "3,fedsgd,full,simclr,1,bandprofile,1,0.500000",
            "3,fedavg,heads,simclr,1,bandprofile,1,0.500000",
            "3,fedavg,full,byol,1,bandprofile,1,0.500000",
            "3,fedavg,full,simclr,1,,1,0.500000",
            "3,fedavg,full,simclr,1,band\\profile,1,0.500000",
        ],
        ids=[
            "round", "local_epochs", "k", "acc-nan", "acc-inf", "acc-above-one", "acc-negative", "acc-text", "short",
            "round-negative", "local_epochs-zero", "k-zero", "round-arabic-indic-digit", "k-underscore",
            "acc-underscore", "acc-arabic-indic-digits", "acc-spaces", "k-above-train-clips", "strategy-unknown",
            "scope-unknown", "ssl_task-unknown", "task-empty", "task-backslash",
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

    @pytest.mark.parametrize("task", ["x/../../evil", "a\0b"], ids=["path", "nul"])
    def test_task_no_file_name_holds_exits_2_with_one_error_line_and_no_svg(self, tmp_path, capsys, task):
        root = tmp_path / "root"
        (root / "task_x").mkdir(parents=True)  # lets task_x/../../evil.svg resolve, one level above the root
        path = self._write_csv(root, [f"1,fedavg,full,simclr,1,{task},1,0.250000"])
        assert main(["plot", str(root)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:2: task ") and err.count("\n") == 1
        assert not list(tmp_path.rglob("*.svg"))

    def _polylines(self, svg_path) -> dict[str, str]:
        """Legend label -> polyline points of one task's SVG."""
        ns = "{http://www.w3.org/2000/svg}"
        svg = ET.parse(svg_path).getroot()
        lines = [p.attrib["points"] for p in svg.findall(f"{ns}polyline")]
        legends = [t.text for t in svg.findall(f"{ns}text") if t.attrib.get("font-size") == "11"]
        assert len(lines) == len(legends)
        return dict(zip(legends, lines))

    def test_runs_sharing_strategy_scope_and_epochs_plot_apart(self, tmp_path):
        for name in ("a", "b"):
            path = tmp_path / name / "results.csv"
            path.parent.mkdir()
            path.write_text("\n".join([CSV_HEADER, *self.GOOD_ROWS, ""]))
        plot_results(tmp_path)
        by_label = self._polylines(tmp_path / "task_bandprofile.svg")
        assert sorted(by_label) == ["a", "b"]
        assert all(len(points.split()) == 2 for points in by_label.values())

    def test_cells_named_alike_under_two_seeds_plot_apart(self, tmp_path):
        for seed in ("seed1", "seed2"):
            self._run_results(tmp_path / seed)
        plot_results(tmp_path)
        by_label = self._polylines(tmp_path / "task_bandprofile.svg")
        assert sorted(by_label) == ["seed1/simclr-fedavg-full-e1", "seed2/simclr-fedavg-full-e1"]

    def test_a_csv_at_the_root_is_labelled_dot(self, tmp_path):
        root = tmp_path / "one-run"
        root.mkdir()
        (root / "results.csv").write_text("\n".join([CSV_HEADER, *self.GOOD_ROWS, ""]))
        plot_results(root)
        assert list(self._polylines(root / "task_bandprofile.svg")) == ["."]

    def test_a_root_csv_and_a_cell_named_like_the_root_plot_apart(self, tmp_path):
        root = tmp_path / "out"
        for csv_dir, rows in ((root, self.GOOD_ROWS[:1]), (root / "out", self.GOOD_ROWS)):
            csv_dir.mkdir(parents=True, exist_ok=True)
            (csv_dir / "results.csv").write_text("\n".join([CSV_HEADER, *rows, ""]))
        plot_results(root)
        by_label = self._polylines(root / "task_bandprofile.svg")
        assert {label: len(points.split()) for label, points in by_label.items()} == {".": 1, "out": 2}

    def test_single_run_single_polyline_per_task(self, tmp_path):
        self._run_results(tmp_path)
        rows = read_results_csv(tmp_path / "simclr-fedavg-full-e1" / "results.csv")
        series = collect_series([("simclr-fedavg-full-e1", rows)])
        for task, by_label in series.items():
            assert len(by_label) == 1
