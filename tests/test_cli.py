"""Command-line behavior: option merging, record emission, and exit codes."""

import json

import pytest

from smallbox.cli import main
from smallbox.harness import parse_records


def test_count_curve_exit_and_output(capsys):
    assert main(["count-curve", "--p", "101", "--f", "3,2,0,1",
                 "--box", "0,0,50"]) == 0
    out = capsys.readouterr().out
    assert "23" in out


def test_naive_flag_matches_default(capsys):
    main(["count-curve", "--p", "211", "--f", "7,0,1,1", "--box", "5,9,40"])
    fast = capsys.readouterr().out
    main(["count-curve", "--p", "211", "--f", "7,0,1,1", "--box", "5,9,40",
          "--naive"])
    slow = capsys.readouterr().out
    assert fast.split(":")[1] == slow.split(":")[1]


def test_out_writes_parseable_records(tmp_path, capsys):
    out = tmp_path / "rec.csv"
    assert main(["--out", str(out), "dynsys", "--p", "1009", "--f", "1,0,1",
                 "--u0", "3"]) == 0
    capsys.readouterr()
    recs = parse_records(out, "csv")
    assert {r.experiment_id.rsplit("-", 1)[-1] for r in recs} == {"T", "D"}
    out_json = tmp_path / "rec.json"
    assert main(["--out", str(out_json), "--format", "json", "vinogradov",
                 "--k", "2", "--m", "2", "--H", "9"]) == 0
    capsys.readouterr()
    assert parse_records(out_json, "json")[0].value == float(2 * 81 - 9)


def test_config_file_provides_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 101\nf = 3,2,0,1  # cubic\nbox = 0,0,50\n")
    assert main(["--config", str(cfg), "count-curve"]) == 0
    base = capsys.readouterr().out
    # explicit flags win over the config value
    assert main(["--config", str(cfg), "count-curve", "--box", "0,0,10"]) == 0
    assert capsys.readouterr().out != base


def test_config_rejects_garbage(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just some words\n")
    with pytest.raises(ValueError):
        main(["--config", str(cfg), "count-curve"])


def test_missing_required_option_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count-curve", "--p", "101"])
    assert exc.value.code == 2
    assert "--f" in capsys.readouterr().err


def test_sharpness_exit_reflects_floor(capsys):
    # the floor holds at p = 11, M = 8 and fails at p = 1009, M = 64
    assert main(["sharpness", "--p", "11", "--g", "1", "--M", "8"]) == 0
    assert "reached" in capsys.readouterr().out
    assert main(["sharpness", "--p", "1009", "--g", "1", "--M", "64"]) == 1
    assert "NOT reached" in capsys.readouterr().out


def test_curve_iso_reports_scalars(capsys):
    assert main(["curve-iso", "--p", "31", "--g", "1", "--a", "6,2",
                 "--b", "3,4"]) == 0
    out = capsys.readouterr().out
    assert "2" in out and "29" in out


def test_curve_classes_payload_is_json(capsys):
    assert main(["curve-classes", "--p", "31", "--g", "1", "--M", "4",
                 "--box", "2,3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["box_size"] == 16
    assert payload["total_nonsingular"] + payload["singular_count"] == 16
    assert sum(payload["class_sizes"].values()) == payload["total_nonsingular"]


def test_thm2_lattice_partial_minima(capsys):
    assert main(["thm2-lattice", "--p", "10007", "--c", "1,2,3,4",
                 "--M", "4"]) == 0
    out = capsys.readouterr().out
    assert "l3 < 1: yes" in out
    assert "1/128" in out


def test_lattice_check(capsys):
    assert main(["lattice-check", "--n", "3", "--coeffs", "1,3,5",
                 "--p", "101", "--halfwidths", "4,6,9"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out


@pytest.mark.parametrize("argv", [
    ["count-curve", "--p", "10", "--f", "1,0,1", "--box", "0,0,5"],
    ["count-curve", "--p", "101", "--f", "1,0,1", "--box", "0,0"],
    ["count-graph", "--p", "31", "--f", "1,x", "--box", "0,0,5"],
    ["lattice-check", "--n", "2", "--coeffs", "1,3,5", "--p", "101",
     "--halfwidths", "4,6,9"],
])
def test_bad_input_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1].startswith("smallbox: error: ")
