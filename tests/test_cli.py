"""Command-line behavior: option merging, record emission, and exit codes."""

import json

import pytest

from smallbox import acceptance, dynsys, harness, hyperelliptic, lattice
from smallbox.cli import main
from smallbox.harness import parse_records

# (argv, exit code, exact stdout) for every command but acceptance, recorded
# before the commands were driven by the experiment registry; the J(20,1;10)
# line and the p = 1000003 thm2-lattice line were added later
GOLDEN = [
    (["count-curve", "--p", "101", "--f", "3,2,0,1", "--box", "0,0,50"], 0,
     "y^2 = f(x) points in box R=0,S=0,M=50 mod 101: 23 (trivial bound 100)\n"),
    (["count-curve", "--p", "211", "--f", "7,0,1,1", "--box", "5,9,40",
      "--naive"], 0,
     "y^2 = f(x) points in box R=5,S=9,M=40 mod 211: 8 (trivial bound 80)\n"),
    (["count-graph", "--p", "1009", "--f", "5,0,1,1", "--box", "3,7,90"], 0,
     "y = f(x) points in box R=3,S=7,M=90 mod 1009: 14 (trivial bound 90)\n"),
    (["count-graph", "--p", "101", "--f", "5,0,1,1", "--box", "3,7,40",
      "--naive"], 0,
     "y = f(x) points in box R=3,S=7,M=40 mod 101: 12 (trivial bound 40)\n"),
    (["weil", "--p", "10007", "--f", "3,2,0,1", "--M", "900"], 0,
     "count deviation from M^2/p: 12.06, budget 84872.95, "
     "within budget (count 93)\n"),
    (["weil", "--p", "1009", "--f", "3,2,0,1", "--M", "500", "--R", "7",
      "--S", "11"], 0,
     "count deviation from M^2/p: 29.23, budget 15196.56, "
     "within budget (count 277)\n"),
    (["curve-iso", "--p", "31", "--g", "1", "--a", "6,2", "--b", "3,4"], 0,
     "isomorphic via 2 scalars: [2, 29]\n"),
    (["curve-iso", "--p", "31", "--g", "1", "--a", "6,2", "--b", "3,5"], 0,
     "not isomorphic (no scaling works)\n"),
    (["curve-classes", "--p", "31", "--g", "1", "--M", "4", "--box", "2,3"], 0,
     "{\n"
     '  "class_count": 12,\n'
     '  "total_nonsingular": 16,\n'
     '  "second_moment": 24,\n'
     '  "max_class_size": 2,\n'
     '  "box_size": 16,\n'
     '  "singular_count": 0,\n'
     '  "class_sizes": {\n'
     '    "1,4": 1,\n'
     '    "1,11": 1,\n'
     '    "1,16": 2,\n'
     '    "3,1": 1,\n'
     '    "3,2": 1,\n'
     '    "3,4": 2,\n'
     '    "3,6": 1,\n'
     '    "3,8": 2,\n'
     '    "3,12": 1,\n'
     '    "5,1": 1,\n'
     '    "5,4": 2,\n'
     '    "5,6": 1\n'
     "  }\n"
     "}\n"),
    (["curve-classes", "--p", "13", "--g", "1", "--M", "3"], 0,
     "{\n"
     '  "class_count": 5,\n'
     '  "total_nonsingular": 7,\n'
     '  "second_moment": 11,\n'
     '  "max_class_size": 2,\n'
     '  "box_size": 9,\n'
     '  "singular_count": 2,\n'
     '  "class_sizes": {\n'
     '    "1,1": 2,\n'
     '    "1,2": 1,\n'
     '    "2,1": 2,\n'
     '    "2,2": 1,\n'
     '    "3,2": 1\n'
     "  }\n"
     "}\n"),
    (["sharpness", "--p", "11", "--g", "1", "--M", "8"], 0,
     "isomorphic count 3 vs residue witness 2 (2 x 1 residues): floor reached\n"),
    (["sharpness", "--p", "1009", "--g", "1", "--M", "64"], 1,
     "isomorphic count 6 vs residue witness 8 (2 x 4 residues): floor NOT reached\n"),
    (["dynsys", "--p", "10007", "--f", "1,0,1", "--u0", "3"], 0,
     "T = 189 (tail 3, cycle 186); D(N) = 9982, bound 1375.25, ratio 7.258\n"),
    (["dynsys", "--p", "1009", "--f", "2,1,1", "--u0", "5", "--N", "20"], 0,
     "T = 70 (tail 18, cycle 52); D(N) = 927, bound 142.06, ratio 6.526\n"),
    (["vinogradov", "--k", "2", "--m", "2", "--H", "10"], 0,
     "J(2,2;10) = 190 (diagonal floor 100, shape H^1)\n"),
    (["--seed", "5", "vinogradov", "--k", "3", "--m", "2", "--H", "4"], 0,
     "J(3,2;4) = 256 (diagonal floor 64, shape H^3)\n"),
    # far above 2^53: printed from the exact count, not from its float record
    (["vinogradov", "--k", "20", "--m", "1", "--H", "10"], 0,
     "J(20,1;10) = 218768894829904122626725603838896148680 "
     "(diagonal floor 100000000000000000000, shape H^39)\n"),
    (["expsum", "--p", "101", "--f", "1,2,1", "--k", "7", "--M", "20"], 0,
     "S = -4.587726 + -3.418175i, |S| = 5.721114 <= M = 20\n"),
    (["lattice-check", "--n", "3", "--coeffs", "1,3,5", "--p", "101",
      "--halfwidths", "4,6,9"], 0,
     "clipped minima product 0.166667 vs counting bound 4.56522 (23 points): ok\n"
     "first-minimum volume bound: 64 <= 808: ok\n"),
    (["lattice-check", "--coeffs", "1,7", "--p", "31", "--halfwidths",
      "3,5"], 0,
     "clipped minima product 1 vs counting bound 5 (3 points): ok\n"
     "first-minimum volume bound: 60 <= 124: ok\n"),
    (["thm2-lattice", "--p", "10007", "--c", "1,2,3,4", "--M", "4"], 0,
     "lattice coeffs (1, 4, 3, 2, 1), halfwidths (128, 512, 128, 32, 32)\n"
     "first minima: l1 = 1/128, l2 = 1/64, l3 = 1/32\n"
     "shifted congruence solutions with |x|,|y| <= 4: 2\n"
     "l3 < 1: yes (logged, not asserted)\n"),
    # its scale-1/8 grid holds 4.9 * 10^9 cells, but the join builds two
    # tables of 2,193 cells and collects 5,053 points
    (["thm2-lattice", "--p", "1000003", "--c", "194039,436082,72516,1", "--M", "8"], 0,
     "lattice coeffs (1, 1, 72516, 436082, 194039), halfwidths (512, 4096, 512, 64, 64)\n"
     "first minima: l1 = 1/512, l2 = 3/64, l3 = 5/64\n"
     "shifted congruence solutions with |x|,|y| <= 8: 2\n"
     "l3 < 1: yes (logged, not asserted)\n"),
]


@pytest.mark.parametrize("argv,code,stdout", GOLDEN,
                         ids=[" ".join(g[0]) for g in GOLDEN])
def test_golden_output(argv, code, stdout, capsys):
    assert main(argv) == code
    assert capsys.readouterr().out == stdout


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


@pytest.mark.parametrize("i", [1, 3], ids=["count-curve", "count-graph"])
def test_naive_flag_checks_the_count_against_the_loop(i, tmp_path, capsys):
    argv, code, stdout = GOLDEN[i]
    assert argv[-1] == "--naive"
    out = tmp_path / "rec.json"
    assert main(["--out", str(out), "--format", "json", *argv]) == code
    assert capsys.readouterr().out == stdout + f"wrote 1 records to {out}\n"
    (rec,) = parse_records(out, "json")
    assert json.loads(rec.params)["oracle"] is True
    assert rec.oracle_value == rec.value and rec.passed


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


def test_out_into_missing_directory_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "absent" / "x.csv"
    last, printed = _usage_error(["--out", str(out), "vinogradov", "--k", "2",
                                  "--m", "2", "--H", "9"], capsys)
    assert last.startswith(f"smallbox: error: cannot write {out}: ")
    assert "No such file or directory" in last
    assert printed  # the summary came first; only the write failed


def test_config_file_provides_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 101\nf = 3,2,0,1  # cubic\nbox = 0,0,50\n")
    assert main(["--config", str(cfg), "count-curve"]) == 0
    base = capsys.readouterr().out
    # explicit flags win over the config value
    assert main(["--config", str(cfg), "count-curve", "--box", "0,0,10"]) == 0
    assert capsys.readouterr().out != base


def _usage_error(argv, capsys) -> tuple[str, str]:
    """Run argv, expect exit code 2; return the last stderr line and stdout."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    return err.strip().splitlines()[-1], out


def test_config_rejects_garbage(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just some words\n")
    last, _ = _usage_error(["--config", str(cfg), "count-curve"], capsys)
    assert last == f"smallbox: error: {cfg}:1: expected key=value"


def test_config_rejects_unknown_keys(tmp_path, capsys):
    # a misspelled switch used to be dropped, and the sqrt scan ran instead
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 101\nf = 3,2,0,1\nbox = 0,0,50\nnaiv = 1\n")
    last, printed = _usage_error(["--config", str(cfg), "count-curve"], capsys)
    assert last == f"smallbox: error: {cfg}:4: unknown key 'naiv' for count-curve"
    assert printed == ""
    # the switch itself, the output options and the seed are known keys
    cfg.write_text("p = 101\nf = 3,2,0,1\nbox = 0,0,50\nnaive = 1\nseed = 5\n"
                   f"format = json\nout = {tmp_path / 'rec.json'}\n")
    assert main(["--config", str(cfg), "count-curve"]) == 0


def test_missing_config_file_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "absent.cfg"
    last, _ = _usage_error(["--config", str(cfg), "count-curve"], capsys)
    assert last == f"smallbox: error: cannot read config {cfg}: No such file or directory"


def test_config_format_checked_before_the_run(tmp_path, capsys):
    out = tmp_path / "rec.out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"format = xml\nout = {out}\np = 101\nf = 3,2,0,1\nbox = 0,0,50\n")
    last, printed = _usage_error(["--config", str(cfg), "count-curve"], capsys)
    assert last == "smallbox: error: format 'xml' is not one of csv, json"
    assert printed == ""  # the summary is not printed before the error
    assert not out.exists()


def test_dynsys_rejects_an_empty_prefix(capsys):
    last, _ = _usage_error(["dynsys", "--p", "1009", "--f", "1,0,1", "--u0", "3",
                            "--N", "0"], capsys)
    assert last == "smallbox: error: N >= 1 required"


def test_missing_required_option_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count-curve", "--p", "101"])
    assert exc.value.code == 2
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert last == "smallbox: error: missing --f (or config key f)"


def test_short_box_names_the_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count-curve", "--p", "101", "--f", "1,0,1", "--box", "0,0"])
    assert exc.value.code == 2
    assert "--box" in capsys.readouterr().err.strip().splitlines()[-1]


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
    # the Minkowski start at p = 2^61 - 1 needs a join table of 3.2 * 10^9 cells
    ["lattice-check", "--p", "2305843009213693951", "--coeffs",
     "1,1152921504606846977", "--halfwidths", "3,3"],
    # the vacuous congruence: every coefficient divisible by p
    ["lattice-check", "--p", "31", "--coeffs", "31,62", "--halfwidths", "2,2"],
    # a power-sum table whose last step would take about 3.3 GB
    ["vinogradov", "--k", "10", "--m", "3", "--H", "20"],
    # keys of about 4.5 million bits: refused before any is built
    ["vinogradov", "--k", "3000", "--m", "3000", "--H", "2"],
    # windows of 10^15 values: refused before their arrays are allocated
    ["expsum", "--p", "101", "--f", "1,2", "--k", "1", "--M", "1000000000000000"],
    ["count-curve", "--p", "2305843009213693951", "--f", "1,0,1",
     "--box", "0,0,1000000000000000"],
    ["weil", "--p", "2305843009213693951", "--f", "1,0,0,1", "--M", "1000000000000000"],
    ["sharpness", "--p", "2305843009213693951", "--g", "2", "--M", "1000000000000000"],
    # a window of 10^15 values in small blocks: refused before hours of blocks
    ["count-graph", "--p", "2305843009213693951", "--f", "1,0,1",
     "--box", "0,0,1000000000000000"],
])
def test_bad_input_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1].startswith("smallbox: error: ")


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


def test_each_command_runs_its_kernel_once(monkeypatch, capsys):
    census = _count_calls(monkeypatch, hyperelliptic, "class_census")
    assert main(["curve-classes", "--p", "31", "--g", "1", "--M", "4"]) == 0
    assert len(census) == 1
    traj = _count_calls(monkeypatch, dynsys, "trajectory_length")
    assert main(["dynsys", "--p", "1009", "--f", "1,0,1", "--u0", "3"]) == 0
    assert len(traj) == 1


def test_lattice_check_computes_the_minima_once(monkeypatch, capsys):
    # cor7_check reaches the minima scan through the helper under
    # successive_minima, which also hands it the point count of D
    minima = _count_calls(monkeypatch, lattice, "_minima_scan")
    assert main(["lattice-check", "--coeffs", "1,3,5", "--p", "101",
                 "--halfwidths", "4,6,9"]) == 0
    assert len(minima) == 1
    harness.run(harness.ExperimentSpec("lattice", {"p": 31, "coeffs": [1, 7],
                                                   "halfwidths": [3, 2]}))
    assert len(minima) == 2


def test_criterion_8_work_is_pinned(monkeypatch):
    # the work of criterion 8 at the default seed, counted rather than timed:
    # 320 minima enumerations and no separate point counts, since every body
    # is counted off the minima scan's own enumeration of D, and one echelon
    # step per scanned point, each point scanned once and only one of each
    # pair +-v
    enumerations = _count_calls(monkeypatch, lattice, "lattice_points_in_box")
    steps = _count_calls(monkeypatch, lattice._Echelon, "add")
    assert acceptance.criterion_8().passed
    assert (len(enumerations), len(steps)) == (320, 2920)


@pytest.mark.parametrize("argv, spec, work", [
    # a batch-shaped proof body: one enumeration at scale 1/2 holds l1..l3
    (["thm2-lattice", "--p", "1009", "--c", "1,2,3,4", "--M", "1"], None, (1, 3)),
    # a 2-D record: scales 1 and 2 for the minima, the count of D read off
    # the first of them
    (None, {"p": 31, "coeffs": [1, 7], "halfwidths": [3, 2]}, (2, 2)),
])
def test_lattice_kinds_work_is_pinned(monkeypatch, capsys, argv, spec, work):
    enumerations = _count_calls(monkeypatch, lattice, "lattice_points_in_box")
    steps = _count_calls(monkeypatch, lattice._Echelon, "add")
    if argv is not None:
        assert main(argv) == 0
    else:
        assert all(r.passed for r in harness.run(harness.ExperimentSpec("lattice", spec)))
    assert (len(enumerations), len(steps)) == work


def test_seed_reaches_the_acceptance_suite(monkeypatch, capsys):
    seeds = []

    def run_all(quick=False, seed=None):
        seeds.append((quick, seed))
        return []
    monkeypatch.setattr(acceptance, "run_all", run_all)
    assert main(["--seed", "5", "acceptance", "--quick"]) == 0
    assert main(["acceptance"]) == 0
    assert seeds == [(True, 5), (False, harness.DEFAULT_SEED)]
    assert capsys.readouterr().out == "0/0 criteria pass\n" * 2


def test_lemma6_at_the_largest_prime_returns(capsys):
    # a scan of F_p never ends at p = 2^61 - 1; the root count takes log p
    # steps.  F = X - (4 + X^2 / 4) has disc 1 - 4 = -3, a square mod p, so
    # 1 + (disc / p) = 2 (test_lattice checks the formula on more cases)
    assert main(["lemma6", "--p", str(2 ** 61 - 1), "--f", "0,1", "--g", "4,0,1",
                 "--xs", "2", "--ys", "1"]) == 0
    assert capsys.readouterr().out == (
        "points with f(x) = g(y) on the interpolation curve: 2 "
        "(cap deg f * deg g = 2): ok\n")


def test_lemma6_command(capsys):
    params = {"p": 101, "f": [1, 2, 0, 1], "g": [3, 0, 1], "xs": [1, 2, 3],
              "ys": [4, 5, 6]}
    count = int(harness.run(harness.ExperimentSpec("lemma6", params))[0].value)
    assert main(["lemma6", "--p", "101", "--f", "1,2,0,1", "--g", "3,0,1",
                 "--xs", "1,2,3", "--ys", "4,5,6"]) == 0
    assert capsys.readouterr().out == (
        "points with f(x) = g(y) on the interpolation curve: "
        f"{count} (cap deg f * deg g = 6): ok\n")
