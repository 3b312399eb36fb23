"""Experiment harness: spec validation against the registry, dispatch,
record persistence in both formats, and seed reproducibility."""

import csv
import dataclasses
import json

import pytest

from smallbox import boxcount, dynsys, hyperelliptic
from smallbox.acceptance import derived_rng
from smallbox.ffield import FpPolynomial, PrimeModulus
from smallbox.harness import (
    CSV_COLUMNS,
    DEFAULT_SEED,
    EXPERIMENTS,
    ExperimentSpec,
    ResultRecord,
    _csv_cell,
    emit,
    parse_records,
    run,
)


def spec_of(kind, params, seed=7):
    return ExperimentSpec(kind=kind, params=params, seed=seed)


COUNT_PARAMS = {"p": 101, "f": [3, 2, 0, 1], "R": 0, "S": 0, "M": 50}


def strip_runtime(records):
    return [(r.experiment_id, r.kind, r.params, r.value, r.bound_value,
             r.ratio, r.oracle_value, r.passed) for r in records]


def test_spec_validation():
    with pytest.raises(ValueError):
        spec_of("unknown_kind", {})
    with pytest.raises(ValueError):
        spec_of("count_curve", {"p": 101})  # missing f, R, S, M
    with pytest.raises(ValueError):
        ExperimentSpec(kind="vinogradov", params={"k": 2, "m": 2, "H": 5},
                       seed=2 ** 64)
    assert "acceptance" in EXPERIMENTS


def test_spec_rejects_unknown_keys():
    # each of these used to run: no oracle, N = T, and the default corner
    with pytest.raises(ValueError, match="unknown key 'orcale' for kind 'count_curve'"):
        spec_of("count_curve", {**COUNT_PARAMS, "orcale": True})
    with pytest.raises(ValueError, match="unknown key 'n' for kind 'dynsys'"):
        spec_of("dynsys", {"p": 101, "f": [1, 0, 1], "u0": 3, "n": 5})
    with pytest.raises(ValueError, match="unknown key 'box'"):  # the CLI name
        spec_of("census", {"p": 31, "g": 1, "M": 5, "box": [0, 0]})
    # one count path: the naive loop runs only as the `oracle`
    for kind in ("count_curve", "count_graph"):
        with pytest.raises(ValueError, match=f"unknown key 'method' for kind '{kind}'"):
            spec_of(kind, {**COUNT_PARAMS, "method": "naive"})


def test_optional_params_are_read(monkeypatch):
    def checked(kind):
        (rec,) = run(spec_of(kind, {**COUNT_PARAMS, "oracle": True}))
        return rec.value, rec.oracle_value, rec.passed
    assert checked("count_curve") == (23.0, 23.0, True)
    assert checked("count_graph") == (32.0, 32.0, True)
    # the trivial bounds the harness writes: two values of y a column, or one
    bounds = [run(spec_of(kind, COUNT_PARAMS))[0].bound_value
              for kind in ("count_curve", "count_graph")]
    assert bounds == [100.0, 50.0] and all(type(b) is float for b in bounds)
    # a disagreeing oracle fails the record
    monkeypatch.setattr(boxcount, "naive_count", lambda f, g, xs, ys, p: 22)
    assert checked("count_curve") == (23.0, 22.0, False)
    recs = run(spec_of("dynsys", {"p": 10007, "f": [1, 0, 1], "u0": 3,
                                  "N": 50, "eps": 0.1}))
    d = recs[1]
    assert d.value == 9837.0
    assert d.bound_value == min((50 * 10007) ** 0.5, 50 ** 2.0 * 10007 ** -0.1)
    census = run(spec_of("census", {"p": 31, "g": 1, "M": 4, "R": [2, 3]}))
    assert census[0].value == 12.0  # the curve-classes golden output's count


def test_cache_key_ignores_param_order():
    a = spec_of("count_curve", COUNT_PARAMS)
    b = spec_of("count_curve", dict(reversed(list(COUNT_PARAMS.items()))))
    assert a.cache_key() == b.cache_key()
    c = spec_of("count_curve", {**COUNT_PARAMS, "M": 51})
    assert a.cache_key() != c.cache_key()
    d = spec_of("count_curve", COUNT_PARAMS, seed=8)
    assert a.cache_key() != d.cache_key()
    assert a.cache_key() == "6f13bfbc80554768f430f537803dc07033843518fc8efcc203b50a1c75abc747"


# experiment ids as released: the key is the sha256 of the compact
# sorted-key JSON of kind, params and seed, so a change of that
# serialization renames every stored record
PINNED_IDS = [
    ("count_curve", COUNT_PARAMS, 7, "count_curve-6f13bfbc8055"),
    ("count_curve", {**COUNT_PARAMS, "oracle": True}, DEFAULT_SEED, "count_curve-64e28f52ccb2"),
    ("census", {"p": 31, "g": 1, "M": 4, "R": [2, 3]}, 7, "census-64f81cd6c040"),
    ("count_graph", {**COUNT_PARAMS, "f": "3,2,0,1"}, 0, "count_graph-fda869ed5869"),
]


@pytest.mark.parametrize("kind, params, seed, ident", PINNED_IDS)
def test_experiment_ids_are_pinned(kind, params, seed, ident):
    spec = spec_of(kind, params, seed)
    assert [r.experiment_id for r in run(spec)] == [ident]
    assert spec.cache_key().startswith(ident.rsplit("-", 1)[1])


def test_run_count_curve_and_graph():
    recs = run(spec_of("count_curve", COUNT_PARAMS))
    assert len(recs) == 1 and recs[0].kind == "count_curve"
    assert recs[0].value == 23.0  # frozen from the naive scan
    assert recs[0].passed
    graph = run(spec_of("count_graph", COUNT_PARAMS))
    assert graph[0].value == 32.0


def test_run_dynsys_emits_length_and_diameter():
    recs = run(spec_of("dynsys", {"p": 10007, "f": [1, 0, 1], "u0": 3}))
    by_suffix = {r.experiment_id.rsplit("-", 1)[-1]: r for r in recs}
    assert set(by_suffix) == {"T", "D"}
    assert by_suffix["T"].value == 189.0
    assert by_suffix["T"].passed and by_suffix["D"].passed


def test_dynsys_record_reads_the_stored_walk(monkeypatch):
    # one certified walk per record, and D is `diameter` of that very walk
    params = {"p": 10007, "f": [1, 0, 1], "u0": 3}
    f = FpPolynomial.from_ints([1, 0, 1], PrimeModulus(10007))
    traj = dynsys.trajectory_length(f, 3)
    beyond = dynsys.diameter(traj, 3 * traj.total_length)  # N > T repeats the same values

    walked, read = [], []
    trajectory_length, diameter = dynsys.trajectory_length, dynsys.diameter

    def counted(*args):
        walked.append(trajectory_length(*args))
        return walked[-1]

    def reader(traj, N):
        read.append(traj)
        return diameter(traj, N)
    monkeypatch.setattr(dynsys, "trajectory_length", counted)
    monkeypatch.setattr(dynsys, "diameter", reader)
    assert run(spec_of("dynsys", {**params, "N": 50}))[1].value == 9837.0
    assert run(spec_of("dynsys", {**params, "N": 3 * traj.total_length}))[1].value == beyond
    assert len(walked) == 2 and all(r is w for r, w in zip(read, walked, strict=True))
    with pytest.raises(ValueError, match="N >= 1 required"):
        run(spec_of("dynsys", {**params, "N": 0}))


def test_run_vinogradov():
    recs = run(spec_of("vinogradov", {"k": 2, "m": 2, "H": 12}))
    assert recs[0].value == float(2 * 12 * 12 - 12)
    assert recs[0].passed


def test_run_lattice_emits_both_checks():
    recs = run(spec_of("lattice", {"p": 101, "coeffs": [1, 3, 5],
                                   "halfwidths": [4, 6, 9]}))
    suffixes = {r.experiment_id.rsplit("-", 1)[-1] for r in recs}
    assert suffixes == {"cor7", "mink"}
    assert all(r.passed for r in recs)


def test_run_census_moment_identities():
    recs = run(spec_of("census", {"p": 31, "g": 1, "M": 5}))
    assert all(r.passed for r in recs)


def test_run_census_keeps_classes_as_arrays(monkeypatch):
    # the record needs only the size total; the per-class dict of a large
    # box costs far more than the census itself
    want = strip_runtime(run(spec_of("census", {"p": 101, "g": 1, "M": 7, "R": [5, 9]})))

    def refuse(self):
        raise AssertionError("class dict built")

    monkeypatch.setattr(hyperelliptic.ClassCensus, "class_sizes", property(refuse))
    recs = run(spec_of("census", {"p": 101, "g": 1, "M": 7, "R": [5, 9]}))
    assert strip_runtime(recs) == want and all(r.passed for r in recs)


def test_records_reproducible():
    one = run(spec_of("count_curve", COUNT_PARAMS))
    again = run(spec_of("count_curve", COUNT_PARAMS))
    assert strip_runtime(one) == strip_runtime(again)


def test_emit_parse_round_trip(tmp_path):
    recs = run(spec_of("dynsys", {"p": 1009, "f": [2, 1, 1], "u0": 5}))
    for fmt in ("csv", "json"):
        path = tmp_path / f"out.{fmt}"
        emit(recs, fmt, path)
        assert parse_records(path, fmt) == recs


def test_records_keep_exact_integers(tmp_path):
    # J(20,1;10) and its diagonal floor 10^20 lie far above 2^53: a float
    # record would lose their last digits
    (rec,) = run(spec_of("vinogradov", {"k": 20, "m": 1, "H": 10}))
    assert rec.value == 218768894829904122626725603838896148680
    assert rec.oracle_value == 10 ** 20
    assert type(rec.value) is int and type(rec.bound_value) is float
    (weil,) = run(spec_of("weil", {"p": 101, "f": [3, 2, 0, 1], "M": 50}))
    assert type(weil.value) is float and type(weil.oracle_value) is int
    for fmt in ("csv", "json"):
        path = tmp_path / f"out.{fmt}"
        emit([rec, weil], fmt, path)
        back = parse_records(path, fmt)
        assert back == [rec, weil]
        assert [type(r.value) for r in back] == [int, float]


def test_emit_writes_every_field_in_order(tmp_path):
    recs = (run(spec_of("dynsys", {"p": 1009, "f": [2, 1, 1], "u0": 5}))
            + run(spec_of("count_curve", COUNT_PARAMS)))
    rows = [dataclasses.astuple(r) for r in recs]
    emit(recs, "json", tmp_path / "out.json")
    assert ((tmp_path / "out.json").read_text()
            == json.dumps([dict(zip(CSV_COLUMNS, row)) for row in rows], indent=2) + "\n")
    emit(recs, "csv", tmp_path / "out.csv")
    with (tmp_path / "out.csv").open(newline="") as fh:
        assert list(csv.reader(fh))[1:] == [[_csv_cell(v) for v in row] for row in rows]


def test_csv_header_and_shape(tmp_path):
    recs = run(spec_of("vinogradov", {"k": 2, "m": 2, "H": 6}))
    path = tmp_path / "out.csv"
    emit(recs, "csv", path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[0] == ("experiment_id,kind,params,value,bound_value,"
                        "ratio,oracle_value,pass,runtime_ms")
    assert len(lines) == 1 + len(recs)


def test_json_uses_pass_key(tmp_path):
    rec = ResultRecord(experiment_id="x", kind="count_curve", params="{}",
                       value=1.0, bound_value=2.0, ratio=0.5,
                       oracle_value=None, passed=True, runtime_ms=3.0)
    path = tmp_path / "out.json"
    emit([rec], "json", path)
    raw = json.loads(path.read_text())
    assert raw[0]["pass"] is True
    assert "passed" not in raw[0]
    assert raw[0]["oracle_value"] is None
    assert parse_records(path, "json") == [rec]


def test_parse_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("wrong,header\n1,2\n")
    with pytest.raises(ValueError):
        parse_records(path, "csv")
    with pytest.raises(ValueError):
        emit([], "xml", tmp_path / "out.xml")


def test_derived_rng_reproducible_and_distinct():
    a = derived_rng(7, "trial", 3)
    b = derived_rng(7, "trial", 3)
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]
    c = derived_rng(7, "trial", 4)
    d = derived_rng(8, "trial", 3)
    stream = {tuple(r.random() for _ in range(3)) for r in
              (derived_rng(7, "trial", 3), c, d, derived_rng(7, "other", 3))}
    assert len(stream) == 4


def test_spec_seed_defaults_to_the_suite_seed():
    assert ExperimentSpec(kind="acceptance").seed == DEFAULT_SEED == 20260815


def test_registry_commands_unique_and_options_translated():
    commands = [exp.command for exp in EXPERIMENTS.values()]
    assert len(set(commands)) == len(commands)
    # CLI options that are not the params need a translation into params
    assert all(exp.from_cli is not None for exp in EXPERIMENTS.values()
               if exp.options is not None)


@pytest.mark.parametrize("kind,params,value,bound", [
    ("curve_iso", {"p": 31, "g": 1, "a": [6, 2], "b": [3, 4]}, 2.0, 30.0),
    ("expsum", {"p": 101, "f": [1, 2, 1], "k": 7, "M": 20}, None, 20.0),
    ("thm2_lattice", {"p": 10007, "c": [1, 2, 3, 4], "M": 4}, 1 / 32, 1.0),
    ("lemma6", {"p": 101, "f": [1, 2, 0, 1], "g": [3, 0, 1], "xs": [1, 2, 3],
                "ys": [4, 5, 6]}, None, 6.0),
])
def test_run_kinds_formerly_cli_only(kind, params, value, bound):
    recs = run(spec_of(kind, params))
    assert len(recs) == 1 and recs[0].kind == kind and recs[0].passed
    assert recs[0].experiment_id.startswith(kind + "-")
    assert recs[0].params == json.dumps(params, sort_keys=True,
                                        separators=(",", ":"))
    assert recs[0].bound_value == bound
    if value is not None:
        assert recs[0].value == value
