import copy
import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from monosplit import cli, fdr, fpi, km, operators, productspace, spaces
from monosplit.cli import (EXIT_CONVERGED, EXIT_DIVERGED, EXIT_INVALID,
                           EXIT_MAX_ITERS, SpecValidationError, emit_csv, main,
                           parse_spec, run)


def fdr_spec(**over):
    spec = {
        "schema_version": 1,
        "algorithm": "fdr",
        "dim": 2,
        "gamma": 1.0,
        "subspace": {"kind": "span", "vector": [1, 1]},
        "A": {"kind": "box", "lo": [1, 1], "hi": [2, 2]},
        "B": {"kind": "identity"},
        "lambda": {"kind": "constant", "value": 1.0},
        "stop": {"tol": 1e-9, "max_iters": 5000},
        "seed": 0,
    }
    spec.update(over)
    return spec


def write_spec(tmp_path, spec, name="spec.json"):
    p = tmp_path / name
    p.write_text(json.dumps(spec))
    return p


def test_parse_minimal_fdr_accepted():
    spec = parse_spec(json.dumps(fdr_spec()))
    assert spec.algorithm == "fdr"
    assert spec.tol == 1e-9


def test_parse_rejects_gamma_at_boundary():
    with pytest.raises(SpecValidationError) as e:
        parse_spec(json.dumps(fdr_spec(gamma=2.0)))
    assert any("]0, 2*beta[" in msg for msg in e.value.errors)


def test_parse_rejects_dr2_relaxation():
    spec = {"schema_version": 1, "algorithm": "dr2", "dim": 1,
            "A1": {"kind": "zero"}, "A2": {"kind": "zero"},
            "lambda": {"kind": "constant", "value": 1.6}}
    with pytest.raises(SpecValidationError) as e:
        parse_spec(json.dumps(spec))
    assert any("]0, 3/2[" in msg for msg in e.value.errors)


def test_parse_rejects_unknown_operator():
    with pytest.raises(SpecValidationError) as e:
        parse_spec(json.dumps(fdr_spec(A={"kind": "frobnicate"})))
    assert any("unknown operator kind" in msg for msg in e.value.errors)


def test_parse_collects_all_errors():
    bad = fdr_spec(A={"kind": "frobnicate"}, gamma=5.0,
                   subspace={"kind": "mystery"})
    with pytest.raises(SpecValidationError) as e:
        parse_spec(json.dumps(bad))
    joined = "\n".join(e.value.errors)
    assert "unknown operator kind" in joined
    assert "]0, 2*beta[" in joined
    assert "unknown subspace kind" in joined


def test_parse_rejects_unknown_algorithm():
    with pytest.raises(SpecValidationError) as e:
        parse_spec(json.dumps({"schema_version": 1, "algorithm": "magic"}))
    assert any("unknown algorithm" in msg for msg in e.value.errors)


def test_parse_rejects_invalid_json():
    with pytest.raises(SpecValidationError, match="invalid JSON"):
        parse_spec("{not json")


def test_parse_rejects_a_json_array():
    with pytest.raises(SpecValidationError) as e:
        parse_spec(json.dumps([fdr_spec()]))
    assert e.value.errors == ["spec must be a JSON object"]


def test_parse_rejects_wrong_schema_version():
    with pytest.raises(SpecValidationError) as e:
        parse_spec(json.dumps(fdr_spec(schema_version=7)))
    assert any("schema_version" in msg for msg in e.value.errors)


def test_parse_rejects_infeasible_fpi_init():
    spec = {
        "schema_version": 1, "algorithm": "fpi-explicit", "dim": 2,
        "gamma": 1.0,
        "subspace": {"kind": "span", "vector": [1, 1]},
        "A": {"kind": "abs"},
        "B": {"kind": "identity"},
        "init": {"kind": "value", "x": [1.0, 0.0], "y": [1.0, 1.0]},
    }
    with pytest.raises(SpecValidationError) as e:
        parse_spec(json.dumps(spec))
    joined = "\n".join(e.value.errors)
    assert "init.x: x0 must lie in the subspace (violation " in joined
    assert "init.y" in joined


def test_parse_rejects_nonsummable_errors():
    spec = fdr_spec(errors={"a": {"kind": "harmonic", "magnitude": 1.0}})
    with pytest.raises(SpecValidationError) as e:
        parse_spec(json.dumps(spec))
    assert any("non-summable" in msg for msg in e.value.errors)


def test_run_converged_and_csv(tmp_path):
    record = run(parse_spec(json.dumps(fdr_spec())))
    assert record.summary["status"] == "converged"
    assert record.rows[-1].residual <= 1e-9
    # the residual is exactly 0.0 at n=1, and a residual equal to tol converges
    exact = run(parse_spec(json.dumps(fdr_spec(stop={"tol": 0.0, "max_iters": 50}))))
    assert exact.summary["status"] == "converged"
    assert [row.n for row in exact.rows] == [0, 1] and exact.rows[-1].residual == 0.0
    out = tmp_path / "run.csv"
    emit_csv(record, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "n,lambda,residual,dx,dy,objective"
    assert len(lines) == len(record.rows) + 1
    final_residual = float(lines[-1].split(",")[2])
    assert final_residual <= 1e-9


def test_run_row_count_bounded():
    spec = fdr_spec(stop={"tol": -1.0, "max_iters": 17})
    record = run(parse_spec(json.dumps(spec)))
    assert len(record.rows) <= 18
    assert record.summary["status"] == "max-iters"


def test_run_max_iters_zero_single_row():
    spec = fdr_spec(stop={"tol": 1e-9, "max_iters": 0},
                    init={"kind": "value", "z": [9.0, 9.0]})
    record = run(parse_spec(json.dumps(spec)))
    assert record.summary["status"] == "max-iters"
    assert len(record.rows) == 1
    assert record.rows[0].n == 0


def test_run_divergence_keeps_partial_history(tmp_path):
    spec = fdr_spec(A={"kind": "unstable", "factor": 1e80},
                    B={"kind": "zero", "beta": 1.0},
                    subspace={"kind": "identity"},
                    init={"kind": "value", "z": [1.0, 1.0]},
                    stop={"tol": 1e-9, "max_iters": 50})
    record = run(parse_spec(json.dumps(spec)))
    assert record.summary["status"] == "diverged"
    assert len(record.rows) >= 1
    out = tmp_path / "partial.csv"
    emit_csv(record, out)
    assert len(out.read_text().splitlines()) == len(record.rows) + 1


def test_cli_exit_codes(tmp_path, capsys):
    ok = write_spec(tmp_path, fdr_spec(), "ok.json")
    assert main([str(ok), "-o", str(tmp_path / "ok.csv")]) == 0

    stalled = write_spec(tmp_path, fdr_spec(stop={"tol": -1.0, "max_iters": 5}),
                         "stalled.json")
    assert main([str(stalled), "-o", str(tmp_path / "s.csv")]) == EXIT_MAX_ITERS

    diverging = write_spec(tmp_path, fdr_spec(
        A={"kind": "unstable", "factor": 1e80},
        B={"kind": "zero", "beta": 1.0},
        subspace={"kind": "identity"},
        init={"kind": "value", "z": [1.0, 1.0]}), "div.json")
    assert main([str(diverging), "-o", str(tmp_path / "d.csv")]) == EXIT_DIVERGED

    invalid = write_spec(tmp_path, fdr_spec(gamma=2.0), "bad.json")
    assert main([str(invalid)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert "]0, 2*beta[" in err

    missing = tmp_path / "nope.json"
    assert main([str(missing)]) == EXIT_INVALID


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_rejects_zero_error_direction(tmp_path, capsys):
    spec = write_spec(tmp_path, fdr_spec(errors={"a": {
        "kind": "harmonic", "magnitude": 0.1, "direction": [0, 0]}}))
    assert main([str(spec)]) == EXIT_INVALID
    assert "direction must be nonzero" in capsys.readouterr().err


def test_cli_rejection_messages_cite_ranges(tmp_path, capsys):
    dr2 = write_spec(tmp_path, {
        "schema_version": 1, "algorithm": "dr2", "dim": 1,
        "A1": {"kind": "zero"}, "A2": {"kind": "zero"},
        "lambda": {"kind": "constant", "value": 1.6}}, "dr2.json")
    assert main([str(dr2)]) == EXIT_INVALID
    assert "]0, 3/2[" in capsys.readouterr().err

    unknown = write_spec(tmp_path, fdr_spec(A={"kind": "wat"}), "unk.json")
    assert main([str(unknown)]) == EXIT_INVALID
    assert "unknown operator kind" in capsys.readouterr().err


def test_cli_determinism_byte_identical(tmp_path):
    spec = write_spec(tmp_path, fdr_spec(init={"kind": "random", "scale": 2.0},
                                         seed=7), "det.json")
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main([str(spec), "-o", str(out1)]) == 0
    assert main([str(spec), "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_seed_changes_random_init(tmp_path):
    spec = fdr_spec(init={"kind": "random", "scale": 2.0},
                    stop={"tol": -1.0, "max_iters": 3})
    p = write_spec(tmp_path, spec, "seed.json")
    out1, out2 = tmp_path / "s0.csv", tmp_path / "s1.csv"
    main([str(p), "-o", str(out1), "--seed", "0"])
    main([str(p), "-o", str(out2), "--seed", "1"])
    assert out1.read_bytes() != out2.read_bytes()


def test_cli_overrides(tmp_path, capsys):
    p = write_spec(tmp_path, fdr_spec(), "ovr.json")
    out = tmp_path / "ovr.csv"
    code = main([str(p), "-o", str(out), "--max-iters", "0", "--tol", "1e-12"])
    assert code == EXIT_MAX_ITERS
    lines = out.read_text().splitlines()
    assert len(lines) == 2  # header + initial row
    # a negative seed is refused before the run, not a failed run
    assert main([str(p), "-o", str(out), "--seed", "-3"]) == EXIT_INVALID
    assert capsys.readouterr().err == f"{p}: seed: must be >= 0, got -3\n"


def test_cli_successive_calls_parse_independently(tmp_path, capsys):
    p = write_spec(tmp_path, fdr_spec(), "twice.json")
    out1, out2 = tmp_path / "first.csv", tmp_path / "second.csv"
    assert main([str(p), "-o", str(out1), "--max-iters", "0", "--tol", "1e-12"]) \
        == EXIT_MAX_ITERS
    # no flag of the first call carries over into the second
    assert main([str(p), "-o", str(out2)]) == EXIT_CONVERGED
    assert len(out1.read_text().splitlines()) == 2
    assert len(out2.read_text().splitlines()) > 2
    capsys.readouterr()
    helps = []
    for _ in range(2):
        with pytest.raises(SystemExit) as e:
            main(["--help"])
        assert e.value.code == 0
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1]
    assert helps[0].startswith("usage: monosplit")
    for flag in ("--algorithm", "--tol", "--max-iters", "--seed", "--log-every",
                 "--output"):
        assert flag in helps[0]
    assert "--jobs" not in helps[0]


def test_cli_log_every_thins_history(tmp_path):
    p = write_spec(tmp_path, fdr_spec(stop={"tol": -1.0, "max_iters": 10}),
                   "thin.json")
    out = tmp_path / "thin.csv"
    main([str(p), "-o", str(out), "--log-every", "4"])
    ns = [int(line.split(",")[0]) for line in out.read_text().splitlines()[1:]]
    assert ns == [0, 4, 8, 10]


def test_cli_multiple_specs_share_one_output_dir(tmp_path):
    p1 = write_spec(tmp_path, fdr_spec(), "one.json")
    p2 = write_spec(tmp_path, fdr_spec(seed=3), "two.json")
    outdir = tmp_path / "outs"
    code = main([str(p1), str(p2), "-o", str(outdir)])
    assert code == 0
    assert (outdir / "one.csv").exists()
    assert (outdir / "two.csv").exists()


def test_cli_writes_the_csv_beside_the_spec_by_default(tmp_path):
    p = write_spec(tmp_path, fdr_spec(), "beside.json")
    assert main([str(p)]) == EXIT_CONVERGED
    assert (tmp_path / "beside.csv").read_text().startswith("n,lambda,residual")


def test_cli_unwritable_output_is_a_run_failure(tmp_path, capsys):
    p = write_spec(tmp_path, fdr_spec())
    assert main([str(p), "-o", str(tmp_path / "missing_dir" / "x.csv")]) == cli.EXIT_ERROR
    assert f"{p}: run failed: cannot write CSV to" in capsys.readouterr().err


def test_emit_csv_path_context(tmp_path):
    record = run(parse_spec(json.dumps(fdr_spec())))
    target = tmp_path / "missing_dir" / "x.csv"
    with pytest.raises(OSError, match="cannot write CSV"):
        emit_csv(record, target)


def test_emit_csv_writes_the_bytes_of_the_csv_module(tmp_path):
    # the reference is the csv module's default dialect with repr cells
    nan, inf = float("nan"), float("inf")
    rows = [km.IterationRow(0, 1.0, inf, 0.0),
            km.IterationRow(1, np.float64(0.5), -inf, nan, None, -0.0),
            km.IterationRow(2, 1.9, 1e-300, -0.0, 5e-324, None),
            km.IterationRow(3, np.float64(1.0), np.float64(1 / 3), np.float64(-2.5),
                            np.float64(nan), np.float64(-inf)),
            km.IterationRow(10**6, 0.1, 1.7976931348623157e308, 2.0, 0.0, 1e16)]
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "lambda", "residual", "dx", "dy", "objective"])
        for r in rows:
            writer.writerow([str(r.n)] + ["" if v is None else repr(float(v))
                                          for v in r[1:]])
    out = tmp_path / "ours.csv"
    emit_csv(cli.RunRecord(rows=rows, summary={}), out)
    assert out.read_bytes() == ref.read_bytes()
    emit_csv(cli.RunRecord(rows=[], summary={}), out)
    assert out.read_bytes() == b"n,lambda,residual,dx,dy,objective\r\n"


def test_variational_spec_records_objective(tmp_path):
    spec = {
        "schema_version": 1,
        "algorithm": "variational",
        "dim": 2,
        "gamma": 1.0,
        "subspace": {"kind": "zero_mean"},
        "f": {"kind": "l1"},
        "g": {"kind": "quadratic", "Q": [[1, 0], [0, 1]], "b": [3, -3]},
        "stop": {"tol": 1e-10, "max_iters": 5000},
    }
    record = run(parse_spec(json.dumps(spec)))
    assert record.summary["status"] == "converged"
    assert record.rows[-1].objective is not None
    out = tmp_path / "var.csv"
    emit_csv(record, out)
    last = out.read_text().splitlines()[-1].split(",")
    assert last[5] != ""


def test_shipped_sample_specs_run(tmp_path):
    from pathlib import Path
    spec_dir = Path(__file__).resolve().parent.parent / "specs"
    paths = sorted(spec_dir.glob("*.json"))
    assert len(paths) >= 3
    for p in paths:
        out = tmp_path / (p.stem + ".csv")
        assert main([str(p), "-o", str(out)]) == 0, p.name
        assert float(out.read_text().splitlines()[-1].split(",")[2]) <= 1e-9


ALL_ALGORITHM_SPECS = {
    "fdr": fdr_spec(),
    "fpi": {
        "schema_version": 1, "algorithm": "fpi", "dim": 2, "gamma": 1.0,
        "subspace": {"kind": "span", "vector": [1, 1]},
        "A": {"kind": "box", "lo": [1, 1], "hi": [2, 2]},
        "B": {"kind": "identity"},
        "delta": {"kind": "constant", "value": 1.0},
    },
    "fpi-explicit": {
        "schema_version": 1, "algorithm": "fpi-explicit", "dim": 2,
        "gamma": 1.0,
        "subspace": {"kind": "zero_mean"},
        "A": {"kind": "abs"},
        "B": {"kind": "identity"},
    },
    "km": {
        "schema_version": 1, "algorithm": "km", "dim": 2,
        "ops": [{"type": "projector", "kind": "span", "vector": [1, 1]},
                {"type": "projector", "kind": "span", "vector": [1, 0]}],
        "init": {"kind": "value", "z": [0.0, 2.0]},
    },
    "product": {
        "schema_version": 1, "algorithm": "product", "dim": 1,
        "gamma": 1.0,
        "blocks": [{"kind": "abs", "center": [0.0]},
                   {"kind": "abs", "center": [1.0]},
                   {"kind": "abs", "center": [2.0]}],
        "B": {"kind": "zero", "beta": 1.0},
    },
    "pi-sum": {
        "schema_version": 1, "algorithm": "pi-sum", "dim": 1,
        "gamma": 1.0,
        "blocks": [{"kind": "abs", "center": [0.0]},
                   {"kind": "abs", "center": [1.0]},
                   {"kind": "abs", "center": [2.0]}],
        "B": {"kind": "zero", "beta": 1.0},
    },
    "dr2": {
        "schema_version": 1, "algorithm": "dr2", "dim": 1, "gamma": 1.0,
        "A1": {"kind": "linear", "M": [[1.0]], "b": [-4.0]},
        "A2": {"kind": "linear", "M": [[1.0]], "b": [2.0]},
    },
    "variational": {
        "schema_version": 1, "algorithm": "variational", "dim": 2,
        "subspace": {"kind": "zero_mean"},
        "f": {"kind": "l1"},
        "g": {"kind": "quadratic", "Q": [[1, 0], [0, 1]], "b": [3, -3]},
    },
}


def test_all_algorithms_run_end_to_end(tmp_path):
    for name, spec in ALL_ALGORITHM_SPECS.items():
        p = write_spec(tmp_path, spec, f"{name}.json")
        out = tmp_path / f"{name}.csv"
        code = main([str(p), "-o", str(out)])
        assert code == 0, name
        assert out.exists(), name
        final = out.read_text().splitlines()[-1].split(",")
        assert float(final[2]) <= 1e-8, name


@pytest.mark.parametrize("algorithm", ["fpi", "fpi-explicit"])
def test_scalar_start_is_held_to_its_subspace(tmp_path, capsys, algorithm):
    # a scalar start is broadcast to a constant vector: outside the zero-mean
    # subspace unless it is 0, and inside its complement whatever it is
    spec = dict(ALL_ALGORITHM_SPECS[algorithm], A={"kind": "abs"},
                subspace={"kind": "zero_mean"}, init={"kind": "value", "x": 1.0})
    out = str(tmp_path / "out.csv")
    assert main([str(write_spec(tmp_path, spec)), "-o", out]) == EXIT_INVALID
    assert "init.x: x0 must lie in the subspace (violation " in capsys.readouterr().err
    spec["init"] = {"kind": "value", "x": 0.0, "y": 1.0}
    assert main([str(write_spec(tmp_path, spec)), "-o", out]) == EXIT_CONVERGED


@pytest.mark.parametrize("algorithm", ["fpi", "fpi-explicit"])
def test_random_start_is_projected_onto_the_subspace(tmp_path, algorithm):
    # a standard normal draw leaves the zero-mean subspace; unprojected, the
    # solver would refuse it as a start and the run would fail
    spec = dict(ALL_ALGORITHM_SPECS[algorithm], A={"kind": "abs"},
                subspace={"kind": "zero_mean"}, init={"kind": "random", "scale": 3.0})
    out = str(tmp_path / "out.csv")
    assert main([str(write_spec(tmp_path, spec)), "-o", out]) == EXIT_CONVERGED


MALFORMED =(None, "s", 0.5, [1], {}, {"kind": [1]}, True)


def _depth2_paths(spec):
    """Key paths of depth 1 and 2; list entries count as fields."""
    for key, value in spec.items():
        yield (key,)
        if isinstance(value, dict):
            yield from ((key, sub) for sub in value)
        elif isinstance(value, list):
            yield from ((key, i) for i in range(len(value)))


@pytest.mark.parametrize("algorithm", sorted(ALL_ALGORITHM_SPECS))
def test_parse_malformed_fields_never_crash(algorithm):
    spec = ALL_ALGORITHM_SPECS[algorithm]
    crashes = []
    for path in _depth2_paths(spec):
        for value in MALFORMED + ("<deleted>",):
            bad = copy.deepcopy(spec)
            parent = bad if len(path) == 1 else bad[path[0]]
            if value == "<deleted>":
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(value)
            try:
                parse_spec(json.dumps(bad))
            except SpecValidationError:
                pass
            except Exception as e:  # noqa: BLE001 - every other exception is a crash
                crashes.append(f"{path} = {value!r}: {type(e).__name__}: {e}")
    assert not crashes


@pytest.mark.parametrize("algorithm, fields, path", [
    ("fdr", {"lambda": 0.5}, "lambda"),
    ("fpi", {"delta": 0.5}, "delta"),
    ("fdr", {"init": 0.5}, "init"),
    ("fpi", {"init": "s"}, "init"),
    ("fdr", {"errors": "s"}, "errors"),
    ("fdr", {"errors": {"a": 0.5}}, "errors.a"),
    ("product", {"errors": {"b": [None, 0.5, None]}}, "errors.b[1]"),
    ("km", {"errors": [0.5, None]}, "errors[0]"),
    ("fdr", {"stop": 3}, "stop"),
    ("fpi", {"init": {"kind": "value", "x": "s"}}, "init.x"),
    ("fpi-explicit", {"init": {"kind": "value", "x": [1.0, 1.0], "y": "s"}}, "init.y"),
    ("km", {"errors": [None]}, "errors"),
    ("fdr", {"A": {"kind": "normal_cone", "subspace": 0.5}}, "A.subspace"),
    ("fdr", {"stop": 0}, "stop"),
    ("fdr", {"errors": False}, "errors"),
    ("product", {"init": []}, "init"),
    ("dr2", {"init": 0}, "init"),
])
def test_parse_names_malformed_descriptor(algorithm, fields, path):
    spec = dict(ALL_ALGORITHM_SPECS[algorithm], **fields)
    with pytest.raises(SpecValidationError) as e:
        parse_spec(json.dumps(spec))
    assert any(msg.startswith(f"{path}: expected") for msg in e.value.errors)


def test_cli_batch_survives_malformed_spec(tmp_path, capsys):
    bad = write_spec(tmp_path, fdr_spec(**{"lambda": 0.5}), "bad.json")
    ok = write_spec(tmp_path, fdr_spec(), "ok.json")
    outdir = tmp_path / "out"
    assert main([str(bad), str(ok), "-o", str(outdir)]) == EXIT_INVALID
    assert (outdir / "ok.csv").exists()
    assert not (outdir / "bad.csv").exists()
    assert "lambda: expected an object" in capsys.readouterr().err


def test_cli_range_messages_come_from_the_library():
    with pytest.raises(SpecValidationError) as e:
        parse_spec(json.dumps(fdr_spec(gamma=2.0)))
    with pytest.raises(ValueError) as lib:
        fdr.check_gamma(2.0, 1.0)
    assert e.value.errors == [f"gamma: {lib.value}"]

    dr2 = dict(ALL_ALGORITHM_SPECS["dr2"], **{"lambda": {"kind": "constant", "value": 1.6}})
    with pytest.raises(SpecValidationError) as e:
        parse_spec(json.dumps(dr2))
    with pytest.raises(ValueError) as lib:
        productspace.dr2_relaxation(1.6)
    assert e.value.errors == [f"lambda: {lib.value}"]


def _fdr_problem(beta=1.0):
    """The problem of ``fdr_spec()`` (``ALL_ALGORITHM_SPECS["fpi"]`` too),
    with ``B`` the zero map of ``beta`` unless ``beta`` is 1."""
    B = cli._identity_map(2) if beta == 1.0 else operators.zero_cocoercive(2, beta=beta)
    return fdr.InclusionProblem(operators.normal_cone_box([1, 1], [2, 2]), B,
                                spaces.span_projector([1, 1]))


def _zero_mean_problem():
    """The problem of ``ALL_ALGORITHM_SPECS["fpi-explicit"]``."""
    return fdr.InclusionProblem(operators.subdifferential_abs(2), cli._identity_map(2),
                                spaces.zero_mean_projector(2))


def _abs_blocks(centers):
    return [operators.subdifferential_abs(1, [c]) for c in centers]


def _product_problem(centers=(0.0, 1.0, 2.0), beta=1.0, weights=None):
    return productspace.ProductProblem(_abs_blocks(centers),
                                       operators.zero_cocoercive(1, beta=beta), weights)


def _km_ops():
    """The operators of ``ALL_ALGORITHM_SPECS["km"]``."""
    return [spaces._mark_built(operators.AveragedOperator(
        spaces.span_projector(v), 0.5, 2, label="projection")) for v in ([1, 1], [1, 0])]


def _dr2_pair():
    return (operators.linear_monotone([[1.0]], [-4.0]),
            operators.linear_monotone([[1.0]], [2.0]))


HARMONIC = {"kind": "harmonic", "magnitude": 1.0}
ZERO_BETA_HUGE = {"kind": "zero", "beta": 1e308}
# (algorithm, spec fields, the field refused, the library call that refuses
# the same parameter): one case per range refusal of each solver
RANGE_REFUSALS = [
    ("fdr", {"gamma": 2.0}, "gamma", lambda: fdr.fdr_solve(_fdr_problem(), gamma=2.0)),
    ("fdr", {"lambda": {"kind": "constant", "value": 1.6}}, "lambda",
     lambda: fdr.fdr_solve(_fdr_problem(), gamma=1.0, relaxation=1.6)),
    ("fdr", {"errors": {"b": HARMONIC}}, "errors.b",
     lambda: fdr.fdr_solve(_fdr_problem(), b_errors=km.harmonic_errors(2, 1.0))),
    ("variational", {"lambda": {"kind": "polynomial", "c": 1.0, "p": 2.0}}, "lambda",
     lambda: fdr.fdr_solve(_fdr_problem(), relaxation=km.polynomial_relaxation(1.0, 2.0))),
    ("fpi", {"gamma": 0.0}, "gamma", lambda: fpi.fpi_solve(_fdr_problem(), gamma=0.0)),
    ("fpi", {"delta": {"kind": "constant", "value": 5.0}}, "delta",
     lambda: fpi.fpi_solve(_fdr_problem(), gamma=1.0, steps=5.0)),
    ("fpi", {"delta": {"kind": "constant", "value": 0.5}}, "delta",
     lambda: fpi.fpi_solve(_fdr_problem(), gamma=1.0, steps=0.5)),
    ("fpi", {"lambda": {"kind": "constant", "value": 0.0}}, "lambda",
     lambda: fpi.fpi_solve(_fdr_problem(), gamma=1.0, relaxation=0.0)),
    ("fpi-explicit", {"gamma": 2.0}, "gamma",
     lambda: fpi.fpi_explicit_solve(_zero_mean_problem(), gamma=2.0)),
    ("fpi-explicit", {"init": {"kind": "value", "x": [1.0, 0.0]}}, "init.x",
     lambda: fpi.fpi_explicit_solve(_zero_mean_problem(), gamma=1.0, x0=[1.0, 0.0])),
    ("fpi-explicit", {"init": {"kind": "value", "x": [0.0, 0.0], "y": [1.0, -3.0]}},
     "init.y", lambda: fpi.fpi_explicit_solve(_zero_mean_problem(), gamma=1.0,
                                              y0=[1.0, -3.0])),
    ("km", {"lambda": {"kind": "constant", "value": 1.5}}, "lambda",
     lambda: km.km_solve(_km_ops(), relaxation=1.5)),
    ("km", {"errors": [None]}, "errors", lambda: km.km_solve(_km_ops(), errors=[None])),
    ("km", {"errors": [None, HARMONIC]}, "errors[1]",
     lambda: km.km_solve(_km_ops(), errors=[None, km.harmonic_errors(2, 1.0)])),
    ("product", {"gamma": 2.0}, "gamma",
     lambda: productspace.sum_splitting_solve(_product_problem(), gamma=2.0)),
    ("product", {"weights": [0.5, 0.25, 0.5]}, "weights",
     lambda: _product_problem(weights=[0.5, 0.25, 0.5])),
    ("product", {"errors": {"b": [None, None]}}, "errors.b",
     lambda: productspace.sum_splitting_solve(_product_problem(), b_errors=[None, None])),
    ("product", {"errors": {"b": [None, HARMONIC, None]}}, "errors.b[1]",
     lambda: productspace.sum_splitting_solve(
         _product_problem(), b_errors=[None, km.harmonic_errors(1, 1.0), None])),
    ("product", {"blocks": [{"kind": "abs"}, {"kind": "abs"}, {"kind": "zero"}],
                 "B": ZERO_BETA_HUGE, "gamma": None}, "gamma",
     lambda: productspace.sum_splitting_solve(productspace.ProductProblem(
         _abs_blocks([0.0, 0.0]) + [operators.zero_operator(1)],
         operators.zero_cocoercive(1, beta=1e308)))),
    ("pi-sum", {"lambda": {"kind": "constant", "value": 1.2}}, "lambda",
     lambda: productspace.sum_splitting_pi(_product_problem(), relaxation=1.2)),
    ("pi-sum", {"blocks": [{"kind": "abs"}, {"kind": "abs"}], "B": ZERO_BETA_HUGE,
                "weights": [0.25, 0.75], "gamma": None}, "gamma",
     lambda: productspace.sum_splitting_pi(_product_problem(
         (0.0, 0.0), beta=1e308, weights=[0.25, 0.75]))),
    ("dr2", {"gamma": -1.0}, "gamma",
     lambda: productspace.parallel_dr2(*_dr2_pair(), gamma=-1.0)),
    ("dr2", {"gamma": 1e308}, "gamma",
     lambda: productspace.parallel_dr2(*_dr2_pair(), gamma=1e308)),
    ("dr2", {"lambda": {"kind": "constant", "value": 1.6}}, "lambda",
     lambda: productspace.parallel_dr2(*_dr2_pair(), relaxation=1.6)),
    ("dr2", {"errors": {"b2": HARMONIC}}, "errors.b2",
     lambda: productspace.parallel_dr2(*_dr2_pair(), b2_errors=km.harmonic_errors(1, 1.0))),
]


@pytest.mark.parametrize("algorithm, fields, field, solve", RANGE_REFUSALS,
                         ids=[f"{a}-{f}" for a, _, f, _ in RANGE_REFUSALS])
def test_cli_range_refusals_are_the_solvers(tmp_path, capsys, algorithm, fields, field,
                                            solve):
    # the CLI refuses a spec through the solver's own plan: its one line is
    # the solver's ValueError under the field, and no run starts
    spec = {k: v for k, v in dict(ALL_ALGORITHM_SPECS[algorithm], **fields).items()
            if v is not None}
    if algorithm == "variational":
        spec["g"] = {"kind": "quadratic", "Q": [[1, 0], [0, 1]]}
    with pytest.raises(ValueError) as lib:
        solve()
    path = write_spec(tmp_path, spec)
    assert main([str(path), "-o", str(tmp_path / "out.csv")]) == EXIT_INVALID
    assert capsys.readouterr().err.splitlines() == [f"{path}: {field}: {lib.value}"]
    assert not (tmp_path / "out.csv").exists()


def test_fpi_refuses_non_unit_steps_with_the_library_text():
    spec = dict(ALL_ALGORITHM_SPECS["fpi"], delta={"kind": "constant", "value": 0.5})
    with pytest.raises(SpecValidationError) as e:
        parse_spec(json.dumps(spec))
    assert e.value.errors == [
        "delta: varying or non-unit step schedules require a user oracle; "
        "the built-in closed form covers delta = 1 only"]


def _grid_specs():
    """Specs of every algorithm over a grid of gamma, beta, lambda and, for
    fpi, delta; each top-level field only where the algorithm declares it."""
    for algorithm, base in ALL_ALGORITHM_SPECS.items():
        declared = [key for key, _ in cli._ALGORITHMS[algorithm][0]]
        for gamma in ([1e-300, 0.5, 1.99, 2.0, 1e308] if "gamma" in declared else [None]):
            for beta in ([1.0, 1e308] if "B" in declared or "g" in declared else [None]):
                for lam in (0.5, 1.0, 1.49):
                    for delta in ([0.5, 1.0] if "delta" in declared else [None]):
                        spec = dict(base, stop={"max_iters": 30},
                                    **{"lambda": {"kind": "constant", "value": lam}})
                        if gamma is not None:
                            spec["gamma"] = gamma
                        if beta is not None and "B" in declared:
                            spec["B"] = {"kind": "zero", "beta": beta}
                        elif beta is not None:
                            spec["g"] = {"kind": "zero", "lipschitz": 1.0 / beta}
                        if delta is not None:
                            spec["delta"] = {"kind": "constant", "value": delta}
                        yield spec


def test_an_accepted_spec_never_fails_its_run_on_a_range():
    # a spec that parses runs: every range the solver would refuse was
    # refused at parse, the resolvent parameters of its run included
    accepted = failed = 0
    for spec in _grid_specs():
        try:
            parsed = parse_spec(json.dumps(spec))
        except SpecValidationError:
            continue
        accepted += 1
        try:
            run(parsed)
        except ValueError as e:
            failed += 1
            print(spec["algorithm"], spec.get("gamma"), spec.get("B"), e)
    assert accepted > 100
    assert failed == 0


def test_readme_lists_every_descriptor_kind():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    vocab = readme.split("Descriptor vocabularies")[1].split("Per-algorithm fields:")[0]
    bullets = {b.split("`")[1]: b for b in vocab.split("\n- ")[1:]}
    for family, kinds in cli._VOCABULARY.items():
        assert family in bullets, family
        for kind in kinds:
            assert f'"{kind}"' in bullets[family], (family, kind)


def test_readme_lists_every_algorithm_row():
    # one bullet per row of the table, in its order, naming the row's
    # top-level fields in order before its first semicolon
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("Per-algorithm fields")[1].split("\n\n")[1]
    rows = [re.findall(r"`([^`]+)`", b.split(";")[0]) for b in section.split("\n- ")]
    assert [row[0] for row in rows] == list(cli._ALGORITHMS)
    for name, *fields in rows:
        assert fields == [key for key, _ in cli._ALGORITHMS[name][0]], name
    assert "unknown field" in readme.split("Per-algorithm fields")[1]


# every algorithm's top-level fields, in the order of the message that
# refuses any other key
TOP_LEVEL = {
    "fdr": "subspace, A, B, gamma, lambda, errors",
    "fpi": "subspace, A, B, gamma, lambda, delta",
    "fpi-explicit": "subspace, A, B, gamma, lambda",
    "km": "ops, lambda, errors",
    "product": "blocks, B, weights, gamma, lambda, errors",
    "pi-sum": "blocks, B, weights, gamma, lambda",
    "dr2": "A1, A2, gamma, lambda, errors",
    "variational": "subspace, f, g, gamma, lambda, errors",
}


def unknown_field(key, algorithm):
    return (f"{key}: unknown field; known fields: schema_version, algorithm, "
            f"{TOP_LEVEL[algorithm]}, init, stop, seed, log_every, dim")


@pytest.mark.parametrize("algorithm", ["fpi", "fpi-explicit", "pi-sum"])
def test_errors_rejected_where_the_solver_takes_none(tmp_path, algorithm):
    spec = dict(ALL_ALGORITHM_SPECS[algorithm],
                errors={"a": {"kind": "geometric", "magnitude": 0.1, "rate": 0.5}})
    with pytest.raises(SpecValidationError) as e:
        parse_spec(json.dumps(spec))
    assert e.value.errors == [unknown_field("errors", algorithm)]
    assert main([str(write_spec(tmp_path, spec))]) == EXIT_INVALID
    # null is a missing field
    parse_spec(json.dumps(dict(spec, errors=None)))


@pytest.mark.parametrize("delta", [{"kind": "constant", "value": 0.5},
                                   {"kind": "constant", "value": 1.0}])
def test_fpi_explicit_rejects_a_delta_field(tmp_path, delta):
    spec = dict(ALL_ALGORITHM_SPECS["fpi-explicit"], delta=delta)
    with pytest.raises(SpecValidationError) as e:
        parse_spec(json.dumps(spec))
    assert e.value.errors == [unknown_field("delta", "fpi-explicit")]
    assert main([str(write_spec(tmp_path, spec))]) == EXIT_INVALID
    # null is a missing field
    parse_spec(json.dumps(dict(spec, delta=None)))


@pytest.mark.parametrize("init", [{"kind": "ones"}, {"scale": 2.0}])
def test_dr2_rejects_unknown_init_kind(tmp_path, init):
    spec = dict(ALL_ALGORITHM_SPECS["dr2"], init=init)
    with pytest.raises(SpecValidationError) as e:
        parse_spec(json.dumps(spec))
    assert e.value.errors == [f"init.kind: unknown init kind {init.get('kind')!r}; "
                              "known kinds: zeros, random, value"]
    assert main([str(write_spec(tmp_path, spec))]) == EXIT_INVALID


@pytest.mark.parametrize("algorithm, fields, message", [
    ("fpi", {"gamma": 0.0}, "gamma: gamma must be positive and finite, got 0.0"),
    ("dr2", {"gamma": -1.0}, "gamma: gamma must be positive and finite, got -1.0"),
    ("km", {"ops": [{"type": "resolvent", "kind": "zero", "gamma": float("inf")}]},
     "ops[0].gamma: gamma must be positive and finite, got inf"),
    ("fpi-explicit", {"init": {"kind": "value", "x": [0.0, 0.0], "y": [1.0, -1.0]}},
     "init.y: y0 must lie in the orthogonal complement (violation "),
    ("product", {"init": {"z": [[5.0], [5.0], [5.0]]}},
     "init.kind: unknown init kind None; known kinds: zeros, random, value"),
    ("fpi", {"init": {"kind": "value"}}, "init.x: required field is missing"),
    ("dr2", {"init": {"kind": "value", "z1": [1.0]}}, "init.z2: required field is missing"),
    ("product", {"weights": [0.0, 0.5, 0.5]}, "weights: each weight must lie in ]0, 1["),
    ("fdr", {"dim": 0}, "dim: must be >= 1, got 0"),
    ("fdr", {"stop": {"max_iters": -1}}, "stop.max_iters: must be >= 0, got -1"),
    ("fdr", {"log_every": 0}, "log_every: must be >= 1, got 0"),
    ("fpi-explicit", {"A": {"kind": "normal_cone", "subspace": {"kind": "span"}}},
     "A.subspace.vector: required field is missing"),
    ("fpi", {"A": {"kind": "box", "hi": [1, 1]}}, "A.lo: required field is missing"),
    ("fpi", {"A": {"kind": "linear"}}, "A.M: required field is missing"),
    ("product", {"weights": [0.5, 0.25, 0.5]},
     "weights: weights must sum to 1 within 1e-12, got 1.25"),
    ("product", {"init": {"kind": "value", "z": [1.0, 2.0]}},
     "init.z: expected 3 vectors of length 1"),
    ("fpi", {"A": {"kind": "box", "lo": None, "hi": [1, 1]}},
     "A.lo: required field is missing"),
    ("fpi", {"A": {"kind": "linear", "M": None}}, "A.M: required field is missing"),
    ("fpi-explicit", {"A": {"kind": "normal_cone",
                            "subspace": {"kind": "span", "vector": None}}},
     "A.subspace.vector: required field is missing"),
    ("fdr", {"seed": -1}, "seed: must be >= 0, got -1"),
], ids=lambda v: v.split(":")[0] if isinstance(v, str) else None)
def test_spec_error_is_the_one_message_listed(tmp_path, capsys, algorithm, fields, message):
    # each spec has one fault; its message is the only line on stderr and
    # starts as listed (a violation's figure follows the listed prefix)
    spec = write_spec(tmp_path, dict(ALL_ALGORITHM_SPECS[algorithm], **fields))
    assert main([str(spec)]) == EXIT_INVALID
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"{spec}: {message}"), err


def test_huge_relaxation_exponent_gets_the_range_message():
    spec = dict(ALL_ALGORITHM_SPECS["fpi-explicit"],
                **{"lambda": {"kind": "polynomial", "c": 1.0, "p": 1e300}})
    with pytest.raises(SpecValidationError) as e:
        parse_spec(json.dumps(spec))
    assert e.value.errors == ["lambda: relaxation value 0.0 at n=1 outside "
                              "admissible range [0.001, 1.0]"]


def _numeric_spec(algorithm):
    """A valid spec of ``algorithm`` whose numeric fields cover every kind of
    matrix, error schedule, schedule and start the harness reads."""
    Q = [[2.0, 0.5], [0.5, 1.0]]
    stop = {"tol": 1e-6, "max_iters": 50}
    if algorithm == "fdr":
        return fdr_spec(
            gamma=0.5, subspace={"kind": "matrix", "rows": [[0.5, 0.5], [0.5, 0.5]]},
            A={"kind": "linear", "M": [[1.0, 0.0], [0.0, 2.0]], "b": [1.0, 0.0]},
            B={"kind": "affine_gradient", "Q": Q, "b": [1.0, 1.0]},
            errors={"a": {"kind": "geometric", "magnitude": 0.5, "rate": 0.5},
                    "b": {"kind": "geometric", "magnitude": 0.5, "rate": 0.5}},
            init={"kind": "random", "scale": 1.0}, stop=stop)
    if algorithm == "variational":
        return {"schema_version": 1, "algorithm": "variational", "dim": 2,
                "subspace": {"kind": "zero_mean"},
                "f": {"kind": "quadratic", "Q": Q, "b": [1.0, 0.0]},
                "g": {"kind": "quadratic", "Q": Q, "b": [3.0, -3.0]},
                "lambda": {"kind": "polynomial", "c": 1.0, "p": 0.5}, "stop": stop}
    if algorithm == "fpi":
        return {**ALL_ALGORITHM_SPECS["fpi"], "B": {"kind": "zero", "beta": 1.0},
                "init": {"kind": "value", "x": [1.0, 1.0], "y": [1.0, -1.0]},
                "stop": stop}
    if algorithm == "dr2":
        return {**ALL_ALGORITHM_SPECS["dr2"], "stop": stop}
    if algorithm == "km":
        return {"schema_version": 1, "algorithm": "km", "dim": 2,
                "ops": [{"type": "resolvent", "kind": "zero", "gamma": 1.0},
                        {"type": "projector", "kind": "identity"}],
                "errors": [{"kind": "geometric", "magnitude": 0.1, "rate": 0.5}, None],
                "stop": stop}
    return {**ALL_ALGORITHM_SPECS["product"], "weights": [0.25, 0.25, 0.5],
            "init": {"kind": "value", "z": [[1.0], [2.0], [0.0]]}, "stop": stop,
            "errors": {"b": [{"kind": "geometric", "magnitude": 0.1, "rate": 0.5},
                             None, None]}}


INF = float("inf")
NAN = float("nan")
# box bounds may be rays: x1 >= 1 and x2 <= 2 on the line x1 = x2 (fdr), and
# x1 <= 1 and x2 >= -1 on the zero-mean line (variational)
RAY_BOX_SPECS = {
    "fdr": fdr_spec(A={"kind": "box", "lo": [1.0, -INF], "hi": [INF, 2.0]}),
    "variational": {**ALL_ALGORITHM_SPECS["variational"],
                    "f": {"kind": "box", "lo": [-INF, -1.0], "hi": [1.0, INF]}},
}


@pytest.mark.parametrize("algorithm", list(RAY_BOX_SPECS))
def test_box_bounds_take_infinite_entries(tmp_path, capsys, algorithm):
    spec = RAY_BOX_SPECS[algorithm]
    out = tmp_path / "ray.csv"
    assert main([str(write_spec(tmp_path, spec)), "-o", str(out)]) == EXIT_CONVERGED
    rows = out.read_text().splitlines()
    assert rows[0] == "n,lambda,residual,dx,dy,objective"
    assert float(rows[-1].split(",")[2]) <= 1e-8
    capsys.readouterr()
    key = "A" if algorithm == "fdr" else "f"
    bad = copy.deepcopy(spec)
    bad[key]["lo"][0] = float("nan")
    assert main([str(write_spec(tmp_path, bad))]) == EXIT_INVALID
    assert f"{key}: box bounds must not be NaN" in capsys.readouterr().err


@pytest.mark.parametrize("family, key", [("fdr", "A"), ("variational", "f")])
@pytest.mark.parametrize("lo, hi, message", [
    ([NAN, 1.0], [2.0, 2.0], "box bounds must not be NaN"),
    ([1.0, 1.0], [2.0, NAN], "box bounds must not be NaN"),
    ([NAN, 3.0], [2.0, 2.0], "box bounds must not be NaN"),
    ([3.0, 1.0], [2.0, 2.0], "empty box: lo > hi in some coordinate"),
    ([1.0, 1.0], [1.0, 1.0], None),
    ([-INF, 1.0], [INF, 1.0], None),
], ids=["nan-lo", "nan-hi", "nan-and-empty", "empty", "equal", "infinite"])
def test_box_kind_keeps_the_library_contract(family, key, lo, hi, message):
    spec = copy.deepcopy(fdr_spec() if family == "fdr"
                         else ALL_ALGORITHM_SPECS["variational"])
    spec[key] = {"kind": "box", "lo": lo, "hi": hi}
    if message is None:
        parse_spec(json.dumps(spec))
        return
    with pytest.raises(SpecValidationError) as e:
        parse_spec(json.dumps(spec))
    assert e.value.errors == [f"{key}: {message}"]


# (algorithm, key path) of a numeric field: every field takes NaN, and those
# marked True (matrices, error magnitudes, resolvent gammas) take +-Infinity too
NON_FINITE_FIELDS = {
    ("fdr", ("subspace", "rows", 0, 1)): True,
    ("fdr", ("A", "M", 1, 1)): True,
    ("fdr", ("B", "Q", 0, 0)): True,
    ("variational", ("f", "Q", 0, 1)): True,
    ("variational", ("g", "Q", 1, 0)): True,
    ("fdr", ("errors", "a", "magnitude")): True,
    ("fdr", ("errors", "b", "magnitude")): True,
    ("km", ("errors", 0, "magnitude")): True,
    ("product", ("errors", "b", 0, "magnitude")): True,
    ("fdr", ("errors", "a", "rate")): False,
    ("fdr", ("stop", "tol")): False,
    ("fdr", ("gamma",)): False,
    ("fdr", ("init", "scale")): True,
    ("fdr", ("B", "b", 1)): False,
    ("variational", ("lambda", "c")): False,
    ("variational", ("lambda", "p")): False,
    ("fpi", ("delta", "value")): False,
    ("fpi", ("B", "beta")): False,
    ("fpi", ("init", "y", 0)): False,
    ("km", ("ops", 0, "gamma")): True,
    ("dr2", ("gamma",)): True,
    ("product", ("init", "z", 1, 0)): False,
    ("product", ("weights", 2)): False,
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("algorithm, path", list(NON_FINITE_FIELDS),
                         ids=lambda v: v if isinstance(v, str) else ".".join(map(str, v)))
def test_non_finite_numbers_are_invalid_specs(tmp_path, capsys, algorithm, path):
    spec = _numeric_spec(algorithm)
    assert main([str(write_spec(tmp_path, spec)), "-o", str(tmp_path / "ok.csv")]) \
        in (EXIT_CONVERGED, EXIT_MAX_ITERS)
    capsys.readouterr()
    bad_values = [float("nan")]
    if NON_FINITE_FIELDS[algorithm, path]:
        bad_values += [float("inf"), -float("inf")]
    for bad in bad_values:
        spec = copy.deepcopy(_numeric_spec(algorithm))
        parent = spec
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = bad
        assert main([str(write_spec(tmp_path, spec))]) == EXIT_INVALID, bad
        assert f": {path[0]}" in capsys.readouterr().err, bad


@pytest.mark.parametrize("algorithm", ["fdr", "km", "product", "dr2"])
def test_zeros_init_is_the_default_start(algorithm):
    spec = {k: v for k, v in ALL_ALGORITHM_SPECS[algorithm].items() if k != "init"}
    zeros = run(parse_spec(json.dumps(dict(spec, init={"kind": "zeros"}))))
    assert zeros.rows == run(parse_spec(json.dumps(spec))).rows


def test_module_entry_point_runs_a_sample_spec(tmp_path):
    # python -m monosplit exits with main's code and writes main's CSV
    root = Path(__file__).resolve().parent.parent
    spec = str(root / "specs" / "box_identity_fdr.json")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "monosplit", spec,
                           "-o", str(tmp_path / "module.csv")],
                          env=env, capture_output=True, text=True)
    assert done.returncode == EXIT_CONVERGED, done.stderr
    assert main([spec, "-o", str(tmp_path / "main.csv")]) == EXIT_CONVERGED
    assert (tmp_path / "module.csv").read_bytes() == (tmp_path / "main.csv").read_bytes()


@pytest.mark.parametrize("algorithm", sorted(ALL_ALGORITHM_SPECS))
def test_init_without_a_kind_is_invalid(algorithm):
    spec = dict(ALL_ALGORITHM_SPECS[algorithm], init={})
    with pytest.raises(SpecValidationError) as e:
        parse_spec(json.dumps(spec))
    assert e.value.errors == ["init.kind: unknown init kind None; "
                              "known kinds: zeros, random, value"]


def test_stop_overrides_keep_a_malformed_stop():
    for overrides in ({"tol": 1e-6}, {"max_iters": 5}):
        with pytest.raises(SpecValidationError) as e:
            parse_spec(json.dumps(fdr_spec(stop=0)), overrides)
        assert e.value.errors == ["stop: expected an object"]
    spec = parse_spec(json.dumps(fdr_spec(stop=None)), {"tol": 1e-6})
    assert (spec.tol, spec.max_iters) == (1e-6, km.DEFAULT_MAX_ITERS)


def _outcome(spec):
    try:
        return run(parse_spec(json.dumps(spec))).rows
    except SpecValidationError as e:
        return e.errors


def test_null_is_a_missing_field():
    # a field set to null and the same field left out are one spec: the same
    # errors, or the same run
    specs = list(ALL_ALGORITHM_SPECS.values()) + [
        _numeric_spec(a) for a in ("fdr", "variational", "fpi", "dr2", "km", "product")]
    differ, paths = [], 0
    for spec in specs:
        for path in _depth2_paths(spec):
            if isinstance(path[-1], int):
                continue
            paths += 1
            outcomes = []
            for null in (True, False):
                bad = copy.deepcopy(spec)
                parent = bad if len(path) == 1 else bad[path[0]]
                if null:
                    parent[path[-1]] = None
                else:
                    del parent[path[-1]]
                outcomes.append(_outcome(bad))
            if outcomes[0] != outcomes[1]:
                differ.append(f"{spec['algorithm']} {path}: {outcomes[0]!r:.200}")
    assert paths == 204
    assert not differ


def _object_paths(spec):
    """The root and each object at a key path of depth 1 or 2, with its path
    as the error messages print it."""
    yield spec, ""
    for path in _depth2_paths(spec):
        value = spec[path[0]] if len(path) == 1 else spec[path[0]][path[1]]
        if isinstance(value, dict):
            yield value, "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                                 for k in path).lstrip(".")


def test_unknown_keys_are_refused_at_every_depth(tmp_path, capsys):
    # one unknown key in any object of a spec makes it invalid, with one
    # message naming the key; the same key set to null is a missing field
    specs = list(ALL_ALGORITHM_SPECS.values()) + [
        _numeric_spec(a) for a in ("fdr", "variational", "fpi", "dr2", "km", "product")]
    objects = 0
    for spec in specs:
        for i, (_, path) in enumerate(_object_paths(spec)):
            objects += 1
            for value in ({"kind": "constant", "value": 1.9}, None):
                bad = copy.deepcopy(spec)
                target, _ = list(_object_paths(bad))[i]
                target["lamda"] = value
                if value is None:
                    assert _outcome(bad) == _outcome(spec), (spec["algorithm"], path)
                    continue
                assert main([str(write_spec(tmp_path, bad))]) == EXIT_INVALID, path
                err = capsys.readouterr().err.splitlines()
                key = f"{path}.lamda" if path else "lamda"
                assert len(err) == 1 and f": {key}: unknown field; known fields: " in err[0], err
    assert objects == 76


# SHA-256 of the CSV of each spec below, recorded before the seed was handed
# to the start readers in place of a Generator: a random start draws the same
# numbers (numpy's PCG64 stream), so the bytes are those of the old CLI
RANDOM_START_DIGESTS = {
    "fdr": "fba2a75c087fcb3d3044d01e0c480421d8b016f1c34710306fb8d599cb2a6a1d",
    "fpi-explicit": "2fa182fbab5cbac5ae2a6f341782026741168b326fc04940b906cbc76c9ac4be",
    "product": "7228919e9c1c7a992187fb0932c34aed09ed325566304b2c11d133aeed548645",
    "dr2": "0582e78623440c6ac114985565dd9d67ee77ca50384c619deff6ef2ff93826b3",
}


@pytest.mark.parametrize("algorithm", RANDOM_START_DIGESTS)
def test_random_starts_keep_their_bytes(tmp_path, algorithm):
    # fdr draws z, fpi-explicit an x it projects onto the zero-mean subspace,
    # product a block per operator and dr2 two blocks
    spec = dict(ALL_ALGORITHM_SPECS[algorithm], init={"kind": "random", "scale": 2.0},
                stop={"tol": -1.0, "max_iters": 12}, seed=5)
    out = tmp_path / "random.csv"
    assert main([str(write_spec(tmp_path, spec)), "-o", str(out)]) == EXIT_MAX_ITERS
    assert hashlib.sha256(out.read_bytes()).hexdigest() == RANDOM_START_DIGESTS[algorithm]


FIXED_STARTS = [(algorithm, {"kind": "zeros"}) for algorithm in ALL_ALGORITHM_SPECS] + [
    ("fdr", {"kind": "value", "z": [1.0, 2.0]}),
    ("fpi", {"kind": "value", "x": [1.0, 1.0], "y": [1.0, -1.0]}),
    ("km", {"kind": "value", "z": [0.0, 2.0]}),
    ("product", {"kind": "value", "z": [[1.0], [2.0], [3.0]]}),
    ("dr2", {"kind": "value", "z1": [1.0], "z2": [-1.0]}),
]


@pytest.mark.parametrize("algorithm, init", FIXED_STARTS)
def test_fixed_starts_build_no_generator(tmp_path, monkeypatch, algorithm, init):
    def refuse(*args, **kwargs):
        raise AssertionError("a fixed start built a Generator")

    p = write_spec(tmp_path, dict(ALL_ALGORITHM_SPECS[algorithm], init=init))
    monkeypatch.setattr(np.random, "default_rng", refuse)
    assert main([str(p), "-o", str(tmp_path / "fixed.csv")]) == EXIT_CONVERGED
