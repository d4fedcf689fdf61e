import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import dense_rows
from sasc.cli import cli_main
from sasc.core import (
    Case,
    Case2Constants,
    ConvergenceTrace,
    SascConfig,
    TraceRecord,
    bound_curves,
    rate_constants,
)
from sasc.errors import ParseError
from sasc.problems import LabeledSparseDataset
from sasc.smoothing import CertificateInputs
from sasc.trace_io import (
    TRACE_HEADER,
    load_config_file,
    parse_libsvm,
    read_returns_csv,
    read_trace_csv,
    serialize_libsvm,
    write_trace_csv,
)


class TestParseLibsvm:
    def test_basic_lines(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("-1 3:0.5 7:1.2\n+1\n# comment\n\n1 1:2.5\n")
        ds = parse_libsvm(p)
        assert len(ds) == 3
        assert ds.dim == 7
        assert_allclose(ds.labels, [-1.0, 1.0, 1.0])
        assert list(ds.row(0)[0]) == [2, 6]  # 0-based internally
        assert_allclose(ds.row(0)[1], [0.5, 1.2])
        assert len(ds.row(1)[0]) == 0  # all-zero sample
        dense = dense_rows(ds)
        assert dense[0, 2] == 0.5 and dense[0, 6] == 1.2
        assert dense[2, 0] == 2.5

    def test_basic_lines_csr_arrays(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("-1 3:0.5 7:1.2\n+1\n# comment\n\n1 1:2.5\n")
        ds = parse_libsvm(p)
        assert ds.indptr.tolist() == [0, 2, 2, 3]
        assert ds.indices.tolist() == [2, 6, 0]
        assert ds.data.tolist() == [0.5, 1.2, 2.5]

    def test_first_faulty_line_reported(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("1 1:1\n1 3:1 2:1\n1 1:1\nx 1:1\n")
        with pytest.raises(ParseError, match="non-ascending") as err:
            parse_libsvm(p)
        assert err.value.line == 2

    def test_fault_found_late_is_not_named_before_an_earlier_one(self, tmp_path):
        # line 1 is faulty although only finiteness refuses it
        p = tmp_path / "d.txt"
        p.write_text("1 1:nan\n1 3:1 2:1\n")
        with pytest.raises(ParseError, match="non-finite") as err:
            parse_libsvm(p)
        assert err.value.line == 1

    def test_non_ascending_reports_line(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("1 1:1\n1 5:2 3:1\n")
        with pytest.raises(ParseError, match="non-ascending") as err:
            parse_libsvm(p)
        assert err.value.line == 2

    def test_duplicate_index(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("1 2:1 2:3\n")
        with pytest.raises(ParseError, match="non-ascending"):
            parse_libsvm(p)

    def test_index_below_one(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("1 0:1\n")
        with pytest.raises(ParseError, match="below 1") as err:
            parse_libsvm(p)
        assert err.value.line == 1

    def test_non_numeric_tokens(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("abc 1:1\n")
        with pytest.raises(ParseError, match="label"):
            parse_libsvm(p)
        p.write_text("1 x:1\n")
        with pytest.raises(ParseError, match="entry"):
            parse_libsvm(p)
        p.write_text("1 11\n")
        with pytest.raises(ParseError, match="malformed"):
            parse_libsvm(p)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_values_name_their_line(self, tmp_path, bad):
        p = tmp_path / "d.txt"
        p.write_text(f"1 1:1\n\n# c\n-1 1:2 3:{bad}\n1 2:{bad}\n")
        with pytest.raises(ParseError, match="non-finite") as err:
            parse_libsvm(p)
        assert err.value.line == 4
        p.write_text(f"1 1:1\n{bad} 2:1\n")
        with pytest.raises(ParseError, match="non-finite") as err:
            parse_libsvm(p)
        assert err.value.line == 2

    def test_no_rows_rejected(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("# comment\n\n")
        with pytest.raises(ValueError, match=f"no data rows in {p}"):
            parse_libsvm(p)

    def test_no_feature_entries_rejected(self, tmp_path):
        # labels alone leave no dimension to train in
        p = tmp_path / "d.txt"
        p.write_text("+1\n-1\n")
        with pytest.raises(ValueError, match=f"no feature entries in {p}"):
            parse_libsvm(p)

    def test_dim_override(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("1 2:1\n")
        assert parse_libsvm(p, dim=10).dim == 10
        with pytest.raises(ValueError, match="dim"):
            parse_libsvm(p, dim=1)
        with pytest.raises(ValueError, match="dim must be an integer"):
            parse_libsvm(p, dim=2.5)

    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        idx_lists, val_lists, labels = [], [], []
        for _ in range(1000):
            k = int(rng.integers(0, 6))
            idx = np.sort(rng.choice(50, size=k, replace=False))
            idx_lists.append(idx.astype(int))
            val_lists.append(rng.standard_normal(k))
            labels.append(float(rng.choice([-1.0, 1.0])))
        ds = LabeledSparseDataset.from_rows(idx_lists, val_lists,
                                            np.array(labels), dim=50)
        p = tmp_path / "rt.txt"
        serialize_libsvm(ds, p)
        back = parse_libsvm(p, dim=50)
        assert np.array_equal(back.labels, ds.labels)
        for i in range(len(ds)):
            assert np.array_equal(back.row(i)[0], ds.row(i)[0])
            # 17 significant digits round-trip
            assert np.array_equal(back.row(i)[1], ds.row(i)[1])


class TestTraceCsv:
    def test_empty_trace_header_only(self, tmp_path):
        p = tmp_path / "t.csv"
        write_trace_csv(ConvergenceTrace(), p)
        assert p.read_text() == TRACE_HEADER + "\n"

    def test_single_record_exact_row(self, tmp_path):
        trace = ConvergenceTrace()
        trace.append(TraceRecord(samples=2, epoch=0, objective=1.5,
                                 feasibility=0.25, beta=4.0, alpha=1.0,
                                 dist_to_ref=None, wall_time=0.01))
        p = tmp_path / "t.csv"
        write_trace_csv(trace, p)
        lines = p.read_text().splitlines()
        assert lines[0] == TRACE_HEADER
        assert lines[1] == "2,0,1.5,0.25,4,1,,0.01"

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        trace = ConvergenceTrace()
        for i in range(25):
            trace.append(TraceRecord(
                samples=2 ** i, epoch=i,
                objective=float(rng.standard_normal()) / 3.0,
                feasibility=float(np.abs(rng.standard_normal())) * 1e-7,
                beta=float(np.pi) / (i + 1), alpha=1.0 / (3 * i + 1),
                dist_to_ref=None if i % 3 == 0
                else float(np.abs(rng.standard_normal())),
                wall_time=float(i) * 0.1 + 1e-17))
        p = tmp_path / "t.csv"
        write_trace_csv(trace, p)
        back = read_trace_csv(p)
        assert back.records == trace.records

    def test_reader_rejects_bad_files(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("wrong,header\n")
        with pytest.raises(ParseError, match="header"):
            read_trace_csv(p)
        p.write_text(TRACE_HEADER + "\n1,2,3\n")
        with pytest.raises(ParseError, match="fields"):
            read_trace_csv(p)

    def test_writer_reports_path_on_failure(self, tmp_path):
        with pytest.raises(OSError, match="cannot write trace"):
            write_trace_csv(ConvergenceTrace(), tmp_path)  # directory target


class TestReturnsCsv:
    def test_header_detection(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("a,b\n1.0,2.0\n3.0,4.0\n")
        assert_allclose(read_returns_csv(p), [[1.0, 2.0], [3.0, 4.0]])

    def test_headerless_and_comments(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("# generated\n1.5,2.5\n0.5, 1.5\n")
        assert_allclose(read_returns_csv(p), [[1.5, 2.5], [0.5, 1.5]])

    def test_ragged_rejected(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("1,2\n3\n")
        with pytest.raises(ParseError, match="ragged") as err:
            read_returns_csv(p)
        assert err.value.line == 2

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_its_line(self, tmp_path, bad):
        p = tmp_path / "r.csv"
        p.write_text(f"a,b\n1.0,2.0\n# c\n3.0, {bad}\n")
        with pytest.raises(ParseError, match="non-finite") as err:
            read_returns_csv(p)
        assert err.value.line == 4

    def test_empty_rejected(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("# nothing\n")
        with pytest.raises(ValueError, match="no data"):
            read_returns_csv(p)


class TestConfigFile:
    def test_parse(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("m0 = 4\n# full line comment\nomega = 2.5  # trailing\n"
                     "\nsolver = sasc\n")
        assert load_config_file(p) == {"m0": "4", "omega": "2.5",
                                       "solver": "sasc"}

    def test_bad_line(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("just a line\n")
        with pytest.raises(ParseError, match="key = value"):
            load_config_file(p)


@pytest.mark.parametrize("read, text, line", [
    (read_trace_csv, TRACE_HEADER + "\n1,0,0.5,0.1,1,1,,0\n2,0,abc,0.1,1,1,,0\n",
     3),
    (read_returns_csv, "a,b\n1.0,2.0\n# c\n3.0,x\n", 4),
    (load_config_file, "m0 = 4\n\n = 5\n", 3),
], ids=["trace-field", "returns-cell", "config-key"])
def test_malformed_line_is_named(read, text, line, tmp_path):
    p = tmp_path / "f.txt"
    p.write_text(text)
    with pytest.raises(ParseError) as err:
        read(p)
    assert err.value.line == line
    assert str(err.value).startswith(f"line {line}:")


class TestCli:
    def test_bp_smoke_and_reproducibility(self, tmp_path):
        out = tmp_path / "trace.csv"
        args = ["bp", "--d", "10", "--n", "300", "--sparsity", "2",
                "--seed", "3", "--budget", "600", "--checkpoint-every", "100",
                "--validation-samples", "50", "--no-timing",
                "--out", str(out)]
        assert cli_main(args) == 0
        first = out.read_bytes()
        lines = first.decode().splitlines()
        assert lines[0] == TRACE_HEADER
        assert len(lines) >= 2
        assert cli_main(args) == 0
        assert out.read_bytes() == first  # byte-identical rerun

    def test_bp_solver_choices(self, tmp_path):
        for solver in ("sgd", "spp"):
            out = tmp_path / f"{solver}.csv"
            rc = cli_main(["bp", "--d", "8", "--n", "200", "--sparsity", "2",
                           "--solver", solver, "--budget", "400",
                           "--checkpoint-every", "100",
                           "--validation-samples", "50", "--out", str(out)])
            assert rc == 0
            assert out.exists()

    def test_portfolio_bundled_data(self, tmp_path):
        out = tmp_path / "pf.csv"
        rc = cli_main(["portfolio", "--budget", "400",
                       "--checkpoint-every", "100",
                       "--validation-samples", "50", "--out", str(out)])
        assert rc == 0
        trace = read_trace_csv(out)
        assert len(trace.records) >= 1

    def test_portfolio_reference_tracking(self, tmp_path):
        out = tmp_path / "pf-ref.csv"
        rc = cli_main(["portfolio", "--budget", "400", "--reference",
                       "--reference-tol", "1e-5", "--checkpoint-every", "100",
                       "--validation-samples", "50", "--out", str(out)])
        assert rc == 0
        trace = read_trace_csv(out)
        assert all(r.dist_to_ref is not None for r in trace.records)

    def test_svm_requires_data(self, capsys):
        assert cli_main(["svm", "--solver", "pegasos",
                         "--out", "unused.csv"]) == 1
        err = capsys.readouterr().err
        assert "--data" in err

    def test_svm_both_solvers(self, tmp_path):
        from sasc.problems import gen_separable_svm
        from sasc.trace_io import serialize_libsvm
        ds = gen_separable_svm(4, 60, margin=1.0, seed=5)
        data = tmp_path / "train.libsvm"
        serialize_libsvm(ds, data)
        # Pegasos measures on the --test file and reads no --validation-samples
        for solver, extra in (("sasc", ["--validation-samples", "30"]),
                              ("pegasos", [])):
            out = tmp_path / f"svm-{solver}.csv"
            rc = cli_main(["svm", "--data", str(data), "--solver", solver,
                           "--budget", "240", "--checkpoint-every", "60",
                           "--out", str(out)] + extra)
            assert rc == 0
            assert read_trace_csv(out).records

    def test_check_subcommand(self, capsys):
        rc = cli_main(["check", "--case", "1", "--m0", "2", "--omega", "2",
                       "--alpha0", "1", "--smax", "40",
                       "--residual-draws", "200"])
        assert rc == 0
        outtxt = capsys.readouterr().out
        assert "worst slack" in outtxt
        assert "minimum slack overall" in outtxt

    def test_check_case2(self):
        assert cli_main(["check", "--case", "2", "--m0", "4", "--omega", "2",
                         "--alpha0", "0.5", "--smax", "30",
                         "--residual-draws", "50"]) == 0

    def test_bounds_subcommand(self, tmp_path, capsys):
        out = tmp_path / "bounds.csv"
        rc = cli_main(["bounds", "--case", "1", "--alpha0", "1", "--m0", "2",
                       "--omega", "2", "--y-star-norm", "1",
                       "--m-max", "4096", "--out", str(out)])
        assert rc == 0
        assert "C1=" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == "M,objective_bound,feasibility_bound"
        assert len(lines) > 5

    def test_bounds_case2_prints_rate_constants_and_curves(self, capsys):
        rc = cli_main(["bounds", "--case", "2", "--alpha0", "0.5", "--m0", "4",
                       "--omega", "1.5", "--y-star-norm", "1",
                       "--sigma-f", "0.3", "--x0-dist", "2",
                       "--lipschitz-g", "1.5", "--m-max", "1024"])
        assert rc == 0
        cfg = SascConfig(alpha0=0.5, omega=1.5, m0=4, epochs=1,
                         case=Case.RESTRICTED_STRONGLY_CONVEX)
        cert = CertificateInputs(x_star=np.array([2.0]), y_star_norm=1.0,
                                 sigma_f=0.3)
        consts = rate_constants(cfg, 1.0, cert, np.zeros(1))
        assert isinstance(consts, Case2Constants)
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "D1={:.12g} D2={:.12g} D3={:.12g}".format(*consts)
        assert lines[1] == "M,objective_bound,feasibility_bound"
        rows = [line.split(",") for line in lines[2:]]
        grid = [int(m) for m, _, _ in rows]
        assert grid[0] == 4 and grid[-1] == 1024
        want = bound_curves(cfg, 1.0, cert, np.zeros(1), grid, lipschitz_g=1.5)
        assert [(float(ob), float(fb)) for _, ob, fb in rows] == want

    def test_unknown_subcommand(self, capsys):
        assert cli_main(["frobnicate"]) == 1

    def test_no_subcommand(self):
        assert cli_main([]) == 1

    def test_usage_error_on_bad_flag(self):
        assert cli_main(["bp", "--not-a-flag", "1", "--out", "x.csv"]) == 1

    @pytest.mark.parametrize("argv", [
        ["bp", "--solver", "spp", "--checkpoint-every", "0"],
        ["bp", "--solver", "sgd", "--checkpoint-every", "0"],
        ["bp", "--solver", "spp", "--validation-samples", "0"],
        ["bp", "--solver", "spp", "--mu", "0"],
        ["svm", "--solver", "pegasos", "--checkpoint-every", "0"],
        ["svm", "--solver", "pegasos", "--budget", "0"],
        ["svm", "--solver", "pegasos", "--lambda", "0"],
        ["bp", "--solver", "spp", "--epochs", "3"],
        ["bp", "--solver", "sgd", "--epochs", "3"],
        ["svm", "--solver", "pegasos", "--epochs", "3"],
        ["bp", "--solver", "spp", "--minibatch", "0"],
        ["bp", "--solver", "spp", "--minibatch", "4"],
        ["svm", "--solver", "pegasos", "--validation-samples", "0"],
        ["portfolio", "--epsilon", "0", "--budget", "100"],
        ["bp", "--d", "0"],
        ["bp", "--omega", "inf"],
        ["portfolio", "--passes", "inf"],
        ["portfolio", "--passes", "nan"],
        ["portfolio", "--omega", "nan"],
        ["portfolio", "--alpha0", "nan"],
        ["portfolio", "--epsilon", "nan"],
        ["bp", "--solver", "spp", "--mu", "inf"],
        ["svm", "--solver", "pegasos", "--lambda", "nan"],
        ["check", "--omega", "1"],
        ["check", "--alpha0", "0"],
        ["check", "--m0", "0"],
        ["check", "--omega", "0.5"],
        ["bounds", "--omega", "1"],
        ["bounds", "--alpha0", "-1"],
        ["bounds", "--omega", "nan"],
        ["bp", "--solver", "spp", "--step", "7"],
        ["bp", "--solver", "sasc", "--mu", "5"],
        ["bp", "--solver", "spp", "--alpha0", "9"],
        ["svm", "--solver", "pegasos", "--alpha0", "9"],
        ["svm", "--solver", "pegasos", "--validation-samples", "50"],
        ["portfolio", "--solver", "spp", "--reference"],
        ["svm", "--alpha0", "0"],
    ], ids=["spp-checkpoint-every", "sgd-checkpoint-every",
            "spp-validation-samples", "spp-mu", "pegasos-checkpoint-every",
            "pegasos-iterations", "pegasos-lambda", "spp-epochs",
            "sgd-epochs", "pegasos-epochs",
            "spp-minibatch", "spp-minibatch-above-1",
            "pegasos-validation-samples",
            "portfolio-epsilon", "bp-dimension",
            "omega-inf", "passes-inf", "passes-nan", "omega-nan",
            "alpha0-nan", "epsilon-nan", "spp-mu-inf", "pegasos-lambda-nan",
            "check-omega-1", "check-alpha0-0", "check-m0-0",
            "check-omega-below-1", "bounds-omega-1", "bounds-alpha0-negative",
            "bounds-omega-nan", "spp-step", "sasc-mu", "spp-alpha0",
            "pegasos-alpha0", "pegasos-validation-samples-50",
            "spp-reference", "svm-alpha0-0"])
    def test_invalid_baseline_setting_is_usage_error(self, argv, tmp_path,
                                                     capsys):
        data = tmp_path / "train.libsvm"
        data.write_text("+1 1:1.0\n-1 1:-1.0\n")
        inputs = {"svm": ["--data", str(data)], "portfolio": [],
                  "check": [], "bounds": [],
                  "bp": ["--d", "8", "--n", "200", "--sparsity", "2",
                         "--budget", "400"]}[argv[0]]
        out = tmp_path / "o.csv"
        # check writes no file and has no --out option
        out_args = [] if argv[0] == "check" else ["--out", str(out)]
        # the case's own flags come last, so they override the inputs
        assert cli_main(argv[:1] + inputs + argv[1:] + out_args) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:")
        assert "unrecognized arguments" not in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv,name", [
        (["check", "--smax", "5", "--norm-bound", "nan",
          "--residual-draws", "5"], "--norm-bound"),
        (["check", "--norm-bound", "0"], "--norm-bound"),
        (["bounds", "--norm-bound", "-1"], "--norm-bound"),
        (["bounds", "--norm-bound", "inf"], "--norm-bound"),
        (["bounds", "--x0-dist", "nan"], "--x0-dist"),
        (["bounds", "--x0-dist", "-1"], "--x0-dist"),
        (["bounds", "--y-star-norm", "nan"], "y_star_norm"),
        (["bounds", "--y-star-norm", "-1"], "y_star_norm"),
        (["bounds", "--sigma-f", "nan"], "sigma_f"),
        (["bounds", "--sigma-f", "inf"], "sigma_f"),
        (["bounds", "--lipschitz-g", "nan"], "--lipschitz-g"),
        (["bp", "--alpha0", "abc"], "--alpha0"),
        (["check", "--smax", "0"], "--smax"),
        (["check", "--smax", "3", "--residual-draws", "0"],
         "--residual-draws"),
        (["bounds", "--m-count", "0"], "--m-count"),
        (["bounds", "--m-count", "-3"], "--m-count"),
        (["portfolio", "--reference", "--reference-tol", "nan",
          "--budget", "100"], "tolerance"),
        (["portfolio", "--reference", "--reference-tol", "0",
          "--budget", "100"], "tolerance"),
    ], ids=["check-norm-bound-nan", "check-norm-bound-0",
            "bounds-norm-bound-negative", "bounds-norm-bound-inf",
            "bounds-x0-dist-nan", "bounds-x0-dist-negative",
            "bounds-y-star-norm-nan", "bounds-y-star-norm-negative",
            "bounds-sigma-f-nan", "bounds-sigma-f-inf",
            "bounds-lipschitz-g-nan", "bp-alpha0-not-a-number",
            "check-smax-0", "check-residual-draws-0", "bounds-m-count-0",
            "bounds-m-count-negative",
            "reference-tol-nan", "reference-tol-0"])
    def test_bad_value_is_usage_error_naming_it(self, argv, name, tmp_path,
                                                capsys):
        out = tmp_path / "o.csv"
        out_args = [] if argv[0] == "check" else ["--out", str(out)]
        assert cli_main(argv + out_args) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and name in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("solver", ["sasc", "pegasos"])
    @pytest.mark.parametrize("role", ["--data", "--test"])
    def test_libsvm_file_without_rows_is_data_error(self, role, solver,
                                                    tmp_path, capsys):
        data = tmp_path / "train.libsvm"
        data.write_text("+1 1:1.0\n-1 1:-1.0\n")
        empty = tmp_path / "empty.libsvm"
        empty.write_text("# no rows\n")
        files = {"--data": str(data), "--test": str(data), role: str(empty)}
        out = tmp_path / "o.csv"
        assert cli_main(["svm", "--data", files["--data"], "--test",
                         files["--test"], "--solver", solver, "--budget", "20",
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"no data rows in {empty}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_libsvm_file_without_entries_is_data_error(self, tmp_path,
                                                       capsys):
        data = tmp_path / "train.libsvm"
        data.write_text("+1\n-1\n")
        out = tmp_path / "o.csv"
        assert cli_main(["svm", "--data", str(data), "--solver", "pegasos",
                         "--budget", "20", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"no feature entries in {data}" in err
        assert not out.exists()

    @pytest.mark.parametrize("cmd,solver", [("bp", "sasc"), ("bp", "spp"),
                                            ("svm", "sasc"),
                                            ("svm", "pegasos")])
    def test_default_valued_settings_pass_for_every_solver(self, cmd, solver,
                                                           tmp_path):
        # the benchmark's parity run gives every solver these two flags,
        # and 1000 is the --validation-samples default that Pegasos ignores
        data = tmp_path / "train.libsvm"
        data.write_text("+1 1:1.0\n-1 1:-1.0\n+1 1:0.5\n-1 1:-0.5\n")
        inputs = {"svm": ["--data", str(data), "--test", str(data)],
                  "bp": ["--d", "8", "--n", "200", "--sparsity", "2"]}[cmd]
        out = tmp_path / "o.csv"
        assert cli_main([cmd] + inputs + [
            "--budget", "400", "--solver", solver, "--checkpoint-every", "256",
            "--validation-samples", "1000", "--no-timing",
            "--out", str(out)]) == 0
        assert read_trace_csv(out).records

    def test_solver_option_table_names_real_options_and_solvers(self):
        from sasc.cli import _OPTIONS
        for cmd, options in _OPTIONS.items():
            solvers = {s for opt in options if opt.flag == "--solver"
                       for s in opt.choices}
            for opt in options:
                if opt.read_by is not None:
                    assert opt.read_by and set(opt.read_by) <= solvers, \
                        (cmd, opt.flag)

    def test_solver_error_exit_code(self, tmp_path):
        # unreadable data file: a runtime (not usage) failure
        rc = cli_main(["svm", "--data", str(tmp_path / "missing.libsvm"),
                       "--out", str(tmp_path / "o.csv")])
        assert rc == 2

    def test_config_file_merge_and_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d = 8\nn = 200\nsparsity = 2\nbudget = 400\n"
                       "checkpoint_every = 100\nvalidation_samples = 50\n"
                       f"out = {tmp_path / 'a.csv'}\nno_timing = true\n")
        assert cli_main(["bp", "--config", str(cfg)]) == 0
        assert (tmp_path / "a.csv").exists()
        # explicit flag overrides the file value
        assert cli_main(["bp", "--config", str(cfg),
                         "--out", str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "b.csv").exists()
        assert (tmp_path / "a.csv").read_bytes() == \
            (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("key", ["checkpoint_every", "minibatch"])
    def test_config_none_for_a_set_option_is_usage_error(self, key, tmp_path,
                                                         capsys):
        out = tmp_path / "o.csv"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d = 8\nn = 200\nsparsity = 2\nbudget = 400\n"
                       f"epochs = none\n{key} = none\nout = {out}\n")
        assert cli_main(["bp", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and repr(key) in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, config, name", [
        (["bounds", "--m0", "4", "--m-max", "3"], "", "--m-max"),
        (["bp"], "no_timing = maybe\n", "'no_timing'"),
        (["bp"], "solver = newton\n", "'solver'"),
        (["svm", "--solver", "sasc"], "lambda = 0.1\n", "--lambda"),
        (["bp"], "mu = 5\n", "--mu"),
        (["check"], "norm_bound = nan\n", "--norm-bound"),
        (["bounds"], "m_count = 0\n", "--m-count"),
    ], ids=["bounds-m-max-below-m0", "config-flag-not-boolean",
            "config-solver-choice", "config-lambda-unread-by-sasc",
            "config-mu-unread-by-sasc", "config-norm-bound-nan",
            "config-m-count-0"])
    def test_refusal_exits_1_naming_it(self, argv, config, name, tmp_path,
                                       capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        out = tmp_path / "o.csv"
        inputs = {"bp": ["--d", "8", "--n", "200", "--sparsity", "2",
                         "--budget", "400"],
                  "svm": ["--data", str(tmp_path / "never-read.libsvm")],
                  }.get(argv[0], [])
        # check writes no file and has no --out option
        out_args = [] if argv[0] == "check" else ["--out", str(out)]
        assert cli_main(argv + inputs + ["--config", str(cfg)]
                        + out_args) == 1
        printed = capsys.readouterr()
        # refused before anything is printed
        assert printed.out == ""
        assert printed.err.startswith("usage error:") and name in printed.err
        assert "Traceback" not in printed.err
        assert not out.exists()

    @pytest.mark.parametrize("argv, names", [
        (["check", "--alpha0", "1e300", "--smax", "5", "--residual-draws",
          "5"], "alpha0 = 1e+300"),
        (["check", "--norm-bound", "1e-200", "--smax", "3",
          "--residual-draws", "5"], "norm_bound = 1e-200"),
        (["bounds", "--norm-bound", "1e200"], "norm_bound = 1e+200"),
        (["bp", "--d", "8", "--n", "200", "--sparsity", "2",
          "--omega", "1e300", "--epochs", "3"], "omega = 1e+300"),
        (["portfolio", "--omega", "1e200", "--epochs", "3"],
         "omega = 1e+200"),
        (["bounds", "--y-star-norm", "1e200"], "y_star_norm = 1e+200"),
        (["bounds", "--sigma-f", "1e200"], "sigma_f = 1e+200"),
        (["bounds", "--alpha0", "1e300"], "alpha0 = 1e+300"),
        (["bounds", "--lipschitz-g", "1e200"], "lipschitz_g = 1e+200"),
        (["bounds", "--x0-dist", "1e200"], "||x_star - x0|| = 1e+200"),
        (["bp", "--d", "8", "--n", "200", "--sparsity", "2",
          "--passes", "1e308"], "--passes 1e+308"),
        (["portfolio", "--passes", "1e308"], "--passes 1e+308"),
        (["svm", "--alpha0", "1e-320", "--budget", "100"],
         "omega/(mu alpha0) = inf"),
        # past numpy's int64, whose cast wrapped to a negative M; and an
        # int that numpy holds as an object, which np.geomspace refused
        # with a TypeError
        (["bounds", "--m-max", "10000000000000000000"], "--m-max"),
        (["bounds", "--m-max", "1" + "0" * 26], "--m-max"),
    ], ids=["check-alpha0-squared", "check-beta-underflow",
            "bounds-norm-bound-squared", "bp-omega-power",
            "portfolio-omega-power", "bounds-y-star-norm-squared",
            "bounds-sigma-f-squared", "bounds-alpha0-squared",
            "bounds-lipschitz-g-squared", "bounds-start-distance-squared",
            "bp-passes-budget", "portfolio-passes-budget",
            "svm-least-m0", "bounds-m-max-past-int64",
            "bounds-m-max-past-floats"])
    def test_finite_setting_that_overflows_is_usage_error(self, argv, names,
                                                          tmp_path, capsys):
        # finite and in range, but the schedule's arithmetic leaves floats:
        # the setting is refused, and named, where the value is formed
        out = tmp_path / "o.csv"
        out_args = [] if argv[0] == "check" else ["--out", str(out)]
        if argv[0] == "svm":
            from sasc.problems import gen_separable_svm
            data = tmp_path / "train.libsvm"
            serialize_libsvm(gen_separable_svm(4, 60, margin=1.0, seed=5), data)
            out_args += ["--data", str(data)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main(argv + out_args) == 1
        printed = capsys.readouterr()
        assert printed.out == ""
        assert printed.err.startswith("usage error: ") and names in printed.err
        assert "Traceback" not in printed.err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["bp", "--d", "8", "--n", "200", "--sparsity", "2", "--budget", "400"],
        ["portfolio", "--budget", "400"],
        ["svm", "--budget", "240"],
        ["svm", "--solver", "pegasos", "--budget", "240"],
        ["check", "--smax", "3", "--residual-draws", "5"],
    ], ids=["bp", "portfolio", "svm-sasc", "svm-pegasos", "check"])
    @pytest.mark.parametrize("given", ["flag", "config"])
    def test_negative_seed_exits_1_before_any_output(self, argv, given,
                                                     tmp_path, capsys):
        from sasc.problems import gen_separable_svm
        data = tmp_path / "train.libsvm"
        serialize_libsvm(gen_separable_svm(4, 60, margin=1.0, seed=5), data)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = -1\n")
        out = tmp_path / "o.csv"
        argv = argv + (["--data", str(data)] if argv[0] == "svm" else []) \
            + (["--seed", "-1"] if given == "flag" else ["--config", str(cfg)]) \
            + ([] if argv[0] == "check" else ["--out", str(out)])
        assert cli_main(argv) == 1
        printed = capsys.readouterr()
        assert printed.out == ""
        assert printed.err == "usage error: seed must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("case", ["1", "2"])
    def test_check_fails_on_a_negative_slack(self, case, monkeypatch, capsys):
        def violated(cfg, norm_bound, s_max):
            return {"beta_upper": -1e-3}

        monkeypatch.setattr("sasc.cli.schedule_inequalities_check", violated)
        assert cli_main(["check", "--case", case, "--m0", "4", "--smax", "3",
                         "--residual-draws", "5"]) == 2
        out = capsys.readouterr().out
        assert "beta_upper: worst slack -1.000000e-03" in out
        assert "CHECK FAILED" in out

    @pytest.mark.parametrize("value, zeroed", [("off", False), ("on", True)])
    def test_config_no_timing_word(self, value, zeroed, tmp_path):
        out = tmp_path / "o.csv"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d = 8\nn = 200\nsparsity = 2\nbudget = 400\n"
                       "checkpoint_every = 100\nvalidation_samples = 50\n"
                       f"out = {out}\nno_timing = {value}\n")
        assert cli_main(["bp", "--config", str(cfg)]) == 0
        wall = read_trace_csv(out).column("wall_time")
        assert np.all(wall == 0.0) == zeroed

    def test_config_file_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frobnicate = 1\n")
        assert cli_main(["bp", "--config", str(cfg),
                         "--out", str(tmp_path / "x.csv")]) == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_help_exits_zero(self):
        assert cli_main(["--help"]) == 0
        assert cli_main(["bp", "--help"]) == 0

    def test_svm_holdout_with_wider_dimension(self, tmp_path):
        # held-out rows may reference features the training set never saw;
        # those entries are dropped rather than crashing the evaluation
        train = tmp_path / "train.libsvm"
        train.write_text("+1 1:1.0\n-1 1:-1.0\n+1 1:0.5\n-1 1:-0.5\n")
        test = tmp_path / "test.libsvm"
        test.write_text("+1 1:1.0 9:5.0\n-1 1:-2.0\n")
        out = tmp_path / "o.csv"
        rc = cli_main(["svm", "--data", str(train), "--test", str(test),
                       "--solver", "pegasos", "--budget", "50",
                       "--checkpoint-every", "25", "--out", str(out)])
        assert rc == 0
        errs = read_trace_csv(out).column("feasibility")
        assert np.all((errs >= 0) & (errs <= 1))

    def test_holdout_dimension_cut_and_widened(self):
        from sasc.cli import _with_dim
        ds = LabeledSparseDataset.from_rows(
            [[0, 4, 8], [], [9]], [[1.0, 2.0, 3.0], [], [4.0]],
            [1.0, -1.0, 1.0], dim=10)
        cut = _with_dim(ds, 5)
        assert cut.dim == 5
        assert cut.indptr.tolist() == [0, 2, 2, 2]
        assert cut.indices.tolist() == [0, 4]
        assert cut.data.tolist() == [1.0, 2.0]
        wide = _with_dim(ds, 12)
        assert wide.dim == 12
        assert np.array_equal(wide.indptr, ds.indptr)
        assert np.array_equal(wide.indices, ds.indices)
        assert np.array_equal(wide.data, ds.data)

    def test_module_entry_point(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import sasc
        # the child imports the same package as this test, installed or not
        pkg_root = str(Path(sasc.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [pkg_root, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "sasc", "check", "--case", "1",
             "--smax", "10", "--residual-draws", "20"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "minimum slack overall" in proc.stdout
