import csv
import io
import json
from contextlib import redirect_stdout

import numpy as np
import pytest

from inropt import cli, gallery
from inropt.cli import main
from inropt.errors import VerificationFailure
from inropt.mmio import read_matrix, write_matrix


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def run_json(*argv):
    code, out = run_cli(*argv)
    return code, json.loads(out)


@pytest.fixture
def ch_files(tmp_path):
    A, B = gallery.cheng_higham7()
    pa, pb = tmp_path / "chA.mtx", tmp_path / "chB.mtx"
    write_matrix(pa, A)
    write_matrix(pb, B)
    return str(pa), str(pb)


class TestInr:
    def test_scalar_matrix(self, tmp_path):
        p = tmp_path / "c.mtx"
        write_matrix(p, np.array([[1.0]]))
        code, out = run_json("inr", "--matrix", str(p))
        assert code == 0
        assert out["zeta"] == pytest.approx(1.0, abs=1e-9)
        assert out["status"] == "Converged"
        assert out["schema"] == "inropt/1"

    def test_pair_levelset_trace(self, ch_files):
        pa, pb = ch_files
        code, out = run_json("inr", "--pair", pa, pb,
                             "--method", "levelset", "--trace")
        assert code == 0
        assert out["trace"][1]["value"] == pytest.approx(0.8687683091642120,
                                                         abs=1e-9)
        assert out["f_star"] == pytest.approx(0.8118872239262367, abs=1e-9)

    @pytest.mark.parametrize("method", ["levelset", "support", "subspace"])
    def test_trace_rows_share_one_schema(self, ch_files, method):
        from oracles import lam_max_trig
        pa, pb = ch_files
        code, out = run_json("inr", "--pair", pa, pb, "--method", method,
                             "--trace")
        assert code == 0
        A, B = gallery.cheng_higham7()
        assert out["trace"]
        assert ([row["k"] for row in out["trace"]]
                == list(range(1, len(out["trace"]) + 1)))
        for row in out["trace"]:
            assert set(row) == {"k", "omega", "value", "lower_bound"}
            assert isinstance(row["omega"], float)
            want = float(lam_max_trig(A, B, [row["omega"]])[0])
            assert row["value"] == pytest.approx(want, abs=1e-10)

    def test_trace_adds_fields_without_changing_scalars(self, ch_files):
        pa, pb = ch_files
        _, plain = run_json("inr", "--pair", pa, pb, "--method", "support")
        _, traced = run_json("inr", "--pair", pa, pb, "--method", "support",
                             "--trace")
        tr = traced.pop("trace")
        assert tr
        assert plain == traced

    def test_csv_format(self, ch_files):
        pa, pb = ch_files
        argv = ["inr", "--pair", pa, pb, "--method", "levelset"]
        code, out = run_cli(*argv, "--format", "csv")
        _, traced = run_json(*argv, "--trace")
        assert code == 0
        lines = out.splitlines()
        comments = [ln for ln in lines if ln.startswith("# ")]
        assert comments == lines[:len(comments)]
        assert "# command=inr" in comments
        assert lines[len(comments)] == "k,omega,value,lower_bound"
        rows = list(csv.reader(lines[len(comments) + 1:]))
        assert len(rows) == len(traced["trace"])
        for row, want in zip(rows, traced["trace"]):
            assert int(row[0]) == want["k"]
            assert float(row[2]) == want["value"]
            assert row[3] == ""

    def test_determinism(self, ch_files):
        pa, pb = ch_files
        _, out1 = run_cli("inr", "--pair", pa, pb, "--method", "support")
        _, out2 = run_cli("inr", "--pair", pa, pb, "--method", "support")
        assert out1 == out2

    def test_nonconvergence_exit_code(self, ch_files):
        pa, pb = ch_files
        code, _ = run_json("inr", "--pair", pa, pb, "--method", "support",
                           "--max-iter", "0")
        assert code == 2

    @pytest.mark.parametrize("target", ["reduced_solve", "eigensolver"])
    def test_raised_nonconvergence_exit_code(self, ch_files, monkeypatch,
                                             capsys, target):
        import inropt.param
        import inropt.support
        from inropt.errors import ConvergenceFailure
        from inropt.results import MinResult, Status

        def stalled_reduced_solve(P, **kw):
            return MinResult(omega_star=0.0, f_star=1.0, lower_bound=0.0,
                             iterations=1, status=Status.MAX_ITERATIONS)

        def failed_eigensolver(*a, **kw):
            raise ConvergenceFailure("Lanczos did not converge")

        if target == "reduced_solve":
            monkeypatch.setattr(inropt.support, "eigopt_minimize",
                                stalled_reduced_solve)
        else:
            monkeypatch.setattr(inropt.param, "largest_eigpairs",
                                failed_eigensolver)
        pa, pb = ch_files
        code = main(["inr", "--pair", pa, pb, "--method", "subspace"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ")

    def test_nan_start_is_a_usage_error(self, ch_files, capsys):
        # the NaN start reached LAPACK, which failed with exit code 2
        pa, pb = ch_files
        code = main(["inr", "--pair", pa, pb, "--method", "subspace",
                     "--omega0", "nan"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("error: omega1")

    @pytest.mark.parametrize("method", ["support", "subspace", "levelset"])
    def test_non_finite_input_exit_code(self, ch_files, tmp_path, capsys,
                                        method):
        # One NaN entry is an input error, raised before any eigensolve:
        # not a solver failure inside LAPACK.
        A, _ = gallery.cheng_higham7()
        A[2, 2] = np.nan
        pa = tmp_path / "nanA.mtx"
        write_matrix(pa, A)
        code = main(["inr", "--pair", str(pa), ch_files[1],
                     "--method", method])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "non-finite" in err

    @pytest.mark.parametrize("method", ["levelset", "support", "subspace"])
    @pytest.mark.parametrize("flag,value,name", [
        ("--tol", "nan", "tol"), ("--tol", "-1", "tol"),
        ("--tol", "inf", "tol"), ("--eps-cluster", "nan", "eps_cluster"),
        ("--eps-cluster", "-1", "eps_cluster"),
        ("--max-iter", "-3", "max_iter")])
    def test_bad_solver_option_exit_code(self, ch_files, capsys, method,
                                         flag, value, name):
        # Rejected before any solve: a NaN or negative tol would run the
        # support solver into an iterate collision, read as exit 2.
        code = main(["inr", "--pair", *ch_files, "--method", method,
                     flag, value])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert name in err

    @pytest.mark.parametrize("argv", [
        ["definite", "--pair", "A", "B", "--tol", "nan"],
        ["distance", "--pair", "A", "B", "--delta", "1e-8",
         "--eps-cluster", "-1"],
        ["hyperbolic", "--qep-mass-spring", "4", "--max-iter", "-1"],
        ["saddle", "--synthetic", "4", "2", "--tol", "-1"],
    ], ids=lambda argv: argv[0])
    def test_bad_solver_option_other_commands(self, ch_files, capsys, argv):
        # The check sits in the entry that all five commands share.
        files = dict(zip("AB", ch_files))
        assert main([files.get(a, a) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("method", ["levelset", "support", "subspace"])
    @pytest.mark.parametrize("flag,value", [
        ("--tol", "0"), ("--eps-cluster", "0"), ("--eps-cluster", "inf"),
        ("--max-iter", "0")])
    def test_edge_solver_options_are_valid(self, ch_files, method, flag,
                                           value):
        code, _ = run_cli("inr", "--pair", *ch_files, "--method", method,
                          flag, value)
        assert code in (0, 2)

    def test_parse_error_exit_code(self, capsys):
        code = main(["inr", "--matrix", "/nonexistent/x.mtx"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["inr"],
        ["inr", "--matrix", "c.mtx", "--bogus"],
        ["saddle", "--synthetic", "4", "2", "--trace"],
    ], ids=["missing-required", "unknown-flag", "saddle-trace"])
    def test_usage_error_exit_code(self, argv, capsys):
        # 2 is the non-convergence code, so argparse's own 2 is not used
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "error: " in capsys.readouterr().err

    def test_gamma_flag_is_a_usage_error(self, ch_files, capsys):
        # The trigonometric curvature bound is always valid: not settable.
        with pytest.raises(SystemExit) as exc:
            main(["inr", "--pair", *ch_files, "--gamma", "-1"])
        assert exc.value.code == 1
        assert "--gamma" in capsys.readouterr().err

    def test_help_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0


class TestDefinite:
    def test_definite_pair(self, tmp_path):
        pa, pb = tmp_path / "a.mtx", tmp_path / "b.mtx"
        write_matrix(pa, np.eye(2))
        write_matrix(pb, np.zeros((2, 2)))
        code, out = run_json("definite", "--pair", str(pa), str(pb))
        assert code == 0
        assert out["is_definite"] is True
        assert out["crawford"] == pytest.approx(1.0, abs=1e-9)

    def test_matrix_matches_its_hermitian_split(self, tmp_path):
        C = gallery.tridiag_nonsmooth(10)
        A, B = gallery.hermitian_split(C)
        pc, pa, pb = (tmp_path / f"{k}.mtx" for k in "cab")
        write_matrix(pc, C)
        write_matrix(pa, A)
        write_matrix(pb, B)
        code_m, out_m = run_cli("definite", "--matrix", str(pc))
        code_p, out_p = run_cli("definite", "--pair", str(pa), str(pb))
        assert code_m == code_p == 0
        assert out_m == out_p

    def test_indefinite_pair(self, ch_files):
        pa, pb = ch_files
        code, out = run_json("definite", "--pair", pa, pb)
        assert code == 0
        assert out["is_definite"] is False
        assert out["crawford"] == 0.0


class TestDistance:
    def test_writes_repair_files(self, ch_files, tmp_path):
        pa, pb = ch_files
        outdir = tmp_path / "rep"
        code, out = run_json("distance", "--pair", pa, pb,
                             "--delta", "1e-8", "--method", "support",
                             "--outdir", str(outdir))
        assert code == 0
        assert out["distance"] == pytest.approx(0.8118872339262367, abs=1e-9)
        for key in ("deltaA", "deltaB", "A_tilde", "B_tilde"):
            M = read_matrix(out["files"][key])
            assert M.shape == (7, 7)
        # repaired pair really is definite at the requested margin
        Bt = read_matrix(out["files"]["B_tilde"])
        assert np.linalg.eigvalsh(Bt)[0] == pytest.approx(1e-8, rel=1e-4)

    def test_definite_input_zero_perturbations(self, tmp_path):
        pa, pb = tmp_path / "a.mtx", tmp_path / "b.mtx"
        write_matrix(pa, np.eye(2))
        write_matrix(pb, np.zeros((2, 2)))
        code, out = run_json("distance", "--pair", str(pa), str(pb),
                             "--delta", "0.5", "--outdir", str(tmp_path))
        assert code == 0
        assert out["distance"] == 0.0
        assert np.max(np.abs(read_matrix(out["files"]["deltaA"]))) == 0.0
        assert np.max(np.abs(read_matrix(out["files"]["deltaB"]))) == 0.0

    def test_zero_pair(self, tmp_path):
        pa, pb = tmp_path / "a.mtx", tmp_path / "b.mtx"
        write_matrix(pa, np.zeros((1, 1)))
        write_matrix(pb, np.zeros((1, 1)))
        code, out = run_json("distance", "--pair", str(pa), str(pb),
                             "--delta", "0.5", "--outdir", str(tmp_path))
        assert code == 0
        assert out["distance"] == pytest.approx(0.5, abs=1e-12)


    def test_nonconvergence_exit_code(self, ch_files, tmp_path, capsys):
        pa, pb = ch_files
        code = main(["distance", "--pair", pa, pb, "--delta", "1e-8",
                     "--method", "support", "--max-iter", "2",
                     "--outdir", str(tmp_path / "rep")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: ")
        assert not (tmp_path / "rep").exists()

    def test_verification_failure_exit_code(self, ch_files, tmp_path,
                                            monkeypatch, capsys):
        def failing(*args, **kwargs):
            raise VerificationFailure("repaired pair is not definite")

        monkeypatch.setattr(cli, "nearest_definite_pair", failing)
        code = main(["distance", "--pair", *ch_files, "--delta", "1e-8",
                     "--outdir", str(tmp_path / "rep")])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "error: repaired pair is not definite\n"
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("delta", ["nan", "inf"])
    def test_non_finite_delta_is_a_usage_error(self, ch_files, tmp_path,
                                               delta, capsys):
        pa, pb = ch_files
        code = main(["distance", "--pair", pa, pb, "--delta", delta,
                     "--outdir", str(tmp_path / "rep")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: delta must be positive and finite\n"
        assert not (tmp_path / "rep").exists()


class TestHyperbolicSaddle:
    def test_hyperbolic_small_yes(self, tmp_path):
        # scalar coefficients: (x*Bx)^2 = 9 > 4 = 4(x*Ax)(x*Cx)
        for name, val in (("a", 1.0), ("b", 3.0), ("c", 1.0)):
            write_matrix(tmp_path / f"{name}.mtx", np.array([[val]]))
        code, out = run_json("hyperbolic", "--qep",
                             str(tmp_path / "a.mtx"),
                             str(tmp_path / "b.mtx"),
                             str(tmp_path / "c.mtx"))
        assert code == 0
        assert out["hyperbolic"] is True

    def test_hyperbolic_small_no(self, tmp_path):
        for name, val in (("a", 1.0), ("b", 1.0), ("c", 1.0)):
            write_matrix(tmp_path / f"{name}.mtx", np.array([[val]]))
        code, out = run_json("hyperbolic", "--qep",
                             str(tmp_path / "a.mtx"),
                             str(tmp_path / "b.mtx"),
                             str(tmp_path / "c.mtx"))
        assert code == 0
        assert out["hyperbolic"] is False

    @pytest.mark.parametrize("f_star", [0.0, -0.0, -1e-300])
    def test_one_sign_rule_for_every_verdict(self, monkeypatch, tmp_path,
                                             f_star):
        # the origin on the boundary of the field of values, on either side
        # of a signed zero: the library and both CLI commands read one
        # verdict and one Crawford number off zero_in_fov
        from inropt import definite
        from inropt.results import MinResult
        monkeypatch.setattr(
            definite._support, "eigopt_minimize",
            lambda P, **kw: MinResult(omega_star=0.5, f_star=f_star,
                                      lower_bound=f_star, iterations=1))
        Aq, Bq, Cq = gallery.qep_mass_spring4()
        for name, M in zip("abc", (Aq, Bq, Cq)):
            write_matrix(tmp_path / f"{name}.mtx", M)
        A1, B1 = gallery.qep_linearization(Aq, Bq, Cq)
        write_matrix(tmp_path / "A1.mtx", A1)
        write_matrix(tmp_path / "B1.mtx", B1)
        definite_ = f_star < 0.0  # -0.0 is not: the origin is on the boundary
        gamma = -f_star if definite_ else 0.0
        cr = definite.crawford_number(A1, B1, method="support")
        hyp, wit = definite.is_hyperbolic(Aq, Bq, Cq, method="support")
        _, out_d = run_json("definite", "--pair", str(tmp_path / "A1.mtx"),
                            str(tmp_path / "B1.mtx"), "--method", "support")
        _, out_h = run_json("hyperbolic", "--qep",
                            *(str(tmp_path / f"{c}.mtx") for c in "abc"),
                            "--method", "support")
        assert (cr.is_definite, hyp, out_d["is_definite"],
                out_h["hyperbolic"]) == (definite_,) * 4
        assert (cr.gamma, wit.crawford, out_d["crawford"],
                out_h["crawford"]) == (gamma,) * 4
        assert wit.zero_in_fov is not definite_

    def test_missed_top_eigenvalue_fails_certificate(self, monkeypatch,
                                                    capsys):
        # Lanczos that loses the top pair returns true eigenpairs, so only
        # the inertia certificate can tell that lambda_max is wrong
        import scipy.sparse.linalg as spla
        from inropt.errors import ConvergenceFailure
        from inropt.kernels import largest_eigpairs

        eigsh = spla.eigsh

        def eigsh_without_top(A, k, **kw):
            # ascending: the top pair is last
            if not kw.get("return_eigenvectors", True):
                return eigsh(A, k=k + 1, **kw)[:-1]  # the shift refinement
            w, V = eigsh(A, k=k + 1, **kw)
            return w[:-1], V[:, :-1]

        monkeypatch.setattr(spla, "eigsh", eigsh_without_top)
        A1, B1 = gallery.qep_linearization(*gallery.qep_mass_spring(500,
                                                                    0.524))
        with pytest.raises(ConvergenceFailure, match="inertia certificate"):
            largest_eigpairs(A1 + B1, eps_cluster=1e-6, max_pairs=10)
        code = main(["hyperbolic", "--qep-mass-spring", "500",
                     "--beta", "0.524"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: ")

    def test_saddle_synthetic(self):
        code, out = run_json("saddle", "--synthetic", "20", "8",
                             "--seed", "3", "--method", "support")
        assert code == 0
        assert out["definite"] is True
        assert out["lambda_min"] > 0

    def test_saddle_nonconvergence_exit_code(self, capsys):
        code = main(["saddle", "--synthetic", "100", "40", "--max-iter", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: ")

    def test_saddle_default_seed_is_zero(self):
        _, default = run_cli("saddle", "--synthetic", "20", "8",
                             "--method", "support")
        _, seeded = run_cli("saddle", "--synthetic", "20", "8",
                            "--seed", "0", "--method", "support")
        assert default == seeded

    def test_saddle_matrix_matches_synthetic(self, tmp_path):
        S, _ = gallery.synthetic_saddle(20, 8, 0)
        path = tmp_path / "S.mtx"
        write_matrix(path, S)
        code, from_file = run_cli("saddle", "--matrix", str(path),
                                  "--blocks", "20", "8", "--method", "support")
        assert code == 0
        _, synthetic = run_cli("saddle", "--synthetic", "20", "8",
                               "--method", "support")
        assert json.loads(from_file) == json.loads(synthetic)

    @pytest.mark.parametrize("argv", [
        ["--synthetic", "20", "8", "--blocks", "1", "1"],
        ["--matrix", "{S}", "--blocks", "20", "8", "--seed", "0"],
        ["--matrix", "{S}"],
    ], ids=["blocks-with-synthetic", "seed-with-matrix",
            "matrix-without-blocks"])
    def test_saddle_rejects_other_mode_flag(self, argv, tmp_path, capsys):
        S, _ = gallery.synthetic_saddle(20, 8, 0)
        path = tmp_path / "S.mtx"
        write_matrix(path, S)
        argv = [a.format(S=path) for a in argv]
        code = main(["saddle", *argv, "--method", "support"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")


class TestGallery:
    def test_fiedler_roundtrip(self, tmp_path):
        target = tmp_path / "f3.mtx"
        code, out = run_json("gallery", "fiedler", "3", "-o", str(target))
        assert code == 0
        np.testing.assert_array_equal(read_matrix(target),
                                      [[0, 1, 2], [1, 0, 1], [2, 1, 0]])

    def test_pair_outputs(self, tmp_path):
        target = tmp_path / "ch.mtx"
        code, out = run_json("gallery", "cheng_higham7", "-o", str(target))
        assert code == 0
        assert set(out["files"]) == {"A", "B"}
        A = read_matrix(out["files"]["A"])
        np.testing.assert_array_equal(A, np.diag(np.arange(-3.0, 4.0)))

    def test_extra_params(self, tmp_path):
        target = tmp_path / "r.mtx"
        code, out = run_json("gallery", "sparse_random", "50", "-o",
                             str(target), "--param", "density=0.1",
                             "--param", "seed=5")
        assert code == 0
        R = read_matrix(target)
        assert R.shape == (50, 50)

    @pytest.mark.parametrize("argv", [
        ["moler", "4"], ["grcar", "5"], ["grcar_pair", "6"],
        ["qep_mass_spring", "4", "0.5"], ["qep_mass_spring4"],
        ["qep_linearization", "4", "0.5"], ["poisson2d", "--param", "k=3"],
        ["synthetic_saddle", "6", "--param", "m=2"],
    ], ids=lambda argv: argv[0])
    def test_every_family_writes_its_matrices(self, tmp_path, argv):
        code, out = run_json("gallery", *argv, "-o", str(tmp_path / "g.mtx"))
        assert code == 0
        ref = gallery.generate(argv[0], **out["params"])
        assert set(out["files"]) == set(ref)
        for name, path in out["files"].items():
            got, want = read_matrix(path), ref[name]
            np.testing.assert_array_equal(
                *(M.toarray() if hasattr(M, "toarray") else M
                  for M in (got, want)))

    def test_invalid_size_exit_code(self, tmp_path, capsys):
        code = main(["gallery", "moler", "0", "-o", str(tmp_path / "m.mtx")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: n must be >= 1\n"
        assert not (tmp_path / "m.mtx").exists()


class TestFov:
    def read_rows(self, text):
        return list(csv.DictReader(io.StringIO(text)))

    def test_too_few_samples(self, ch_files, capsys):
        code = main(["fov", "--pair", *ch_files, "--samples", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: --samples must be >= 3\n"

    def test_scalar_all_points_at_one(self, tmp_path):
        p = tmp_path / "c.mtx"
        write_matrix(p, np.array([[1.0]]))
        code, out = run_cli("fov", "--matrix", str(p), "--samples", "4")
        assert code == 0
        rows = self.read_rows(out)
        bnd = [r for r in rows if r["kind"] == "boundary"]
        assert len(bnd) == 4
        for r in bnd:
            assert float(r["re"]) == pytest.approx(1.0, abs=1e-12)
            assert float(r["im"]) == pytest.approx(0.0, abs=1e-12)

    def test_segment_supports_its_own_hull(self, tmp_path):
        # every sample maximizes its own direction over the emitted set
        p = tmp_path / "c.mtx"
        write_matrix(p, np.diag([1.0, 1.0j]))
        code, out = run_cli("fov", "--matrix", str(p), "--samples", "360")
        assert code == 0
        rows = self.read_rows(out)
        pts = np.array([complex(float(r["re"]), float(r["im"]))
                        for r in rows if r["kind"] == "boundary"])
        ths = np.array([float(r["theta"]) for r in rows
                        if r["kind"] == "boundary"])
        for t, p_t in zip(ths, pts):
            proj = np.real(np.exp(-1j * t) * pts)
            assert np.real(np.exp(-1j * t) * p_t) >= proj.max() - 1e-8

    def test_zeta_marker_consistent_with_inr(self, ch_files, tmp_path):
        pa, pb = ch_files
        code, out = run_cli("fov", "--pair", pa, pb, "--samples", "720")
        assert code == 0
        rows = self.read_rows(out)
        zeta_rows = [r for r in rows if r["kind"] == "zeta"]
        assert len(zeta_rows) == 1
        z = abs(complex(float(zeta_rows[0]["re"]),
                        float(zeta_rows[0]["im"])))
        _, inr_out = run_json("inr", "--pair", pa, pb, "--method",
                              "support")
        assert abs(z - inr_out["zeta"]) <= 1e-3

    def test_eigenvalue_rows_present(self, tmp_path):
        p = tmp_path / "c.mtx"
        write_matrix(p, np.diag([1.0, 2.0]))
        code, out = run_cli("fov", "--matrix", str(p), "--samples", "8")
        rows = self.read_rows(out)
        eig = sorted(float(r["re"]) for r in rows
                     if r["kind"] == "eigenvalue")
        assert eig == pytest.approx([1.0, 2.0])
