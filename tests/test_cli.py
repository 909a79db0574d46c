import json

import numpy as np
import pytest

from abimhd import abi, compare, dmhd, entropy, galerkin
from abimhd.cli import main
from abimhd.fields import GridSpec
from abimhd.snapshots import read_snapshot, write_snapshot


def write_cfg(path, text):
    path.write_text(text)
    return str(path)


class TestDmhdRun:
    def test_trivial_run_constant_energy(self, tmp_path):
        cfg = write_cfg(tmp_path / "run.cfg",
                        "[scenario]\nname = trivial\n"
                        "[grid]\nn = 8\n"
                        "[run]\nt_final = 0.002\n")
        out = tmp_path / "out"
        assert main(["dmhd-run", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        lines = (out / "dmhd_diagnostics.csv").read_text().splitlines()
        assert lines[0].startswith("t,energy")
        energies = [float(l.split(",")[1]) for l in lines[1:]]
        assert all(e == 0.5 for e in energies)
        grid, comps = read_snapshot(out / "dmhd_final.abim")
        assert grid.n == 8 and len(comps) == 4
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "dmhd-run"
        assert manifest["config"]["scenario.name"] == "trivial"

    def test_deterministic_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path / "run.cfg",
                        "[scenario]\nname = random_smooth\namp_h = 0.1\n"
                        "[grid]\nn = 8\n[run]\nt_final = 0.001\n")
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert main(["dmhd-run", "--config", cfg, "--out", str(out),
                         "--seed", "42", "--quiet"]) == 0
            outs.append((out / "dmhd_diagnostics.csv").read_bytes()
                        + (out / "dmhd_final.abim").read_bytes())
        assert outs[0] == outs[1]


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path):
        cfg = write_cfg(tmp_path / "bad.cfg", "[grid]\nn = 7\n")
        assert main(["dmhd-run", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2

    def test_malformed_config_is_2(self, tmp_path):
        cfg = write_cfg(tmp_path / "bad.cfg", "just some words\n")
        assert main(["dmhd-run", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2

    def test_missing_config_file_is_2(self, tmp_path):
        assert main(["dmhd-run", "--config", str(tmp_path / "none.cfg"),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("case", ["config_bytes", "data_dir",
                                      "data_bytes"])
    def test_unreadable_input_is_2(self, tmp_path, capsys, case):
        # each once left a traceback and exit 1
        cfg = tmp_path / "run.cfg"
        data = tmp_path / "data.txt"
        if case == "data_dir":
            data.mkdir()
        else:
            data.write_bytes(b"atoms 1\n0.5 0.5 0.5 \xff\n")
        if case == "config_bytes":
            cfg.write_bytes(b"[grid]\nn = 8 # \xe9\n")
        else:
            write_cfg(cfg, f"[grid]\nn = 8\n[mollify]\ndata = {data}\n")
        assert main(["mollify", "--config", str(cfg), "--out",
                     str(tmp_path / "o"), "--quiet"]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    def test_numerical_abort_is_3(self, tmp_path):
        # a step size far beyond the parabolic bound is rejected
        cfg = write_cfg(tmp_path / "run.cfg",
                        "[grid]\nn = 8\n[run]\ndt = 0.5\nt_final = 1.0\n")
        assert main(["dmhd-run", "--config", cfg,
                     "--out", str(tmp_path / "o"), "--quiet"]) == 3

    def test_picard_overflow_is_3(self, tmp_path, capsys):
        # exp(J) of the transported density overflows at the first node;
        # the non-finite h once reached ScalarField and exited 2
        cfg = write_cfg(tmp_path / "run.cfg",
                        "[grid]\nn = 8\n[galerkin]\npicard = true\nN = 40\n"
                        "eps = 1e-3\nl = 8\n")
        assert main(["galerkin-run", "--config", cfg,
                     "--out", str(tmp_path / "o"), "--quiet"]) == 3
        assert "overflowed at t=" in capsys.readouterr().err

    def test_certify_corruption_is_4(self, tmp_path):
        # the solution frames come from the true samples, so the offset
        # leaves their r0 as it is
        r0s = []
        for offset, code in (("0", 0), ("0.5", 4)):
            cfg = write_cfg(tmp_path / "run.cfg",
                            "[grid]\nn = 8\n[run]\nt_final = 0.01\n"
                            f"[certify]\nmomentum_offset = {offset}\n")
            out = tmp_path / offset
            assert main(["certify", "--config", cfg, "--out", str(out),
                         "--quiet"]) == code
            assert (out / "entropy_report_solution.csv").exists()
            rows = (out / "certify_summary.csv").read_text().splitlines()
            r0s.append(rows[1].split(",")[1])
        assert r0s[0] == r0s[1]


class TestNonFinite:
    """A nan or infinite config number is a config error, and a nan slack or
    defect fails its verdict."""

    def test_nan_momentum_offset_is_2(self, tmp_path):
        # the offset once reached the slack as nan and the run exited 0
        cfg = write_cfg(tmp_path / "run.cfg",
                        "[grid]\nn = 8\n[run]\nt_final = 0.004\n"
                        "[certify]\nmomentum_offset = nan\n")
        assert main(["certify", "--config", cfg, "--out",
                     str(tmp_path / "o"), "--quiet"]) == 2

    def test_infinite_horizon_is_2(self, tmp_path):
        # the step count int(round(inf / dt)) once raised OverflowError
        cfg = write_cfg(tmp_path / "run.cfg",
                        "[grid]\nn = 8\n[run]\nt_final = inf\n")
        assert main(["dmhd-run", "--config", cfg, "--out",
                     str(tmp_path / "o"), "--quiet"]) == 2

    @pytest.mark.parametrize("sub,keys", [
        ("dmhd-run", "[run]\ndt = 1e-320\n"),
        ("abi-run", "[run]\ndt = 1e-320\n"),
        ("certify", "[run]\ndt = 1e-320\n"),
        ("galerkin-run", "[galerkin]\ndt = 1e-320\n"),
        ("galerkin-run", "[galerkin]\ndt = 1e-320\npicard = true\n")])
    def test_uncountable_steps_are_2(self, tmp_path, sub, keys):
        # finite keys whose step count overflows once raised OverflowError
        cfg = write_cfg(tmp_path / "run.cfg", "[grid]\nn = 8\n" + keys)
        assert main([sub, "--config", cfg, "--out", str(tmp_path / "o"),
                     "--quiet"]) == 2

    def test_nan_slack_is_4(self, tmp_path, monkeypatch):
        genuine = entropy.dissipative_slack

        def nan_slack(sol, frames):
            rep = genuine(sol, frames)
            rep.slack_t = rep.slack_t.copy()
            rep.slack_t[-1] = float("nan")
            return rep

        monkeypatch.setattr(entropy, "dissipative_slack", nan_slack)
        cfg = write_cfg(tmp_path / "run.cfg",
                        "[grid]\nn = 8\n[run]\nt_final = 0.004\n"
                        "[certify]\nrandom_frames = 1\n")
        assert main(["certify", "--config", cfg, "--out",
                     str(tmp_path / "o"), "--quiet"]) == 4

    def test_nan_identity_defect_is_4(self, tmp_path, monkeypatch):
        genuine = entropy.identity_residual_check

        def nan_defect(sol, frames):
            chk = genuine(sol, frames)
            chk.lhs = chk.lhs.copy()
            chk.lhs[0] = float("nan")
            return chk

        monkeypatch.setattr(entropy, "identity_residual_check", nan_defect)
        cfg = write_cfg(tmp_path / "run.cfg",
                        "[grid]\nn = 16\n[identity]\nsteps = 3\n")
        assert main(["identity-check", "--config", cfg, "--out",
                     str(tmp_path / "o"), "--quiet"]) == 4


class TestCertify:
    def test_quiet_run_skips_the_hoelder_quotient(self, tmp_path,
                                                  monkeypatch):
        # the quotient is printed, never written, so --quiet never forms it
        calls = []
        genuine = entropy.holder_half_quotient

        def spy(sol):
            calls.append(sol)
            return genuine(sol)

        monkeypatch.setattr(entropy, "holder_half_quotient", spy)
        cfg = write_cfg(tmp_path / "run.cfg",
                        "[grid]\nn = 8\n[run]\nt_final = 0.004\n")
        assert main(["certify", "--config", cfg, "--out",
                     str(tmp_path / "q"), "--quiet"]) == 0
        assert calls == []
        assert main(["certify", "--config", cfg, "--out",
                     str(tmp_path / "v")]) == 0
        assert len(calls) == 1
        assert ((tmp_path / "q" / "certify_summary.csv").read_bytes()
                == (tmp_path / "v" / "certify_summary.csv").read_bytes())

    @pytest.mark.parametrize("bad", ["[certify]\nrandom_frames = -1\n",
                                     "[certify]\nframe_amp = wide\n",
                                     "[scenario]\nkmax = 0\n"])
    def test_frame_keys_checked_before_the_run(self, tmp_path, monkeypatch,
                                               bad):
        runs = []
        monkeypatch.setattr(dmhd, "dmhd_run", lambda *a, **k: runs.append(a))
        cfg = write_cfg(tmp_path / "run.cfg", "[grid]\nn = 8\n" + bad)
        assert main(["certify", "--config", cfg, "--out",
                     str(tmp_path / "o"), "--quiet"]) == 2
        assert runs == []

    def test_large_frames_certify_their_shift(self, tmp_path):
        # r0 near 3e6: eight fixed round-ups once stopped short of the 10x10
        # eigensolve's round-off and reported a corrupted Q (exit 2)
        cfg = write_cfg(tmp_path / "run.cfg",
                        "[grid]\nn = 8\n[scenario]\nname = random_smooth\n"
                        "[run]\nt_final = 1e-4\n"
                        "[certify]\nrandom_frames = 2\nframe_amp = 100\n")
        out = tmp_path / "o"
        assert main(["certify", "--config", cfg, "--out", str(out),
                     "--seed", "1", "--quiet"]) == 4
        assert (out / "certify_summary.csv").exists()

    @pytest.mark.parametrize("amp,code", [("1e200", 2), ("1e150", 4)])
    def test_overflowing_frames_exit_2(self, tmp_path, amp, code):
        # at 1e200 the Schur complements overflow to inf, which once ended
        # in a LinAlgError traceback from the eigensolve; 1e150 still
        # certifies its finite complements and violates the slack
        cfg = write_cfg(tmp_path / "run.cfg",
                        "[grid]\nn = 8\n[scenario]\nname = random_smooth\n"
                        "[run]\nt_final = 1e-4\n"
                        f"[certify]\nrandom_frames = 2\nframe_amp = {amp}\n")
        with np.errstate(all="ignore"):
            assert main(["certify", "--config", cfg, "--out",
                         str(tmp_path / "o"), "--seed", "1", "--quiet"]) == code

    def test_genuine_run_passes(self, tmp_path):
        cfg = write_cfg(tmp_path / "run.cfg",
                        "[grid]\nn = 8\n[run]\nt_final = 0.004\n")
        out = tmp_path / "o"
        assert main(["certify", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        lines = (out / "entropy_report_solution.csv").read_text().splitlines()
        assert lines[0] == "t,lambda,lambda_tilde_cum,R,slack"
        assert lines[-1].startswith("# r_used=")


class TestOtherSubcommands:
    def test_abi_run(self, tmp_path):
        cfg = write_cfg(tmp_path / "run.cfg",
                        "[grid]\nn = 8\n[run]\nt_final = 0.01\n")
        out = tmp_path / "o"
        assert main(["abi-run", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        grid, comps = read_snapshot(out / "abi_final.abim")
        assert len(comps) == 10

    def test_abi_run_default_dt(self, tmp_path):
        # the default dt must leave room for the step bound to shrink
        cfg = write_cfg(tmp_path / "run.cfg", "[grid]\nn = 16\n")
        out = tmp_path / "o"
        assert main(["abi-run", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        rows = (out / "abi_diagnostics.csv").read_text().splitlines()
        assert len(rows) - 2 >= 2     # header and t = 0, then the steps

    def test_galerkin_run(self, tmp_path):
        cfg = write_cfg(tmp_path / "run.cfg",
                        "[grid]\nn = 8\n"
                        "[galerkin]\nN = 3\neps = 0.2\nl = 1\n"
                        "dt = 0.0005\nT = 0.002\n")
        out = tmp_path / "o"
        assert main(["galerkin-run", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        raw = (out / "galerkin_coefficients.bin").read_bytes()
        import struct
        (count,) = struct.unpack("<Q", raw[:8])
        assert count == 2 * 3 * 6   # d and v coefficients, 6N each
        assert len(raw) == 8 + 8 * count

    def test_galerkin_defaults_are_the_config_defaults(self, tmp_path,
                                                       monkeypatch):
        class Handed(Exception):
            pass

        def spy(h0, B0, D0, P0, cfg):
            raise Handed(cfg)

        monkeypatch.setattr(galerkin, "galerkin_run", spy)
        with pytest.raises(Handed) as info:
            main(["galerkin-run", "--out", str(tmp_path / "o"), "--quiet"])
        assert info.value.args[0] == galerkin.GalerkinConfig()

    def test_mollify(self, tmp_path):
        data = tmp_path / "data.txt"
        data.write_text("atoms 1\n0.5 0.5 0.5 1.0\n")
        cfg = write_cfg(tmp_path / "run.cfg",
                        "[grid]\nn = 16\n"
                        f"[mollify]\ndata = {data}\n"
                        "eps_schedule = 0.2 0.1\n")
        out = tmp_path / "o"
        assert main(["mollify", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        assert (out / "mollified_eps0.2.abim").exists()
        assert (out / "lambda_monotonicity.csv").exists()

    def test_mollify_computes_each_width_once(self, tmp_path, monkeypatch):
        import abimhd.mollify as mollify_mod

        calls = []
        real = mollify_mod.mollify

        def counted(data, eps):
            calls.append(eps)
            return real(data, eps)

        monkeypatch.setattr(mollify_mod, "mollify", counted)
        data = tmp_path / "data.txt"
        data.write_text("atoms 2\n0.5 0.5 0.5 1.0\n0.2 0.3 0.4 0.5 0.1 0.0 0.2\n")
        cfg = write_cfg(tmp_path / "run.cfg",
                        "[grid]\nn = 8\n"
                        f"[mollify]\ndata = {data}\n"
                        "eps_schedule = 0.2 0.1 0.05\n")
        out = tmp_path / "o"
        assert main(["mollify", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        assert calls == [0.2, 0.1, 0.05]
        rough = mollify_mod.RoughInitialData.parse(data.read_text(),
                                                   GridSpec(8))
        for eps in calls:
            name = f"mollified_eps{eps:g}.abim"
            _, comps = read_snapshot(out / name)
            h, B = real(rough, eps)
            assert np.array_equal(comps[0], h.values)
            assert np.array_equal(np.stack(comps[1:]), B.values)
            # written as it is computed, the snapshot keeps its bytes
            write_snapshot(tmp_path / name, GridSpec(8),
                           [h.values, *B.values])
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes()

    @pytest.mark.parametrize("text", [
        "atoms 3\n0.5 0.5 0.5 1.0\n",
        "atoms 1\n0.5 0.5 0.5 1.0\n0.2 0.2 0.2 1.0\n",
        "atoms x\n0.5 0.5 0.5 1.0\n",
        "atoms 1\n0.5 half 0.5 1.0\n",
        "density\natoms 1\n0.5 0.5 0.5 1.0\n",
    ])
    def test_mollify_malformed_data_is_2(self, tmp_path, text):
        data = tmp_path / "data.txt"
        data.write_text(text)
        cfg = write_cfg(tmp_path / "run.cfg",
                        f"[grid]\nn = 8\n[mollify]\ndata = {data}\n")
        out = tmp_path / "o"
        assert main(["mollify", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 2
        assert not list(out.glob("*.abim"))

    def test_compare(self, tmp_path):
        cfg = write_cfg(tmp_path / "run.cfg",
                        "[grid]\nn = 8\n"
                        "[compare]\nt_min = 0.01\nt_max = 0.04\nsamples = 4\n")
        out = tmp_path / "o"
        assert main(["compare", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        text = (out / "rate_report.csv").read_text()
        assert text.splitlines()[0] == "t,err_h,err_B,cum_err_D,cum_err_P"
        assert "slope_h=" in text

    def test_identity_check(self, tmp_path):
        cfg = write_cfg(tmp_path / "run.cfg",
                        "[grid]\nn = 16\n"
                        "[identity]\nsteps = 6\n")
        out = tmp_path / "o"
        assert main(["identity-check", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        assert (out / "identity_check.csv").exists()

    @pytest.mark.parametrize("n, code", [(8, 2), (12, 0), (16, 0)])
    def test_identity_check_refuses_grids_below_its_band(self, tmp_path, n,
                                                        code):
        # the kmax = 2 products pass the 2/3 cutoff below n = 12; at n = 8
        # and 10 random_smooth read defects of 3.6e-3 and 1.4e-3 (tol 1e-3)
        cfg = write_cfg(tmp_path / "run.cfg",
                        "[scenario]\nname = random_smooth\n"
                        f"[grid]\nn = {n}\n[identity]\nsteps = 6\n")
        out = tmp_path / "o"
        assert main(["identity-check", "--config", cfg, "--out", str(out),
                     "--seed", "11", "--quiet"]) == code
        assert (out / "identity_check.csv").exists() == (code == 0)

    def test_identity_check_without_residuals_passes(self, tmp_path):
        # both sides vanish to round-off here; the defect is judged against
        # the identity's largest term, as criterion 5 judges it
        cfg = write_cfg(tmp_path / "run.cfg",
                        "[grid]\nn = 16\n[identity]\nresidual_amp = 0\n")
        assert main(["identity-check", "--config", cfg, "--out",
                     str(tmp_path / "o"), "--seed", "0", "--quiet"]) == 0

    def test_identity_check_flags_a_defect(self, tmp_path, monkeypatch):
        genuine = entropy.identity_residual_check

        def broken(sol, frames):
            chk = genuine(sol, frames)
            chk.lhs = chk.lhs + 1e-2 * chk.term_scale
            return chk

        monkeypatch.setattr(entropy, "identity_residual_check", broken)
        cfg = write_cfg(tmp_path / "run.cfg",
                        "[grid]\nn = 16\n[identity]\nresidual_amp = 0\n")
        assert main(["identity-check", "--config", cfg, "--out",
                     str(tmp_path / "o"), "--seed", "0", "--quiet"]) == 4


class TestOneHomePerRule:
    """The CLI reads keys; GridSpec, GalerkinConfig and mollify check them,
    and a bad value exits 2 before any solver runs."""

    @pytest.fixture
    def solver_calls(self, monkeypatch):
        calls = []

        def record(*a, **k):
            calls.append(a)

        for module, name in ((dmhd, "dmhd_run"), (abi, "abi_run"),
                             (galerkin, "galerkin_run"),
                             (galerkin, "picard_iterate"),
                             (compare, "run_sampled"),
                             (entropy, "identity_residual_check")):
            monkeypatch.setattr(module, name, record)
        return calls

    @pytest.mark.parametrize("bad", ["eps = 1", "eps = 0", "N = 0", "l = 0",
                                     "dt = 0",
                                     "picard = true\npicard_max_iter = 0"])
    def test_galerkin_keys_checked_before_the_run(self, tmp_path,
                                                  solver_calls, bad):
        cfg = write_cfg(tmp_path / "run.cfg",
                        f"[grid]\nn = 8\n[galerkin]\n{bad}\n")
        assert main(["galerkin-run", "--config", cfg, "--out",
                     str(tmp_path / "o"), "--quiet"]) == 2
        assert solver_calls == []

    def test_eps_below_one_reaches_the_driver(self, tmp_path, monkeypatch):
        # GalerkinConfig admits every eps in (0, 1); the CLI no longer caps
        # it at 0.999999
        class Handed(Exception):
            pass

        def spy(h0, B0, D0, P0, cfg):
            raise Handed(cfg)

        monkeypatch.setattr(galerkin, "galerkin_run", spy)
        cfg = write_cfg(tmp_path / "run.cfg",
                        "[grid]\nn = 8\n[galerkin]\neps = 0.9999995\n")
        with pytest.raises(Handed) as info:
            main(["galerkin-run", "--config", cfg, "--out",
                  str(tmp_path / "o"), "--quiet"])
        assert info.value.args[0].eps == 0.9999995

    @pytest.mark.parametrize("sub", ["dmhd-run", "abi-run", "certify",
                                     "galerkin-run", "compare",
                                     "identity-check"])
    def test_odd_grid_exits_before_the_run(self, tmp_path, solver_calls, sub):
        cfg = write_cfg(tmp_path / "run.cfg", "[grid]\nn = 7\n")
        assert main([sub, "--config", cfg, "--out", str(tmp_path / "o"),
                     "--quiet"]) == 2
        assert solver_calls == []

    @pytest.mark.parametrize("fraction", ["1.0000001", "3"])
    def test_cfl_fraction_above_one_exits_before_the_run(
            self, tmp_path, solver_calls, fraction):
        # a step longer than the bound can never pass the step guard
        cfg = write_cfg(tmp_path / "run.cfg",
                        "[grid]\nn = 8\n"
                        f"[compare]\ncfl_fraction = {fraction}\n")
        assert main(["compare", "--config", cfg, "--out",
                     str(tmp_path / "o"), "--quiet"]) == 2
        assert solver_calls == []

    @pytest.mark.parametrize("sub", ["dmhd-run", "abi-run"])
    @pytest.mark.parametrize("scenario, amp_h", [("single_mode", 1.0),
                                                 ("random_smooth", 3.0)])
    def test_nonpositive_initial_density_exits_before_the_run(
            self, tmp_path, solver_calls, capsys, sub, scenario, amp_h):
        cfg = write_cfg(tmp_path / "run.cfg",
                        f"[scenario]\nname = {scenario}\namp_h = {amp_h}\n"
                        "[grid]\nn = 8\n")
        assert main([sub, "--config", cfg, "--out", str(tmp_path / "o"),
                     "--quiet"]) == 2
        assert solver_calls == []
        assert "scenario.amp_h" in capsys.readouterr().err

    def test_mollifier_widths_checked_by_mollify(self, tmp_path):
        data = tmp_path / "data.txt"
        data.write_text("atoms 1\n0.5 0.5 0.5 1.0\n")
        cfg = write_cfg(tmp_path / "run.cfg",
                        "[grid]\nn = 8\n"
                        f"[mollify]\ndata = {data}\n"
                        "eps_schedule = 0.2 1.0\n")
        out = tmp_path / "o"
        assert main(["mollify", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 2
        assert not list(out.glob("*.abim"))


class TestRepeatRuns:
    def test_solver_runs_bit_identical(self, tmp_path):
        # two in-process runs of each solver write identical files
        jobs = {"dmhd-run": "t_final = 0.0005", "abi-run": "t_final = 0.02"}
        for sub, run in jobs.items():
            cfg = write_cfg(tmp_path / f"{sub}.cfg",
                            "[scenario]\nname = random_smooth\n"
                            f"[grid]\nn = 16\n[run]\n{run}\n")
            files = []
            for tag in ("a", "b"):
                out = tmp_path / f"{sub}-{tag}"
                assert main([sub, "--config", cfg, "--out", str(out),
                             "--seed", "11", "--quiet"]) == 0
                files.append({p.name: p.read_bytes()
                              for p in sorted(out.iterdir())
                              if p.suffix in (".abim", ".csv")})
            assert len(files[0]) == 3      # diagnostics, initial, final
            assert files[0] == files[1]

    def test_certificate_runs_bit_identical(self, tmp_path):
        # two in-process runs of each certificate write identical CSVs
        # (grid, own section, CSVs written); n = 8 is too coarse for the
        # identity's 1e-3 tolerance on random_smooth data
        jobs = {"certify": (8, "[run]\nt_final = 0.002\n"
                               "[certify]\nrandom_frames = 2\n", 4),
                "identity-check": (16, "[identity]\nsteps = 6\n", 1)}
        for sub, (n, extra, count) in jobs.items():
            cfg = write_cfg(tmp_path / f"{sub}.cfg",
                            "[scenario]\nname = random_smooth\n"
                            f"[grid]\nn = {n}\n{extra}")
            files = []
            for tag in ("a", "b"):
                out = tmp_path / f"{sub}-{tag}"
                assert main([sub, "--config", cfg, "--out", str(out),
                             "--seed", "11", "--quiet"]) == 0
                files.append({p.name: p.read_bytes()
                              for p in sorted(out.iterdir())
                              if p.suffix == ".csv"})
            assert len(files[0]) == count
            assert files[0] == files[1]

    def test_galerkin_runs_bit_identical(self, tmp_path):
        # method of lines and Picard, two in-process runs each
        for mode in ("false", "true"):
            cfg = write_cfg(tmp_path / f"{mode}.cfg",
                            "[scenario]\nname = random_smooth\n"
                            "[grid]\nn = 16\n"
                            f"[galerkin]\nT = 0.0004\npicard = {mode}\n"
                            "sigma = 0.0004\n")
            files = []
            for tag in ("a", "b"):
                out = tmp_path / f"{mode}-{tag}"
                assert main(["galerkin-run", "--config", cfg, "--out",
                             str(out), "--seed", "11", "--quiet"]) == 0
                files.append({p.name: p.read_bytes()
                              for p in sorted(out.iterdir())
                              if p.suffix in (".abim", ".csv", ".bin")})
            assert len(files[0]) == 3   # diagnostics, final, coefficients
            assert files[0] == files[1]
