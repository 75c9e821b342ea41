import itertools

import numpy as np
import pytest

from fieldxfer import harness, read_fdf, read_qm1, read_rhs
from fieldxfer.cli import (COMMON_FLAGS, SOURCE_FLAGS, STUDIES, STUDY_FLAGS,
                           _build_parser, _study_config, main)
from fieldxfer.harness import StudyResult


def run_cli(*argv):
    return main(list(argv))


def usage_error(*argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    return exc.value.code == 2


class TestGenerators:
    def test_genmesh_counts(self, tmp_path, capsys):
        path = tmp_path / "m.qm1"
        assert run_cli("genmesh", "--mesh-rect", "0", "0", "1", "1",
                       "--mesh-elems", "40", "40", "-o", str(path)) == 0
        out = capsys.readouterr().out
        assert "1681 nodes, 1600 elements" in out
        mesh = read_qm1(path)
        assert mesh.n_nodes == 1681 and mesh.n_elements == 1600

    def test_genmesh_degenerate_is_usage_error(self, tmp_path):
        code = run_cli("genmesh", "--mesh-rect", "0", "0", "1", "1",
                       "--mesh-elems", "0", "4", "-o", str(tmp_path / "m.qm1"))
        assert code == 2

    def test_genfield_roundtrips_bit_identically(self, tmp_path):
        p1 = tmp_path / "a.fdf"
        p2 = tmp_path / "b.fdf"
        assert run_cli("genfield", "--grid-rect", "0", "0", "1", "1",
                       "--grid-points", "41", "41", "--analytic", "2.5pi",
                       "-o", str(p1)) == 0
        field = read_fdf(p1)
        from fieldxfer import write_fdf
        write_fdf(p2, field)
        assert p1.read_text() == p2.read_text()

    def test_genfield_surrogate(self, tmp_path):
        path = tmp_path / "s.fdf"
        assert run_cli("genfield", "--grid-rect", "20", "-15", "150", "15",
                       "--grid-points", "131", "31", "--surrogate", "smooth",
                       "-o", str(path)) == 0
        assert read_fdf(path).values.shape == (31, 131)

    def test_genfield_two_sources_is_usage_error(self, tmp_path):
        assert usage_error("genfield", "--grid-rect", "0", "0", "1", "1",
                           "--grid-points", "11", "11", "--analytic", "2pi",
                           "--surrogate", "smooth", "-o", str(tmp_path / "s.fdf"))


class TestTransfer:
    @pytest.fixture
    def inputs(self, tmp_path):
        f = tmp_path / "f.fdf"
        m = tmp_path / "m.qm1"
        run_cli("genfield", "--grid-rect", "0", "0", "1", "1",
                "--grid-points", "101", "101", "--analytic", "2.5pi", "-o", str(f))
        run_cli("genmesh", "--mesh-rect", "0", "0", "1", "1",
                "--mesh-elems", "12", "12", "-o", str(m))
        return f, m

    def test_supermesh_conservation_line(self, inputs, tmp_path, capsys):
        f, m = inputs
        out_path = tmp_path / "b.rhs"
        assert run_cli("transfer", "--method", "supermesh", "--field", str(f),
                       "--mesh", str(m), "-o", str(out_path)) == 0
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if l.startswith("conservation_rel_err")][0]
        assert float(line.split()[1]) < 1e-12
        b = read_rhs(out_path)
        assert b.size == 169

    def test_quad_dispatch(self, inputs, tmp_path, capsys):
        f, m = inputs
        out_path = tmp_path / "bq.rhs"
        assert run_cli("transfer", "--method", "quad", "--interp", "bspline:3",
                       "--gauss", "3", "--field", str(f), "--mesh", str(m),
                       "-o", str(out_path)) == 0
        total = float([l for l in capsys.readouterr().out.splitlines()
                       if l.startswith("total_integral")][0].split()[1])
        assert total == pytest.approx(1.0 / (6.25 * np.pi ** 2), rel=1e-4)

    def test_analytic_source(self, inputs, tmp_path):
        _, m = inputs
        assert run_cli("transfer", "--method", "quad", "--analytic", "2.5pi",
                       "--grid-points", "61", "61", "--gauss", "3",
                       "--mesh", str(m), "-o", str(tmp_path / "x.rhs")) == 0

    def test_missing_file_exit_2(self, inputs, tmp_path, capsys):
        _, m = inputs
        code = run_cli("transfer", "--method", "quad", "--field", "nope.fdf",
                       "--mesh", str(m), "-o", str(tmp_path / "x.rhs"))
        assert code == 2
        assert "nope.fdf" in capsys.readouterr().err

    def test_both_field_sources_is_usage_error(self, inputs, tmp_path):
        f, m = inputs
        with pytest.raises(SystemExit) as exc:
            run_cli("transfer", "--method", "quad", "--field", str(f),
                    "--analytic", "2pi", "--mesh", str(m),
                    "-o", str(tmp_path / "x.rhs"))
        assert exc.value.code == 2

    @pytest.mark.filterwarnings("ignore:.*outside the grid domain")
    @pytest.mark.parametrize("method, extra, fraction", [
        ("supermesh", ["--grid-points", "11", "11", "--mesh-rect", "5", "5", "6", "6",
                       "--mesh-elems", "2", "2"], "0"),
        ("quad", ["--grid-points", "41", "41", "--mesh-rect", "0", "0", "0.5", "0.5",
                  "--mesh-elems", "4", "4"], "0.25")])
    def test_partial_cover_has_no_conservation_error(self, tmp_path, capsys,
                                                     method, extra, fraction):
        # the trapezoid reference integrates the whole grid, so it cannot
        # check a mesh that covers only part of it
        assert run_cli("transfer", "--method", method, "--analytic", "2pi",
                       "--grid-rect", "0", "0", "1", "1", *extra,
                       "-o", str(tmp_path / "x.rhs")) == 0
        line = [l for l in capsys.readouterr().out.splitlines()
                if l.startswith("conservation_rel_err")][0]
        assert line == (f"conservation_rel_err n/a (the mesh covers {fraction} "
                        f"of the grid area)")

    # flags the rest of the command line leaves unread
    UNREAD = [
        ("--grid-points", ["--field", "F", "--mesh", "M", "--grid-points", "11", "11"]),
        ("--grid-rect", ["--field", "F", "--mesh", "M",
                         "--grid-rect", "0", "0", "2", "2"]),
        ("--mesh-elems", ["--field", "F", "--mesh", "M", "--mesh-elems", "3", "3"]),
        ("--gauss", ["--method", "supermesh", "--field", "F", "--mesh", "M",
                     "--gauss", "2"]),
        ("--dump-supermesh", ["--method", "quad", "--field", "F", "--mesh", "M",
                              "--dump-supermesh", "P"]),
    ]

    def transfer_argv(self, inputs, tmp_path, argv):
        f, m = inputs
        paths = {"F": str(f), "M": str(m), "P": str(tmp_path / "poly.txt")}
        argv = [paths.get(a, a) for a in argv]
        if "--method" not in argv:
            argv = ["--method", "quad", *argv]
        return ["transfer", *argv, "-o", str(tmp_path / "x.rhs")]

    @pytest.mark.parametrize("flag, argv", UNREAD, ids=[f for f, _ in UNREAD])
    def test_unread_flag_is_usage_error(self, inputs, tmp_path, capsys, flag, argv):
        assert usage_error(*self.transfer_argv(inputs, tmp_path, argv))
        assert f"{flag} is not read with" in capsys.readouterr().err
        assert not (tmp_path / "x.rhs").exists()

    @pytest.mark.parametrize("message, argv", [
        ("--analytic needs --grid-points", ["--analytic", "2pi", "--mesh", "M"]),
        ("--mesh-rect needs --mesh-elems",
         ["--field", "F", "--mesh-rect", "0", "0", "1", "1"]),
    ])
    def test_missing_companion_is_usage_error(self, inputs, tmp_path, capsys,
                                              message, argv):
        assert usage_error(*self.transfer_argv(inputs, tmp_path, argv))
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--analytic", "2pi", "--grid-points", "11", "11",
         "--grid-rect", "0", "0", "1", "1", "--mesh", "M"],
        ["--field", "F", "--mesh-rect", "0", "0", "1", "1", "--mesh-elems", "3", "3"],
        ["--field", "F", "--mesh", "M", "--gauss", "2"],
        ["--method", "supermesh", "--field", "F", "--mesh", "M",
         "--dump-supermesh", "P"],
    ])
    def test_read_flags_still_run(self, inputs, tmp_path, argv):
        assert run_cli(*self.transfer_argv(inputs, tmp_path, argv)) == 0
        assert (tmp_path / "x.rhs").exists()
        assert ("--dump-supermesh" in argv) == (tmp_path / "poly.txt").exists()

    def test_gauss_defaults_to_3_for_quad(self, inputs, tmp_path):
        rhs = []
        for extra in ([], ["--gauss", "3"]):
            assert run_cli(*self.transfer_argv(
                inputs, tmp_path, ["--field", "F", "--mesh", "M", *extra])) == 0
            rhs.append(read_rhs(tmp_path / "x.rhs"))
        assert np.array_equal(*rhs)

    def test_domain_failure_exit_1(self, tmp_path, capsys):
        # grid covers only half the mesh: quadrature points fall outside
        f = tmp_path / "f.fdf"
        m = tmp_path / "m.qm1"
        run_cli("genfield", "--grid-rect", "0", "0", "0.5", "0.5",
                "--grid-points", "21", "21", "-o", str(f))
        run_cli("genmesh", "--mesh-rect", "0", "0", "1", "1",
                "--mesh-elems", "4", "4", "-o", str(m))
        code = run_cli("transfer", "--method", "quad", "--field", str(f),
                       "--mesh", str(m), "-o", str(tmp_path / "x.rhs"))
        assert code == 2  # domain error is an input problem


class TestStudies:
    def test_quad_sweep_csv(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("study", "quad-sweep", "--analytic", "4.5pi",
                       "--mesh-elems", "20", "20", "--sweep", "1", "2", "3",
                       "--repetitions", "3", "--output-dir", str(out)) == 0
        csv_path = out / "quad-sweep.csv"
        assert csv_path.exists()
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "sweep,method,error,time_s,integral"
        assert len(lines) == 4
        assert (out / "quad-sweep.dat").exists()

    def test_invalid_sweep_usage_error(self, tmp_path):
        code = run_cli("study", "quad-sweep", "--sweep", "-3",
                       "--repetitions", "3", "--output-dir", str(tmp_path))
        assert code == 2

    def test_href_and_table1(self, tmp_path):
        out = tmp_path / "out"
        for surrogate in ("smooth", "oscillatory"):
            assert run_cli("study", "href", "--surrogate", surrogate,
                           "--grid-points", "66", "16", "--sweep", "5",
                           "--repetitions", "3", "--output-dir", str(out)) == 0
        assert run_cli("study", "weak-scaling", "--sweep", "5", "7", "10",
                       "--repetitions", "3", "--output-dir", str(out)) == 0
        assert run_cli("study", "table1", "--output-dir", str(out)) == 0
        table = (out / "table1.md").read_text()
        assert "machine precision" in table
        assert "smooth" in table and "oscillatory" in table

    def test_table1_without_studies_fails(self, tmp_path):
        assert run_cli("study", "table1", "--output-dir", str(tmp_path)) == 2

    def test_interp_convergence_small(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli("study", "interp-convergence", "--sweep", "0.025",
                       "0.0125", "--repetitions", "3",
                       "--output-dir", str(out)) == 0
        text = (out / "interp-convergence.csv").read_text()
        assert "bspline:5" in text

    def test_quad_sweep_on_shifted_domain(self, tmp_path):
        # integral of sin(pi x) sin(pi y) over [0.25, 1.25]^2 is 2/pi^2
        out = tmp_path / "o"
        assert run_cli("study", "quad-sweep", "--analytic", "1pi",
                       "--domain", "0.25", "1.25", "0.25", "1.25", "--sweep", "8",
                       "--repetitions", "3", "--output-dir", str(out)) == 0
        row = StudyResult.read_csv(out / "quad-sweep.csv").rows[0]
        assert row.integral == pytest.approx(2.0 / np.pi ** 2, rel=1e-10)
        assert row.error < 1e-10


MEDIAN_TIME = harness._median_time
# (base sweep, other sweep) of a small, fast run of each study
SWEEPS = {"interp-convergence": ("0.1", "0.125"), "quad-sweep": ("2", "3"),
          "href": ("2", "3"), "weak-scaling": ("4", "5")}
BASE_ARGS = {
    "interp-convergence": ["--mesh-elems", "4", "4"],
    "quad-sweep": ["--interp", "bilinear", "--mesh-elems", "4", "4"],
    "href": [],
    "weak-scaling": [],
}
# studies whose base run samples on an 11x11 grid; a field file brings its own
SAMPLED = {"quad-sweep", "href"}
FLAG_VALUES = {
    "--domain": ["0.25", "1.25", "0.5", "1.75"],
    "--analytic": ["1pi"],
    "--surrogate": ["smooth"],
    "--mesh-elems": ["6", "6"],
    "--grid-points": ["13", "13"],
    "--interp": ["bspline:3"],
    "--repetitions": ["4"],
}
# the flags the study runners never read
REMOVED = {
    "interp-convergence": {"--surrogate", "--field", "--grid-points", "--interp"},
    "quad-sweep": {"--surrogate"},
    "href": {"--mesh-elems", "--interp"},
    "weak-scaling": {"--field", "--mesh-elems", "--grid-points"},
}


class TestStudyFlags:
    """Every flag a study accepts reaches its runner; the others are rejected."""

    @pytest.fixture
    def field_file(self, tmp_path):
        path = tmp_path / "f.fdf"
        assert run_cli("genfield", "--grid-rect", "0", "0", "1", "1",
                       "--grid-points", "11", "11", "--analytic", "3pi",
                       "-o", str(path)) == 0
        return str(path)

    def flag_args(self, name, flag, field_file):
        if flag == "--sweep":
            return [flag, SWEEPS[name][1]]
        return [flag, field_file] if flag == "--field" else [flag, *FLAG_VALUES[flag]]

    def observe(self, monkeypatch, out, name, argv):
        """Rows without times, and the repetitions each timed step got."""
        reps = []

        def record(fn, repetitions):
            reps.append(repetitions)
            return MEDIAN_TIME(fn, repetitions)

        monkeypatch.setattr(harness, "_median_time", record)
        grid = (["--grid-points", "11", "11"]
                if name in SAMPLED and "--field" not in argv else [])
        assert run_cli("study", name, "--sweep", SWEEPS[name][0],
                       "--repetitions", "3", *BASE_ARGS[name], *grid, *argv,
                       "--output-dir", str(out)) == 0
        (csv,) = out.glob("*.csv")
        rows = [(r.sweep, r.method, r.error, r.integral)
                for r in StudyResult.read_csv(csv).rows]
        return rows, reps

    @pytest.mark.parametrize("name, flag", [
        (name, flag) for name, study in STUDIES.items()
        for flag in study.flags + COMMON_FLAGS])
    def test_accepted_flag_changes_the_run(self, tmp_path, monkeypatch, field_file,
                                           name, flag):
        base = self.observe(monkeypatch, tmp_path / "base", name, [])
        changed = self.observe(monkeypatch, tmp_path / "flag", name,
                               self.flag_args(name, flag, field_file))
        assert changed != base

    def test_removed_flags_are_the_unread_ones(self):
        for name, study in STUDIES.items():
            assert set(STUDY_FLAGS) - set(study.flags) - set(COMMON_FLAGS) == REMOVED[name]

    @pytest.mark.parametrize("name, flag", [
        (name, flag) for name, flags in REMOVED.items() for flag in sorted(flags)])
    def test_removed_flag_is_usage_error(self, tmp_path, field_file, name, flag):
        assert usage_error("study", name, *self.flag_args(name, flag, field_file),
                           "--output-dir", str(tmp_path))

    @pytest.mark.parametrize("name, pair", [
        (name, pair) for name, study in STUDIES.items()
        for pair in itertools.combinations(
            [f for f in study.flags if f in SOURCE_FLAGS], 2)])
    def test_two_sources_is_usage_error(self, tmp_path, field_file, name, pair):
        argv = [a for flag in pair for a in self.flag_args(name, flag, field_file)]
        assert usage_error("study", name, *argv, "--output-dir", str(tmp_path))

    @pytest.mark.parametrize("name, flag", [
        (name, flag) for name in sorted(SAMPLED) for flag in ("--domain", "--grid-points")])
    def test_grid_flag_with_field_is_usage_error(self, tmp_path, capsys, field_file,
                                                 name, flag):
        argv = self.flag_args(name, flag, field_file)
        assert usage_error("study", name, "--field", field_file, *argv,
                           "--output-dir", str(tmp_path))
        assert f"{flag} is not read with --field" in capsys.readouterr().err
        # without the file the flag is read
        assert run_cli("study", name, *argv, *BASE_ARGS[name], "--sweep", SWEEPS[name][0],
                       "--repetitions", "3", "--output-dir", str(tmp_path)) == 0

    def test_domain_order_is_x0_x1_y0_y1(self):
        args = _build_parser().parse_args(
            ["study", "href", "--domain", "0", "2", "-1", "1"])
        assert _study_config(args).domain == (0.0, -1.0, 2.0, 1.0)
