import hashlib
import json

from detourkit.cli import main


def run(tmp_path, *args):
    return main([*args, "--output-dir", str(tmp_path)])


class TestGenerate:
    def test_gasket_scene_json(self, tmp_path):
        assert run(tmp_path, "generate", "--scene", "gasket",
                   "--levels", "3") == 0
        data = json.loads((tmp_path / "scene.json").read_text())
        comps = data["components"]
        assert comps[0]["index"] == 0 and not comps[0]["bounded"]
        assert len(comps) == 1 + 13
        assert all("level" in c for c in comps)

    def test_apollonian_scene(self, tmp_path):
        assert run(tmp_path, "generate", "--scene", "apollonian",
                   "--min-radius", "0.05") == 0
        data = json.loads((tmp_path / "scene.json").read_text())
        assert len(data["components"]) > 4

    def test_julia_outputs(self, tmp_path):
        assert run(tmp_path, "generate", "--scene", "julia", "--grid", "32",
                   "--max-iter", "16") == 0
        blob = (tmp_path / "julia.pgm").read_bytes()
        assert blob.startswith(b"P5\n32 32\n")
        table = (tmp_path / "julia_histogram.csv").read_text().splitlines()
        assert table[0] == "iterations,pixels"
        assert sum(int(r.split(",")[1]) for r in table[1:]) == 32 * 32

    def test_unknown_scene_exit_one(self, tmp_path):
        assert run(tmp_path, "generate", "--scene", "nonsense") == 1


class TestWhitneyAndQhyp:
    def test_whitney_outputs(self, tmp_path):
        assert run(tmp_path, "whitney", "--scene", "disk", "--cutoff", "7") == 0
        cubes = (tmp_path / "cubes.csv").read_text().splitlines()
        assert cubes[0] == "level,ix,iy,side,dist_lo,dist_hi"
        summary = json.loads((tmp_path / "whitney.json").read_text())
        assert summary["cubes"] == len(cubes) - 1

    def test_qhyp_outputs(self, tmp_path):
        assert run(tmp_path, "qhyp", "--scene", "disk", "--cutoff", "8",
                   "--samples", "64") == 0
        data = json.loads((tmp_path / "qhyp.json").read_text())
        assert data["fit"]["status"] == "ok"
        assert "shadow_sum" in data
        geo = (tmp_path / "geodesic.csv").read_text().splitlines()
        assert geo[0] == "x,y"

    def test_qhyp_failure_leaves_no_artifacts(self, tmp_path):
        # the comb's graph is disconnected at cutoff 9, so the boundary
        # geodesic fails after the fit and the shadows have succeeded
        assert run(tmp_path, "qhyp", "--scene", "comb", "--cutoff", "9") == 1
        assert list(tmp_path.iterdir()) == []


class TestDetourCommand:
    def test_end_to_end(self, tmp_path):
        code = run(tmp_path, "detour", "--scene", "gasket", "--levels", "5",
                   "--epsilon", "0.1", "--lines", "8", "--seed", "7")
        assert code == 0
        data = json.loads((tmp_path / "detour.json").read_text())
        ok = [e for e in data["lines"] if e["status"] == "ok"]
        assert all(e["verified"] for e in ok)
        assert (tmp_path / "detour.svg").exists()
        assert (tmp_path / "detour.csv").exists()

    def test_deterministic_outputs(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert main(["detour", "--scene", "gasket", "--levels", "4",
                         "--epsilon", "0.1", "--lines", "4", "--seed", "3",
                         "--output-dir", str(out)]) == 0
        assert (a / "detour.json").read_bytes() == (b / "detour.json").read_bytes()
        assert (a / "detour.csv").read_bytes() == (b / "detour.csv").read_bytes()


class TestGoldenArtifacts:
    # SHA-256 of the artifacts of a fixed-seed gasket-8 run; a change to the
    # fractal-side algorithms must leave these bytes as they are
    DIGESTS = {
        "detour.json":
            "bc1d203af3c4ebd27bf88de598075a6bc49bd5f4c1d7e87a36eba2c3c72fa6ff",
        "certificate_measure-zero.json":
            "fcc41aabae41ace2ccd8469906c765253431aa5584ffc974c0b1f8204d8d5cb9",
    }

    # the failed lines of this carpet run list their violations in the
    # order detour_path meets them along the line
    CARPET_DETOUR_DIGEST = \
        "4edff052cb00c3f9c701c871db459f6309d5d501a02226883658bbb998c037c4"

    def test_carpet4_violation_order(self, tmp_path):
        assert run(tmp_path, "detour", "--scene", "carpet", "--levels", "4",
                   "--epsilon", "0.2", "--lines", "4", "--seed", "1") == 2
        assert hashlib.sha256((tmp_path / "detour.json").read_bytes()).hexdigest() \
            == self.CARPET_DETOUR_DIGEST

    def test_gasket8_digests(self, tmp_path):
        assert run(tmp_path, "detour", "--scene", "gasket", "--levels", "8",
                   "--epsilon", "0.01", "--lines", "6", "--seed", "11") == 0
        assert run(tmp_path, "certify", "--scene", "gasket", "--levels", "8",
                   "--what", "measure-zero", "--m", "4", "--seed", "11") == 0
        for name, digest in self.DIGESTS.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() \
                == digest, name


class TestCertifyAndCarpet:
    def test_integrated_measure_value(self, tmp_path):
        assert run(tmp_path, "certify", "--scene", "gasket", "--levels", "10",
                   "--what", "integrated-measure", "--m", "4") == 0
        data = json.loads(
            (tmp_path / "certificate_integrated-measure.json").read_text())
        assert data["exact"] == "243/256"
        assert data["pass"] is True

    def test_removability_certificate(self, tmp_path):
        assert run(tmp_path, "certify", "--scene", "gasket", "--levels", "5",
                   "--what", "removability", "--m", "3", "--p", "3",
                   "--fn", "x") == 0

    def test_carpet_command(self, tmp_path):
        assert run(tmp_path, "carpet", "--p", "2", "--m", "5",
                   "--y0", "0.5") == 0
        data = json.loads((tmp_path / "carpet.json").read_text())
        assert data["pass"] is True
        assert len(data["energies"]) == 5

    def test_report_aggregates(self, tmp_path):
        run(tmp_path, "certify", "--scene", "gasket", "--levels", "8",
            "--what", "integrated-measure", "--m", "2")
        assert run(tmp_path, "report") == 0
        rows = (tmp_path / "report.csv").read_text().splitlines()
        assert rows[0] == "file,name,value,bound,pass"
        assert len(rows) >= 2

    def test_usage_error_exit_one(self, tmp_path):
        assert main(["bogus-command"]) == 1

    def test_packing_measure_zero_is_a_usage_error(self, tmp_path, capsys):
        # a packing has no polygonal solids for the vertex check
        assert run(tmp_path, "certify", "--scene", "apollonian",
                   "--what", "measure-zero") == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_packing_detour_lines_exceptional(self, tmp_path):
        # epsilon 0.9 resolves at a packing level, whose solids are not
        # polygons, so every line is recorded as exceptional
        assert run(tmp_path, "detour", "--scene", "apollonian",
                   "--epsilon", "0.9", "--lines", "4") == 0
        lines = json.loads((tmp_path / "detour.json").read_text())["lines"]
        assert [e["status"] for e in lines] == ["exceptional"] * 4
        assert all("no polygonal solids" in e["reason"] for e in lines)

    def test_certificate_failure_exit_two(self, tmp_path):
        # carpet detour paths cannot satisfy the conditions, so the command
        # reports the failures and exits 2
        code = run(tmp_path, "detour", "--scene", "carpet", "--levels", "4",
                   "--epsilon", "0.2", "--lines", "4", "--seed", "1")
        assert code == 2
        data = json.loads((tmp_path / "detour.json").read_text())
        assert any(e["status"] == "failed" for e in data["lines"])
