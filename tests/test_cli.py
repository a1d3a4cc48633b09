import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import detourkit
from detourkit.cli import RunConfig, build_parser, main


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

    def test_qhyp_without_cubes_is_an_error(self, tmp_path, capsys):
        # cutoff 0 accepts no cube of the unit disk
        with pytest.warns(UserWarning, match="no cube accepted"):
            assert run(tmp_path, "qhyp", "--scene", "disk", "--cutoff", "0") == 1
        assert capsys.readouterr().err.startswith(
            "error: no accepted cube at cutoff 0")
        assert list(tmp_path.iterdir()) == []


class TestWarningLines:
    """What a terminal shows: pytest records the warnings of in-process
    runs, so these run the command line in a child process."""

    @staticmethod
    def cli(tmp_path, *args):
        src = str(Path(detourkit.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        return subprocess.run(
            [sys.executable, "-m", "detourkit.cli", *args, "--output-dir", str(tmp_path)],
            capture_output=True, text=True, env=env, check=False)

    def test_empty_sweep_warns_in_one_line(self, tmp_path):
        done = self.cli(tmp_path, "whitney", "--scene", "disk", "--cutoff", "0")
        assert done.returncode == 0
        assert done.stderr == ("warning: no cube accepted; the domain is empty or "
                               "thinner than this cutoff resolves\n")
        assert json.loads((tmp_path / "whitney.json").read_text())["cubes"] == 0
        assert (tmp_path / "cubes.csv").read_text().count("\n") == 1

    def test_failed_command_prints_only_its_error(self, tmp_path):
        done = self.cli(tmp_path, "qhyp", "--scene", "disk", "--cutoff", "0")
        assert done.returncode == 1
        assert done.stderr == "error: no accepted cube at cutoff 0; increase the cutoff\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args, message", [
        ("detour --scene gasket --levels 3 --epsilon -1", "epsilon must be positive"),
        ("generate --scene gasket --levels -1", "level must be non-negative"),
        ("generate --scene julia --map bogus",
         "unknown map 'bogus'; expected one of ('z2+lambda/z2', 'z2-16/27z')"),
        ("generate --scene apollonian --min-radius 0", "min_radius must be positive"),
        ("qhyp --scene disk --cutoff 6 --qh-bound 0.5", "qh_bound must be in (0, 1/3]"),
        ("carpet --p 9 --m 3", "p must lie in [2, 8]"),
        ("carpet --p 3 --m 0", "m must be positive"),
        ("certify --scene gasket --levels 4 --what removability --p 2 --m 2",
         "the removability certificate needs p > 2"),
        ("certify --scene gasket --levels 4 --what measure-zero --m 4",
         "need generated levels beyond m for the bound"),
    ])
    def test_rejected_flag_value_prints_only_its_error(self, tmp_path, args, message):
        # the library's argument checks, not the parser, reject these values
        done = self.cli(tmp_path, *args.split())
        assert done.returncode == 1
        assert done.stderr == f"error: {message}\n"
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
        "detour.svg":
            "1709a3b7a3dcf2c0d20debe37020c56fc51e44388751eccc60d4f55d1d34c42b",
    }

    # the failed lines of this carpet run list their violations in the
    # order detour_path meets them along the line
    CARPET_DETOUR_DIGEST = \
        "4edff052cb00c3f9c701c871db459f6309d5d501a02226883658bbb998c037c4"

    # removability reports of gasket runs, keyed by (--levels, --m); with m
    # above the generated levels the deeper per-level sums are 0
    REMOVABILITY_DIGESTS = {
        ("8", "6"):
            "15999d41672b8b7a9530daae92a7a657dc81e2843ac56e798bbba65dcc6bd9f5",
        ("3", "5"):
            "1e5c263844ae66fdfab8b4d5a5d6463b8575dc0e9a93d2ad5d45e30ecb4c4408",
    }

    def test_gasket_removability_digests(self, tmp_path):
        for (levels, m), digest in self.REMOVABILITY_DIGESTS.items():
            assert run(tmp_path, "certify", "--scene", "gasket", "--levels",
                       levels, "--what", "removability", "--m", m) == 0
            blob = (tmp_path / "certificate_removability.json").read_bytes()
            assert hashlib.sha256(blob).hexdigest() == digest, (levels, m)

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


class TestGoldenDomainArtifacts:
    # SHA-256 of the artifacts of fixed domain-side runs; a change to the
    # polygon oracles, the Whitney sweep or the qh refinement must leave
    # these bytes as they are
    DIGESTS = {
        ("whitney", "--scene", "comb", "--cutoff", "9"): {
            "cubes.csv":
                "06499cc0f6d36de7d323f0ceb044819c7505cdcc5b43a7a77439ae8bc5c57d26",
            "edges.csv":
                "9e33bf3c23d14d3fdf434ca06439845bad552243b40a383acb021288d4bcd845",
        },
        ("qhyp", "--scene", "triangle", "--cutoff", "9", "--samples", "64"): {
            "qhyp.json":
                "b047f86cb49b9e8a533b0f832d47fb922833e9319c1be456be14abe9c980254c",
            "shadows.json":
                "abf38bbeaea12ed8e7ff465a3149425be6c56a317559dfbdb404c5578b061a41",
            "geodesic.csv":
                "8834a6d72778519801257263ec375c3f9889a9c8a3e70b29fa1fbd7654f021fb",
        },
    }

    def test_domain_digests(self, tmp_path):
        for args, digests in self.DIGESTS.items():
            out = tmp_path / args[0]
            assert run(out, *args) == 0
            for name, digest in digests.items():
                assert hashlib.sha256((out / name).read_bytes()).hexdigest() \
                    == digest, (args[0], name)


class TestGoldenCommandArtifacts:
    # SHA-256 of the artifacts of fixed generate, whitney, qhyp, carpet and
    # removability runs; the array passes behind these commands must leave
    # these bytes as they are
    DIGESTS = {
        ("generate", "--scene", "gasket", "--levels", "8"): {
            "scene.json":
                "09b5d0b1d542e95a0080b024946498de728c8d24b9df3481157f712371d00b1c",
        },
        ("generate", "--scene", "apollonian", "--min-radius", "0.02"): {
            "scene.json":
                "98117f72534f87d1de9e51c4aaddb1979cf7ec812248e6ea25164fa179ab8a76",
        },
        ("generate", "--scene", "carpet", "--levels", "4"): {
            "scene.json":
                "b75cabb2bf965530f9b893f1752a1511e72a597bbbcf8c1994ce5daa6d3dbeea",
        },
        ("generate", "--scene", "julia", "--grid", "256"): {
            "julia.pgm":
                "7f7af5297fbd763ccd9300dd31c2e4944fc8e96cb007769ffe13c8b88dc34dfe",
            "julia_histogram.csv":
                "93c65e37c016f61f379b48232d5ee43e0ff121e5346ae625a894557b76385511",
        },
        ("generate", "--scene", "julia", "--map", "z2-16/27z", "--grid", "64"): {
            "julia.pgm":
                "aa88b310f4bd15a24f5187e82c12bbeb0b61f81357f247d51fad6101b1f7d980",
            "julia_histogram.csv":
                "153b40d06f988d9ea351d295afccaaec42cdd97fdd7f31c3661bcfe5dd41b46b",
        },
        ("whitney", "--scene", "disk", "--cutoff", "9"): {
            "cubes.csv":
                "a7f9dcb19b0957c1dd5f20dacdf91d7595aeb4f40ff967447768614e201199d5",
            "edges.csv":
                "4c8aeac09e4dcd7ee007aae9d8663f586debbd737bce70e724025008a7d85e61",
        },
        ("qhyp", "--scene", "disk", "--cutoff", "9", "--samples", "128"): {
            "shadows.json":
                "a8cef1217e8c5efd772adf43e2f77ecc4e23c6a3c8a1ca1c512c35a38a0fa5fd",
            "geodesic.csv":
                "4e5d8018c8fc528c39a14023804085ff6ca4ba012b8343d889cbe6604bf85c15",
        },
        ("carpet", "--p", "2", "--m", "7"): {
            "carpet.json":
                "3857d71d851f0613e55bebdbc4c2b23373dbcc792e469acbcb68b106f4d51e06",
            "carpet.csv":
                "5e54ab2e3d76d42c3681bc7a5a05768d811efeefe920db052992300fe84c3baa",
        },
        ("certify", "--what", "removability", "--scene", "apollonian",
         "--min-radius", "0.05", "--m", "3"): {
            "certificate_removability.json":
                "6fef9806d50de225f500ac86451322f1e4b2db6800b9105f85d0db9e7a03e431",
        },
        ("certify", "--what", "removability", "--scene", "carpet",
         "--levels", "4", "--m", "3"): {
            "certificate_removability.json":
                "a713ce25c04c51aa75e0f09bdcbeda0bdfa6400c301b82c3cbc389968c67d4b6",
        },
    }

    def test_command_digests(self, tmp_path):
        for i, (args, digests) in enumerate(self.DIGESTS.items()):
            out = tmp_path / str(i)
            assert run(out, *args) == 0, args
            for name, digest in digests.items():
                assert hashlib.sha256((out / name).read_bytes()).hexdigest() \
                    == digest, (args, name)


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
        # polygons, so every line is recorded as exceptional; with no line
        # checked the run certifies nothing and exits 2
        assert run(tmp_path, "detour", "--scene", "apollonian",
                   "--epsilon", "0.9", "--lines", "4") == 2
        lines = json.loads((tmp_path / "detour.json").read_text())["lines"]
        assert [e["status"] for e in lines] == ["exceptional"] * 4
        assert all("no polygonal solids" in e["reason"] for e in lines)

    def test_exceptional_detour_csv_cells_empty(self, tmp_path):
        # an exceptional line has no touched count and no margin: both
        # cells stay empty
        assert run(tmp_path, "detour", "--scene", "apollonian", "--min-radius",
                   "0.05", "--epsilon", "0.9", "--lines", "2", "--seed", "1") == 2
        rows = (tmp_path / "detour.csv").read_text().splitlines()
        assert rows[1] == "0,exceptional,0.6282943914019472,,"
        assert all(r.endswith(",,") and "'" not in r for r in rows[1:])

    def test_certificate_failure_exit_two(self, tmp_path):
        # carpet detour paths cannot satisfy the conditions, so the command
        # reports the failures and exits 2
        code = run(tmp_path, "detour", "--scene", "carpet", "--levels", "4",
                   "--epsilon", "0.2", "--lines", "4", "--seed", "1")
        assert code == 2
        data = json.loads((tmp_path / "detour.json").read_text())
        assert any(e["status"] == "failed" for e in data["lines"])


class TestParser:
    def test_flags_types_and_defaults(self, monkeypatch):
        monkeypatch.delenv("DETOURKIT_OUT", raising=False)
        assert vars(build_parser().parse_args(["whitney"])) == {
            "command": "whitney", "scene": "gasket", "seed": 0,
            "epsilon": 0.05, "p": 3.0, "levels": 5, "cutoff": 10,
            "lines": 20, "samples": 64, "min_radius": 0.05, "m": 4,
            "y0": 0.5, "what": "integrated-measure", "fn": "x2+y",
            "map": "z2-16/27z", "grid": 256, "max_iter": 64,
            "qh_bound": 1.0 / 3.0, "output_dir": Path("detourkit-out")}

    def test_every_flag_parses(self):
        argv = ["qhyp", "--scene", "disk", "--seed", "3", "--epsilon", "0.1",
                "--p", "4", "--levels", "6", "--cutoff", "7", "--lines", "8",
                "--samples", "9", "--min-radius", "0.2", "--m", "2",
                "--y0", "0.25", "--what", "removability", "--fn", "x",
                "--map", "z2+lambda/z2", "--grid", "32", "--max-iter", "5",
                "--qh-bound", "0.25", "--output-dir", "o"]
        cfg = RunConfig(**vars(build_parser().parse_args(argv)))
        assert cfg == RunConfig("qhyp", "disk", 3, 0.1, 4.0, 6, 7, 8, 9, 0.2,
                                2, 0.25, "removability", "x", "z2+lambda/z2",
                                32, 5, 0.25, Path("o"))
        assert all(type(getattr(cfg, f)) is type(getattr(RunConfig(""), f))
                   for f in ("seed", "epsilon", "p", "min_radius", "qh_bound"))

    def test_flags_before_the_command(self):
        ns = build_parser().parse_args(["--cutoff", "7", "whitney", "--scene", "disk"])
        assert (ns.command, ns.cutoff, ns.scene) == ("whitney", 7, "disk")
