"""Batch command-line front end.

Subcommands tie the generators, decompositions and certificates into
reproducible runs: fixed seed means byte-identical JSON/CSV artifacts
(timestamps go to a separate metadata file).  Exit status is 0 when every
requested certificate passes, 2 on a certificate failure (or a detour run in
which every line is exceptional, so that no line was checked), and 1 on usage
or resource errors, a flag value the library rejects among them.  Every field
of :class:`RunConfig` after ``command`` is a flag of every command, with the
field's type and default; flags may come before or after the command.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import warnings
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Callable, TextIO

import numpy as np

from . import certify, detour, fractals, qhyp
from .domains import DiskDomain, comb_domain, equilateral_triangle_domain
from .errors import DetourkitError
from .geometry import Line, scene_to_json
from .whitney import refine_for_qh, whitney_decompose

PRNG_NAME = "pcg64"  # numpy default_rng bit generator


@dataclass
class RunConfig:
    command: str
    scene: str = "gasket"
    seed: int = 0
    epsilon: float = 0.05
    p: float = 3.0
    levels: int = 5
    cutoff: int = 10
    lines: int = 20
    samples: int = 64
    min_radius: float = 0.05
    m: int = 4
    y0: float = 0.5
    what: str = "integrated-measure"
    fn: str = "x2+y"
    map: str = "z2-16/27z"
    grid: int = 256
    max_iter: int = 64
    qh_bound: float = 1.0 / 3.0
    output_dir: Path = field(default_factory=lambda: Path(
        os.environ.get("DETOURKIT_OUT", "detourkit-out")))


def _write(cfg: RunConfig, name: str,
           data: str | bytes | Callable[[TextIO], None]) -> Path:
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    path = cfg.output_dir / name
    if isinstance(data, bytes):
        path.write_bytes(data)
    elif isinstance(data, str):
        path.write_text(data)
    else:
        with path.open("w") as fh:
            data(fh)
    return path


def _meta(cfg: RunConfig, command: str) -> None:
    meta = {"command": command, "timestamp": time.time(), "prng": PRNG_NAME}
    _write(cfg, f"{command}_meta.json", json.dumps(meta))


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1)


def _domain_for(name: str):
    if name == "disk":
        return DiskDomain()
    if name == "triangle":
        return equilateral_triangle_domain()
    if name == "comb":
        return comb_domain()
    raise DetourkitError(f"unknown domain scene {name!r}")


def _fractal_for(cfg: RunConfig) -> fractals.FractalApproximation:
    if cfg.scene == "gasket":
        return fractals.gasket_levels(cfg.levels)
    if cfg.scene == "carpet":
        return fractals.carpet_levels(cfg.levels)
    if cfg.scene == "apollonian":
        seed = fractals.TangentCircleTriple.three_unit()
        return fractals.apollonian(seed, cfg.min_radius)
    raise DetourkitError(f"unknown fractal scene {cfg.scene!r}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_generate(cfg: RunConfig) -> int:
    if cfg.scene == "julia":
        counts = fractals.julia_raster(cfg.map, grid=cfg.grid,
                                       max_iter=cfg.max_iter)
        _write(cfg, "julia.pgm", fractals.raster_to_pgm(counts, cfg.max_iter))
        hist = np.bincount(counts.ravel(), minlength=cfg.max_iter + 1)
        rows = ["iterations,pixels"]
        rows += [f"{i},{int(n)}" for i, n in enumerate(hist)]
        _write(cfg, "julia_histogram.csv", "\n".join(rows) + "\n")
        return 0
    f = _fractal_for(cfg)
    _write(cfg, "scene.json",
           scene_to_json(f.outer_component().shape, fractals.HoleComponents(f)))
    return 0


def _cmd_whitney(cfg: RunConfig) -> int:
    domain = _domain_for(cfg.scene)
    w = whitney_decompose(domain, cfg.cutoff)
    _write(cfg, "cubes.csv", w.cubes_csv)
    _write(cfg, "edges.csv", w.edges_csv)
    summary = {
        "scene": cfg.scene, "cutoff": cfg.cutoff, "cubes": len(w),
        "uncovered_area": w.uncovered_area, "area": domain.area(),
    }
    _write(cfg, "whitney.json", _json_dump(summary))
    return 0


def _cmd_qhyp(cfg: RunConfig) -> int:
    domain = _domain_for(cfg.scene)
    w = refine_for_qh(whitney_decompose(domain, cfg.cutoff), cfg.qh_bound)
    solver = qhyp.solver_for(w)
    x0 = solver.default_basepoint()
    fit = solver.holder_fit(x0, max(cfg.samples, 16))
    out = {
        "scene": cfg.scene, "cutoff": cfg.cutoff, "cubes": len(w),
        "basepoint": [float(x0[0]), float(x0[1])],
        "fit": {
            "status": fit.status,
            "alpha": None if fit.fit is None else fit.fit.alpha,
            "c": None if fit.fit is None else fit.fit.c,
            "samples": None if fit.fit is None else fit.fit.samples,
            "max_residual": None if fit.fit is None else fit.fit.max_residual,
        },
    }
    shadows = None
    if cfg.samples >= 64:
        table = solver.shadows(x0, cfg.samples)
        lhs, rhs, ratio = solver.shadow_sum_check(table)
        out["shadow_sum"] = {"lhs": lhs, "rhs": rhs, "ratio": ratio,
                             "samples": cfg.samples}
        entries = {str(cid): {"samples": idx.tolist(),
                              "s": table.s(cid)}
                   for cid, idx in sorted(table.entries.items())}
        shadows = {"basepoint": list(table.basepoint),
                   "n_samples": table.n_samples, "cubes": entries}
    # to_boundary raises on a disconnected graph: it runs before the first
    # write, so that a failed run leaves no partial artifacts behind
    g = solver.to_boundary(x0, domain.boundary_points(max(cfg.samples, 16))[0])
    if shadows is not None:
        _write(cfg, "shadows.json", _json_dump(shadows))
    _write(cfg, "geodesic.csv", partial(qhyp.polyline_csv, g.polyline))
    _write(cfg, "qhyp.json", _json_dump(out))
    return 0


def _sample_lines(cfg: RunConfig, f) -> list[Line]:
    """Offsets uniform over the scene box; directions alternate between the
    two axis directions (two independent directions in the plane)."""
    rng = np.random.default_rng(cfg.seed)
    outer = f.outer_component()
    x0, y0, x1, y1 = outer.bbox()
    out = []
    for i in range(cfg.lines):
        if i % 2 == 0:
            out.append(Line.horizontal(float(rng.uniform(y0, y1))))
        else:
            out.append(Line.vertical(float(rng.uniform(x0, x1))))
    return out


def _cmd_detour(cfg: RunConfig) -> int:
    f = _fractal_for(cfg)
    scene = detour.FractalScene(f)
    lines = _sample_lines(cfg, f)
    entries = []
    all_ok = True
    checked = 0
    first_path = None
    for i, line in enumerate(lines):
        entry: dict = {
            "id": i,
            "direction": "horizontal" if line.direction[1] == 0.0 else "vertical",
            "offset": line.offset, "epsilon": cfg.epsilon,
        }
        try:
            rep = detour.detour_path(line, f, cfg.epsilon, scene=scene)
        except DetourkitError as exc:
            entry["status"] = "exceptional"
            entry["reason"] = str(exc)
            entries.append(entry)
            continue
        checked += 1
        entry["status"] = rep.status
        entry["level"] = rep.level
        entry["touched"] = rep.touched_count
        entry["hausdorff_margin"] = rep.hausdorff_margin
        if rep.ok:
            ver = detour.verify_detour(rep.path, f, scene=scene)
            entry["verified"] = ver.all_ok
            entry["touched_ids"] = sorted(rep.path.touched)
            entry["coverage_margin"] = ver.coverage_margin
            all_ok &= ver.all_ok
            if first_path is None:
                first_path = rep.path
        else:
            entry["violations"] = rep.violations
            all_ok = False
        entries.append(entry)
    _write(cfg, "detour.json", _json_dump({
        "scene": cfg.scene, "epsilon": cfg.epsilon, "seed": cfg.seed,
        "lines": entries}))
    rows = ["id,status,offset,touched,hausdorff_margin"]
    for e in entries:
        margin = repr(e["hausdorff_margin"]) if "hausdorff_margin" in e else ""
        rows.append(f"{e['id']},{e['status']},{e['offset']!r},"
                    f"{e.get('touched', '')},{margin}")
    _write(cfg, "detour.csv", "\n".join(rows) + "\n")
    if first_path is not None:
        _write(cfg, "detour.svg", _detour_svg(first_path, scene))
    return 0 if all_ok and checked else 2


def _detour_svg(path: detour.DetourPath, scene: detour.FractalScene) -> str:
    """Overlay of the line, its corridor and the constructed path."""
    x0, y0, x1, y1 = scene.outer.bbox()
    pad = 0.05 * max(x1 - x0, y1 - y0)
    x0 -= pad
    y0 -= pad
    x1 += pad
    y1 += pad
    scale = 640.0 / max(x1 - x0, y1 - y0)

    def pt(p):
        return f"{(p[0] - x0) * scale:.2f},{(y1 - p[1]) * scale:.2f}"

    def polyline(pts, color, width, dash=""):
        s = " ".join(pt(p) for p in pts)
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        return (f'<polyline points="{s}" fill="none" stroke="{color}" '
                f'stroke-width="{width}"{extra}/>')

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="640" '
             f'height="{int((y1 - y0) * scale)}">']
    line = path.line
    span = 2.0 * max(x1 - x0, y1 - y0)
    tmid = float(line.project(np.array([[(x0 + x1) / 2, (y0 + y1) / 2]]))[0])
    base = line.point_at(np.array([tmid - span, tmid + span]))
    nx, ny = line.normal
    for s in (-1.0, 1.0):
        off = np.array([nx, ny]) * path.epsilon * s
        parts.append(polyline(base + off, "#bbbbbb", 1, dash="4 3"))
    parts.append(polyline(base, "#555555", 1))
    # only gasket and carpet scenes have paths: their components are polygons
    for k in sorted(path.touched):
        v = scene.holes.vertices[k - 1] if k else scene.outer.shape.vertices
        parts.append(polyline(np.vstack([v, v[:1]]), "#3366cc", 1))
    parts.append(polyline(path.polyline, "#cc2222", 2))
    parts.append("</svg>")
    return "\n".join(parts)


def _cmd_certify(cfg: RunConfig) -> int:
    f = _fractal_for(cfg)
    if cfg.what == "integrated-measure":
        rep = certify.integrated_measure_bound(f, "horizontal", cfg.m)
    elif cfg.what == "measure-zero":
        rng = np.random.default_rng(cfg.seed)
        x0, y0, x1, y1 = f.outer_component().bbox()
        line = Line.horizontal(float(rng.uniform(y0, y1)))
        rep = certify.measure_zero_bound(f, line, cfg.m)
    elif cfg.what == "removability":
        fn = certify.function_of(cfg.fn, p=cfg.p)
        rep = certify.removability_certificate(f, fn, cfg.p, cfg.m)
    else:
        raise DetourkitError(f"unknown certificate {cfg.what!r}")
    _write(cfg, f"certificate_{cfg.what}.json", _json_dump(rep.to_dict()))
    rows = ["name,value,bound,tail,pass"]
    rows.append(f"{rep.name},{rep.value!r},{rep.bound!r},"
                f"{rep.converged_tail!r},{rep.passed}")
    _write(cfg, f"certificate_{cfg.what}.csv", "\n".join(rows) + "\n")
    return 0 if rep.passed else 2


def _cmd_carpet(cfg: RunConfig) -> int:
    rep = certify.carpet_counterexample(cfg.p, cfg.m, cfg.y0)
    out = {
        "p": cfg.p, "m": cfg.m, "y0": cfg.y0,
        "energies": rep.energies, "deltas": rep.energy_deltas,
        "delta_ratios": rep.delta_ratios, "ring_energy": rep.ring_energy,
        "image_measure": rep.image_measure, "image_series": rep.image_series,
        "pass": rep.passed,
    }
    _write(cfg, "carpet.json", _json_dump(out))
    rows = ["level,energy,delta,image"]
    for i in range(len(rep.energies)):
        rows.append(f"{i + 1},{rep.energies[i]!r},{rep.energy_deltas[i]!r},"
                    f"{rep.image_series[i]!r}")
    _write(cfg, "carpet.csv", "\n".join(rows) + "\n")
    return 0 if rep.passed else 2


def _cmd_report(cfg: RunConfig) -> int:
    rows = ["file,name,value,bound,pass"]
    worst = 0
    for path in sorted(cfg.output_dir.glob("*.json")):
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError:
            continue
        if not isinstance(data, dict) or "pass" not in data:
            continue
        rows.append(f"{path.name},{data.get('name', '')},"
                    f"{data.get('value', '')},{data.get('bound', '')},"
                    f"{data['pass']}")
        if not data["pass"]:
            worst = 2
    _write(cfg, "report.csv", "\n".join(rows) + "\n")
    return worst


_COMMANDS = {
    "generate": _cmd_generate,
    "whitney": _cmd_whitney,
    "qhyp": _cmd_qhyp,
    "detour": _cmd_detour,
    "certify": _cmd_certify,
    "carpet": _cmd_carpet,
    "report": _cmd_report,
}


def run(cfg: RunConfig) -> int:
    """Execute one command; returns the process exit status."""
    handler = _COMMANDS.get(cfg.command)
    if handler is None:
        raise DetourkitError(f"unknown command {cfg.command!r}")
    status = handler(cfg)
    _meta(cfg, cfg.command)
    return status


def build_parser() -> argparse.ArgumentParser:
    """The ``command`` positional and one ``--field-name`` flag per
    :class:`RunConfig` field after it, typed and defaulted by the field's
    default value."""
    ap = argparse.ArgumentParser(prog="detourkit")
    ap.add_argument("command", choices=list(_COMMANDS))
    defaults = RunConfig(command="")
    for f in fields(RunConfig)[1:]:
        default = getattr(defaults, f.name)
        ap.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                        type=type(default), default=default)
    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    cfg = RunConfig(**vars(ns))
    with warnings.catch_warnings(record=True) as caught:
        try:
            status, error = run(cfg), None
        # the library's own argument checks raise ValueError: a flag value
        # they reject is a usage error like any other
        except (DetourkitError, ValueError) as exc:
            status, error = 1, exc
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    # the warnings go on to the warnings machinery, so that a caller who
    # records them still gets them; the terminal shows each as one line,
    # and none after an error line, which already says what went wrong
    shown = warnings.formatwarning
    warnings.formatwarning = _warning_line if error is None else _no_line
    try:
        for w in caught:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    finally:
        warnings.formatwarning = shown
    return status


def _warning_line(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


def _no_line(message, category, filename, lineno, line=None) -> str:
    return ""


if __name__ == "__main__":
    sys.exit(main())
