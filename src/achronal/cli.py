"""Config-driven command-line checks.

Every subcommand reads a JSON experiment config (strictly validated:
unknown keys are rejected), runs one family of checks, and writes next to
its outputs the resolved config, a deterministic results.json, CSV tables
where applicable, and a run manifest with timings, pass/fail flags and,
for commands that factorize the current, the backend's rank, landmark
counts and spectral tail.

The factorization key holds build_fast's `tol` and, as `landmarks`, the
largest landmark count a build may use: it starts below that and grows
only while its spectrum checks fail.

Exit codes: 0 all checks pass, 1 a check failed, 2 configuration error
(including a kernel the configured factorization cannot truncate and a group
element that moves the packet's support off the grid).
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import __version__
from . import io as achio
from .causal_logic import (BallInPlane, GraphPatch,
                           completion_equals_determinacy_check,
                           rcl_well_defined_check)
from .currents import (CurrentSpec, FactorizationError, build_fast, covariance_pair,
                       eval_direct)
from .grids import MomentumGrid
from .kernels import (CausalKernel, TensorKernel, gram_extreme_eigenvalues,
                      parse_kernel_spec)
from .localization import (BallMask, Region, covariance_check,
                           flux_invariance_report, probability)
from .minkowski import PoincareElement, boost_z, rotation
from .surfaces import ConeSurface, FlatSurface, surface_from_descriptor
from .wavepacket import SupportEscapeError, make_packet


class ConfigError(ValueError):
    pass


_COMMON_KEYS = {
    "mass": 1.0,
    "grid": {"n": 32, "p_max": 4.0},
    "packet": {"kind": "mollified_gaussian", "params": {}, "margin": None},
    "kernel": "basic:r=1.5",
    "factorization": {"tol": 1e-6, "landmarks": 3000},
    "window_half_nodes": None,
    "refine": 1,
    "seed": 0,
    "normalization_mode": "raw",
    "tolerances": {},
}

_COMMAND_KEYS = {
    "normalize": {"refined_grid_n": None},
    "invariance": {"surfaces": [{"type": "flat", "t0": 0.0}],
                   "flatten_sweep": None},
    "covariance": {"group": {}, "regions": [], "current_points": 4},
    "kernel-pd": {"gram": {"points": 200, "ball_radius_over_mass": 3.0}},
    "logic": {"logic": {"radius": 4.0, "gamma": 0.5, "samples": 10000,
                        "eps_shell": 1e-3, "band": 2e-2}},
    "field-dump": {"times": [0.0], "compare_points": 8},
}

_DEFAULT_TOLERANCES = {
    "normalization": 1e-2,
    "invariance": 2e-2,
    "covariance_boost": 3e-2,
    "covariance_rotation": 1e-3,
    "covariance_translation": 1e-3,
    "current_covariance": 3e-2,
    "gram_min_eigenvalue": -1e-10,
    "oracle": 1e-6,
    "logic_band": 2e-2,
}


def _merge_defaults(defaults, given, path=""):
    if isinstance(defaults, dict):
        if not isinstance(given, dict):
            raise ConfigError(f"{path or 'config'}: expected an object")
        unknown = set(given) - set(defaults)
        if unknown:
            raise ConfigError(f"{path or 'config'}: unknown keys {sorted(unknown)}")
        out = {}
        for key, dval in defaults.items():
            sub = f"{path}.{key}" if path else key
            if key in given:
                if isinstance(dval, dict) and not key in ("params", "tolerances",
                                                          "group", "flatten_sweep"):
                    out[key] = _merge_defaults(dval, given[key], sub)
                else:
                    out[key] = given[key]
            else:
                out[key] = dval
        return out
    return given


def load_config(path, command: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}")
    defaults = dict(_COMMON_KEYS)
    defaults.update(_COMMAND_KEYS[command])
    cfg = _merge_defaults(defaults, raw)
    tol = dict(_DEFAULT_TOLERANCES)
    tol.update(cfg["tolerances"] or {})
    cfg["tolerances"] = tol
    return cfg


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]


def _build_state(cfg, n=None):
    """Grid (of n nodes per axis if given), packet and kernel of the config."""
    grid = MomentumGrid(int(n or cfg["grid"]["n"]), float(cfg["grid"]["p_max"]))
    pk = cfg["packet"]
    packet = make_packet(grid, float(cfg["mass"]), pk["kind"], margin=pk["margin"],
                         **(pk["params"] or {}))
    kernel = parse_kernel_spec(cfg["kernel"], float(cfg["mass"]))
    return grid, packet, kernel


def _make_backend(spec, cfg):
    fac = cfg["factorization"]
    return build_fast(spec, tol=float(fac["tol"]), n_landmarks=int(fac["landmarks"]),
                      seed=int(cfg["seed"]))


def _quad_for_probability(cfg):
    return {"window_half": cfg["window_half_nodes"], "refine": int(cfg["refine"])}


def _emit(outdir: Path, cfg: dict, command: str, checks, extra=None,
          timings=None, csv_rows=None, csv_name="report.csv", backend=None):
    outdir.mkdir(parents=True, exist_ok=True)
    resolved = dict(cfg)
    chash = _config_hash(resolved)
    achio.write_json(outdir / "resolved_config.json", resolved)
    results = {"command": command, "config_hash": chash,
               "artifact_version": __version__, "checks": checks}
    if extra:
        results.update(extra)
    achio.write_json(outdir / "results.json", results)
    if csv_rows:
        with open(outdir / csv_name, "w", newline="") as fh:
            writer = csv.writer(fh)
            for row in csv_rows:
                writer.writerow(row)
    manifest = {"command": command, "config_hash": chash,
                "artifact_version": __version__,
                "pass": {c["name"]: c["pass"] for c in checks},
                "timings_s": timings or {}}
    if backend is not None:
        manifest["backend"] = {
            "rank": backend.rank, "spectral_tail": backend.spectral_tail,
            **{k: backend.meta.get(k)
               for k in ("n_landmarks", "landmark_attempts", "tail_certified")}}
    achio.write_json(outdir / "manifest.json", manifest)
    ok = all(c["pass"] for c in checks)
    for c in checks:
        click.echo(f"[{'PASS' if c['pass'] else 'FAIL'}] {c['name']}: "
                   f"{c['value']:.3e} (tol {c['tolerance']:.3e})")
    return 0 if ok else 1


def _check(name, value, tolerance, below=True):
    good = value <= tolerance if below else value >= tolerance
    return {"name": name, "value": float(value), "tolerance": float(tolerance),
            "pass": bool(good)}


def _common_options(fn):
    """Shared options and exit handling for a command body fn(cfg, outdir).

    The config is loaded for the running command; a ConfigError anywhere,
    a FactorizationError from a kernel whose spectrum the configured
    factorization cannot reach, or a SupportEscapeError from a group element
    that moves the packet off the grid, exits 2; otherwise the process exits
    with the body's return code.
    """
    @functools.wraps(fn)
    def run(config_path, seed, outdir, tolerance_scale):
        try:
            cfg = _prepare(config_path, click.get_current_context().command.name,
                           seed, tolerance_scale)
            code = fn(cfg, Path(outdir))
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(2)
        except FactorizationError as exc:
            click.echo(f"factorization error: {exc}", err=True)
            sys.exit(2)
        except SupportEscapeError as exc:
            click.echo(f"support escape: {exc}", err=True)
            sys.exit(2)
        sys.exit(code)

    run = click.option("--config", "config_path", required=True,
                       type=click.Path(exists=False), help="JSON config file")(run)
    run = click.option("--seed", type=int, default=None, help="override RNG seed")(run)
    run = click.option("--out", "outdir", type=click.Path(), default="out",
                       help="output directory")(run)
    run = click.option("--tolerance-scale", type=float, default=1.0,
                       help="multiply all pass/fail tolerances")(run)
    return run


def _prepare(config_path, command, seed, tolerance_scale):
    cfg = load_config(config_path, command)
    if seed is not None:
        cfg["seed"] = int(seed)
    cfg["tolerances"] = {k: v * tolerance_scale for k, v in cfg["tolerances"].items()}
    return cfg


@click.group()
def main():
    """Checks for covariant achronal localization of the massive scalar boson."""


@main.command()
@_common_options
def normalize(cfg, outdir):
    """Full-surface normalization: flux through flat(0) equals the norm."""
    grid, packet, kernel = _build_state(cfg)
    if packet.norm_squared() == 0.0:
        raise ConfigError("zero packet: normalization check needs a non-trivial state")
    t0 = time.perf_counter()
    spec = CurrentSpec(kernel, packet)
    fb = _make_backend(spec, cfg)
    t_build = time.perf_counter() - t0
    mode = cfg["normalization_mode"] if isinstance(kernel, TensorKernel) else "raw"
    res = probability(spec, Region(FlatSurface(0.0)), backend=fb,
                      normalization=mode, **_quad_for_probability(cfg))
    norm2 = packet.norm_squared()
    resid = abs(res.probability - norm2) / norm2
    checks = [_check("normalization_residual", resid,
                     cfg["tolerances"]["normalization"])]
    rows = [["grid_n", "window_half", "probability", "norm_squared", "residual"],
            [grid.n, res.meta["window_half_nodes"], res.probability, norm2, resid]]
    extra = {"probability": res.probability, "norm_squared": norm2,
             "normalization_mode": mode, "meta": res.meta}
    if cfg["refined_grid_n"]:
        n2 = int(cfg["refined_grid_n"])
        _, packet2, _ = _build_state(cfg, n2)
        spec2 = CurrentSpec(kernel, packet2)
        fb2 = _make_backend(spec2, cfg)
        quad = _quad_for_probability(cfg)
        quad["window_half"] = res.meta["window_half_nodes"]
        res2 = probability(spec2, Region(FlatSurface(0.0)), backend=fb2,
                           normalization=mode, **quad)
        n2sq = packet2.norm_squared()
        resid2 = abs(res2.probability - n2sq) / n2sq
        rows.append([n2, res2.meta["window_half_nodes"], res2.probability, n2sq, resid2])
        extra["refined_residual"] = resid2
        checks.append(_check("refinement_reduces_residual", resid2, resid))
    return _emit(outdir, cfg, "normalize", checks, extra,
                 {"backend_build": t_build}, rows, backend=fb)


@main.command()
@_common_options
def invariance(cfg, outdir):
    """Flux invariance across maximal achronal surfaces."""
    grid, packet, kernel = _build_state(cfg)
    surfaces = [surface_from_descriptor(d) for d in cfg["surfaces"]]
    spec = CurrentSpec(kernel, packet)
    t0 = time.perf_counter()
    fb = _make_backend(spec, cfg)
    rep = flux_invariance_report(spec, surfaces, backend=fb,
                                 tolerance_budget=cfg["tolerances"]["invariance"],
                                 **_quad_for_probability(cfg))
    t_run = time.perf_counter() - t0
    checks = [_check("flux_invariance_max_deviation",
                     rep["max_pairwise_relative_deviation"],
                     cfg["tolerances"]["invariance"])]
    rows = [["surface", "probability", "error_estimate"]]
    for r in rep["results"]:
        rows.append([r.surface, r.probability, r.error_estimate])
    extra = {"probabilities": rep["probabilities"],
             "boundary_flux_fraction": rep["boundary_flux_fraction"],
             "warnings": rep["warnings"]}
    if cfg["flatten_sweep"]:
        sw = cfg["flatten_sweep"]
        base = surface_from_descriptor(sw["surface"])
        rows.append(["flatten_gamma", "probability", "error_estimate"])
        sweep = []
        for gamma in sw["gammas"]:
            r = probability(spec, Region(base.flatten(float(gamma))), backend=fb,
                            **_quad_for_probability(cfg))
            rows.append([gamma, r.probability, r.error_estimate])
            sweep.append({"gamma": gamma, "probability": r.probability})
        extra["flatten_sweep"] = sweep
    return _emit(outdir, cfg, "invariance", checks, extra,
                 {"sweep": t_run}, rows, backend=fb)


def _group_elements(gcfg):
    out = []
    if "rapidity" in gcfg:
        out.append(("boost", PoincareElement.from_lorentz(boost_z(float(gcfg["rapidity"])))))
    if "rotation" in gcfg:
        rc = gcfg["rotation"]
        out.append(("rotation", PoincareElement.from_lorentz(
            rotation(np.asarray(rc.get("axis", [0, 0, 1]), dtype=float),
                     float(rc["angle"])))))
    if "translation" in gcfg:
        out.append(("translation",
                    PoincareElement.translation(np.asarray(gcfg["translation"], dtype=float))))
    return out


@main.command()
@_common_options
def covariance(cfg, outdir):
    """Flux covariance under Poincare transforms, plus current-level checks."""
    grid, packet, kernel = _build_state(cfg)
    elements = _group_elements(cfg["group"] or {})
    if not elements:
        raise ConfigError("covariance needs at least one group element")
    spec = CurrentSpec(kernel, packet)
    backend = _make_backend(spec, cfg)
    norm2 = packet.norm_squared()
    checks, rows = [], [["element", "region", "lhs", "rhs", "relative"]]
    regions = cfg["regions"] or [{"surface": {"type": "flat", "t0": 0.0},
                                  "mask": {"type": "ball", "center": [0, 0, 0],
                                           "radius": 4.0}}]
    from .localization import mask_from_descriptor
    t0 = time.perf_counter()
    for name, g in elements:
        tol = cfg["tolerances"][f"covariance_{name}"]
        for rd in regions:
            region = Region(surface_from_descriptor(rd["surface"]),
                            mask_from_descriptor(rd["mask"]))
            lhs, rhs = covariance_check(spec, g, region, backend=backend,
                                        backend_tol=float(cfg["factorization"]["tol"]),
                                        **_quad_for_probability(cfg))
            rel = abs(lhs.probability - rhs.probability) / norm2
            checks.append(_check(f"covariance_{name}", rel, tol))
            rows.append([name, region.mask.label(), lhs.probability,
                         rhs.probability, rel])
    # current-level covariance at sample points
    rng = np.random.default_rng(int(cfg["seed"]))
    pts = np.column_stack([rng.uniform(-0.5, 0.5, cfg["current_points"]),
                           rng.uniform(-1.5, 1.5, (cfg["current_points"], 3))])
    for name, g in elements:
        lhsv, rhsv = covariance_pair(spec, g, pts)
        rel = float(np.abs(lhsv - rhsv).max() / (np.abs(rhsv).max() + 1e-300))
        checks.append(_check(f"current_covariance_{name}", rel,
                             cfg["tolerances"]["current_covariance"]))
        rows.append([f"current_{name}", "points", float(np.abs(lhsv).max()),
                     float(np.abs(rhsv).max()), rel])
    return _emit(outdir, cfg, "covariance", checks, {},
                 {"total": time.perf_counter() - t0}, rows)


@main.command(name="kernel-pd")
@_common_options
def kernel_pd(cfg, outdir):
    """Gram positive-definiteness probe for the kernel's zeroth component."""
    mass = float(cfg["mass"])
    kernel = parse_kernel_spec(cfg["kernel"], mass)
    if not isinstance(kernel, CausalKernel):
        raise ConfigError("gram test applies to scalar-profile kernels")
    gcfg = cfg["gram"]
    rng = np.random.default_rng(int(cfg["seed"]))
    n_pts = int(gcfg["points"])
    radius = float(gcfg["ball_radius_over_mass"]) * mass
    pts = rng.normal(size=(n_pts, 3))
    pts *= (radius * rng.uniform(0, 1, n_pts) ** (1 / 3) /
            np.linalg.norm(pts, axis=1))[:, None]
    lo, hi = gram_extreme_eigenvalues(pts, kernel)
    checks = [_check("gram_min_eigenvalue", lo,
                     cfg["tolerances"]["gram_min_eigenvalue"], below=False)]
    phash = hashlib.sha256(pts.tobytes()).hexdigest()[:12]
    rows = [["points_hash", "size", "min_eigenvalue", "max_eigenvalue"],
            [phash, n_pts, lo, hi]]
    return _emit(outdir, cfg, "kernel-pd", checks,
                 {"min_eigenvalue": lo, "max_eigenvalue": hi,
                  "points_hash": phash}, None, rows, csv_name="gram.csv")


@main.command()
@_common_options
def logic(cfg, outdir):
    """Causal-logic predicates and RCL well-definedness."""
    grid, packet, kernel = _build_state(cfg)
    lcfg = cfg["logic"]
    r = float(lcfg["radius"])
    gamma = float(lcfg["gamma"])
    report = completion_equals_determinacy_check(
        BallInPlane(0.0, (0, 0, 0), r), n_samples=int(lcfg["samples"]),
        seed=int(cfg["seed"]), eps_shell=float(lcfg["eps_shell"]))
    checks = [_check("determinacy_completion_agreement", report.agreement_ratio,
                     1.0, below=False)]
    spec = CurrentSpec(kernel, packet)
    fb = _make_backend(spec, cfg)
    flat_patch = GraphPatch(FlatSurface(0.0), BallMask((0, 0, 0), r))
    cone_patch = GraphPatch(ConeSurface(-gamma, (0, 0, 0), gamma * r),
                            BallMask((0, 0, 0), r))
    p1, p2 = rcl_well_defined_check(spec, flat_patch, cone_patch, backend=fb,
                                    seed=int(cfg["seed"]),
                                    **_quad_for_probability(cfg))
    band = abs(p1.probability - p2.probability) / packet.norm_squared()
    checks.append(_check("rcl_flat_vs_cone_band", band,
                         cfg["tolerances"]["logic_band"]))
    rows = [["check", "value"],
            ["agreement_ratio", report.agreement_ratio],
            ["shell_skipped", report.shell_skipped],
            ["p_flat_ball", p1.probability],
            ["p_cone_patch", p2.probability]]
    return _emit(outdir, cfg, "logic", checks,
                 {"agreement": report.agreement_ratio,
                  "counterexamples": report.counterexamples,
                  "p_flat": p1.probability, "p_cone": p2.probability}, None, rows,
                 backend=fb)


@main.command(name="field-dump")
@_common_options
def field_dump(cfg, outdir):
    """Dump current slices to the binary container, with an oracle diff.

    The oracle figure is max|fast - direct| over the compared nodes of the
    first slice, divided by the largest |direct| among them.  The compared
    nodes are ``compare_points`` random grid nodes plus the node where the
    fast slice's |J^0| peaks, so the figure is relative to the field's peak:
    ``build_fast`` certifies its truncation relative to the top of the
    spectrum, not to the local field size at far-field nodes.
    """
    grid, packet, kernel = _build_state(cfg)
    spec = CurrentSpec(kernel, packet)
    fb = _make_backend(spec, cfg)
    outdir.mkdir(parents=True, exist_ok=True)
    slices = [(float(t), fb.slice_fields(packet, float(t), refine=int(cfg["refine"])))
              for t in cfg["times"]]
    achio.save_field_slices(outdir / "field.achr", slices)
    checks = []
    if packet.norm_squared() > 0 and cfg["compare_points"]:
        rng = np.random.default_rng(int(cfg["seed"]))
        ax = grid.position_axis(int(cfg["refine"]))
        k = int(cfg["compare_points"])
        J = slices[0][1]
        peak = np.unravel_index(np.argmax(np.abs(J[0])), J[0].shape)
        idx = np.vstack([rng.integers(0, len(ax), size=(k, 3)), peak])
        x0 = float(cfg["times"][0])
        pts = np.column_stack([np.full(len(idx), x0), ax[idx[:, 0]], ax[idx[:, 1]],
                               ax[idx[:, 2]]])
        direct = np.array([s.value for s in eval_direct(spec, pts)])
        fast = np.stack([J[:, i, j, kk] for i, j, kk in idx])
        rel = float(np.abs(fast - direct).max() / (np.abs(direct).max() + 1e-300))
        checks.append(_check("dump_direct_vs_fast", rel, cfg["tolerances"]["oracle"]))
    else:
        checks.append(_check("dump_written", 0.0, 1.0))
    return _emit(outdir, cfg, "field-dump", checks,
                 {"slices": [s[0] for s in slices]},
                 None, None, backend=fb)


if __name__ == "__main__":
    main()
