"""Config-driven command-line checks.

Every subcommand reads a JSON experiment config, runs one family of checks
and writes to its output directory:

* resolved_config.json: the config with every default filled in;
* results.json, deterministic: the command, `config_hash` (of the resolved
  config), `artifact_version`, `checks` (name, value, tolerance, pass) and
  the command's figures;
* a CSV table (report.csv; gram.csv for kernel-pd; field-dump writes the
  binary field.achr instead);
* manifest.json: the command, `config_hash`, `artifact_version`, `pass`
  per check and `timings_s` (`build_s`, the time spent in the command's
  own backend builds, not counting those covariance_check makes for a
  moved state, and `total_s`, from loading the config to writing the
  results); a command that builds a backend adds `backend`, from its
  first build: the `route` ("exact" when the build kept the g-matrix G
  itself, "factorized" when it kept eigenpairs of G, "separable" for a
  stress-energy kernel), the rank, the spectral tail and whether that tail
  is certified, and a factorized build's landmark counts.

The config is strictly validated against its command's table
(`_COMMAND_KEYS`), which holds exactly the keys the command reads and gives
each its default and its rule: unknown keys are rejected in every object
except the free-form `packet.params`, tolerances included.  The keys of the
commands:

* all: `mass`, `kernel`, `seed` and `tolerances`, which holds the command's
  own tolerances;
* all but kernel-pd: `grid`, `packet`, `factorization` and `refine`;
* normalize, invariance, covariance and logic: `window_half_nodes` and
  `normalization_mode`;
* normalize: `refined_grid_n`; tolerance `normalization`;
* invariance: `surfaces` and `flatten_sweep`; tolerance `invariance`;
* covariance: `group`, `regions` and `current_points`; tolerances
  `covariance_boost`, `covariance_rotation`, `covariance_translation` and
  `current_covariance`;
* kernel-pd: `gram`; tolerance `gram_min_eigenvalue`;
* logic: `logic`; tolerance `logic_band`;
* field-dump: `times` and `compare_points`; tolerance `oracle`.

So one config file shared across commands must leave out the keys a
command does not read: kernel-pd rejects a `grid`, field-dump a
`window_half_nodes`.  A `covariance` region takes a `surface` and a `mask`
descriptor, and `regions`, a non-empty list, defaults to the ball of
radius 4 about the origin on the flat surface t = 0.  A `flatten_sweep`
takes a `surface` and its `gammas`, and `group` any of `rapidity`,
`rotation` (an `angle` and a unit `axis`, by default [0, 0, 1]) and
`translation` (a 4-vector).  The factorization key holds build_fast's
`tol` and, as `landmarks`, the largest landmark count a build may use: it
starts below that and grows only while its spectrum checks fail.  Both act
only on factorized builds: supports above 512 nodes, or `landmarks` below
the support size.  A smaller support that fits in `landmarks` keeps the
exact G, so at the test config (n=16: 480 support nodes, 480 landmarks)
neither key changes a result.
`normalization_mode` is "raw", or "energy" for a tensor (stress-energy)
kernel.

Exit codes: 0 all checks pass, 1 a check failed, 2 configuration error,
reported in one line without a traceback: an unknown key (one the command
does not read) or a missing one, a value outside its key's rule in the
table, a window past half the grid, a malformed kernel selector, packet,
surface or mask descriptor, flattening factor or group element, a kernel
the configured factorization cannot truncate or certify, or a group element
that moves the packet's support off the grid.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
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
from .localization import (BallMask, Mask, Region, covariance_check,
                           flux_invariance_report, probability)
from .minkowski import PoincareElement, boost_z, rotation
from .surfaces import AchronalSurface, ConeSurface, DescriptorError, FlatSurface, flatten
from .wavepacket import SupportEscapeError, make_packet


class ConfigError(ValueError):
    pass


def _is_number(value) -> bool:
    return not isinstance(value, bool) and (
        isinstance(value, int) or isinstance(value, float) and math.isfinite(value))


def _is_number_list(value) -> bool:
    return isinstance(value, list) and all(map(_is_number, value))


def _count(least: int):
    return (lambda v: isinstance(v, int) and _is_number(v) and v >= least,
            f"an integer >= {least}")


# rules: a test of a value and what it asks for in words
_NUMBER = (_is_number, "a number")
_POSITIVE = (lambda v: _is_number(v) and v > 0, "a positive number")
_GRID_SIZE = (lambda v: _count(8)[0](v) and v % 2 == 0, "an even integer >= 8")
_STRING = (lambda v: isinstance(v, str), "a string")
_OBJECT = (lambda v: isinstance(v, dict), "an object")
# defaults of a key that must be given, and of one that may be left out and
# is then not filled in
_REQUIRED, _ABSENT = object(), object()

# The config's tables, one per command, built from the groups of keys its
# body reads.  A key maps to (default, rule), where the rule is a (test,
# words) pair, a table for an object, or [table] for a non-empty list of
# such objects; a key that maps to a table alone holds an object whose
# absent keys take the table's defaults.  A key whose default is None may
# also be given as null.
_BASE_KEYS = {"mass": (1.0, _POSITIVE), "kernel": ("basic:r=1.5", _STRING),
              "seed": (0, _count(0))}
# the keys of a command that builds the packet's current
_STATE_KEYS = {
    **_BASE_KEYS,
    "grid": {"n": (32, _GRID_SIZE), "p_max": (4.0, _POSITIVE)},
    "packet": {"kind": ("mollified_gaussian", _STRING), "params": ({}, _OBJECT),
               "margin": (None, _count(1))},
    "factorization": {
        "tol": (1e-6, (lambda v: _is_number(v) and 0 < v < 1, "a number between 0 and 1")),
        "landmarks": (3000, _count(1))},
    "refine": (1, _count(1))}
# the keys of a command that integrates fluxes (_Run.quad)
_FLUX_KEYS = {
    **_STATE_KEYS, "window_half_nodes": (None, _count(1)),
    "normalization_mode": ("raw", (lambda v: v in ("raw", "energy"), "'raw' or 'energy'"))}

_COMMAND_KEYS = {
    "normalize": {**_FLUX_KEYS, "tolerances": {"normalization": (1e-2, _NUMBER)},
                  "refined_grid_n": (None, _GRID_SIZE)},
    "invariance": {**_FLUX_KEYS, "tolerances": {"invariance": (2e-2, _NUMBER)},
        "surfaces": ([{"type": "flat", "t0": 0.0}],
                     (lambda v: isinstance(v, list), "a list of surface descriptors")),
        "flatten_sweep": (None, {"surface": (_REQUIRED, _OBJECT),
                                 "gammas": (_REQUIRED, (_is_number_list, "a list of numbers"))})},
    "covariance": {**_FLUX_KEYS, "tolerances": {
            "covariance_boost": (3e-2, _NUMBER), "covariance_rotation": (1e-3, _NUMBER),
            "covariance_translation": (1e-3, _NUMBER), "current_covariance": (3e-2, _NUMBER)},
        "group": {
            "rapidity": (_ABSENT, _NUMBER),
            "rotation": (_ABSENT, {
                "angle": (_REQUIRED, _NUMBER),
                "axis": ([0, 0, 1], (lambda v: _is_number_list(v) and len(v) == 3,
                                     "a list of 3 numbers"))}),
            "translation": (_ABSENT, (lambda v: _is_number_list(v) and len(v) == 4,
                                      "a list of 4 numbers"))},
        "regions": ([{"surface": {"type": "flat", "t0": 0.0},
                      "mask": {"type": "ball", "center": [0, 0, 0], "radius": 4.0}}],
                    [{"surface": (_REQUIRED, _OBJECT), "mask": (_REQUIRED, _OBJECT)}]),
        "current_points": (4, _count(1))},
    "kernel-pd": {**_BASE_KEYS, "tolerances": {"gram_min_eigenvalue": (-1e-10, _NUMBER)},
                  "gram": {"points": (200, _count(1)), "ball_radius_over_mass": (3.0, _POSITIVE)}},
    "logic": {**_FLUX_KEYS, "tolerances": {"logic_band": (2e-2, _NUMBER)}, "logic": {
        "radius": (4.0, _POSITIVE),
        "gamma": (0.5, (lambda v: _is_number(v) and abs(v) <= 1, "a number from -1 to 1")),
        "samples": (10000, _count(1)),
        "eps_shell": (1e-3, (lambda v: _is_number(v) and 0 <= v < 1,
                             "a number from 0 to below 1"))}},
    "field-dump": {**_STATE_KEYS, "tolerances": {"oracle": (1e-6, _NUMBER)},
        "times": ([0.0], (lambda v: _is_number_list(v) and len(v) > 0,
                          "a non-empty list of numbers")),
        "compare_points": (8, _count(0))},
}


def _merge(keys: dict, given, path: str = "") -> dict:
    """`given` checked against the table `keys` and completed from its
    defaults.  An unknown key, a missing required one or a value outside
    its key's rule raises ConfigError naming the key."""
    if not isinstance(given, dict):
        raise ConfigError(f"{path or 'config'}: expected an object")
    unknown = set(given) - set(keys)
    if unknown:
        raise ConfigError(f"{path or 'config'}: unknown keys {sorted(unknown)}")
    out = {}
    for key, entry in keys.items():
        name = f"{path}.{key}" if path else key
        default, rule = entry if isinstance(entry, tuple) else ({}, entry)
        value = given.get(key, default)
        if value is _REQUIRED:
            raise ConfigError(f"{name}: missing")
        if value is _ABSENT:
            continue
        if value is None and default is None:
            out[key] = None
        elif isinstance(rule, dict):
            out[key] = _merge(rule, value, name)
        elif isinstance(rule, list):
            if not isinstance(value, list) or not value:
                raise ConfigError(f"{name}: expected a non-empty list, got {value!r}")
            out[key] = [_merge(rule[0], item, f"{name}[{i}]") for i, item in enumerate(value)]
        elif rule[0](value):
            out[key] = value
        else:
            raise ConfigError(f"{name}: expected {rule[1]}, got {value!r}")
    return out


def load_config(path, command: str, seed=None) -> dict:
    """The config file at `path` for `command`, checked against the tables
    and completed from them; a `seed` given overrides the file's."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}")
    if seed is not None and isinstance(raw, dict):
        raw = {**raw, "seed": seed}
    cfg = _merge(_COMMAND_KEYS[command], raw)
    half = cfg.get("window_half_nodes")
    if half is not None and half > cfg["grid"]["n"] // 2:
        raise ConfigError(f"window_half_nodes: expected at most grid.n / 2 = "
                          f"{cfg['grid']['n'] // 2}, got {half}")
    return cfg


class _Run:
    """One command's run: its config and state, timed builds, quadrature
    options, checks and outputs."""

    def __init__(self, command, config_path, seed, tolerance_scale, outdir):
        self.start = time.perf_counter()
        cfg = load_config(config_path, command, seed)
        cfg["tolerances"] = {k: v * tolerance_scale for k, v in cfg["tolerances"].items()}
        self.command, self.cfg, self.outdir = command, cfg, outdir
        try:
            self.kernel = parse_kernel_spec(cfg["kernel"], float(cfg["mass"]))
        except ValueError as exc:
            raise ConfigError(f"kernel: {exc}")
        if "normalization_mode" in cfg:
            mode = cfg["normalization_mode"]
            if mode == "energy" and not isinstance(self.kernel, TensorKernel):
                raise ConfigError("normalization_mode 'energy' applies to tensor kernels "
                                  "only, otherwise use 'raw'")
            self.quad = {"window_half": cfg["window_half_nodes"], "refine": cfg["refine"],
                         "normalization": mode}
        self.checks, self.backend, self.build_s = [], None, 0.0

    def spec(self, n=None) -> CurrentSpec:
        """The config's kernel and packet, on a grid of n nodes per axis if
        given."""
        cfg, pk = self.cfg, self.cfg["packet"]
        grid = MomentumGrid(n or cfg["grid"]["n"], float(cfg["grid"]["p_max"]))
        try:
            packet = make_packet(grid, float(cfg["mass"]), pk["kind"], margin=pk["margin"],
                                 **pk["params"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"packet: {exc}")
        return CurrentSpec(self.kernel, packet)

    def build(self, spec: CurrentSpec):
        """build_fast with the config's factorization and seed, timed.  A
        backend whose spectral tail is not certified (a profile that is not
        positive semi-definite on the support) raises FactorizationError."""
        fac = self.cfg["factorization"]
        t0 = time.perf_counter()
        backend = build_fast(spec, tol=float(fac["tol"]), n_landmarks=int(fac["landmarks"]),
                             seed=self.cfg["seed"])
        self.build_s += time.perf_counter() - t0
        if not backend.meta.get("tail_certified", True):
            raise FactorizationError(
                f"profile {spec.kernel.label!r} is not positive semi-definite on "
                f"the support, so its truncation cannot be certified")
        self.backend = self.backend or backend
        return backend

    def check(self, name: str, value, tolerance, below=True) -> None:
        """Record a check of value against tolerance, a number or the name of
        a configured tolerance."""
        if isinstance(tolerance, str):
            tolerance = self.cfg["tolerances"][tolerance]
        good = value <= tolerance if below else value >= tolerance
        self.checks.append({"name": name, "value": float(value),
                            "tolerance": float(tolerance), "pass": bool(good)})

    def emit(self, figures: dict, rows=None, csv_name="report.csv") -> int:
        """Write the outputs, echo the checks and return the exit code."""
        self.outdir.mkdir(parents=True, exist_ok=True)
        chash = hashlib.sha256(json.dumps(self.cfg, sort_keys=True, separators=(",", ":"))
                               .encode()).hexdigest()[:16]
        stamp = {"command": self.command, "config_hash": chash,
                 "artifact_version": __version__}
        achio.write_json(self.outdir / "resolved_config.json", self.cfg)
        achio.write_json(self.outdir / "results.json",
                         {**stamp, "checks": self.checks, **figures})
        if rows:
            with open(self.outdir / csv_name, "w", newline="") as fh:
                csv.writer(fh).writerows(rows)
        manifest = {**stamp, "pass": {c["name"]: c["pass"] for c in self.checks},
                    "timings_s": {"build_s": self.build_s,
                                  "total_s": time.perf_counter() - self.start}}
        if self.backend is not None:
            b = self.backend
            manifest["backend"] = {
                "route": b.meta["route"], "rank": b.rank, "spectral_tail": b.spectral_tail,
                **{k: b.meta[k] for k in ("n_landmarks", "landmark_attempts", "tail_certified")
                   if k in b.meta}}
        achio.write_json(self.outdir / "manifest.json", manifest)
        for c in self.checks:
            click.echo(f"[{'PASS' if c['pass'] else 'FAIL'}] {c['name']}: "
                       f"{c['value']:.3e} (tol {c['tolerance']:.3e})")
        return 0 if all(c["pass"] for c in self.checks) else 1


@click.group()
def main():
    """Checks for covariant achronal localization of the massive scalar boson."""


# errors that make a run exit 2, with the prefix of their message
_EXIT_2 = ((ConfigError, "config error"), (DescriptorError, "config error"),
           (FactorizationError, "factorization error"), (SupportEscapeError, "support escape"))


def _command(name: str):
    """Register body(run) -> exit code as the subcommand `name`.

    The subcommand takes the shared options and hands the body a _Run of
    its config.  An error of _EXIT_2 anywhere exits 2 with its message;
    otherwise the process exits with the body's code.
    """
    def register(body):
        @main.command(name=name)
        @click.option("--config", "config_path", required=True,
                      type=click.Path(exists=False), help="JSON config file")
        @click.option("--seed", type=int, default=None, help="override RNG seed")
        @click.option("--out", "outdir", type=click.Path(), default="out",
                      help="output directory")
        @click.option("--tolerance-scale", type=float, default=1.0,
                      help="multiply all pass/fail tolerances")
        @functools.wraps(body)
        def command(config_path, seed, outdir, tolerance_scale):
            try:
                code = body(_Run(name, config_path, seed, tolerance_scale, Path(outdir)))
            except tuple(cls for cls, _ in _EXIT_2) as exc:
                prefix = next(p for cls, p in _EXIT_2 if isinstance(exc, cls))
                click.echo(f"{prefix}: {exc}", err=True)
                sys.exit(2)
            sys.exit(code)
        return command
    return register


@_command("normalize")
def normalize(run):
    """Full-surface normalization: flux through flat(0) equals the norm."""
    spec = run.spec()
    norm2 = spec.packet.norm_squared()
    if norm2 == 0.0:
        raise ConfigError("zero packet: normalization check needs a non-trivial state")
    res = probability(spec, Region(FlatSurface(0.0)), backend=run.build(spec), **run.quad)
    resid = abs(res.probability - norm2) / norm2
    run.check("normalization_residual", resid, "normalization")
    rows = [["grid_n", "window_half", "probability", "norm_squared", "residual"],
            [spec.packet.grid.n, res.meta["window_half_nodes"], res.probability, norm2,
             resid]]
    figures = {"probability": res.probability, "norm_squared": norm2,
               "normalization_mode": run.quad["normalization"], "meta": res.meta}
    if run.cfg["refined_grid_n"]:
        spec2 = run.spec(run.cfg["refined_grid_n"])
        res2 = probability(spec2, Region(FlatSurface(0.0)), backend=run.build(spec2),
                           **{**run.quad, "window_half": res.meta["window_half_nodes"]})
        n2sq = spec2.packet.norm_squared()
        resid2 = abs(res2.probability - n2sq) / n2sq
        rows.append([spec2.packet.grid.n, res2.meta["window_half_nodes"], res2.probability,
                     n2sq, resid2])
        figures["refined_residual"] = resid2
        run.check("refinement_reduces_residual", resid2, resid)
    return run.emit(figures, rows)


@_command("invariance")
def invariance(run):
    """Flux invariance across maximal achronal surfaces."""
    surfaces = [AchronalSurface.from_descriptor(d) for d in run.cfg["surfaces"]]
    sw = run.cfg["flatten_sweep"]
    if sw:
        base = AchronalSurface.from_descriptor(sw["surface"])
        try:
            swept = [(gamma, flatten(base, float(gamma))) for gamma in sw["gammas"]]
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"flatten_sweep: {exc}")
    spec = run.spec()
    backend = run.build(spec)
    rep = flux_invariance_report(spec, surfaces, backend=backend,
                                 tolerance_budget=run.cfg["tolerances"]["invariance"],
                                 **run.quad)
    run.check("flux_invariance_max_deviation", rep["max_pairwise_relative_deviation"],
              "invariance")
    rows = [["surface", "probability", "error_estimate"]]
    rows += [[r.surface, r.probability, r.error_estimate] for r in rep["results"]]
    figures = {"probabilities": rep["probabilities"],
               "boundary_flux_fraction": rep["boundary_flux_fraction"],
               "warnings": rep["warnings"]}
    if sw:
        sweep = [(gamma, probability(spec, Region(surface), backend=backend, **run.quad))
                 for gamma, surface in swept]
        rows.append(["flatten_gamma", "probability", "error_estimate"])
        rows += [[gamma, r.probability, r.error_estimate] for gamma, r in sweep]
        figures["flatten_sweep"] = [{"gamma": gamma, "probability": r.probability}
                                    for gamma, r in sweep]
    return run.emit(figures, rows)


def _group_elements(gcfg):
    """The config's group elements as (name, element): a boost along z, a
    rotation and a translation, those that `group` names."""
    out = []
    try:
        if "rapidity" in gcfg:
            out.append(("boost", PoincareElement.from_lorentz(boost_z(float(gcfg["rapidity"])))))
        if "rotation" in gcfg:
            rc = gcfg["rotation"]
            out.append(("rotation", PoincareElement.from_lorentz(
                rotation(np.asarray(rc["axis"], dtype=float), float(rc["angle"])))))
        if "translation" in gcfg:
            out.append(("translation",
                        PoincareElement.translation(np.asarray(gcfg["translation"], dtype=float))))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"group: {exc}")
    return out


@_command("covariance")
def covariance(run):
    """Flux covariance under Poincare transforms, plus current-level checks."""
    cfg = run.cfg
    elements = _group_elements(cfg["group"])
    if not elements:
        raise ConfigError("covariance needs at least one group element")
    regions = [Region(AchronalSurface.from_descriptor(rd["surface"]),
                      Mask.from_descriptor(rd["mask"])) for rd in cfg["regions"]]
    spec = run.spec()
    backend = run.build(spec)
    norm2 = spec.packet.norm_squared()
    rows = [["element", "region", "lhs", "rhs", "relative"]]
    for name, g in elements:
        for region in regions:
            lhs, rhs = covariance_check(spec, g, region, backend=backend, **run.quad)
            rel = abs(lhs.probability - rhs.probability) / norm2
            run.check(f"covariance_{name}", rel, f"covariance_{name}")
            rows.append([name, region.mask.label(), lhs.probability,
                         rhs.probability, rel])
    # current-level covariance at sample points
    rng = np.random.default_rng(cfg["seed"])
    pts = np.column_stack([rng.uniform(-0.5, 0.5, cfg["current_points"]),
                           rng.uniform(-1.5, 1.5, (cfg["current_points"], 3))])
    for name, g in elements:
        lhsv, rhsv = covariance_pair(spec, g, pts)
        rel = float(np.abs(lhsv - rhsv).max() / (np.abs(rhsv).max() + 1e-300))
        run.check(f"current_covariance_{name}", rel, "current_covariance")
        rows.append([f"current_{name}", "points", float(np.abs(lhsv).max()),
                     float(np.abs(rhsv).max()), rel])
    return run.emit({}, rows)


@_command("kernel-pd")
def kernel_pd(run):
    """Gram positive-definiteness probe for the kernel's zeroth component."""
    if not isinstance(run.kernel, CausalKernel):
        raise ConfigError("gram test applies to scalar-profile kernels")
    gcfg = run.cfg["gram"]
    rng = np.random.default_rng(run.cfg["seed"])
    n_pts = int(gcfg["points"])
    radius = float(gcfg["ball_radius_over_mass"]) * float(run.cfg["mass"])
    pts = rng.normal(size=(n_pts, 3))
    pts *= (radius * rng.uniform(0, 1, n_pts) ** (1 / 3) /
            np.linalg.norm(pts, axis=1))[:, None]
    lo, hi = gram_extreme_eigenvalues(pts, run.kernel)
    run.check("gram_min_eigenvalue", lo, "gram_min_eigenvalue", below=False)
    phash = hashlib.sha256(pts.tobytes()).hexdigest()[:12]
    rows = [["points_hash", "size", "min_eigenvalue", "max_eigenvalue"],
            [phash, n_pts, lo, hi]]
    return run.emit({"min_eigenvalue": lo, "max_eigenvalue": hi, "points_hash": phash},
                    rows, csv_name="gram.csv")


@_command("logic")
def logic(run):
    """Causal-logic predicates and RCL well-definedness."""
    lcfg, seed = run.cfg["logic"], run.cfg["seed"]
    r = float(lcfg["radius"])
    gamma = float(lcfg["gamma"])
    report = completion_equals_determinacy_check(
        BallInPlane(0.0, (0, 0, 0), r), n_samples=int(lcfg["samples"]),
        seed=seed, eps_shell=float(lcfg["eps_shell"]))
    run.check("determinacy_completion_agreement", report.agreement_ratio, 1.0,
              below=False)
    spec = run.spec()
    flat_patch = GraphPatch(FlatSurface(0.0), BallMask((0, 0, 0), r))
    cone_patch = GraphPatch(ConeSurface(-gamma, (0, 0, 0), gamma * r),
                            BallMask((0, 0, 0), r))
    p1, p2 = rcl_well_defined_check(spec, flat_patch, cone_patch, backend=run.build(spec),
                                    seed=seed, **run.quad)
    band = abs(p1.probability - p2.probability) / spec.packet.norm_squared()
    run.check("rcl_flat_vs_cone_band", band, "logic_band")
    rows = [["check", "value"],
            ["agreement_ratio", report.agreement_ratio],
            ["shell_skipped", report.shell_skipped],
            ["p_flat_ball", p1.probability],
            ["p_cone_patch", p2.probability]]
    return run.emit({"agreement": report.agreement_ratio,
                     "counterexamples": report.counterexamples,
                     "p_flat": p1.probability, "p_cone": p2.probability}, rows)


@_command("field-dump")
def field_dump(run):
    """Dump current slices to the binary container, with an oracle diff.

    The oracle figure is max|fast - direct| over the compared nodes of the
    first slice, divided by the largest |direct| among them.  The compared
    nodes are ``compare_points`` random grid nodes plus the node where the
    fast slice's |J^0| peaks, so the figure is relative to the field's peak:
    ``build_fast`` certifies its truncation relative to the top of the
    spectrum, not to the local field size at far-field nodes.
    """
    cfg, refine = run.cfg, run.cfg["refine"]
    spec = run.spec()
    fb = run.build(spec)
    slices = [(float(t), fb.slice_fields(spec.packet, float(t), refine=refine))
              for t in cfg["times"]]
    run.outdir.mkdir(parents=True, exist_ok=True)
    achio.save_field_slices(run.outdir / "field.achr", slices)
    if spec.packet.norm_squared() > 0 and cfg["compare_points"]:
        rng = np.random.default_rng(cfg["seed"])
        ax = spec.packet.grid.position_axis(refine)
        k = cfg["compare_points"]
        J = slices[0][1]
        peak = np.unravel_index(np.argmax(np.abs(J[0])), J[0].shape)
        idx = np.vstack([rng.integers(0, len(ax), size=(k, 3)), peak])
        x0 = float(cfg["times"][0])
        pts = np.column_stack([np.full(len(idx), x0), ax[idx[:, 0]], ax[idx[:, 1]],
                               ax[idx[:, 2]]])
        direct = np.array([s.value for s in eval_direct(spec, pts)])
        fast = np.stack([J[:, i, j, kk] for i, j, kk in idx])
        rel = float(np.abs(fast - direct).max() / (np.abs(direct).max() + 1e-300))
        run.check("dump_direct_vs_fast", rel, "oracle")
    else:
        run.check("dump_written", 0.0, 1.0)
    return run.emit({"slices": [s[0] for s in slices]})


if __name__ == "__main__":
    main()
