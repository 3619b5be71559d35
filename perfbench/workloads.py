"""The benchmark's workloads: paper checks run through the public API.

Each workload mirrors the call sequence of a CLI command at the CLI's
configs and checks every result against the CLI's default tolerances.  A
workload is a pair of functions: ``setup(cfg, seed)`` builds the packet,
kernel and base factorization (timed as ``setup_s``), and ``solve(state,
cfg, seed, scratch)`` runs the checks (timed as ``solve_cpu_s``) and returns
an ``Outcome``.  The seed drives the factorization landmarks, the oracle
points, the current-covariance points and the causal-logic samples.

Calls go through module attributes (``cur.build_fast``, ``loc.probability``)
so that the tracer's wrappers see them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import achronal.causal_logic as cl
import achronal.currents as cur
import achronal.io as aio
import achronal.kernels as ker
import achronal.localization as loc
import achronal.wavepacket as wp
from achronal.grids import MomentumGrid
from achronal.minkowski import PoincareElement, boost_z, rotation
from achronal.surfaces import BumpSurface, ConeSurface, FlatSurface, TiltedSurface

MASS = 1.0

# the CLI's _DEFAULT_TOLERANCES, copied so that a change to the CLI cannot
# loosen the benchmark's checks; the translation budget at n=16 is the 2e-2
# that tests/test_io_cli.py::test_cli_covariance uses for the 16^3 grid
TOL = {
    "normalization": 1e-2,
    "covariance_boost": 3e-2,
    "covariance_rotation": 1e-3,
    "covariance_translation": 2e-2,
    "current_covariance": 3e-2,
    "invariance": 2e-2,
    "oracle": 1e-6,
    "logic_band": 2e-2,
}

# Checks that fail on the current code at the CLI's own tolerance.  They are
# computed, printed as FAIL and counted in ``failed`` like every other check,
# but leave ``correct`` alone, so that ``correct`` still flags any new failure.
KNOWN_FAILING = {
    # the CLI field-dump check (max|fast - direct| over the largest sampled
    # |direct|): its random nodes mostly sit in the far field, where the fast
    # route's error relative to the local field is of order 1e-3, not 1e-6
    "oracle": "far-field nodes: fast-route error is ~1e-3 of the local |J|",
}

# CLI default config (flat-n32) and CLI test config (curved-n16,
# covariance-logic-n16)
N32 = {"n": 32, "p_max": 4.0, "packet": {}, "tol": 1e-6, "landmarks": 3000,
       "window_half": None}
N16 = {"n": 16, "p_max": 3.0,
       "packet": {"sigma": 1.0, "core_radius": 0.9, "support_radius": 1.8},
       "tol": 1e-8, "landmarks": 480, "window_half": 7}
# the self-test sizes (WORKLOADS below): the same call sequences on small grids
TINY = {"n": 12, "p_max": 3.0,
        "packet": {"sigma": 0.8, "core_radius": 0.75, "support_radius": 1.5},
        "tol": 1e-4, "landmarks": 150, "window_half": 5}


@dataclass
class State:
    packet: wp.WavePacket
    spec: cur.CurrentSpec
    backend: cur.FastBackend


@dataclass
class Outcome:
    """Checks and accuracy figures of one solve.

    ``checks`` are CLI-style records (name, value, tolerance, pass, gated);
    a check in ``KNOWN_FAILING`` is not gated.
    ``values`` are the workload's accuracy figures with their units.
    ``fluxes`` pairs each flux with a known reference as (|deviation|,
    reported error estimate).  ``claim_dev`` is the deviation of the
    workload's headline paper claim.
    """

    checks: list = field(default_factory=list)
    values: dict = field(default_factory=dict)
    fluxes: list = field(default_factory=list)
    norm_residual: float = float("nan")
    claim_dev: float = float("nan")

    def check(self, name, value, tolerance, below=True):
        good = value <= tolerance if below else value >= tolerance
        self.checks.append({"name": name, "value": float(value),
                            "tolerance": float(tolerance), "pass": bool(good),
                            "gated": name not in KNOWN_FAILING})

    def value(self, name, value, unit="rel"):
        self.values[name] = {"value": float(value), "unit": unit}


def setup(cfg, seed):
    grid = MomentumGrid(cfg["n"], cfg["p_max"])
    packet = wp.make_packet(grid, MASS, "mollified_gaussian", **cfg["packet"])
    spec = cur.CurrentSpec(ker.parse_kernel_spec("basic:r=1.5", MASS), packet)
    backend = cur.build_fast(spec, tol=cfg["tol"], n_landmarks=cfg["landmarks"],
                             seed=seed)
    return State(packet, spec, backend)


def _tensor_spec(state):
    return cur.CurrentSpec(ker.parse_kernel_spec("tensor:n=(1,0,0,0)", MASS),
                           state.packet)


def _normalization(out, state, cfg):
    """Flux through FlatSurface(0) against the squared norm."""
    res = loc.probability(state.spec, loc.Region(FlatSurface(0.0)),
                          backend=state.backend, window_half=cfg["window_half"])
    norm2 = state.packet.norm_squared()
    resid = abs(res.probability - norm2) / norm2
    out.check("normalization", resid, TOL["normalization"])
    out.value("norm_residual", resid)
    out.fluxes.append((abs(res.probability - norm2), res.error_estimate))
    out.norm_residual = resid


# ---------------------------------------------------------------------------
# flat-n32: normalize, additivity and field-dump at the CLI default config
# ---------------------------------------------------------------------------


def flat_solve(state, cfg, seed, scratch: Path):
    out = Outcome()
    norm2 = state.packet.norm_squared()
    _normalization(out, state, cfg)

    add = loc.additivity_check(
        state.spec, FlatSurface(0.0),
        [loc.HalfSpaceMask((1.0, 0.0, 0.0)), loc.HalfSpaceMask((-1.0, 0.0, 0.0))],
        backend=state.backend, window_half=cfg["window_half"])
    out.check("additivity", add["residual"], TOL["normalization"])
    out.value("additivity_residual", add["residual"])
    out.fluxes.append((abs(add["sum"] - norm2),
                       sum(r.error_estimate for r in add["results"])))
    out.check("additivity_uncovered_nodes", add["uncovered_nodes"], 0)

    # field dump: two slices through the binary container and back
    times = (0.0, 0.4)
    slices = [(t, state.backend.slice_fields(state.packet, t)) for t in times]
    path = scratch / f"field-{os.getpid()}.achr"
    aio.save_field_slices(path, slices)
    loaded = aio.load_field_slices(path)
    path.unlink()
    same = len(loaded) == len(slices) and all(
        t0 == t1 and np.array_equal(a, b) for (t0, a), (t1, b) in zip(slices, loaded))
    out.check("io_roundtrip_mismatch", 0 if same else 1, 0)

    # oracle: the fast slice against the direct double sum at 8 grid nodes
    rng = np.random.default_rng(seed)
    grid = state.packet.grid
    ax = grid.position_axis()
    idx = rng.integers(0, len(ax), size=(8, 3))
    pts = np.column_stack([np.zeros(len(idx)), ax[idx[:, 0]], ax[idx[:, 1]], ax[idx[:, 2]]])
    direct = np.array([s.value for s in cur.eval_direct(state.spec, pts)])
    J = slices[0][1]
    fast = np.stack([J[:, i, j, k] for i, j, k in idx])
    err = float(np.abs(fast - direct).max())
    # the CLI's figure: relative to the largest sampled |J|
    oracle = err / (float(np.abs(direct).max()) + 1e-300)
    out.check("oracle", oracle, TOL["oracle"])
    out.value("oracle_rel_err", oracle)
    # printed only: relative to the whole slice's field scale
    out.value("oracle_rel_err_slice_scale", err / float(np.abs(J).max()))

    tspec = _tensor_spec(state)
    tres = loc.probability(tspec, loc.Region(FlatSurface(0.0)),
                           backend=cur.build_fast(tspec),
                           window_half=cfg["window_half"], normalization="energy")
    eresid = abs(tres.probability - norm2) / norm2
    out.check("energy_normalization", eresid, TOL["normalization"])
    out.value("energy_norm_residual", eresid)
    # the additivity residual is not used here: on one t=0 slice both halves
    # partition the same nodes, so it equals norm_residual up to roundoff
    out.claim_dev = eresid
    return out


# ---------------------------------------------------------------------------
# curved-n16: flux invariance across four surfaces, causal and stress-energy
# ---------------------------------------------------------------------------


def _surfaces(cfg):
    if cfg.get("tiny"):
        return [FlatSurface(0.0), TiltedSurface((0.0, 0.0, 0.4))]
    return [FlatSurface(0.0), TiltedSurface((0.0, 0.0, 0.4)), BumpSurface(0.5),
            ConeSurface(0.5)]


def curved_solve(state, cfg, seed, scratch: Path):
    out = Outcome()
    norm2 = state.packet.norm_squared()
    quad = {"window_half": cfg["window_half"]}
    rep = loc.flux_invariance_report(state.spec, _surfaces(cfg), backend=state.backend,
                                     tolerance_budget=TOL["invariance"], **quad)
    dev = rep["max_pairwise_relative_deviation"]
    out.check("invariance", dev, TOL["invariance"])
    out.value("invariance_dev", dev)
    out.value("boundary_flux_fraction", rep["boundary_flux_fraction"])
    for r in rep["results"]:
        out.fluxes.append((abs(r.probability - norm2), r.error_estimate))
    flat = rep["results"][0]
    out.norm_residual = abs(flat.probability - norm2) / norm2
    out.check("normalization", out.norm_residual, TOL["normalization"])
    out.value("norm_residual", out.norm_residual)
    out.claim_dev = dev

    tspec = _tensor_spec(state)
    trep = loc.flux_invariance_report(tspec, _surfaces(cfg), backend=cur.build_fast(tspec),
                                      tolerance_budget=TOL["invariance"],
                                      normalization="energy", **quad)
    tdev = trep["max_pairwise_relative_deviation"]
    out.check("invariance_stress_energy", tdev, TOL["invariance"])
    out.value("invariance_dev_stress_energy", tdev)
    return out


# ---------------------------------------------------------------------------
# covariance-logic-n16: Poincare covariance plus the causal-logic checks
# ---------------------------------------------------------------------------


def _elements():
    return [("boost", PoincareElement.from_lorentz(boost_z(0.25))),
            ("rotation", PoincareElement.from_lorentz(
                rotation(np.array([0.0, 0.0, 1.0]), np.pi / 2))),
            ("translation", PoincareElement.translation(np.array([0.0, 0.4, 0.0, 0.0])))]


def covariance_logic_solve(state, cfg, seed, scratch: Path):
    out = Outcome()
    norm2 = state.packet.norm_squared()
    quad = {"window_half": cfg["window_half"]}
    _normalization(out, state, cfg)

    ball = loc.BallMask((0.0, 0.0, 0.0), 4.0)
    cases = [(name, g, FlatSurface(0.0)) for name, g in _elements()]
    cases.append(("boost", _elements()[0][1], BumpSurface(0.5)))
    cov_dev = 0.0
    for name, g, surface in cases:
        lhs, rhs = loc.covariance_check(state.spec, g, loc.Region(surface, ball),
                                        backend_tol=cfg["tol"], **quad)
        rel = abs(lhs.probability - rhs.probability) / norm2
        out.check(f"covariance_{name}_{surface.kind}", rel, TOL[f"covariance_{name}"])
        out.fluxes.append((abs(lhs.probability - rhs.probability),
                           lhs.error_estimate + rhs.error_estimate))
        cov_dev = max(cov_dev, rel)
    out.value("covariance_dev", cov_dev)
    out.claim_dev = cov_dev

    rng = np.random.default_rng(seed)
    pts = np.column_stack([rng.uniform(-0.5, 0.5, 4), rng.uniform(-1.5, 1.5, (4, 3))])
    cur_dev = 0.0
    for name, g in _elements():
        lhs, rhs = cur.covariance_pair(state.spec, g, pts)
        rel = float(np.abs(lhs - rhs).max() / np.abs(rhs).max())
        out.check(f"current_covariance_{name}", rel, TOL["current_covariance"])
        cur_dev = max(cur_dev, rel)
    out.value("current_covariance_dev", cur_dev)

    report = cl.completion_equals_determinacy_check(
        cl.BallInPlane(0.0, (0.0, 0.0, 0.0), 3.0), n_samples=cfg["logic_samples"],
        seed=seed, eps_shell=1e-3)
    out.check("determinacy_completion_agreement", report.agreement_ratio, 1.0, below=False)

    # completion of a diamond is the diamond; points within the CLI's
    # eps_shell of its boundary are skipped, as both predicates jump there
    radius = 2.0
    diamond = cl.Diamond.from_ball(0.0, (0.0, 0.0, 0.0), radius)
    sample = rng.uniform(-1.5 * radius, 1.5 * radius, size=(cfg["diamond_points"], 4))
    d = np.abs(sample[:, 0]) + np.linalg.norm(sample[:, 1:], axis=1)
    tested = sample[np.abs(d - radius) >= 1e-3 * radius]
    mismatches = sum(cl.completion_member(diamond, p) != bool(diamond.contains(p))
                     for p in tested)
    out.check("diamond_completion_mismatches", mismatches, 0)
    out.value("logic_disagreement",
              (1.0 - report.agreement_ratio) + mismatches / len(tested))

    r, gamma = 3.0, 0.5
    flat_patch = cl.GraphPatch(FlatSurface(0.0), loc.BallMask((0.0, 0.0, 0.0), r))
    cone_patch = cl.GraphPatch(ConeSurface(-gamma, (0.0, 0.0, 0.0), gamma * r),
                               loc.BallMask((0.0, 0.0, 0.0), r))
    p1, p2 = cl.rcl_well_defined_check(state.spec, flat_patch, cone_patch,
                                       backend=state.backend, seed=seed, **quad)
    band = abs(p1.probability - p2.probability) / norm2
    out.check("rcl_flat_vs_cone_band", band, TOL["logic_band"])
    out.value("rcl_band", band)
    return out


WORKLOADS = {
    "flat-n32": (flat_solve, N32, dict(N16, tol=1e-6, landmarks=300)),
    "curved-n16": (curved_solve, N16, dict(TINY, tiny=True)),
    "covariance-logic-n16": (covariance_logic_solve,
                             dict(N16, logic_samples=10000, diamond_points=2000),
                             dict(TINY, logic_samples=500, diamond_points=100)),
}


def config(name, size):
    solve, full, tiny = WORKLOADS[name]
    return solve, (full if size == "full" else tiny)

