import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import achronal
from achronal import io as achio
from achronal.currents import CurrentSpec, build_fast
from achronal.grids import MomentumGrid
from achronal.localization import BallMask, Region, covariance_check, probability
from achronal.minkowski import PoincareElement, rotation
from achronal.surfaces import FlatSurface, SampledSurface
from achronal.wavepacket import make_packet

M = 1.0


def test_packet_roundtrip(tmp_path, packet16):
    path = tmp_path / "packet.achr"
    achio.save_packet(path, packet16)
    loaded = achio.load_packet(path)
    assert loaded.grid == packet16.grid
    assert loaded.mass == packet16.mass
    assert np.array_equal(loaded.amplitudes, packet16.amplitudes)
    # byte-deterministic
    path2 = tmp_path / "packet2.achr"
    achio.save_packet(path2, packet16)
    assert path.read_bytes() == path2.read_bytes()


def test_packet_header_layout(tmp_path, packet16):
    path = tmp_path / "packet.achr"
    achio.save_packet(path, packet16)
    raw = path.read_bytes()
    assert raw[:4] == b"ACHR"
    import struct
    version, = struct.unpack_from("<I", raw, 4)
    mass, = struct.unpack_from("<d", raw, 8)
    n, p = struct.unpack_from("<Id", raw, 16)
    assert version == 1 and mass == M and n == 16 and p == 3.0
    assert len(raw) == 16 + 3 * 12 + 16 ** 3 * 16


def _containers(tmp_path, packet16):
    """One file of each container, with its loader."""
    rng = np.random.default_rng(0)
    paths = {name: tmp_path / f"{name}.achr" for name in ("packet", "field", "scalar")}
    achio.save_packet(paths["packet"], packet16)
    achio.save_field_slices(paths["field"], [(0.0, rng.standard_normal((4, 3, 3, 3)))])
    achio.save_scalar_field(paths["scalar"], rng.standard_normal((3, 3, 3)), (0, 0, 0), 0.5)
    return [(paths["packet"], achio.load_packet), (paths["field"], achio.load_field_slices),
            (paths["scalar"], achio.load_scalar_field)]


def test_packet_format_errors(tmp_path, packet16):
    # every container checks its magic and its version
    for damage, message in ((lambda raw: b"NOPE" + raw[4:], "bad magic"),
                            (lambda raw: raw[:4] + (2).to_bytes(4, "little") + raw[8:],
                             "unsupported version 2")):
        for path, load in _containers(tmp_path, packet16):
            path.write_bytes(damage(path.read_bytes()))
            with pytest.raises(achio.FormatError, match=message):
                load(path)


def test_field_slices_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    slices = [(0.0, rng.standard_normal((4, 6, 6, 6))),
              (0.5, rng.standard_normal((4, 6, 6, 6)))]
    path = tmp_path / "field.achr"
    achio.save_field_slices(path, slices)
    loaded = achio.load_field_slices(path)
    assert len(loaded) == 2
    for (x0a, Ja), (x0b, Jb) in zip(slices, loaded):
        assert x0a == x0b
        assert np.array_equal(Ja, Jb)


def test_scalar_field_roundtrip(tmp_path):
    ax = np.linspace(-2, 2, 9)
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
    vals = 0.4 * np.sqrt(1 + X ** 2 + Y ** 2 + Z ** 2)
    path = tmp_path / "surface.achr"
    achio.save_scalar_field(path, vals, (-2, -2, -2), ax[1] - ax[0])
    loaded, origin, spacing = achio.load_scalar_field(path)
    assert np.array_equal(loaded, vals)
    surf = SampledSurface(loaded, origin, spacing)
    assert surf.tau(np.array([0.0, 0.0, 0.0])) == pytest.approx(0.4, abs=5e-3)


@pytest.mark.parametrize("damage", [lambda raw: raw[:-8], lambda raw: raw + bytes(8),
                                    lambda raw: raw[:14]],
                         ids=["truncated", "padded", "header_cut"])
def test_containers_reject_size_mismatch(tmp_path, packet16, damage):
    for path, load in _containers(tmp_path, packet16):
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(achio.FormatError):
            load(path)


def test_packet_descriptor_roundtrip(grid16):
    d = achio.packet_descriptor(grid16, M, "mollified_gaussian", sigma=1.0,
                                core_radius=0.9, support_radius=1.8)
    pkt = achio.packet_from_descriptor(d)
    ref = make_packet(grid16, M, sigma=1.0, core_radius=0.9, support_radius=1.8)
    assert np.array_equal(pkt.amplitudes, ref.amplitudes)


BASE_CONFIG = {
    "mass": 1.0,
    "grid": {"n": 16, "p_max": 3.0},
    "packet": {"kind": "mollified_gaussian",
               "params": {"sigma": 1.0, "core_radius": 0.9, "support_radius": 1.8}},
    "kernel": "basic:r=1.5",
    "window_half_nodes": 7,
    "factorization": {"tol": 1e-8, "landmarks": 480},
}


def base_config(command):
    """BASE_CONFIG without the keys `command` does not read: kernel-pd builds
    no current, and field-dump integrates no flux."""
    unread = {"kernel-pd": ("grid", "packet", "factorization", "window_half_nodes"),
              "field-dump": ("window_half_nodes",)}.get(command, ())
    return {k: v for k, v in BASE_CONFIG.items() if k not in unread}


# The directory that holds the imported package (``src`` in a checkout,
# ``site-packages`` when installed).  The child runs from ``cwd``, where a
# relative PYTHONPATH entry such as ``src`` names nothing, so put this
# absolute path first on the child's PYTHONPATH.
PACKAGE_ROOT = Path(achronal.__file__).resolve().parents[1]


def run_cli(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE_ROOT), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "achronal.cli", *args],
                          cwd=cwd, env=env, capture_output=True, text=True)


@pytest.fixture(scope="module")
def cfg_file(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    path = d / "config.json"
    path.write_text(json.dumps(BASE_CONFIG))
    return path


def test_cli_normalize_passes(cfg_file, tmp_path):
    out = tmp_path / "norm"
    r = run_cli(["normalize", "--config", str(cfg_file), "--out", str(out)],
                cfg_file.parent)
    assert r.returncode == 0, r.stdout + r.stderr
    results = json.loads((out / "results.json").read_text())
    assert results["checks"][0]["pass"]
    assert (out / "resolved_config.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    backend = manifest["backend"]
    assert set(backend) == {"rank", "n_landmarks", "landmark_attempts",
                            "spectral_tail", "tail_certified"}
    # the whole 480-node support fits in the first landmark count
    assert backend["n_landmarks"] == 480 and backend["landmark_attempts"] == [480]
    assert backend["tail_certified"] and backend["spectral_tail"] > 0
    assert (out / "report.csv").exists()


def test_cli_refined_normalization_keeps_refine(tmp_path, kern_basic):
    cfg = {**BASE_CONFIG, "refine": 2, "refined_grid_n": 20}
    path = tmp_path / "refined.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "norm"
    r = run_cli(["normalize", "--config", str(path), "--out", str(out)], tmp_path)
    # exit 1 is a failed check, whose results are written all the same
    assert r.returncode in (0, 1), r.stdout + r.stderr
    results = json.loads((out / "results.json").read_text())
    packet = make_packet(MomentumGrid(20, 3.0), M, "mollified_gaussian",
                         **BASE_CONFIG["packet"]["params"])
    spec = CurrentSpec(kern_basic, packet)
    backend = build_fast(spec, tol=1e-8, n_landmarks=480, seed=0)
    res = probability(spec, Region(FlatSurface(0.0)), backend=backend,
                      window_half=7, refine=2)
    norm2 = packet.norm_squared()
    assert results["refined_residual"] == pytest.approx(
        abs(res.probability - norm2) / norm2, rel=1e-10)


def test_cli_deterministic_results(cfg_file, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        r = run_cli(["normalize", "--config", str(cfg_file), "--out", str(out),
                     "--seed", "7"], cfg_file.parent)
        assert r.returncode == 0, r.stdout + r.stderr
        outs.append((out / "results.json").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("key", ["mystery", "backend", "slice_dt", "eval_tol",
                                 "tolerances.normalisation"])
def test_cli_rejects_unknown_keys(tmp_path, key):
    # a dotted key is nested: a misspelt tolerance must not fall back to
    # the default silently
    cfg = json.loads(json.dumps(BASE_CONFIG))
    *parents, leaf = key.split(".")
    node = cfg
    for name in parents:
        node = node.setdefault(name, {})
    node[leaf] = 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    r = run_cli(["normalize", "--config", str(path), "--out", str(tmp_path / "o")],
                tmp_path)
    assert r.returncode == 2, r.stdout + r.stderr
    assert "unknown keys" in r.stderr


def test_cli_rejects_zero_packet(tmp_path):
    cfg = dict(BASE_CONFIG)
    cfg["packet"] = {"kind": "mollified_gaussian",
                     "params": {"sigma": 1.0, "core_radius": 0.9,
                                "support_radius": 1.8, "center": [0, 0, 0]}}
    # a zero packet via custom kind is not expressible in JSON configs, so
    # emulate by shrinking the support below the node spacing
    cfg["packet"]["params"] = {"sigma": 0.01, "core_radius": 0.005,
                               "support_radius": 0.01}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(cfg))
    r = run_cli(["normalize", "--config", str(path), "--out", str(tmp_path / "o")],
                tmp_path)
    assert r.returncode == 2, r.stdout + r.stderr
    assert "zero packet" in r.stderr


def test_cli_unfactorizable_kernel_is_a_config_error(tmp_path):
    # an indefinite kernel's spectrum never reaches tol: exit 2 (bad
    # configuration) with a message, not 1 (failed check) with a traceback
    path = tmp_path / "osc.json"
    path.write_text(json.dumps(dict(BASE_CONFIG, kernel="oscillatory:omega=50")))
    r = run_cli(["normalize", "--config", str(path), "--out", str(tmp_path / "o")],
                tmp_path)
    assert r.returncode == 2, r.stdout + r.stderr
    assert r.stderr.startswith("factorization error: ")
    assert "Traceback" not in r.stderr


def test_cli_invariance_and_sweep(cfg_file, tmp_path):
    cfg = dict(BASE_CONFIG)
    cfg["factorization"] = {"tol": 1e-5, "landmarks": 480}
    cfg["surfaces"] = [{"type": "flat", "t0": 0.0},
                       {"type": "tilted", "e": [0, 0, 0.4]}]
    cfg["flatten_sweep"] = {"surface": {"type": "cone", "gamma": 1.0},
                            "gammas": [0.5, 0.9]}
    path = tmp_path / "inv.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "inv"
    r = run_cli(["invariance", "--config", str(path), "--out", str(out)], tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    results = json.loads((out / "results.json").read_text())
    assert len(results["flatten_sweep"]) == 2
    assert (out / "report.csv").read_text().count("flatten_gamma") == 1


def test_cli_invariance_normalizes_stress_energy(tmp_path):
    # "energy" divides each flux by the state's n-energy, so that the flux
    # through every surface reads the squared norm
    cfg = dict(BASE_CONFIG, kernel="tensor:n=(1,0,0,0)", normalization_mode="energy",
               surfaces=[{"type": "flat", "t0": 0.0}, {"type": "tilted", "e": [0, 0, 0.4]}])
    path = tmp_path / "tinv.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "tinv"
    r = run_cli(["invariance", "--config", str(path), "--out", str(out)], tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    packet = make_packet(MomentumGrid(16, 3.0), M, "mollified_gaussian",
                         **BASE_CONFIG["packet"]["params"])
    probs = json.loads((out / "results.json").read_text())["probabilities"]
    assert probs == pytest.approx([packet.norm_squared()] * 2, rel=5e-3)


@pytest.mark.parametrize("command", ["normalize", "invariance", "covariance", "logic"])
def test_cli_energy_normalization_of_a_causal_kernel_is_a_config_error(tmp_path, command):
    cfg = dict(BASE_CONFIG, normalization_mode="energy")
    if command == "covariance":
        cfg["group"] = {"rapidity": 0.25}
    path = tmp_path / "energy.json"
    path.write_text(json.dumps(cfg))
    r = run_cli([command, "--config", str(path), "--out", str(tmp_path / "o")], tmp_path)
    assert r.returncode == 2, r.stdout + r.stderr
    assert r.stderr.startswith("config error: normalization_mode 'energy'")


def test_cli_covariance(cfg_file, tmp_path):
    cfg = dict(BASE_CONFIG)
    cfg["group"] = {"rapidity": 0.25,
                    "translation": [0.0, 0.4, 0.0, 0.0],
                    "rotation": {"axis": [0, 0, 1], "angle": 1.5707963267948966}}
    cfg["regions"] = [{"surface": {"type": "flat", "t0": 0.0},
                       "mask": {"type": "ball", "center": [0, 0, 0], "radius": 4.0}}]
    # the 1e-3 translation budget presumes the default production scale;
    # this 16^3 smoke grid carries coarser mask-boundary quadrature jitter
    cfg["tolerances"] = {"covariance_translation": 2e-2}
    path = tmp_path / "cov.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "cov"
    r = run_cli(["covariance", "--config", str(path), "--out", str(out)], tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr


def test_cli_covariance_builds_from_its_config(tmp_path, monkeypatch):
    # in process, to count the builds: the config's backend (its landmarks
    # and seed) serves both sides of the rotation and the translation, which
    # keep the support, and the boost's image side; only the boosted state
    # gets a build of its own
    from click.testing import CliRunner

    from achronal import cli, localization
    builds = []

    def counting_build(spec, **kw):
        builds.append(kw)
        return build_fast(spec, **kw)

    monkeypatch.setattr(cli, "build_fast", counting_build)
    monkeypatch.setattr(localization, "build_fast", counting_build)
    cfg = dict(BASE_CONFIG, seed=3,
               group={"rapidity": 0.25, "translation": [0.0, 0.4, 0.0, 0.0],
                      "rotation": {"axis": [0, 0, 1], "angle": np.pi / 2}},
               tolerances={"covariance_translation": 2e-2})
    path = tmp_path / "cov.json"
    path.write_text(json.dumps(cfg))
    r = CliRunner().invoke(cli.main, ["covariance", "--config", str(path),
                                      "--out", str(tmp_path / "cov")])
    assert r.exit_code == 0, r.output
    assert len(builds) == 2
    # the boosted state's 508-node support needs a build of its own, with
    # the same options as the config's
    for build in builds:
        assert build["n_landmarks"] == 480 and build["seed"] == 3
        assert build["tol"] == 1e-8
    manifest = json.loads((tmp_path / "cov" / "manifest.json").read_text())
    assert manifest["backend"]["n_landmarks"] == 480
    assert set(manifest["timings_s"]) == {"build_s", "total_s"}


def test_cli_support_escape_is_a_config_error(tmp_path):
    # a boost that pushes the packet off the 16^3 grid: exit 2 (bad
    # configuration) with a message, not 1 (failed check) with a traceback
    path = tmp_path / "escape.json"
    path.write_text(json.dumps(dict(BASE_CONFIG, group={"rapidity": 1.5})))
    r = run_cli(["covariance", "--config", str(path), "--out", str(tmp_path / "o")],
                tmp_path)
    assert r.returncode == 2, r.stdout + r.stderr
    assert r.stderr.startswith("support escape: ")
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("command, change", [
    ("normalize", {"kernel": "basik:r=1.5"}),
    ("normalize", {"kernel": "basic:rr=2"}),
    ("normalize", {"kernel": "basic:r=2.5:printd"}),
    ("normalize", {"kernel": "tensor:n=(1,0,0,0):variant=std"}),
    ("normalize", {"packet": {"params": {"sigmaa": 1.0}}}),
    ("normalize", {"packet": {"kind": "gaussian"}}),
    ("normalize", {"packet": {"params": {"support_radius": 9.0}}}),
    ("invariance", {"surfaces": [{"type": "flatt"}]}),
    ("invariance", {"surfaces": [{"type": "flat", "t": 1}]}),
    ("invariance", {"flatten_sweep": {"surface": {"type": "cone", "gamma": 1.0},
                                      "gammas": [0.5, 1.5]}}),
    ("covariance", {"group": {"rapidity": 0.25},
                    "regions": [{"surface": {"type": "flat"},
                                 "mask": {"type": "ball", "center": [0, 0, 0]}}]}),
], ids=["kernel_head", "kernel_key", "kernel_flag", "kernel_variant", "packet_param",
        "packet_kind", "packet_support", "surface_type", "surface_key", "sweep_gamma",
        "mask_missing_key"])
def test_cli_malformed_values_are_config_errors(tmp_path, command, change):
    # a malformed value inside an accepted key exits 2 with one line, not 1
    # with a traceback or 0 with the value dropped
    from click.testing import CliRunner

    from achronal import cli
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**BASE_CONFIG, **change}))
    r = CliRunner().invoke(cli.main, [command, "--config", str(path),
                                      "--out", str(tmp_path / "o")])
    assert r.exit_code == 2, r.output
    assert isinstance(r.exception, SystemExit)
    assert r.stderr.startswith("config error: ") and r.stderr.count("\n") == 1


_BALL = {"type": "ball", "center": [0, 0, 0], "radius": 4.0}


@pytest.mark.parametrize("command, change", [
    ("normalize", {"kernel": 5}),
    ("invariance", {"flatten_sweep": {"surface": {"type": "flat"}}}),
    ("invariance", {"flatten_sweep": {"surface": {"type": "flat"}, "gammas": [0.5],
                                      "gamma": [1.0]}}),
    ("covariance", {"group": {"rapidity": 0.25},
                    "regions": [{"surface": {"type": "flat"}}]}),
    ("covariance", {"group": {"rapidity": 0.25},
                    "regions": [{"surface": {"type": "flat"}, "mask": _BALL, "weight": 1}]}),
    ("covariance", {"group": {"rapidity": 0.25}, "regions": {"surface": {"type": "flat"},
                                                            "mask": _BALL}}),
    ("covariance", {"group": {"rotation": {"axis": [0, 0, 2], "angle": 1.0}}}),
    ("covariance", {"group": {"rotation": {"axis": [0, 1], "angle": 1.0}}}),
    ("covariance", {"group": {"rotation": {"axis": [0, 0, 1]}}}),
    ("covariance", {"group": {"rotation": {"angle": 1.0, "axes": [0, 0, 1]}}}),
    ("covariance", {"group": {"rapidity": 0.25, "rotaton": {"angle": 1.0}}}),
    ("covariance", {"group": {"translation": [0.0, 0.4, 0.0]}}),
], ids=["kernel_not_a_string", "sweep_missing_gammas", "sweep_misspelt_key",
        "region_missing_mask", "region_unknown_key", "regions_not_a_list",
        "rotation_axis_not_unit", "rotation_axis_short", "rotation_missing_angle",
        "rotation_misspelt_key", "group_misspelt_key", "translation_short"])
def test_cli_values_outside_the_merged_keys_are_config_errors(tmp_path, command, change):
    # the keys of regions, sweeps and group elements and the kernel selector's
    # type are checked before the build: exit 2 with one line, not 1 with a
    # traceback or 0 with the key dropped
    from click.testing import CliRunner

    from achronal import cli
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**BASE_CONFIG, **change}))
    r = CliRunner().invoke(cli.main, [command, "--config", str(path),
                                      "--out", str(tmp_path / "o")])
    assert r.exit_code == 2, r.output
    assert isinstance(r.exception, SystemExit)
    assert r.stderr.startswith("config error: ") and r.stderr.count("\n") == 1


@pytest.mark.parametrize("command, change", [
    ("normalize", {"grid": {"n": 15, "p_max": 3.0}}),
    ("normalize", {"refined_grid_n": 15}),
    ("normalize", {"refine": 0}),
    ("normalize", {"refine": -1}),
    ("normalize", {"refine": 1.5}),
    ("normalize", {"window_half_nodes": 0}),
    ("normalize", {"window_half_nodes": -3}),
    ("normalize", {"window_half_nodes": 9}),
    ("normalize", {"seed": -1}),
    ("covariance", {"group": {"rapidity": 0.25}, "current_points": 0}),
    ("field-dump", {"compare_points": -1}),
    ("field-dump", {"times": "0"}),
    ("normalize", {"grid": {"n": 16, "p_max": -3}}),
    ("normalize", {"grid": {"n": 16, "p_max": "x"}}),
    ("normalize", {"factorization": {"tol": "x", "landmarks": 480}}),
    ("normalize", {"factorization": {"tol": -1, "landmarks": 480}}),
    ("normalize", {"factorization": {"tol": 1e-8, "landmarks": 0}}),
    ("normalize", {"factorization": {"tol": 1e-8, "landmarks": 1.5}}),
    ("normalize", {"tolerances": {"normalization": "x"}}),
    ("kernel-pd", {"gram": {"points": 0}}),
    ("kernel-pd", {"gram": {"points": -5}}),
    ("kernel-pd", {"gram": {"points": 20.7}}),
    ("kernel-pd", {"gram": {"ball_radius_over_mass": -3}}),
    ("logic", {"logic": {"radius": -1}}),
    ("logic", {"logic": {"samples": -10}}),
    ("logic", {"logic": {"samples": 0}}),
    ("logic", {"logic": {"samples": 12.5}}),
    ("logic", {"logic": {"gamma": 2}}),
    ("logic", {"logic": {"eps_shell": -1}}),
    ("normalize", {"mass": True}),
    ("normalize", {"mass": "x"}),
    ("normalize", {"packet": {**BASE_CONFIG["packet"], "margin": True}}),
    ("normalize", {"packet": {**BASE_CONFIG["packet"], "margin": 1.7}}),
    ("covariance", {"group": {"translation": [True, 0, 0, 0]}}),
    ("covariance", {"group": {"rotation": {"angle": True}}}),
    ("covariance", {"group": {"rapidity": True}}),
    ("invariance", {"flatten_sweep": {"surface": {"type": "flat"}, "gammas": [True]}}),
    ("invariance", {"surfaces": {"type": "flat"}}),
], ids=["grid_n_odd", "refined_grid_n_odd", "refine_zero", "refine_negative",
        "refine_fraction", "window_zero", "window_negative", "window_past_half_n",
        "seed_negative", "current_points_zero", "compare_points_negative",
        "times_a_string", "p_max_negative", "p_max_a_string", "tol_a_string",
        "tol_negative", "landmarks_zero", "landmarks_fraction", "tolerance_a_string",
        "gram_points_zero", "gram_points_negative", "gram_points_fraction",
        "gram_radius_negative", "logic_radius_negative", "logic_samples_negative",
        "logic_samples_zero", "logic_samples_fraction", "logic_gamma_past_one",
        "logic_eps_shell_negative", "mass_a_bool", "mass_a_string", "margin_a_bool",
        "margin_fraction", "translation_with_a_bool", "rotation_angle_a_bool",
        "rapidity_a_bool", "sweep_gamma_a_bool", "surfaces_an_object"])
def test_cli_values_out_of_range_are_config_errors(tmp_path, command, change):
    # grid sizes and momentum range, the mass, counts, the packet margin, the
    # factorization, tolerances, the window, group elements, surfaces and
    # sweeps, the gram and logic values and the dump times are checked before
    # the build: exit 2 with one line naming the key, not 1 with a traceback
    # or 0 with the value truncated, ignored, read as a number or iterated
    from click.testing import CliRunner

    from achronal import cli
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**base_config(command), **change}))
    r = CliRunner().invoke(cli.main, [command, "--config", str(path),
                                      "--out", str(tmp_path / "o")])
    assert r.exit_code == 2, r.output
    assert isinstance(r.exception, SystemExit)
    assert r.stderr.startswith(tuple(f"config error: {key}" for key in change))
    assert r.stderr.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_cli_seed_override_is_checked(tmp_path):
    # --seed replaces the config's seed, so its rule applies before the build
    from click.testing import CliRunner

    from achronal import cli
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BASE_CONFIG))
    r = CliRunner().invoke(cli.main, ["normalize", "--config", str(path),
                                      "--out", str(tmp_path / "o"), "--seed", "-1"])
    assert r.exit_code == 2, r.output
    assert r.stderr.startswith("config error: seed: ") and r.stderr.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, change, key", [
    ("kernel-pd", {"grid": {"n": 8, "p_max": 3.0}}, "grid"),
    ("kernel-pd", {"packet": {"params": {"sigma": 100.0}}}, "packet"),
    ("kernel-pd", {"factorization": {"tol": 0.5, "landmarks": 1}}, "factorization"),
    ("kernel-pd", {"window_half_nodes": 3}, "window_half_nodes"),
    ("kernel-pd", {"refine": 2}, "refine"),
    ("field-dump", {"kernel": "tensor:n=(1,0,0,0)", "normalization_mode": "energy"},
     "normalization_mode"),
    ("field-dump", {"window_half_nodes": 3}, "window_half_nodes"),
    ("normalize", {"tolerances": {"oracle": 1e-6}}, "oracle"),
    ("covariance", {"group": {"rapidity": 0.25}, "regions": []}, "regions"),
], ids=["pd_grid", "pd_packet", "pd_factorization", "pd_window", "pd_refine",
        "dump_normalization_mode", "dump_window", "normalize_oracle_tolerance",
        "covariance_no_regions"])
def test_cli_keys_a_command_does_not_read_are_config_errors(tmp_path, command, change, key):
    # a command accepts only the keys its body reads: a key it would ignore,
    # or an empty region list, exits 2 with one line naming the key
    from click.testing import CliRunner

    from achronal import cli
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**base_config(command), **change}))
    r = CliRunner().invoke(cli.main, [command, "--config", str(path),
                                      "--out", str(tmp_path / "o")])
    assert r.exit_code == 2, r.output
    assert r.stderr.startswith("config error: ") and r.stderr.count("\n") == 1
    assert key in r.stderr
    assert not (tmp_path / "o").exists()


def test_cli_covariance_writes_its_default_region_and_axis(tmp_path, kern_basic):
    # with no regions and a rotation without an axis, the table's defaults
    # run, the resolved config states them, and the rotation's flux row is
    # the covariance check on the flat t = 0 surface's ball of radius 4
    from click.testing import CliRunner

    from achronal import cli
    path = tmp_path / "cov.json"
    path.write_text(json.dumps(dict(BASE_CONFIG, group={"rotation": {"angle": np.pi / 2}})))
    out = tmp_path / "cov"
    r = CliRunner().invoke(cli.main, ["covariance", "--config", str(path), "--out", str(out)])
    assert r.exit_code == 0, r.output
    resolved = json.loads((out / "resolved_config.json").read_text())
    ball = BallMask((0, 0, 0), 4.0)
    assert resolved["regions"] == [{"surface": FlatSurface(0.0).descriptor(),
                                    "mask": ball.descriptor()}]
    assert resolved["group"]["rotation"] == {"angle": np.pi / 2, "axis": [0, 0, 1]}
    packet = make_packet(MomentumGrid(16, 3.0), M, "mollified_gaussian",
                         **BASE_CONFIG["packet"]["params"])
    spec = CurrentSpec(kern_basic, packet)
    g = PoincareElement.from_lorentz(rotation(np.array([0.0, 0.0, 1.0]), np.pi / 2))
    lhs, rhs = covariance_check(spec, g, Region(FlatSurface(0.0), ball),
                                backend=build_fast(spec, tol=1e-8, n_landmarks=480, seed=0),
                                window_half=7, refine=1, normalization="raw")
    rows = list(csv.reader((out / "report.csv").read_text().splitlines()))
    assert rows[1][:4] == ["rotation", ball.label(), repr(lhs.probability),
                           repr(rhs.probability)]


def _table_rules(table, path=""):
    """(dotted key, default, rule) for every key of a config table, nested
    tables included."""
    for key, entry in table.items():
        name = f"{path}.{key}" if path else key
        if isinstance(entry, dict):
            yield from _table_rules(entry, name)
            continue
        default, rule = entry
        yield name, default, rule
        if isinstance(rule, (dict, list)):
            yield from _table_rules(rule if isinstance(rule, dict) else rule[0], name)


def test_cli_config_table_gives_every_key_a_rule_its_default_keeps():
    from achronal import cli
    for table in cli._COMMAND_KEYS.values():
        for name, default, rule in _table_rules(table):
            if isinstance(rule, tuple):
                test, words = rule
                assert callable(test) and isinstance(words, str) and words, name
            else:
                assert isinstance(rule, dict) or (len(rule) == 1 and isinstance(rule[0], dict))
            if default is not cli._REQUIRED and default is not cli._ABSENT:
                # the default, given explicitly, passes its key's rule unchanged
                assert cli._merge({name: (default, rule)}, {name: default}) == {name: default}


def test_cli_kernel_pd_and_oscillatory(tmp_path):
    path = tmp_path / "pd.json"
    path.write_text(json.dumps(base_config("kernel-pd")))
    out = tmp_path / "pd"
    r = run_cli(["kernel-pd", "--config", str(path), "--out", str(out)], tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    assert (out / "gram.csv").exists()
    bad = base_config("kernel-pd")
    bad["kernel"] = "oscillatory:omega=50"
    path2 = tmp_path / "pd_bad.json"
    path2.write_text(json.dumps(bad))
    out2 = tmp_path / "pd2"
    r2 = run_cli(["kernel-pd", "--config", str(path2), "--out", str(out2)], tmp_path)
    # negative eigenvalue reported as a failed check, not a crash of the child
    assert r2.returncode == 1, r2.stdout + r2.stderr
    assert (out2 / "results.json").exists(), r2.stdout + r2.stderr
    check, = json.loads((out2 / "results.json").read_text())["checks"]
    assert check["name"] == "gram_min_eigenvalue"
    assert not check["pass"] and check["value"] < 0


def test_cli_kernel_pd_at_large_momenta(tmp_path):
    # momenta up to 300 m: the on-shell products cancel below m^2 unless clamped
    path = tmp_path / "pd.json"
    path.write_text(json.dumps(dict(base_config("kernel-pd"),
                                    gram={"points": 200, "ball_radius_over_mass": 300})))
    out = tmp_path / "pd"
    r = run_cli(["kernel-pd", "--config", str(path), "--out", str(out)], tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    check, = json.loads((out / "results.json").read_text())["checks"]
    assert check["name"] == "gram_min_eigenvalue" and check["pass"]


def test_cli_logic(tmp_path):
    cfg = dict(BASE_CONFIG)
    cfg["factorization"] = {"tol": 1e-5, "landmarks": 480}
    cfg["logic"] = {"radius": 3.0, "gamma": 0.5, "samples": 1500,
                    "eps_shell": 1e-3}
    path = tmp_path / "logic.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "logic"
    r = run_cli(["logic", "--config", str(path), "--out", str(out)], tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr


def test_cli_field_dump_roundtrip(tmp_path):
    cfg = base_config("field-dump")
    cfg["times"] = [0.0, 0.4]
    path = tmp_path / "fd.json"
    path.write_text(json.dumps(cfg))
    # seed 2 draws only far-field compare nodes, where a figure relative to
    # the largest sampled |J| rather than the field's peak exceeds 1e-6
    for seed in ("0", "2"):
        out = tmp_path / f"fd{seed}"
        r = run_cli(["field-dump", "--config", str(path), "--out", str(out),
                     "--seed", seed], tmp_path)
        assert r.returncode == 0, r.stdout + r.stderr
        checks = json.loads((out / "results.json").read_text())["checks"]
        assert [c["name"] for c in checks] == ["dump_direct_vs_fast"]
        slices = achio.load_field_slices(out / "field.achr")
        assert [s[0] for s in slices] == [0.0, 0.4]
        assert slices[0][1].shape == (4, 16, 16, 16)


def test_cli_tolerance_scale(cfg_file, tmp_path):
    # scaling tolerances to absurdly small values must flip the exit code
    out = tmp_path / "t"
    r = run_cli(["normalize", "--config", str(cfg_file),
                 "--out", str(out), "--tolerance-scale", "1e-9"],
                cfg_file.parent)
    assert r.returncode == 1, r.stdout + r.stderr
    # the run happened: exit code 1 is also what a failed import gives
    assert (out / "results.json").exists(), r.stdout + r.stderr
    check, = json.loads((out / "results.json").read_text())["checks"]
    assert check["name"] == "normalization_residual" and not check["pass"]
    assert "[FAIL] normalization_residual" in r.stdout
