"""Golden pin: SHA-256 hashes of what fixed (config, seed) cases output.

Each case plays runs 1..N of base seed 1, exactly as
`sentinel simulate --runs N --seed 1` does, and hashes the records file
bytes and the JSON of every run's event stream. The final world of run 1 at
0, 1 and 2 agents, at the default centre and off it, is also hashed as a
rendered pixmap, both in process and as `sentinel render` replays it. A
change that moves a hash changes simulator output; it must say why in
CHANGES.md and update the hash in the same commit.
"""

import dataclasses
import functools
import hashlib
import json
import random

import pytest

from sentinel.cli import main
from sentinel.config import apply_overrides, default_config
from sentinel.experiment import mix_seed, run_episode, write_records
from sentinel.render import ppm_bytes, render_frame

from test_acceptance import random_valid_config

BASE_SEED = 1


def _random_configs(count):
    rng = random.Random(20260819)
    return [random_valid_config(rng) for _ in range(count)]


CASES = {
    "ea0": (apply_overrides(default_config(), num_eas=0), 30),
    "ea1": (apply_overrides(default_config(), num_eas=1), 30),
    "ea2": (apply_overrides(default_config(), num_eas=2), 30),
    # One agent that accuses on the first violation and sees far: it starts
    # pursuits it cannot finish within four thresholds, so the failsafe fires.
    "failsafe": (
        apply_overrides(
            default_config(), num_eas=1, failsafe_enabled=True, suspicion_threshold=1, ea_monitor_radius=40.0
        ),
        10,
    ),
    **{f"random{i}": (cfg, 3) for i, cfg in enumerate(_random_configs(5))},
    # Off-centre: the patrol circle reaches x = -10, so drones saturate at
    # the west wall, and fresh spawns land inside an agent's monitor range.
    **{
        f"edge{n}": (apply_overrides(default_config(), num_eas=n, center=(20.0, 60.0), ea_monitor_radius=40.0), 10)
        for n in (0, 1, 2)
    },
}

GOLDEN = {
    "ea0": (
        "31e9a4eb1e19550be67b0bd8f3e11777eb63377bc0af0c01f1dd43a2e0e8c298",
        "cba488efcc3ab46147a5ace26bc384697546397c7002f997642a90c77f7b179d",
    ),
    "ea1": (
        "23a661f1f47c1b3249f3bb15d749e9e942ada66480d5f5cf7627e5c6a824b620",
        "65a6d4fb97bece64829b3d4cdf41857ec73abd246f5f7681c5c116013fec505f",
    ),
    "ea2": (
        "544a9a6247156b35a7dcb4db5903534c704ab0c84d5f0725979bff6079340004",
        "fdf6444bb9ef02ca50ee6d0d4b385494f398f764a887097f15717cceada84a5b",
    ),
    "failsafe": (
        "1f7fa23a86dd0cad44eb29bc09d153bef1da1a0eb2cbfb7df5eaa44ced01faad",
        "ac612812d0fc6e01617e134ce2ecc6b7e8c0de99f7ee49bede97cfdd1ad13404",
    ),
    "random0": (
        "91370231ab90af741032c86c91b1641bf75ce2d355768f61672000a559ae2896",
        "ece1735293d11f85b0d8434c12a655a6c84743a2362e55a4640eb6416bb6fa04",
    ),
    "random1": (
        "ca8f9e15cface4101ca5784e272afeede82f8c9f548e866c8aa9902ee57fe66f",
        "b010bac0fc3233e13df9f1d02e236dc5d43934b92886d167ff28afc35843fd6b",
    ),
    "random2": (
        "54547e7fd16a784847b37054bd39cf23bcab893baef24752456f2556f429da7c",
        "c120d763a08294bd65afa527324d9f2f96c044c7aa7a7ba4f1e803d5ecf3aad8",
    ),
    "random3": (
        "715dad91f328cfd59d6a0a37f6fed56109d0f48cf562df3bc404c08214ad61ee",
        "e224506afa118d615e7446eb482904129c7a3fa3130161a6e8c2e0483614f98c",
    ),
    "random4": (
        "1119bf2b74115acfa15096b95e4e52b39c83cf54ead02f2a167df58a7da13bbc",
        "d04c9764700889d213ccc4ea7bfc2c19ebb651ba23abba5246deba6fe289ed82",
    ),
    "edge0": (
        "b88b6f5aa22e061fae2f225d765ac1b428973d774626eebb6ad7a4cd486730f8",
        "e8598a3e46a39cc1300f33cda704e62fbdfb99f46ed9ef1d9829719ecfc9ad2d",
    ),
    "edge1": (
        "feb104c2258219e55c3f8d7b70999d049e7973032c396aaf2e5401fad331c14a",
        "ac770cf88554a5a682ff6c2bb2b12e21591930af4c8d38ea2a0e3e306b84d69a",
    ),
    "edge2": (
        "f8276e88a5dbe754775fa7fb5935096bafdb84b5bddd7feb920c8a367984fe32",
        "5bd6708b90b30cf04523c9e97e893ba8cb3e89f771b958e46293784dfeb1c2b1",
    ),
}

GOLDEN_FRAMES = {
    "ea0": "240cb6560a06cb0f533610e0dbc16885fa07716a81c4164ea21bbb40712cb5c9",
    "ea1": "7c337d7547071a6a388aa2709301fefbbb5d828d3562694fcc09c13dc476a573",
    "ea2": "e5accaaf29fa2e85c52de95937d2a6178e5b8b9ba0d0d330c0974c7497b5b269",
    "edge0": "6d92608e626b9104f67d6eff0dceded67376d253a0a0b96fe5edc8e32a1891ce",
    "edge1": "31b7d1781076111c860b42a458abbc11f432cdae2a4d7266315fbcc18faa81fc",
    "edge2": "8a02999d50ba1efd9b9230929ef01858ae35875f6af22d64b58f9fef80f751ad",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@functools.cache
def episodes(name):
    cfg, runs = CASES[name]
    return [run_episode(cfg, i, mix_seed(BASE_SEED, i)) for i in range(1, runs + 1)]


@pytest.mark.parametrize("name", sorted(CASES))
def test_records_and_events_match_the_golden_hashes(name, tmp_path):
    path = tmp_path / "records.csv"
    write_records([record for record, _ in episodes(name)], path)
    events = [[dataclasses.asdict(e) for e in world.events] for _, world in episodes(name)]
    if name == "failsafe":
        assert any(e["kind"] == "failsafe" for run in events for e in run)
    if name in ("edge1", "edge2"):
        assert any(e["kind"] == "entry_point" for run in events for e in run)
    digests = (sha256(path.read_bytes()), sha256(json.dumps(events, sort_keys=True).encode()))
    assert digests == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_FRAMES))
def test_final_frame_matches_the_golden_hash(name):
    cfg, _ = CASES[name]
    _, world = episodes(name)[0]
    assert sha256(ppm_bytes(render_frame(world, cfg))) == GOLDEN_FRAMES[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_FRAMES))
def test_render_cli_replays_the_golden_frame(name, tmp_path, capsys):
    out = tmp_path / "frame.ppm"
    argv = ["render", "--seed", str(BASE_SEED), "--run", "1", "--eas", name[-1], "--out", str(out)]
    if name.startswith("edge"):
        cfg_file = tmp_path / "edge.cfg"
        cfg_file.write_text("center_x = 20\ncenter_y = 60\nea_monitor_radius = 40\n")
        argv += ["--config", str(cfg_file)]
    assert main(argv) == 0
    assert sha256(out.read_bytes()) == GOLDEN_FRAMES[name]
    capsys.readouterr()
