"""Byte-identity pin: SHA-256 of the CLI's outputs for fixed scenarios.

Any change that moves these digests changes simulator behaviour; regenerate
them only for a deliberate output change and say why in CHANGES.md.
"""

import hashlib

import pytest

from manetsim.cli import main
from manetsim.config import parse_config_text

from .conftest import CONFIG_DIR

# scenario -> (trace.tr digest, metrics.csv digest)
DIGESTS = {
    "table1_aodv": (
        "1daa86476b4cd82c61b009584abbe5b0dac1331c0c041362423ac09eb4c676ed",
        "fbc3ec282d70f5bace4395d42f632ae69d754c33a1c60734875e71c6bbd98766"),
    "table1_saodv": (
        "dc03833bb63c7c63a4fb86825f1b61ef1e7979fb86e5f7db39f285a43da2db9e",
        "d5fa1bf2ae0378ecda5de28de706cb583f638fdcebb0d03027b18e2bffba8e87"),
    "attack_demo": (
        "faea8a0c5372c2081d681abd82326dde5fb6653afe29e52a7f21cdacec41c57c",
        "81f0927212fc9317dc50a4cbe6933189143134adabfd02f884f9fab58a0514ef"),
    "fig11_mlet": (
        "db87115a008909a02c84c946d7b86a2eb6c431b914289cfef71deea2c5c5649a",
        "6c93f5aa143622ebdcba432fead58a647e9d4247ed0aa6a6c9154adf83acf0f6"),
    # The shipped table1_saodv with per-delivery loss, covering the loss stream.
    "table1_saodv+loss": (
        "7339ec79b680b47a3e3fb23d40a464a31277fd90e0dfc20940f1f73489aaf63e",
        "f7a9c66d5f2fa9d67ac2c1605629c150083cc6c19a042c97cc63c7954a1afaaf"),
    # 60 mobile nodes on 150x150 m with a 25 m range: the medium's cell grid
    # leaves most nodes out of each neighbour search, the loss stream draws
    # for overheard unicasts, and three flood relays die mid-leg.
    "table1_aodv+grid": (
        "b1a536b6fa7c4809c50a9695c6faab23cd491a9ef26ace0c740924e11f9e56df",
        "a6c282569568e91ae24025575e20af215f227cb72a558ce3bd99478b2e42cb16"),
}

#: Keys of a shipped config replaced to make a variant scenario.
VARIANTS = {
    "table1_saodv+loss": ("table1_saodv", {"loss_prob": "0.05"}),
    "table1_aodv+grid": ("table1_aodv", {
        "nn": "60", "x": "150", "y": "150", "stop": "15", "rp": "AODV_MLET",
        "range_r": "25", "loss_prob": "0.05", "energy.initial": "3",
        "flows": "59:0:4:100:1; 30:10:4:100:2; 12:45:4:100:1.5",
        "attacker.start": "5"}),
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_run_outputs_match_pinned_digests(name, tmp_path, capsys):
    base, overrides = VARIANTS.get(name, (name, {}))
    raw = parse_config_text((CONFIG_DIR / f"{base}.cfg").read_text())
    raw.update(overrides)
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in raw.items()))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert (_sha256(out / "trace.tr"), _sha256(out / "metrics.csv")) == DIGESTS[name]
