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


#: (scenario, --interval) -> digest of ``analyze --node 0`` stdout on that run's
#: trace, read with its metrics.csv.
ANALYZE_DIGESTS = {
    ("attack_demo", "0.3"):
        "89146797c1c7b9de08a847571ffb13eb9761a48d75792173999236809fda3221",
    ("attack_demo", "1"):
        "00d6bf4d2f1c86e0a3c05265d3be03695288b8397e329978a0de5d487b479bf6",
    ("fig11_mlet", "0.3"):
        "0d956f34345ddcfc5b6c2290c482290a970eb971d66430a29dde75a1051bf7ad",
    ("fig11_mlet", "1"):
        "919e365fa596ebf12f27089585a6586183f12f61945c2e9fe1f6563aff6bd255",
    ("table1_aodv", "0.3"):
        "ff5aca3724d597019f10a52924d33b7a9992c54762eb7a8881838e100876af9e",
    ("table1_aodv", "1"):
        "14014f4899c8316770fc6417e6e3e8fa1342e06f5ac615da4a23560933216690",
    ("table1_aodv+grid", "0.3"):
        "2bbc046909c8d76e142d327076bcffe48a506654b6c31c71ecf1d90e366f810b",
    ("table1_aodv+grid", "1"):
        "4ca75c74ff09bc572dcea638add49d3e0de528dd1188f0852dac4cc0f974e61e",
    ("table1_saodv", "0.3"):
        "981b6cd6947def90701da7db876433c8f87041213fa4dfb619cb6180b6d553dc",
    ("table1_saodv", "1"):
        "bc90bafa4317b9fe8021b91f62005e5c3585e7ae4e7ef5a57884e174e80b0a86",
    ("table1_saodv+loss", "0.3"):
        "d7562b8872d0e0d2523ee989b7fc073650b3195a1e5693f6b0f512ed840828f0",
    ("table1_saodv+loss", "1"):
        "de479094a3a7b0b9693163ceebbec3768b6b22323aa2e8c18356ec8f9e522580",
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def run_outputs(tmp_path_factory):
    """Output directory of each pinned scenario, run once per module."""
    outs = {}

    def run(name):
        if name not in outs:
            base, overrides = VARIANTS.get(name, (name, {}))
            raw = parse_config_text((CONFIG_DIR / f"{base}.cfg").read_text())
            raw.update(overrides)
            tmp = tmp_path_factory.mktemp(name)
            cfg = tmp / "scenario.cfg"
            cfg.write_text("".join(f"{key} = {value}\n" for key, value in raw.items()))
            assert main(["run", "--config", str(cfg), "--out", str(tmp / "out")]) == 0
            outs[name] = tmp / "out"
        return outs[name]
    return run


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_run_outputs_match_pinned_digests(name, run_outputs, capsys):
    out = run_outputs(name)
    capsys.readouterr()
    assert (_sha256(out / "trace.tr"), _sha256(out / "metrics.csv")) == DIGESTS[name]


@pytest.mark.parametrize("name,interval", sorted(ANALYZE_DIGESTS))
def test_analyze_output_matches_pinned_digests(name, interval, run_outputs, capsys):
    trace = run_outputs(name) / "trace.tr"
    capsys.readouterr()
    assert main(["analyze", "--trace", str(trace), "--interval", interval,
                 "--node", "0"]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == ANALYZE_DIGESTS[name, interval]
