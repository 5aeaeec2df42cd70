"""Seed-to-bytes pins for small fixed-seed runs of the CLI.

Each digest is the sha256 of one output file.  A change that alters any
sampled draw, accept/reject decision, file format or split order moves at
least one digest; a change that only restructures code moves none.  When
an output change is intended, recompute the table and say why.
"""

import hashlib
from pathlib import Path

import pytest

from pcfgset import cli

GOLDEN = {
    "base": {
        "manifest.json": "396ebbfcb0eabb7923be8c7c2f835ec2969d9540cc369d9804f84d99136048df",
        "test.src": "8ac285c4eac43fb82d10f29bc74a7123f7d5434781b71e37b823505213593969",
        "test.tgt": "20ca65bbaf26c74436821358310cca1cf21ff6676d705da82905d4408a609d73",
        "train.src": "bc57b8d741a700abbef81fceb3314c0e2d1f1f697e8678dab8079a92e3ef8d4d",
        "train.tgt": "8815a5c32922f7105c11e64629d1146d337f336a8a0d88a77a5415529a1569b5",
        "valid.src": "67dc82b3d033bd8d2b4e82cb39e42e745f9b623c241046bb24accf6076f2f446",
        "valid.tgt": "74944f3dd78f00c2c40cdc154ff9433f4aca96f3eb078f88a938069d917a31d4",
    },
    "substitutivity-prim": {
        "manifest.json": "a459e24b98b99e682b86e53d169e0a1e0d80e0c0d80eb171b9eda31a4b827ef0",
        "synonyms.json": "0249f38a8c1886fbe7f70d34907ec37c7fe089e6a22e5843b566a2302b68f02f",
        "test.src": "8ac285c4eac43fb82d10f29bc74a7123f7d5434781b71e37b823505213593969",
        "test.tgt": "20ca65bbaf26c74436821358310cca1cf21ff6676d705da82905d4408a609d73",
        "train.src": "3c741ac17eb5eec60366ac819ad0b31f1662a6f6b43dc93ab943d9cf8872363e",
        "train.tgt": "fb92fbaad8a9d238a52a24237be4524b3f1fce42db7177d824403fdae4fc1108",
        "valid.src": "67dc82b3d033bd8d2b4e82cb39e42e745f9b623c241046bb24accf6076f2f446",
        "valid.tgt": "74944f3dd78f00c2c40cdc154ff9433f4aca96f3eb078f88a938069d917a31d4",
    },
    "localism": {
        "report.json": "826ad4f4db0429d772e6813f40741e3c2247f9d89b78772168344742f9d761c5",
        "strata.csv": "f46ceccb96edf3e74fda5ccf51b734ff0588e80615a16e4e2d08b3b2ace31379",
    },
    "accuracy": {
        "report.json": "0c5ed4ce3bb7155cd8ef473701857c414c3f4818d0def48f0ba6f8d5e8d6603e",
        "strata.csv": "0135f0817419023f5df722014c6d61d77b21da24c1ca03617b7b7d56753562b5",
    },
    "naturalise": {
        "kl_trace.csv": "1d397287509bdb8599bd9b7450671030078dba0b7f56ae448563b0fb2bb5d36f",
        "manifest.json": "210ee26578fe1f72fb12afe299c88ae43d08dd3d6d05c91df14c3e69d344c9b3",
        "params.json": "e1e3c3ab2d818a8d46aad8a62a20d155fcc2ca6c7a47f860ea236c292b92d975",
        "test.src": "141ba72bfdb36f7d3e3c77b6c597c601b84a5dbe663d8891ed7e7ae37310ab08",
        "test.tgt": "9722960b5cc762025f086f3fefbaa0d1891ceefc49d3c09c9e3abaffbc7bee19",
        "train.src": "b3489f8fb362a8a77317f540987de76bc664bc7b7cd063c09d6861f060697490",
        "train.tgt": "f0908f063149912e8c4fc8830a9b2aa5fbe74f2e0138900196932b470620323c",
        "valid.src": "76247d8514f33c27ea50219628a22cc4e4d988a3466a022e6c0745047b60c8af",
        "valid.tgt": "d6101eebe7d5725aae82404f64c2015a7d62af805f1b5809cc010fbaf6f08400",
    },
    "overgen": {
        "pct-0.5/exceptions.json": "a83470ed9a0c88183bfcbd87ba2c9635a5b50c39df79282a4fd372eee0cf1270",
        "pct-0.5/manifest.json": "7a87f68dbe0bada788bcff0427738403b9ccf1eb172f8b1727b53bf106053888",
        "pct-0.5/train.src": "0965d2eaac76b55f8c5ab55e627f3e805e1ff62cf0fc3d9ad6fd899073b84698",
        "pct-0.5/train.tgt": "c6e870a96b35e2510f7942c6a3ffe9b681b20079d96e66b754cd28a7766a9cdc",
    },
}


def digests(directory: Path) -> dict[str, str]:
    return {
        path.relative_to(directory).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    base = root / "base"
    assert cli.main(["generate", "--seed", "0", "--size", "1000", "--out", str(base)]) == 0
    # fraction 0.01 adds round(0.01 * 850) = 9 primitive samples per synonym
    assert cli.main([
        "testbuild", "--test", "substitutivity-prim", "--base", str(base),
        "--out", str(root / "substitutivity-prim"), "--seed", "0", "--fraction", "0.01",
    ]) == 0
    # at 50% there are too few pair-containing samples, so exceptions_apply
    # synthesises fresh ones (440 of the 1,290 train samples)
    assert cli.main([
        "testbuild", "--test", "overgen", "--base", str(base),
        "--out", str(root / "overgen"), "--seed", "0", "--exception-pct", "0.5",
    ]) == 0
    for mode in ("localism", "accuracy"):
        assert cli.main([
            "eval", mode, "--adapter", "oracle", "--data", str(base), "--out", str(root / mode),
        ]) == 0
    # the pool size the benchmark's naturalise workload runs
    assert cli.main([
        "naturalise", "--seed", "0", "--sample-size", "2000", "--out", str(root / "naturalise"),
    ]) == 0
    return root


@pytest.mark.parametrize("run", sorted(GOLDEN))
def test_golden_digests(outputs, run):
    assert digests(outputs / run) == GOLDEN[run]
