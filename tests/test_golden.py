"""Seed-to-bytes pins for small fixed-seed runs of the CLI.

Each digest is the sha256 of one output file.  A change that alters any
sampled draw, accept/reject decision, file format or split order moves at
least one digest; a change that only restructures code moves none.  When
an output change is intended, recompute the table and say why.
"""

import hashlib
from pathlib import Path

import pytest

from pcfgset import cli, corpus_io

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
    "systematicity": {
        "manifest.json": "37ecaad9f63c1874ad8d65cc47d68269d9b587f03c0e4163a214f192f3b4879c",
        "pairs.json": "5e7a6fba72c186fe5986850db140346c1321b2c88ab4add79c4d227e70f6d330",
        "test.src": "2309f79da747f23bc2b77f86b43c4e2b612725d7956c0d5da10b2d3d46f7a307",
        "test.tgt": "6d89a35dcf9acfef07c91c24cf2c40eafabad38431981ebe1ad64874f688dcfc",
        "train.src": "6d8929fc1aa3d719e7c7853b3c37e050d447254b15cce10f60e605e189690357",
        "train.tgt": "52bf6ba17bd591ea5f81173c15cc3f0af789bd5f70c8f0f70b5d4d9c38a5c9f0",
    },
    "productivity": {
        "manifest.json": "25f5b3325f9dc4b2015f1e975d27c6a8c77060f668f7b4bfe13afc4330e0ec07",
        "test.src": "7ee59bef958c572de41e8aa69ff975f75bea7671dff1dbc113ca53f08e3b53a5",
        "test.tgt": "74ce21346d5b261652017ae59fad0b6ae162edf946ee099b7fecdabf5a5f398c",
        "train.src": "5e334b8d54df868c326b94620a958fceb9d780f35e2f9c8b1f892d843e484719",
        "train.tgt": "5245ad184f01f1c83ff736990b8de31fe2e5b9b9f6406594ececbf691bcb9c66",
    },
    "substitutivity-ed": {
        "manifest.json": "bb8acd55d2cdae702a2cf8528938271013ebfc4017726d8bc8b38c38e29fd4c2",
        "synonyms.json": "0249f38a8c1886fbe7f70d34907ec37c7fe089e6a22e5843b566a2302b68f02f",
        "test.src": "8ac285c4eac43fb82d10f29bc74a7123f7d5434781b71e37b823505213593969",
        "test.tgt": "20ca65bbaf26c74436821358310cca1cf21ff6676d705da82905d4408a609d73",
        "train.src": "cd158b73e1aebc19f6a2774ac938f9201884e0ff49161ab7a45c622fb82fe97b",
        "train.tgt": "8815a5c32922f7105c11e64629d1146d337f336a8a0d88a77a5415529a1569b5",
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
        "kl_trace.csv": "35c132a9bf41acccec45b94e3aed5c824bb3f36d2d5c0a7f84e7802a100f7926",
        "manifest.json": "a6d07892aae79607a28714c786b3bd3c21f74198053a23d51fa679671ca2cfcf",
        "params.json": "5faffcb2e10dd10f742324ab826455e8f421ec71f1a792cfb52c2b8b73edfda0",
        "test.src": "32691aca934745887bc7635af858a45d834109dcf1f0d5e7a796d1bc97f38165",
        "test.tgt": "263d21c988a9a47aebf3c15a70ad3cbe481498c58cf064d4cb8f21c78b62562b",
        "train.src": "b3bf9bc86709872e68ee0471c94c342593c5c7b157e0744a2640d65f681c525e",
        "train.tgt": "c29ab92e001f1d08ea212e5e8586da67f6e300826cf98b34bde11a14c41acf49",
        "valid.src": "f9824697b8095be9211c108d1207470d2ff296b5a410fd4c3161f6cb199a21e8",
        "valid.tgt": "bbb79dc5b9be641ce9de95aca3bc31ed573327326a22a3419d4f4d927ed67a4a",
    },
    "eos": {
        "report.json": "fe2be5f8f3d5e982d4321a36718ddd81f6b89e28c8b0f3c79f0a758c32d8d217",
        "strata.csv": "0135f0817419023f5df722014c6d61d77b21da24c1ca03617b7b7d56753562b5",
    },
    "eos-preds": {
        "report.json": "a2ca8533bcda8e52e7e7c6beda4f5ef53484c6e4b4498de162ce7486cb853199",
        "strata.csv": "8b8703a8f0b1d3f45292820dde3c9a65f7fa25d40614b3792ac4396af577398a",
    },
    "length-gen": {
        "report.json": "06bc232cf55149baed40db8d5cf6257da1dc8932eef8a84820d89e8487ddfaca",
        "strata.csv": "ee9f8f6a0fcf27c951df4e63a6ebc81d740c5639aa435733caa5fdbb8beedfce",
    },
    "overgen-profile": {
        "report.json": "55cf4bb578291b3d7fe44b4913c6a8f75f0a3e7b8f1d78e4ffdcfb63786c54da",
        "strata.csv": "c3169347266d34a609c012ffd2b9c83ff66b9061aad45d9953bd8a1067013a50",
    },
    "overgen": {
        "pct-0.5/exceptions.json": "a83470ed9a0c88183bfcbd87ba2c9635a5b50c39df79282a4fd372eee0cf1270",
        "pct-0.5/manifest.json": "7a87f68dbe0bada788bcff0427738403b9ccf1eb172f8b1727b53bf106053888",
        "pct-0.5/train.src": "0965d2eaac76b55f8c5ab55e627f3e805e1ff62cf0fc3d9ad6fd899073b84698",
        "pct-0.5/train.tgt": "c6e870a96b35e2510f7942c6a3ffe9b681b20079d96e66b754cd28a7766a9cdc",
    },
    "overgen-grid": {
        "pct-0.0001/exceptions.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "pct-0.0001/manifest.json": "20de9125d7ccb598845dd2a7d6b1f8cff13fd7798b4b2d88a85b2865ba655dc7",
        "pct-0.0001/train.src": "bc57b8d741a700abbef81fceb3314c0e2d1f1f697e8678dab8079a92e3ef8d4d",
        "pct-0.0001/train.tgt": "8815a5c32922f7105c11e64629d1146d337f336a8a0d88a77a5415529a1569b5",
        "pct-0.0005/exceptions.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "pct-0.0005/manifest.json": "ffb282967bedaa9e7c311c7d2c2de9075b4327cb82fbda40e0a7e9964f9252dc",
        "pct-0.0005/train.src": "bc57b8d741a700abbef81fceb3314c0e2d1f1f697e8678dab8079a92e3ef8d4d",
        "pct-0.0005/train.tgt": "8815a5c32922f7105c11e64629d1146d337f336a8a0d88a77a5415529a1569b5",
        "pct-0.001/exceptions.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "pct-0.001/manifest.json": "27a719060e5df8b48d79fb55a01c0586ebab3f17c357c2500199b1ca5a613ae4",
        "pct-0.001/train.src": "bc57b8d741a700abbef81fceb3314c0e2d1f1f697e8678dab8079a92e3ef8d4d",
        "pct-0.001/train.tgt": "8815a5c32922f7105c11e64629d1146d337f336a8a0d88a77a5415529a1569b5",
        "pct-0.005/exceptions.json": "51a54c76dcea44b823ffaaef732b6729b747f131f0fcbad0364e2527eed23df5",
        "pct-0.005/manifest.json": "bfe44e53228ee3cf03cf1d1fe3952fd6efa1bc8070d6a7f2aed0fe7da11105a7",
        "pct-0.005/train.src": "bc57b8d741a700abbef81fceb3314c0e2d1f1f697e8678dab8079a92e3ef8d4d",
        "pct-0.005/train.tgt": "a6c33a74130d8b61f4cfee2a089805999a6aedb3c01c6a123b420ffb0258f6f4",
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
    # 50 of the 136 pair-containing samples make the systematicity test side
    for test, extra in (("systematicity", ["--test-size", "50"]), ("productivity", []),
                        ("substitutivity-ed", [])):
        assert cli.main([
            "testbuild", "--test", test, "--base", str(base), "--out", str(root / test),
            "--seed", "0", *extra,
        ]) == 0
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
    # the default grid selects only existing samples (5 at 0.005) and
    # synthesises none
    assert cli.main([
        "testbuild", "--test", "overgen", "--base", str(base),
        "--out", str(root / "overgen-grid"), "--seed", "0",
    ]) == 0
    for mode in ("localism", "accuracy"):
        assert cli.main([
            "eval", mode, "--adapter", "oracle", "--data", str(base), "--out", str(root / mode),
        ]) == 0
    # the pool size the benchmark's naturalise workload runs
    assert cli.main([
        "naturalise", "--seed", "0", "--sample-size", "2000", "--out", str(root / "naturalise"),
    ]) == 0
    assert cli.main([
        "eval", "eos", "--adapter", "oracle", "--data", str(base), "--out", str(root / "eos"),
    ]) == 0
    # every third prediction stops one symbol early and every fifth loses its
    # first symbol, so both fractions of the eos report are numbers
    preds = corpus_io.read_token_file(base / "test.tgt")
    for i, pred in enumerate(preds):
        if i % 3 == 0:
            del pred[-1:]
        elif i % 5 == 0:
            del pred[:1]
    corpus_io.write_predictions(root / "model.pred", preds)
    # the report names its adapter file:<path as given>, so a relative path
    # keeps the digest free of the temporary directory
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        assert cli.main([
            "eval", "eos", "--data", "base", "--preds", "model.pred", "--out", "eos-preds",
        ]) == 0
    assert cli.main([
        "eval", "length-gen", "--adapter", "oracle", "--seed", "0",
        "--functions", "echo,append,remove_first", "--lengths", "1-4", "--per-length", "3",
        "--out", str(root / "length-gen"),
    ]) == 0
    # three checkpoints from the exceptions sidecar: the rule everywhere, a
    # mix of rule, exception and neither, then the exceptions everywhere
    exceptions = root / "overgen" / "pct-0.5" / "exceptions.json"
    entries = corpus_io.read_exceptions(exceptions)
    checkpoints = root / "checkpoints"
    checkpoints.mkdir()
    corpus_io.write_predictions(checkpoints / "0_early.pred", [e.original_tgt for e in entries])
    corpus_io.write_predictions(checkpoints / "1_mid.pred", [
        (e.original_tgt, e.exception_tgt, ("Q9",))[i % 3] for i, e in enumerate(entries)
    ])
    corpus_io.write_predictions(checkpoints / "2_late.pred", [e.exception_tgt for e in entries])
    assert cli.main([
        "eval", "overgen-profile", "--exceptions", str(exceptions),
        "--preds", str(checkpoints), "--out", str(root / "overgen-profile"),
    ]) == 0
    return root


@pytest.mark.parametrize("run", sorted(GOLDEN))
def test_golden_digests(outputs, run):
    assert digests(outputs / run) == GOLDEN[run]
