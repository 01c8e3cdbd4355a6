"""Byte-identity of the CLI's data artifacts against pinned sha256 hashes.

Each case runs ``generate → partition → place ×3 strategies`` in-process
through ``fogpart.cli.main`` with ``SOURCE_DATE_EPOCH=0``. The D-SMALL case
also runs ``simulate`` for every strategy in both modes, then ``report``;
its faulty mode kills one device every 2 s, so about half the fog dies
within the 100 s horizon. The ``-d5000`` case draws deadlines from
300–5000 ms, so they bind: reliable satisfaction differs between strategies
(576, 576 and 960 of 1,856 requests) and every faulty run mixes all three
outcome statuses. The SMALL cases stop at ~29 devices. ``LARGE-n200-seed0``
has 201 devices: Louvain aggregates at least once on each complete
similarity layer (twice on CPU and STORAGE) and compression yields 3
feature partitions. The expected hashes were captured from the code before
placement routed once per gateway (the ``-d5000`` case: before the
simulator classified once per failure epoch; ``LARGE-n200-seed0``: before
the similarity layers were stored as index-ordered rows). The five
``partition/partitions.json`` hashes moved with partitions schema 2, which
drops the compressed graph and keeps the feature triplets under
``feature_partitions``, and again with schema 3, which records the
scenario's config hash; the SMALL-seed0 and both D-SMALL cases share their
partitions but not their config, so their hashes now differ. Every
``generate/scenario.json`` hash moved with scenario schema 2, which stores
each request's gateway on the request and drops the user list, the
generator's gateway list and the templates' null ``user``; the same draws
give the same requests, so no other artifact moved with it. Every
``partition/partitions.json`` and ``partition/modularity.csv`` hash moved
when ``partition_feature`` began to sum members in ascending device id: the
last bits of feature triplets and of the feature modularity changed, while
memberships, plans and outcomes did not. Every JSON hash moved again when
``dump_json`` began to write compact JSON on one line instead of with
``indent=2``; no CSV hash moved. ``INDENTED`` keeps the D-SMALL case's JSON
hashes from before, and ``test_json_reindents_to_indented_hashes`` shows
that the values did not change: each new JSON artifact, re-encoded with
``indent=2``, hashes to them. The five ``partition/partitions.json`` hashes,
and ``INDENTED``'s partitions entry, moved once more with partitions schema
4: it drops every compressed node's stored feature triplet, which ``place``
now derives from the layer partitions and the scenario's devices; each
fp's ``device_index`` is still written. No other artifact moved with it.
A change that moves any hash changes program output.
Manifests are left out: they carry the tool version, not results.

To print the hashes of the current code: ``python tests/test_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from fogpart import cli

STRATEGIES = ("multilayer", "first_fit", "connectivity_greedy")
MODES = ("reliable", "faulty")

#: case name -> (preset, seed, config overrides, run the simulator and report)
CASES = {
    "SMALL-seed0": ("SMALL", 0, {}, False),
    "SMALL-seed1": ("SMALL", 1, {}, False),
    "D-SMALL-seed0-h100": ("D-SMALL", 0, {"horizon_s": 100.0}, True),
    "D-SMALL-seed0-h100-d5000": ("D-SMALL", 0, {"horizon_s": 100.0, "deadline_range_ms": [300, 5000]}, True),
    "LARGE-n200-seed0": ("LARGE", 0, {"device_count": 200, "gateway_count": 50}, False),
}

GOLDEN = {
    "D-SMALL-seed0-h100": {
        "generate/scenario.json":
            "7a7890929c5a570f97dc01c693d24c460d74c6be9f4111901ea57f0fedacd268",
        "partition/modularity.csv":
            "4bd461a1c1dc9adefa2763a83b7c8d7070c13f6f16c7c39acdb0db5d3cfb46ec",
        "partition/partitions.json":
            "1a6ca1226c3834c6e2a70dc243fa7f0b4caee5e8fc61b77853ee0d7363a136a5",
        "place/connectivity_greedy/metrics.json":
            "ea06e4d8e8eee123147a68e3b2ab720ad50f2787097378b160941ce87705221b",
        "place/connectivity_greedy/plans.json":
            "52f4150ff8a5e86242ba1053f34c9d60a6026a8931af4a9eb73a3a95a870d23e",
        "place/first_fit/metrics.json":
            "67fe8919fdafa4c546bd20c1641d3fbd902e8597cda80d42b944674e81937218",
        "place/first_fit/plans.json":
            "9366bfc0412c225a4bb26225ce13c9e61cebec7af424de20c925e14882d33458",
        "place/multilayer/metrics.json":
            "7e8707486c51ba482ab69db625f2b22013203549530a1c38423e646483aaf752",
        "place/multilayer/plans.json":
            "25316625f2d209581ceff594ed771fd1b8442001a156be8f9a87420d304dc081",
        "report/comparison.csv":
            "2ac1bfa31068d69b7bdb6d44cbb97eb3bbd4e37a44590a5b8b275ff980ae1871",
        "report/report.json":
            "9bb317cb03308eccc3795a62c5f9c4111bc753950efacd605bd023dd290cd5a1",
        "simulate/connectivity_greedy-faulty/metrics.json":
            "399c7d144938bb8414fb94ed060adde86bb085584ee12af684ddffdb3c59e328",
        "simulate/connectivity_greedy-faulty/outcomes.csv":
            "6736bd9932cd51862cca49d744e39af9ed21d9c26cfe14d69c6cae33f1903be3",
        "simulate/connectivity_greedy-reliable/metrics.json":
            "f98a8f0e5ba3d0df747918301d094ce5954ca2f635a74ec3cca5d9fc20a68e11",
        "simulate/connectivity_greedy-reliable/outcomes.csv":
            "a2d3a2f6e7723513a8b2968b56542e08437d8c70eaacca4d23f5dc2afc0e4a2f",
        "simulate/first_fit-faulty/metrics.json":
            "1cdb172920109eed253dd6158f8dc8630c380758e0f225ee3b7874f8b8c49e10",
        "simulate/first_fit-faulty/outcomes.csv":
            "757a241e523b1e8bc7a16487bf7e2a25d815ce17a6abb06b199c39bdd0d8f918",
        "simulate/first_fit-reliable/metrics.json":
            "9e0143e3462fec99cd839da83cce8ae50ee9d34f45aef9377ee433a0dbecf813",
        "simulate/first_fit-reliable/outcomes.csv":
            "a2d3a2f6e7723513a8b2968b56542e08437d8c70eaacca4d23f5dc2afc0e4a2f",
        "simulate/multilayer-faulty/metrics.json":
            "66d174df222789653c0607367fc55ec735cf77e631a93337b799fa9ce138a7c3",
        "simulate/multilayer-faulty/outcomes.csv":
            "36ab09a65d5adbb19a1f633e544fec9d3b5968e203a5f1678e2cb927d436b1e8",
        "simulate/multilayer-reliable/metrics.json":
            "f7420493f21cb12cc27942fc773d94b9ab8d169bca20d7a342439d709bd0a280",
        "simulate/multilayer-reliable/outcomes.csv":
            "a2d3a2f6e7723513a8b2968b56542e08437d8c70eaacca4d23f5dc2afc0e4a2f",
    },
    "D-SMALL-seed0-h100-d5000": {
        "generate/scenario.json":
            "b9710c15c01df5939ae510ab0ffc20dd06aca11308eaadcd393eaf8f3454b6d4",
        "partition/modularity.csv":
            "4bd461a1c1dc9adefa2763a83b7c8d7070c13f6f16c7c39acdb0db5d3cfb46ec",
        "partition/partitions.json":
            "15e0fd98d9593a9c6b02afa001afedd56f7b90f77ac1e8edb05e5f08fab83b46",
        "place/connectivity_greedy/metrics.json":
            "ea06e4d8e8eee123147a68e3b2ab720ad50f2787097378b160941ce87705221b",
        "place/connectivity_greedy/plans.json":
            "52f4150ff8a5e86242ba1053f34c9d60a6026a8931af4a9eb73a3a95a870d23e",
        "place/first_fit/metrics.json":
            "67fe8919fdafa4c546bd20c1641d3fbd902e8597cda80d42b944674e81937218",
        "place/first_fit/plans.json":
            "9366bfc0412c225a4bb26225ce13c9e61cebec7af424de20c925e14882d33458",
        "place/multilayer/metrics.json":
            "7e8707486c51ba482ab69db625f2b22013203549530a1c38423e646483aaf752",
        "place/multilayer/plans.json":
            "25316625f2d209581ceff594ed771fd1b8442001a156be8f9a87420d304dc081",
        "report/comparison.csv":
            "e927d232c407c304b92d5d56d8bdad209a154dab31eacdabaf9cfcdc7aba68c5",
        "report/report.json":
            "c9d1ea624a724ecc4c98dbfd076424f165260f03c525729edc225aeb68aa2170",
        "simulate/connectivity_greedy-faulty/metrics.json":
            "e82395e48b22889f7bdf91e0670a083235751112074c9fc7361a85a339bc8787",
        "simulate/connectivity_greedy-faulty/outcomes.csv":
            "c0ac68eeb8152573226291b03632b6f7c08faaae6a8924c464706c41877c4fff",
        "simulate/connectivity_greedy-reliable/metrics.json":
            "a7c25ba7c8dcdf1f33a9b7c49cf6fb280ce19125c99551d44aa77ecca27a8c1f",
        "simulate/connectivity_greedy-reliable/outcomes.csv":
            "6239dcf510a222458694a9e078a63b4e2efa4a2425303d2529849381b025c271",
        "simulate/first_fit-faulty/metrics.json":
            "ae783fa51b78a26cc964a401c94788d60dbfb2902e7eb363ae2c9602c911216a",
        "simulate/first_fit-faulty/outcomes.csv":
            "df1c76c8c3ac4bda5b9148eb5b54c10c84b234889600a02f49510fb4e118c5fd",
        "simulate/first_fit-reliable/metrics.json":
            "17c1724492595da53cdba0fcd1227bfabd4a08dc0c8cae6a65d148502ac73d72",
        "simulate/first_fit-reliable/outcomes.csv":
            "999b9e7634dcebf502e93210d92ad272af3f69af1f84ffa230c2bfd0d7d88b3b",
        "simulate/multilayer-faulty/metrics.json":
            "a4f759f9fb0ea6f4e97aa2d8fb1bc5dc7ddab74266cae2d76e668438943d1b78",
        "simulate/multilayer-faulty/outcomes.csv":
            "c23ee2b71ae8b0c39b5f86a17226cc97b29f11cb6186dc2393317b896d0433d8",
        "simulate/multilayer-reliable/metrics.json":
            "0853cc503fb57f58ff658eec3509cb2035c2b82d374dc255496e001193afa5e3",
        "simulate/multilayer-reliable/outcomes.csv":
            "999b9e7634dcebf502e93210d92ad272af3f69af1f84ffa230c2bfd0d7d88b3b",
    },
    "LARGE-n200-seed0": {
        "generate/scenario.json":
            "40e7bc477c947e3ec61c28372b90e24b62b6e4aacaf99cdd7e00d042d5be9c59",
        "partition/modularity.csv":
            "cc20e987d7b26518dd4c5378f9df2919a7466c86a80d5c675d2ff67fd58c9d2d",
        "partition/partitions.json":
            "fbebacc2682b2ee51a3dd8bea301ce7aa8d37fee5dd033d6e872c919c4535e23",
        "place/connectivity_greedy/metrics.json":
            "6f7c6df3f5423f0e87ba85aed10670f0c35f8d1afe6973c7b7142bfbd094cf93",
        "place/connectivity_greedy/plans.json":
            "1f1cee441bd47eeab2922164868e71fd9dcc6f40839da8cacf69b090cf90ebaf",
        "place/first_fit/metrics.json":
            "310745392cbbed58fc79ff23470d61a7a847520521a0be36f1e1213f11b896af",
        "place/first_fit/plans.json":
            "81b554ee35e4d46a0990f2330edc5734cdb9e553757ef2c4aff777a643875b6d",
        "place/multilayer/metrics.json":
            "4dc1fc037eaa3a8a2cfdf8040b66caee0e0eaff15a4b49e151ef9789dd836cf6",
        "place/multilayer/plans.json":
            "d63511f9fd227912aa2182b5a52a83b053077918ae640dbb6a7751f342314481",
    },
    "SMALL-seed0": {
        "generate/scenario.json":
            "7776a8ca8be9064fabc6ca81794fa889c05841baffeadbb7b54c193a6d7b07c4",
        "partition/modularity.csv":
            "4bd461a1c1dc9adefa2763a83b7c8d7070c13f6f16c7c39acdb0db5d3cfb46ec",
        "partition/partitions.json":
            "8c1b064269b912a08e872b044a8f5c2fcc3723496c101e04b316e68f8da9f9a0",
        "place/connectivity_greedy/metrics.json":
            "3aac2c8b020e22f9ff8c3ca7db0c23ffc821a02b1cfefe997e43b5dd264eb3a5",
        "place/connectivity_greedy/plans.json":
            "52f4150ff8a5e86242ba1053f34c9d60a6026a8931af4a9eb73a3a95a870d23e",
        "place/first_fit/metrics.json":
            "04ccc7de99467c5856ead5edbab52bbae32dda5a76212bdb8fa177be807a831c",
        "place/first_fit/plans.json":
            "9366bfc0412c225a4bb26225ce13c9e61cebec7af424de20c925e14882d33458",
        "place/multilayer/metrics.json":
            "3496e2bbb22c9ba201a510cb3b752d6adb8fb8c1bddcc62694b5a1449d42a5a0",
        "place/multilayer/plans.json":
            "25316625f2d209581ceff594ed771fd1b8442001a156be8f9a87420d304dc081",
    },
    "SMALL-seed1": {
        "generate/scenario.json":
            "0b333f062c21a9c70a4ccccd059c711ad4a6b078d0d0ad48cbe52e788e26ce75",
        "partition/modularity.csv":
            "3c50917e4a9c5de376b92d8f765fb13d146af5c63baade260dae57f62c44bd2c",
        "partition/partitions.json":
            "188234df19983ca8cb4d90fdb694e68eb8e713196256016b7f1c0340fabc7a69",
        "place/connectivity_greedy/metrics.json":
            "5ab7f5661c2b7e3462c0d4ecd10e3a374c3f02ad9e67d0c1988f57c495bacfaa",
        "place/connectivity_greedy/plans.json":
            "5d1cc1f26dfa83d8f56bc262ed08461e6131dbc2d393b2d053811853965d2ccb",
        "place/first_fit/metrics.json":
            "b2ccb98ac556b2641533263a018bd791b517a499ab3650fce0802046f7b237ea",
        "place/first_fit/plans.json":
            "9f3e6728baf669657015b7d465e84551cf983ecaea2d989c9c3c3d1c58bfb316",
        "place/multilayer/metrics.json":
            "6be87c0398fa7d0da7f58113f97e2bc78cdf1372acb1f42a233ee82c71bd92f7",
        "place/multilayer/plans.json":
            "e1bc18eb441ff2f78ef292c93cca581b00424faa83b26a3b05b22cf6bd5c5f36",
    },
}


#: D-SMALL-seed0-h100's JSON hashes when ``dump_json`` wrote ``indent=2``; that
#: case writes every kind of JSON artifact. The partitions entry is schema 4's.
INDENTED_CASE = "D-SMALL-seed0-h100"
INDENTED = {
    "generate/scenario.json":
        "74215a5318531bfd53b9eec8635b194020cde22419fcdc0a17b2f840a7cb1202",
    "partition/partitions.json":
        "61ac226d4805eb1111cb2d08b9e58f95bbb1f76dd0f9c545cd9c708d315936a0",
    "place/connectivity_greedy/metrics.json":
        "3b2afce3013ba8b85abb52ddb64640e2672ad04993cb9d5264923ad35ccbb6e9",
    "place/connectivity_greedy/plans.json":
        "0bb574c3b771441cb3cafc9b81c24670ba8181fd772e6c10ca20a3302c741ca8",
    "place/first_fit/metrics.json":
        "d8c01453018aa20629af43a1e5a231cbc994828cb74a230a446d07d4ff2855af",
    "place/first_fit/plans.json":
        "477eb8c95f674124e625a0eb8e1a77b5e0cca3016b6a02f763733bfefd699323",
    "place/multilayer/metrics.json":
        "e5801a8fddd753658977994fdd9a5e3049ece215f62494465ed8b91ec0e73022",
    "place/multilayer/plans.json":
        "4ee95cddf797115d6a3cd5c7346ff265ab300e02f24afff11b07da9a3ecf6a18",
    "report/report.json":
        "e66bb6fca14820aedd75782cb4664d8323528972e77211d69f2464dee3267298",
    "simulate/connectivity_greedy-faulty/metrics.json":
        "9c3a5e5ca724878cd6708aa4f0dea19284b622a45fdef956ca94674f15119a6b",
    "simulate/connectivity_greedy-reliable/metrics.json":
        "9f0d48eb91b10ef746e1cb3f6e761c305cf667db23c51a266bdabc8026714282",
    "simulate/first_fit-faulty/metrics.json":
        "edbe76107b04b76a08f6b6fbacdf9c3a4de7f1d210bc2823ca2f6c7a0125b91c",
    "simulate/first_fit-reliable/metrics.json":
        "a59ccc418252e92248b1f41cb453ce4961dc18ca5fcc0c251f0979cc4ee8ec26",
    "simulate/multilayer-faulty/metrics.json":
        "aa05babeec06679a32e8bb12b0697dc2608a00caab93408ffb8255181b1c959d",
    "simulate/multilayer-reliable/metrics.json":
        "94af249e6c3b0c8e73681b682108084118c497537dd4ac4a1550871e70efbb03",
}


def run_chain(out: Path, preset: str, seed: int, overrides: dict, simulate: bool) -> dict[str, str]:
    """Run one case's commands under ``out``; sha256 of every data artifact."""
    config = out / "config.json"
    config.write_text(json.dumps(overrides, sort_keys=True))
    scenario = out / "generate" / "scenario.json"
    partitions = out / "partition" / "partitions.json"
    argvs = [
        ["generate", "--config", str(config), "--preset", preset, "--seed", str(seed),
         "--out", str(out / "generate")],
        ["partition", "--scenario", str(scenario), "--out", str(out / "partition")],
    ]
    runs = []
    for strategy in STRATEGIES:
        runs.append(out / "place" / strategy)
        argvs.append(["place", "--scenario", str(scenario), "--partitions", str(partitions),
                      "--strategy", strategy, "--out", str(runs[-1])])
    if simulate:
        for strategy in STRATEGIES:
            for mode in MODES:
                runs.append(out / "simulate" / f"{strategy}-{mode}")
                argvs.append(["simulate", "--scenario", str(scenario),
                              "--plans", str(out / "place" / strategy / "plans.json"),
                              "--mode", mode, "--failure-period-s", "2.0", "--seed", str(seed),
                              "--out", str(runs[-1])])
        argvs.append(["report", "--runs", *map(str, runs), "--out", str(out / "report")])
    for argv in argvs:
        assert cli.main(argv) == 0, argv
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.name not in ("config.json", "manifest.json")
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifacts_match_golden(case, tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    assert run_chain(tmp_path, *CASES[case]) == GOLDEN[case]


def json_artifacts(out: Path) -> dict[str, str]:
    """Every JSON file the chain under ``out`` wrote, manifests included, by relative path."""
    return {
        path.relative_to(out).as_posix(): path.read_text()
        for path in sorted(out.rglob("*.json"))
        if path.name != "config.json"
    }


def test_json_reindents_to_indented_hashes(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    run_chain(tmp_path, *CASES[INDENTED_CASE])
    texts = json_artifacts(tmp_path)
    reindented = {
        name: hashlib.sha256(
            (json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n").encode()
        ).hexdigest()
        for name, text in texts.items()
        if not name.endswith("manifest.json")
    }
    assert reindented == INDENTED


@pytest.mark.parametrize("case", sorted(CASES))
def test_json_artifacts_are_compact_and_key_sorted(case, tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    run_chain(tmp_path, *CASES[case])
    texts = json_artifacts(tmp_path)
    assert texts
    for name, text in texts.items():
        canonical = json.dumps(json.loads(text), separators=(",", ":"), sort_keys=True) + "\n"
        assert text == canonical, name


if __name__ == "__main__":
    os.environ["SOURCE_DATE_EPOCH"] = "0"
    hashes = {}
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            hashes[name] = run_chain(Path(tmp), *CASES[name])
    json.dump(hashes, sys.stdout, indent=4, sort_keys=True)
    print()
