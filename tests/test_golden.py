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
memberships, plans and outcomes did not. A change that moves any of them
changes program output.
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
            "74215a5318531bfd53b9eec8635b194020cde22419fcdc0a17b2f840a7cb1202",
        "partition/modularity.csv":
            "4bd461a1c1dc9adefa2763a83b7c8d7070c13f6f16c7c39acdb0db5d3cfb46ec",
        "partition/partitions.json":
            "4f01630d8fe8f960a5d9b4b6517619157449064f105a83fda270e2dcd0b88dc2",
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
        "report/comparison.csv":
            "2ac1bfa31068d69b7bdb6d44cbb97eb3bbd4e37a44590a5b8b275ff980ae1871",
        "report/report.json":
            "e66bb6fca14820aedd75782cb4664d8323528972e77211d69f2464dee3267298",
        "simulate/connectivity_greedy-faulty/metrics.json":
            "9c3a5e5ca724878cd6708aa4f0dea19284b622a45fdef956ca94674f15119a6b",
        "simulate/connectivity_greedy-faulty/outcomes.csv":
            "6736bd9932cd51862cca49d744e39af9ed21d9c26cfe14d69c6cae33f1903be3",
        "simulate/connectivity_greedy-reliable/metrics.json":
            "9f0d48eb91b10ef746e1cb3f6e761c305cf667db23c51a266bdabc8026714282",
        "simulate/connectivity_greedy-reliable/outcomes.csv":
            "a2d3a2f6e7723513a8b2968b56542e08437d8c70eaacca4d23f5dc2afc0e4a2f",
        "simulate/first_fit-faulty/metrics.json":
            "edbe76107b04b76a08f6b6fbacdf9c3a4de7f1d210bc2823ca2f6c7a0125b91c",
        "simulate/first_fit-faulty/outcomes.csv":
            "757a241e523b1e8bc7a16487bf7e2a25d815ce17a6abb06b199c39bdd0d8f918",
        "simulate/first_fit-reliable/metrics.json":
            "a59ccc418252e92248b1f41cb453ce4961dc18ca5fcc0c251f0979cc4ee8ec26",
        "simulate/first_fit-reliable/outcomes.csv":
            "a2d3a2f6e7723513a8b2968b56542e08437d8c70eaacca4d23f5dc2afc0e4a2f",
        "simulate/multilayer-faulty/metrics.json":
            "aa05babeec06679a32e8bb12b0697dc2608a00caab93408ffb8255181b1c959d",
        "simulate/multilayer-faulty/outcomes.csv":
            "36ab09a65d5adbb19a1f633e544fec9d3b5968e203a5f1678e2cb927d436b1e8",
        "simulate/multilayer-reliable/metrics.json":
            "94af249e6c3b0c8e73681b682108084118c497537dd4ac4a1550871e70efbb03",
        "simulate/multilayer-reliable/outcomes.csv":
            "a2d3a2f6e7723513a8b2968b56542e08437d8c70eaacca4d23f5dc2afc0e4a2f",
    },
    "D-SMALL-seed0-h100-d5000": {
        "generate/scenario.json":
            "90034d07d53fac7c3a5c85b44157ffe9e9b8e53d5d326010a177b81013c7da75",
        "partition/modularity.csv":
            "4bd461a1c1dc9adefa2763a83b7c8d7070c13f6f16c7c39acdb0db5d3cfb46ec",
        "partition/partitions.json":
            "f876c314e662a4071af86185d5e289772bd4af0b7de51082a3b996ef9ef5e688",
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
        "report/comparison.csv":
            "e927d232c407c304b92d5d56d8bdad209a154dab31eacdabaf9cfcdc7aba68c5",
        "report/report.json":
            "2471eab7792add6eef5ee3aa9ef4de5f87ed97ee422f2a58749f8f006497fd57",
        "simulate/connectivity_greedy-faulty/metrics.json":
            "bb9730d7010503c5230f087ff91e5dc86b652d4531f3a0aebe891d4912496e5c",
        "simulate/connectivity_greedy-faulty/outcomes.csv":
            "c0ac68eeb8152573226291b03632b6f7c08faaae6a8924c464706c41877c4fff",
        "simulate/connectivity_greedy-reliable/metrics.json":
            "4b9e53e8c1368832238b2d3d7131037492401caa43ca12dba9151031e6099a7d",
        "simulate/connectivity_greedy-reliable/outcomes.csv":
            "6239dcf510a222458694a9e078a63b4e2efa4a2425303d2529849381b025c271",
        "simulate/first_fit-faulty/metrics.json":
            "dd4f7bc9a0bf99cfd99349bc03e6388c97865e6cc6f32d9743a67a74ea67989b",
        "simulate/first_fit-faulty/outcomes.csv":
            "df1c76c8c3ac4bda5b9148eb5b54c10c84b234889600a02f49510fb4e118c5fd",
        "simulate/first_fit-reliable/metrics.json":
            "c22930fda0bd401742023f239f7e30fc34787c15ddf469cc7542d5f62d62dc25",
        "simulate/first_fit-reliable/outcomes.csv":
            "999b9e7634dcebf502e93210d92ad272af3f69af1f84ffa230c2bfd0d7d88b3b",
        "simulate/multilayer-faulty/metrics.json":
            "460376d2c41de4efe669c60976c7a780027d5e89aaa0d07e92a3f4c0b975d31c",
        "simulate/multilayer-faulty/outcomes.csv":
            "c23ee2b71ae8b0c39b5f86a17226cc97b29f11cb6186dc2393317b896d0433d8",
        "simulate/multilayer-reliable/metrics.json":
            "4d22a733ef012504a3c3c448a2c5eafb98a4a4ada0c07f7c91b88a66d44ba0f9",
        "simulate/multilayer-reliable/outcomes.csv":
            "999b9e7634dcebf502e93210d92ad272af3f69af1f84ffa230c2bfd0d7d88b3b",
    },
    "LARGE-n200-seed0": {
        "generate/scenario.json":
            "e62faa057af6db783faf64ee18af73b07abbcce2efb5ccff8622c7cfb7ab4d81",
        "partition/modularity.csv":
            "cc20e987d7b26518dd4c5378f9df2919a7466c86a80d5c675d2ff67fd58c9d2d",
        "partition/partitions.json":
            "0e983983c49c966dabff2f1e28e226a25d303faa73c5cfe15c87c8ab74fc82a5",
        "place/connectivity_greedy/metrics.json":
            "c656dcecb6e52bbd23ec8c581b0c6ee1050d97d45b89a59ed178ad0eb6a513ed",
        "place/connectivity_greedy/plans.json":
            "663535eedd1f3161e339eb3928fd879c62297c8444a4592e9c7e521d16f0c65e",
        "place/first_fit/metrics.json":
            "c47c1629e3d9f4915dc0c4222fe1343e5e1d18bdd0bf515ff3aea8cf5d825fa6",
        "place/first_fit/plans.json":
            "2efc643e64beceae0d219d964bfab0608d07061f191bc79ee2acb76f3187a944",
        "place/multilayer/metrics.json":
            "de605c84e3b1899f19a0c2f5a4815be6280170d40b538dbc5a42338ed1212f07",
        "place/multilayer/plans.json":
            "c95f2a14260dc453aac8e48f46d8ac17aa63a4ff3e01d3f8e09131e971807a68",
    },
    "SMALL-seed0": {
        "generate/scenario.json":
            "d7319dae47f5e0df15afce0453a374803ea0ed2b5366c3f3dd35aea9d21aeb8e",
        "partition/modularity.csv":
            "4bd461a1c1dc9adefa2763a83b7c8d7070c13f6f16c7c39acdb0db5d3cfb46ec",
        "partition/partitions.json":
            "09d1e0e28d7d9cbbb31ad303dbc7c09ef813c05d6f3b767db29bd9d9b6643197",
        "place/connectivity_greedy/metrics.json":
            "deff9ac8639d10562dadc330b899152208ac0fff401f7e0d5824b99834ed8668",
        "place/connectivity_greedy/plans.json":
            "0bb574c3b771441cb3cafc9b81c24670ba8181fd772e6c10ca20a3302c741ca8",
        "place/first_fit/metrics.json":
            "87425c5ab45d18e9a12978501806c86b4acf73658442dc7afc5fd5d1cac6cb8f",
        "place/first_fit/plans.json":
            "477eb8c95f674124e625a0eb8e1a77b5e0cca3016b6a02f763733bfefd699323",
        "place/multilayer/metrics.json":
            "e9ac8137e433cde8d32bdd043494b117ac0e6651bfa9fbbc75f9a48df4b92900",
        "place/multilayer/plans.json":
            "4ee95cddf797115d6a3cd5c7346ff265ab300e02f24afff11b07da9a3ecf6a18",
    },
    "SMALL-seed1": {
        "generate/scenario.json":
            "d2fef2f90dc9cfbd54cf908440aaf20fb7818d78fbd4d4a2690e75362f8a6a0c",
        "partition/modularity.csv":
            "3c50917e4a9c5de376b92d8f765fb13d146af5c63baade260dae57f62c44bd2c",
        "partition/partitions.json":
            "969c7c1538efefcc41541fcd5d40c1761f874a2560e360a08da15b84b050feb0",
        "place/connectivity_greedy/metrics.json":
            "8cbce99c48bdd191da885d9839feff283fd78a4a2aad896807d94690e0821b07",
        "place/connectivity_greedy/plans.json":
            "42d36f05fa44e3e4f0602eaf40435aa4374a6c78cdf7ad9ece50a2d15854b70c",
        "place/first_fit/metrics.json":
            "bdbff451af7715596b046d49dc03e8f43d16ed0f6da71445482bc3329cfddece",
        "place/first_fit/plans.json":
            "881fb70b753dac420fe8f38d2ac49e85669d2ef9399ce804d470bd5705e59239",
        "place/multilayer/metrics.json":
            "0210edb66ec763945a2cf83e1556f0719fda670deda3bd89784e111712abc14f",
        "place/multilayer/plans.json":
            "f811e60a2b78bf39244ff47faee419e0be5b9820ce7873ef5767c3155e05ccc7",
    },
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


if __name__ == "__main__":
    os.environ["SOURCE_DATE_EPOCH"] = "0"
    hashes = {}
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            hashes[name] = run_chain(Path(tmp), *CASES[name])
    json.dump(hashes, sys.stdout, indent=4, sort_keys=True)
    print()
