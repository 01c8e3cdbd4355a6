"""Byte-identity of the CLI's data artifacts against pinned sha256 hashes.

Each case runs ``generate → partition → place ×3 strategies`` in-process
through ``fogpart.cli.main`` with ``SOURCE_DATE_EPOCH=0``. The D-SMALL case
also runs ``simulate`` for every strategy in both modes, then ``report``;
its faulty mode kills one device every 2 s, so about half the fog dies
within the 100 s horizon. The expected hashes were captured from the code
before placement routed once per gateway; a change that moves any of them
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
}

GOLDEN = {
    "D-SMALL-seed0-h100": {
        "generate/scenario.json":
            "9ee534822a0ce1dc51478834cff1fdf933631b15585fb05c29f78b814767af8e",
        "partition/modularity.csv":
            "a94a90570d4d5fb2e3318c7ffe5167c1b4ed62cbd32272627eb7f7a12fef6a1d",
        "partition/partitions.json":
            "bc76162166561cf9ad43ee12f0935199c7e4816c33659eabd5e55618d2bd0f31",
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
    "SMALL-seed0": {
        "generate/scenario.json":
            "a43fedd532aaec4a130d6dc79d5bda9f95281e29412a36604cce9bccf96fe90b",
        "partition/modularity.csv":
            "a94a90570d4d5fb2e3318c7ffe5167c1b4ed62cbd32272627eb7f7a12fef6a1d",
        "partition/partitions.json":
            "bc76162166561cf9ad43ee12f0935199c7e4816c33659eabd5e55618d2bd0f31",
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
            "902b76e0a5861d97ef68ba625fba06e64e9283a1501b9c7023ff99f2b6bda6d2",
        "partition/modularity.csv":
            "b9f970f97d398f9423737f3cf815cb8c84ac2733f20ebfa63193727370376c87",
        "partition/partitions.json":
            "afc17911e4aac669c4898eca2be3cf573944dfbadc9503cd1e64c7f952d83960",
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
