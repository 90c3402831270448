"""The read-only commands write bit-identical outputs: eval's stdout and
confusion.csv, every file of inspect, and the approx-bench table.

The digests were recorded with the code as it was before eval built only its
own command's parser, load_csv parsed the feature cells in one numpy cast and
eval counted its confusion matrix in one call: that code parsed each cell with
float() as its row was read and counted the matrix row by row. The models come
from seeded training runs, so the digests depend on the platform in the same
way as those of test_fit_golden.py. Any later change to these commands must
keep every byte, or re-record a digest and say why.
"""

import contextlib
import hashlib
import io
import os

import pytest

from rffnet import cli

REGISTRY = os.path.join(os.path.dirname(__file__), "..", "data", "registry.txt")

# case -> argv; {monks1} and {blobs} are the run directories the fixture trains
CASES = {
    "eval-task": ["eval", "{monks1}/model-trial0.bin", "--task", "monks1", "--registry", REGISTRY],
    "eval-config": ["eval", "{monks1}/model-trial1.bin", "--config", "{monks1}/config.txt"],
    "eval-config-on-train": ["eval", "{monks1}/model-trial0.bin", "--config", "{monks1}/config.txt",
                             "--on", "train"],
    "eval-random-half-split-seed": ["eval", "{blobs}/model-trial1.bin", "--config", "{blobs}/config.txt",
                                    "--split-seed", "1"],
    "eval-random-half-on-train": ["eval", "{blobs}/model-trial0.bin", "--config", "{blobs}/config.txt",
                                  "--on", "train"],
    # 64 of the 124 rows: a kernel matrix of all of them has other last bits when OpenBLAS runs 2 threads
    "inspect-on-train": ["inspect", "{monks1}/model-trial0.bin", "--task", "monks1", "--registry", REGISTRY,
                         "--on", "train", "--kpca-dim", "3", "--max-samples", "64"],
    "approx-bench": ["approx-bench"],
}

DIGESTS = {
    "eval-task": {
        "stdout": "ecbe4a4cab08cc3d8fd707d912e9b2cb9c1c4f974e17cb02fdeaddefe02c2ee0",
        "confusion.csv": "08076bfd656a9bb422ae4093ff111dcf71f8032091cd07a3cc8ac3070338ef3f",
    },
    "eval-config": {
        "stdout": "d2502756fefd9fe88a296c84928b3ff3377977381dd81e9f8f55099a2100af72",
        "confusion.csv": "097ce77a8557bcf225f56d867801cf9dfb970751870457663a1aa700a5d89a53",
    },
    "eval-config-on-train": {
        "stdout": "5717e7c840171019a4eeab5b79a7f894a4986eaff93d04ec5b12c9a189f594bf",
        "confusion.csv": "6452244651968d5ab39ca71b3744a46821718b17ee405fe6c89234851b7b99d8",
    },
    "eval-random-half-split-seed": {
        "stdout": "06d3731bbb1308e11e223feaf5d4b2f0a7121fc805a86d54754833b6aafcc70c",
        "confusion.csv": "25e67c5ddf785fb3e5b56f6363391e91d71d42d6fd165a80e4dd468f378003a1",
    },
    "eval-random-half-on-train": {
        "stdout": "e337181b1e1a3c433214bd1f672101409897c2628a968df9098513d2e29a8681",
        "confusion.csv": "95131bd17b850bf46c37afbff7a49e0050a26c08ea63a71d9763310b5fc53f8d",
    },
    "inspect-on-train": {
        "stdout": "ea52e22d3276f87f25b836c3b647cf57f9de7fe9ba6e02d705a5f8a2a0117d72",
        "hist-layer0-dim0.csv": "ddb819bb7473ee9653bd3a4197459e3b1446cf7ea19c77d989479f2f9cd633f1",
        "hist-layer1-dim0.csv": "ae28fc666edd224b4c0113abce4d17604c7a5e22a9dde11bebb465f5ebee0f23",
        "kernel-layer0.csv": "a8feb4c28316e565f1bcaa1c8060fce8bf935cabfef306dd87758ceeebf38ae4",
        "kernel-layer1.csv": "9e1061a5f36814fbd52ceac26374a8e86edd325e7c1f15ee9101bd9d75e6f051",
        "kpca-layer0.csv": "ce62bde21ff423958a76d209dda71d57d388ee5c6674060429061a6647c0f292",
        "kpca-layer1.csv": "a391acc9a89c20996eb48800356889fe49368e043a3601cf30fe6ac4b48e9960",
    },
    "approx-bench": {
        "stdout": "dc7e0068ad45e81df649d7b905760e9c1728c7a3410cef9c5ddb371dd9ba9b1b",
    },
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Seeded runs: monks1 (a provided split) and blobs (a random half), two trials each."""
    root = tmp_path_factory.mktemp("golden")
    dirs = {"monks1": str(root / "monks1"), "blobs": str(root / "blobs")}
    for task, epochs in (("monks1", "25"), ("blobs", "5")):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["train", "--task", task, "--registry", REGISTRY, "--trials", "2", "--epochs", epochs,
                             "--out", dirs[task]]) == 0
    return root, dirs


def case_digests(case: str, root, dirs) -> dict:
    """{output name: sha256} for one case: its stdout and every file it writes."""
    out = os.path.join(root, case)
    argv = [arg.format(**dirs) for arg in CASES[case]]
    if case != "approx-bench":
        argv += ["--out", out]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(argv) == 0
    digests = {"stdout": hashlib.sha256(stdout.getvalue().replace(out, "OUT").encode()).hexdigest()}
    for name in sorted(os.listdir(out)) if os.path.isdir(out) else []:
        with open(os.path.join(out, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


@pytest.mark.parametrize("case", list(CASES))
def test_read_only_command_outputs_golden(runs, case):
    assert case_digests(case, *runs) == DIGESTS[case]
