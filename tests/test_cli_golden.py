"""The commands write bit-identical outputs: every file of the fixture's two
train runs, eval's stdout and confusion.csv, every file of inspect, and the
approx-bench table.

The digests were recorded with the code as it was before eval built only its
own command's parser, load_csv parsed the feature cells in one numpy cast and
eval counted its confusion matrix in one call: that code parsed each cell with
float() as its row was read and counted the matrix row by row. The models come
from seeded training runs, so the digests depend on the platform in the same
way as those of test_fit_golden.py. Any later change to these commands must
keep every byte, or re-record a digest and say why.

The train digests were recorded with the code as it was before batch norm's
forward returned a plain (x_hat, inv_std) pair in place of a cache object
with an inference arm; they agree under OPENBLAS_NUM_THREADS=1 and =2. The
snapshot header and log-trial*.csv digests were re-recorded when those files
lost what a reader can derive: each is the digest of the earlier bytes with the
class_count, out_dim and preprocess_dim keys, every d_in above layer 0, the
lr and val_acc columns taken out and each batch-norm entry written as true.

The wide train digests were recorded with the code as it was before a wide
layer's cos and sin halves, its two backward products and Adam's two halves
ran side by side: at --dim 512 with a full batch of 200 rows every f and dF
holds 102,400 values and each half of Adam's parameter vector 265,729, so those
runs take that path on a machine with two CPUs.

The inspect case reads all 124 training rows (--max-samples' default of 256
keeps them all). Its kernel and kPCA digests were re-recorded when it stopped
sampling 64 of them; they agree under OPENBLAS_NUM_THREADS=1 and =2, because
every command pins OpenBLAS to one thread.
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
    "inspect-on-train": ["inspect", "{monks1}/model-trial0.bin", "--task", "monks1", "--registry", REGISTRY,
                         "--on", "train", "--kpca-dim", "3"],
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
        "kernel-layer0.csv": "3213502914a0821d79c9c2f9b4f05eddcad08e3108dc72ce8abb76951a6c2fd7",
        "kernel-layer1.csv": "e9f54392c8104a3976bb53878cfd7e07932684548f7e1437b5d7461ddd0af22a",
        "kpca-layer0.csv": "8efee515c3b42b799dba34bf35b0e80d988299cac30d09a5a26e1ac10e1c0ccf",
        "kpca-layer1.csv": "7296d57b45ed5f3492831c9a1c4585894ed27ff3b639a4691fcde5247a170a54",
    },
    "approx-bench": {
        "stdout": "dc7e0068ad45e81df649d7b905760e9c1728c7a3410cef9c5ddb371dd9ba9b1b",
    },
}


TRAIN_DIGESTS = {
    "monks1": {
        "config.txt": "21ccb28c81929eceba9af7956fa6ad056465b4c96ccc59d963e9305b6725175c",
        "log-trial0.csv": "1a1965070e2cf30908484f4109ccc8c750f538d1a5198dd07986409d8c15d7e1",
        "log-trial1.csv": "a91b4249c9a810e5ddd364c82f10b939be39300591100f63f589f8e438ee9063",
        "metrics.csv": "9d697fc15af11732689632bac49075d2f48156ce741f2dcd9d8c4dc401cd24a9",
        "model-trial0.bin:header": "f73250491940015cbd4236e2ebb4879c5ab677ed50cce16a945a739e404fbca2",
        "model-trial0.bin:payload": "c618daa4562f78334514277b470da13241db48bd11412ff6c561dc39820e8775",
        "model-trial1.bin:header": "f73250491940015cbd4236e2ebb4879c5ab677ed50cce16a945a739e404fbca2",
        "model-trial1.bin:payload": "5dc48d38d4d2391b1bdaa76acde8acb4899a68a3859e7b01898466cb8b939f99",
        "summary.csv": "a4b696dda796ecf30ab36c2c96764068b5009c215d2c142e272eb30d16b64e07",
    },
    "blobs": {
        "config.txt": "ee1c78b5e230f1118b4c9ba9295f2172500669b0edd15e182dfe98fd3f42a39e",
        "log-trial0.csv": "f020b8ddeee0bf7b3aa819f43c75ddc4ac3fb0fad5a58e86b08010493813fb03",
        "log-trial1.csv": "357d1c6e639b3d642c05d569a60d1393d12cac568438e8a257a40e709e6dec13",
        "metrics.csv": "3fce782e609ceacf9f857ba571f32ddd63efc35ee5bce2f8d76c0ca06a008db5",
        "model-trial0.bin:header": "66e62a23a3f60a2e41f3366250610d9b5c666d6680670b5583d9e90d341ed61a",
        "model-trial0.bin:payload": "f1d967a812c350b796159210eb9ff66a96d2b98f9de9be78f4c983f7c555cd08",
        "model-trial1.bin:header": "66e62a23a3f60a2e41f3366250610d9b5c666d6680670b5583d9e90d341ed61a",
        "model-trial1.bin:payload": "21cdd196a0b9111e5d9bdcb7f0e61ee64169d00abf198a79c8992637736f2dd1",
        "summary.csv": "b58cb3f5cc82af3d00ff5924afdcdf3a05ffdfa64f642705a301db94301991c8",
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


def train_digests(run_dir: str) -> dict:
    """{output name: sha256} for one train run directory.

    config.txt is hashed without its out and data.registry lines, which name
    paths of this checkout; a snapshot's header (magic and JSON lines) and its
    float payload are hashed apart, so a failure says which of them moved."""
    digests = {}
    for name in sorted(os.listdir(run_dir)):
        with open(os.path.join(run_dir, name), "rb") as fh:
            data = fh.read()
        if name == "config.txt":
            data = b"".join(line for line in data.splitlines(keepends=True)
                            if not line.startswith((b"out =", b"data.registry =")))
        if name.endswith(".bin"):
            magic, header, payload = data.split(b"\n", 2)
            digests[name + ":header"] = hashlib.sha256(magic + b"\n" + header + b"\n").hexdigest()
            digests[name + ":payload"] = hashlib.sha256(payload).hexdigest()
        else:
            digests[name] = hashlib.sha256(data).hexdigest()
    return digests


@pytest.mark.parametrize("task", ["monks1", "blobs"])
def test_train_outputs_golden(runs, task):
    assert train_digests(runs[1][task]) == TRAIN_DIGESTS[task]


WIDE_TRAIN_DIGESTS = {
    "batch-norm": {
        "log-trial0.csv": "3412992abd70bbb4c35223db5195f7eef2d27281f13a054f5b855faa7cbab1a3",
        "model-trial0.bin": "442dab825968d32fd8186bd8bc7f414055fc9b67749fb63f3f5bda62dd9ad26b",
    },
    "no-batch-norm": {
        "log-trial0.csv": "906c7c865ff90ae2b0f475c7475eb64a3f4bc619e326b2b71d462e69186bd964",
        "model-trial0.bin": "f8f6649f737b9231f2c6ea94ebeac7dc895ad55884c5e97c988b905ff3b2fc26",
    },
}


@pytest.mark.parametrize("case", list(WIDE_TRAIN_DIGESTS))
def test_wide_train_outputs_golden(tmp_path, case):
    flags = ["--no-batch-norm"] if case == "no-batch-norm" else []
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["train", "--task", "blobs", "--registry", REGISTRY, "--layers", "2", "--dim", "512",
                         "--batch-size", "full", "--epochs", "5", "--seed", "0", *flags, "--out", str(tmp_path)]) == 0
    digests = {}
    for name in WIDE_TRAIN_DIGESTS[case]:
        with open(tmp_path / name, "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    assert digests == WIDE_TRAIN_DIGESTS[case]
